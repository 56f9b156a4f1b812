"""Reader/writer for the PHT v1 text tensor format.

Line 1: ``PHT 1 <l> <m> <n> <real|complex>``; then l*m*n data lines in
(i, k, t) lexicographic order, each holding ``re`` or ``re im`` with 17
significant digits (lossless for float64).
"""

from __future__ import annotations

import os

import numpy as np

from .hyperalgebra import COMPLEX, REAL
from .hypermatrix import HyperMatrix


class PhtFormatError(ValueError):
    """Raised when a PHT file is malformed."""


def write_pht(A, path):
    """Write a HyperMatrix to PHT v1 text."""
    l, m, n = A.data.shape
    lines = [f"PHT 1 {l} {m} {n} {A.field}"]
    if A.field == REAL:
        for v in A.data.reshape(-1):
            lines.append(f"{v:.17g}")
    else:
        for v in A.data.reshape(-1):
            lines.append(f"{v.real:.17g} {v.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_pht(path):
    """Read a PHT v1 file into a HyperMatrix."""
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        header = first.split()
        if len(header) != 6 or header[0] != "PHT" or header[1] != "1":
            raise PhtFormatError(f"bad PHT header in {path}")
        try:
            l, m, n = int(header[2]), int(header[3]), int(header[4])
        except ValueError as exc:
            raise PhtFormatError(f"bad PHT dimensions in {path}") from exc
        field = header[5]
        if field not in (REAL, COMPLEX) or min(l, m, n) < 1:
            raise PhtFormatError(f"bad PHT header in {path}")
        count = l * m * n
        width = 1 if field == REAL else 2
        # k values need k digits and k - 1 separators; a forged header must not size values.
        if 2 * count * width - 1 > os.fstat(fh.fileno()).st_size - len(first):
            raise PhtFormatError(f"PHT header in {path} declares more values than the file holds")
        values = np.empty(count * width, dtype=np.float64)
        pos = 0
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != width or pos >= count * width:
                raise PhtFormatError(f"bad PHT data line in {path}: {line.strip()!r}")
            try:
                for p in parts:
                    values[pos] = float(p)
                    pos += 1
            except ValueError as exc:
                raise PhtFormatError(f"bad PHT data line in {path}: {line.strip()!r}") from exc
        if pos != count * width:
            raise PhtFormatError(
                f"wrong number of PHT data values in {path}: got {pos}, want {count * width}"
            )
    if field == REAL:
        data = values.reshape(l, m, n)
    else:
        data = values.view(np.complex128).reshape(l, m, n)
    return HyperMatrix(data, field)
