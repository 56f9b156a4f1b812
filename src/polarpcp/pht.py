"""Reader/writer for the PHT v1 text tensor format.

Line 1: ``PHT 1 <l> <m> <n> <real|complex>``; then l*m*n data lines in
(i, k, t) lexicographic order, each holding ``re`` or ``re im`` with 17
significant digits (lossless for float64).

The reader accepts whitespace-separated values (spaces or tabs, ``\\n`` or
``\\r\\n`` line ends), skips blank lines, and requires exactly 1 value per
non-blank line for a real tensor and 2 for a complex one, l*m*n lines in
all.  A value is a decimal float, ``inf``/``infinity`` or ``nan`` with an
optional sign, in any case.  Anything else raises ``PhtFormatError``: a
comment, a comma, a hexadecimal float, a Python-only spelling such as
``1_0`` (the writer never produces one), a missing or extra value.

Neither side loops over values in Python: the writer formats WRITE_CHUNK
lines with one ``%`` operation, and the reader parses the body with numpy's
C text parser (``np.loadtxt``).
"""

from __future__ import annotations

import os

import numpy as np

from .hyperalgebra import COMPLEX, REAL
from .hypermatrix import HyperMatrix

# Data lines formatted per write; bounds the writer's temporary tuple and string.
WRITE_CHUNK = 8192


class PhtFormatError(ValueError):
    """Raised when a PHT file is malformed."""


def write_pht(A, path):
    """Write a HyperMatrix to PHT v1 text."""
    l, m, n = A.data.shape
    values, width, line = A.data.reshape(-1), 1, "%.17g\n"
    if A.field != REAL:
        values, width, line = values.view(np.float64), 2, "%.17g %.17g\n"
    step = WRITE_CHUNK * width
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"PHT 1 {l} {m} {n} {A.field}\n")
        for start in range(0, values.size, step):
            chunk = values[start:start + step].tolist()
            fh.write((line * (len(chunk) // width)) % tuple(chunk))


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
        rows = _read_rows(fh, path, width)
    if rows.shape[1] != width:
        raise PhtFormatError(
            f"bad PHT data lines in {path}: {rows.shape[1]} values per line, want {width}"
        )
    if rows.shape[0] != count:
        raise PhtFormatError(
            f"wrong number of PHT data values in {path}: got {rows.size}, want {count * width}"
        )
    values = np.ascontiguousarray(rows).reshape(-1)
    if field == REAL:
        data = values.reshape(l, m, n)
    else:
        data = values.view(np.complex128).reshape(l, m, n)
    return HyperMatrix(data, field)


def _read_rows(fh, path, width):
    """The data lines after the header as a (lines, values per line) array;
    (0, width) if there are none.

    np.loadtxt warns on input without data, so the leading blank lines are
    skipped here and an all-blank body never reaches it.  It also warns on a
    blank line when given max_rows, so it parses the whole rest of the file:
    at most 8 bytes per value of at least 2 bytes of text.
    """
    start = fh.tell()
    line = fh.readline()
    while line and not line.strip():
        start = fh.tell()
        line = fh.readline()
    if not line:
        return np.empty((0, width))
    fh.seek(start)
    try:
        return np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise PhtFormatError(f"bad PHT data in {path}: {exc}") from exc
