"""Reader/writer for the PHT v1 text tensor format.

Line 1: ``PHT 1 <l> <m> <n> <real|complex>``, with l, m and n in ASCII
decimal digits; then l*m*n data lines in (i, k, t) lexicographic order,
each holding ``re`` or ``re im`` with 17 significant digits (lossless for
float64).

read_pht and write_pht take a path (hypermatrix._PATH), not a file
descriptor.  The reader accepts whitespace-separated values (spaces or tabs,
``\\n`` or ``\\r\\n`` line ends), skips blank lines, and requires exactly 1
value per non-blank line for a real tensor and 2 for a complex one, l*m*n
lines in all.  A value is a decimal float, ``inf``/``infinity`` or ``nan`` with
an optional sign, in any case.  Anything else raises ``PhtFormatError``: a
comment, a comma, a hexadecimal float, a Python-only spelling such as ``1_0``
(the writer never produces one), a missing or extra value, a non-ASCII byte.

The writer formats WRITE_CHUNK values at a time in numpy, and its bytes
are those of CPython's ``'%.17g' % x`` for every value, with ``\\n`` line
ends on every platform.  For each zero, and each finite |x| in [1e-200,
1e200], it computes the 17 significant digits exactly: the integer nearest
|x| * 10**(16 - e) from Dekker's exact two-product of |x| and a
double-double 10**(16 - e).  It lays out ``%g``'s fixed or exponent form in
a byte matrix padded with NUL bytes, which one ``bytes.translate`` deletes.
It leaves to ``'%.17g'`` itself the values it cannot prove exact: NaN, inf,
subnormals, values outside that range, and values within 1e-6 of a
rounding tie.  The reader parses the body with numpy's C text parser
(``np.loadtxt``).
"""

from __future__ import annotations

import fractions
import functools
import os

import numpy as np

from .hypermatrix import _PATH, COMPLEX, REAL, HyperMatrix, _require

# Values formatted per step of the writer; bounds its per-chunk buffers.
WRITE_CHUNK = 8192

# The writer's exact range of |x|.  Inside it the Veltkamp splits neither
# overflow nor lose bits to subnormals, and every decimal exponent e, with a
# step to each side, is in the tables (_E_MIN.._E_MAX).
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_E_MIN, _E_MAX = -202, 202
# |x| * 10**(16 - e) is computed to within 1e-14; a value whose fraction is
# closer than this to 1/2 is formatted by '%' (1e15 + 0.25 is a true tie).
_TIE_MARGIN = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1 splits a float64 into two 26-bit halves
_D16, _D17 = 10**16, 10**17
# A value's row in the byte matrix: six little-endian 8-byte words.
#   words 0-2: sign, "0." and the zeros of a fixed form below 1, NUL, the 17
#              digits with those after the point (in a fixed form below 1,
#              the trailing zeros) blanked;
#   words 3-5: the point, digits 2-17 with all but those after the point
#              and before the trailing zeros blanked, "e+XX" or "e-XXX",
#              NUL, the line end.
_ROW = 6


class PhtFormatError(ValueError):
    """Raised when a PHT file is malformed."""


def write_pht(A, path):
    """Write a HyperMatrix to PHT v1 text."""
    _require(HyperMatrix, A=A)
    _require(_PATH, path=path)
    l, m, n = A.data.shape
    values, ends = A.data.reshape(-1), b"\n"
    if A.field != REAL:
        values, ends = values.view(np.float64), b" \n"
    step = WRITE_CHUNK * len(ends)
    ends = np.frombuffer(ends * WRITE_CHUNK, np.uint8)
    # One buffer for every full chunk: a fresh one each time costs page faults.
    buffer = bytearray()
    with open(path, "wb") as fh:
        fh.write(f"PHT 1 {l} {m} {n} {A.field}\n".encode("ascii"))
        for start in range(0, values.size, step):
            chunk = values[start:start + step]
            if len(buffer) != 8 * _ROW * chunk.size:
                buffer = bytearray(8 * _ROW * chunk.size)
            _format(chunk, ends[:chunk.size], np.frombuffer(buffer, "<u8").reshape(-1, _ROW))
            fh.write(buffer.translate(None, b"\0"))


def _format(x, ends, rows):
    """Lay out ``'%.17g' % v`` and its line end for each float64 v of x in
    rows, one (6,) row of little-endian uint64 words per value: the text is
    the row's bytes without its NUL bytes.

    It writes every byte of rows, so a buffer can be reused.  Temporaries
    stay one-dimensional, 8 bytes per value, below the size at which malloc
    maps fresh pages.
    """
    hi, lo, groups, lead, expo, keep1, keep2, below_one, frac1, frac2, frac3 = _tables()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    defer = ~fast & (a != 0)
    # A zero is N = 0 at e = 0 and prints "0"; deferred rows are overwritten.
    N = np.zeros(x.size, np.int64)
    e = np.zeros(x.size, np.int64)
    N[fast], e[fast], defer[fast] = _decimal(a[fast], hi, lo)
    e -= _E_MIN
    # N's digits in groups of 1, 4, 4, 4 and 4; a group's word is its ASCII
    # digits, or with 10000 added to its index, those digits with trailing
    # zeros blanked, used when every later group is zero.
    q = N // 10**8
    r = N - q * 10**8
    head = q // 10**4
    g0 = head // 10**4
    g1, g2, g3 = head - g0 * 10**4, q - head * 10**4, r // 10**4
    g4 = r - g3 * 10**4
    last3 = g4 == 0
    last2 = last3 & (g3 == 0)
    last1 = last2 & (g2 == 0)
    full1 = groups.take(g1) | groups.take(g2) << 32
    full2 = groups.take(g3) | groups.take(g4) << 32
    trim1 = groups.take(g1 + 10000 * last1) | groups.take(g2 + 10000 * last2) << 32
    trim2 = groups.take(g3 + 10000 * last3) | groups.take(g4 + 10000) << 32
    sign = np.signbit(x) * np.uint64(ord("-"))
    rows[:, 0] = lead.take(e) | sign | (g0.astype(np.uint64) + ord("0")) << 56
    # Fixed forms below 1 print the trimmed digits after their "0.000".
    rows[:, 1] = full1 & keep1.take(e) | trim1 & below_one.take(e)
    rows[:, 2] = full2 & keep2.take(e) | trim2 & below_one.take(e)
    after1 = trim1 << 8 & frac1.take(e)
    after2 = (trim1 >> 56 | trim2 << 8) & frac2.take(e)
    after3 = trim2 >> 56 & frac3.take(e)
    rows[:, 3] = after1 | ((after1 | after2 | after3) != 0) * np.uint64(ord("."))
    rows[:, 4] = after2
    rows[:, 5] = after3 | expo.take(e) | ends.astype(np.uint64) << 56
    text = rows.view(np.uint8)
    for i in np.flatnonzero(defer):
        value = np.frombuffer(("%.17g" % x[i]).encode("ascii"), np.uint8)
        text[i, :-1] = 0
        text[i, :value.size] = value


def _decimal(a, hi, lo):
    """(N, e, tie) for positive a in the exact range: ``'%.17g' % a`` has
    the digits of the integer N in [10**16, 10**17) and the decimal exponent
    e, unless tie says a * 10**(16 - e) is within _TIE_MARGIN of a
    half-integer."""
    e = np.floor(np.log10(a)).astype(np.int64)
    N, tie = _round17(a, e, hi, lo)
    # np.log10 may be off by one near a power of ten: step e until N has 17 digits.
    off = np.flatnonzero((N < _D16) | (N > _D17))
    while off.size:
        e[off] += np.where(N[off] > _D17, 1, -1)
        N[off], tie[off] = _round17(a[off], e[off], hi, lo)
        off = off[(N[off] < _D16) | (N[off] > _D17)]
    # N = 10**16 may be a value below it rounded up across the decade: keep it
    # only if one exponent down rounds up to 10**17 too (double(1e-185)).
    low = np.flatnonzero(N == _D16)
    if low.size:
        N_low, tie_low = _round17(a[low], e[low] - 1, hi, lo)
        tie[low] |= tie_low
        below = N_low < _D17
        N[low[below]] = N_low[below]
        e[low[below]] -= 1
    top = N == _D17
    N[top] = _D16
    e += top
    return N, e, tie


def _round17(a, e, hi, lo):
    """The integer nearest a * 10**(16 - e), and whether that product is
    within _TIE_MARGIN of a half-integer.

    Dekker's two-product gives a * hi exactly as p + err; p is at least 2**53
    when e is right, so an integer.  Each step is its own ufunc call, so no
    build can fuse a multiply and an add.
    """
    i = e - _E_MIN
    hi, lo = hi.take(i), lo.take(i)
    p = a * hi
    a_big, a_small = _split(a)
    hi_big, hi_small = _split(hi)
    err = a_big * hi_big
    err -= p
    err += a_big * hi_small
    err += a_small * hi_big
    err += a_small * hi_small
    err += a * lo
    err += 0.5
    up = np.floor(err)
    err -= up
    tie = (err < _TIE_MARGIN) | (err > 1 - _TIE_MARGIN)
    return p.astype(np.int64) + up.astype(np.int64), tie


def _split(x):
    """Veltkamp's split of x into two halves of at most 26 significant bits."""
    c = x * _SPLITTER
    big = c - (c - x)
    return big, x - big


def _word(text, byte=0):
    """text as a little-endian word, starting at the given byte."""
    return int.from_bytes(text, "little") << 8 * byte


def _mask(nbytes):
    """A word whose first nbytes bytes, clipped to 0..8, are 0xFF."""
    return _word(b"\xff" * min(max(nbytes, 0), 8))


@functools.cache
def _tables():
    """The writer's read-only lookup tables, built on first use.

    10**(16 - e) as hi + lo, exact to about 2**-106, for e in _E_MIN.._E_MAX;
    the 4-digit group words, then the same with trailing zeros blanked; and
    per exponent the row layout's words and masks (see _ROW).  Digits before
    the point are the first `cut`: e + 1 in a fixed form at or above 1, one
    in an exponent form, and all of them in a fixed form below 1.
    """
    exponents = range(_E_MIN, _E_MAX + 1)
    powers = [fractions.Fraction(10) ** (16 - e) for e in exponents]
    hi = [float(p) for p in powers]
    lo = [float(p - fractions.Fraction(h)) for p, h in zip(powers, hi)]
    groups = [b"%04d" % g for g in range(10000)]
    groups += [g.rstrip(b"0").ljust(4, b"\0") for g in groups]
    layout = []
    for e in exponents:
        fixed = -4 <= e <= 16
        below_one = fixed and e < 0
        cut = 17 if below_one else e + 1 if fixed else 1
        layout.append((
            _word(b"0." + b"0" * (-e - 1), 1) if below_one else 0,
            0 if fixed else _word(b"e%+03d" % e, 1),
            0 if below_one else _mask(cut - 1),
            0 if below_one else _mask(cut - 9),
            _mask(8) if below_one else 0,
            _mask(8) & ~_mask(cut),
            _mask(8) & ~_mask(cut - 8),
            0xFF if cut <= 16 else 0,
        ))
    tables = (
        np.array(hi),
        np.array(lo),
        np.frombuffer(b"".join(groups), "<u4").astype(np.uint64),
        *np.array(layout, np.uint64).T.copy(),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def read_pht(path):
    """Read a PHT v1 file into a HyperMatrix."""
    _require(_PATH, path=path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            first = fh.readline()
            header = first.split()
            if len(header) != 6 or header[0] != "PHT" or header[1] != "1":
                raise PhtFormatError(f"bad PHT header in {path}")
            if not all(d.isascii() and d.isdigit() for d in header[2:5]):
                raise PhtFormatError(f"bad PHT dimensions in {path}")
            l, m, n = map(int, header[2:5])
            field = header[5]
            if field not in (REAL, COMPLEX) or min(l, m, n) < 1:
                raise PhtFormatError(f"bad PHT header in {path}")
            count = l * m * n
            width = 1 if field == REAL else 2
            # k values need k digits and k - 1 separators; a forged header must not size values.
            if 2 * count * width - 1 > os.fstat(fh.fileno()).st_size - len(first):
                raise PhtFormatError(
                    f"PHT header in {path} declares more values than the file holds"
                )
            rows = _read_rows(fh, path, width)
    except UnicodeDecodeError as exc:
        raise PhtFormatError(f"non-ASCII byte in {path}") from exc
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
