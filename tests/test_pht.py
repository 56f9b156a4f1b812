import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polarpcp import COMPLEX, REAL, HyperMatrix, PhtFormatError, read_pht, write_pht
from polarpcp.pht import WRITE_CHUNK

from helpers import random_hypermatrix, read_pht_per_value, write_pht_per_value


def _same_values(a, b):
    """Bit-for-bit equality of two float64/complex128 arrays, any NaN equal to any NaN."""
    a = np.ascontiguousarray(a).view(np.float64)
    b = np.ascontiguousarray(b).view(np.float64)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    for field in (REAL, COMPLEX):
        A = random_hypermatrix(rng, 3, 4, 5, field)
        path = tmp_path / f"{field}.pht"
        write_pht(A, path)
        B = read_pht(path)
        assert B.field == field
        assert np.array_equal(B.data, A.data)  # 17 significant digits are lossless


def test_header_contents(tmp_path):
    rng = np.random.default_rng(1)
    A = random_hypermatrix(rng, 2, 3, 4, REAL)
    path = tmp_path / "a.pht"
    write_pht(A, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "PHT 1 2 3 4 real"
    assert len(lines) == 1 + 2 * 3 * 4


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    A = random_hypermatrix(rng, 2, 2, 3, COMPLEX)
    p1, p2 = tmp_path / "a.pht", tmp_path / "b.pht"
    write_pht(A, p1)
    write_pht(A, p2)
    assert p1.read_bytes() == p2.read_bytes()


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, np.nan, np.inf, -np.inf]


@st.composite
def _hypermatrices(draw):
    field = draw(st.sampled_from([REAL, COMPLEX]))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    elements = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))
    values = draw(hnp.arrays(np.float64, shape + ((1,) if field == REAL else (2,)), elements=elements))
    data = values[..., 0] if field == REAL else values.view(np.complex128)[..., 0]
    return HyperMatrix(data, field)


def _check_against_per_value_codec(A, directory):
    """write_pht bytes, read_pht values and the round trip against the per-value codec."""
    fast, slow = directory / "fast.pht", directory / "slow.pht"
    write_pht(A, fast)
    write_pht_per_value(A, slow)
    assert fast.read_bytes() == slow.read_bytes()
    B, C = read_pht(slow), read_pht_per_value(slow)
    assert B.field == C.field == A.field
    assert _same_values(B.data, C.data)
    assert _same_values(read_pht(fast).data, A.data)


@settings(max_examples=200, deadline=None)
@given(A=_hypermatrices())
def test_codec_matches_per_value_codec(tmp_path_factory, A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_against_per_value_codec(A, tmp_path_factory.mktemp("pht"))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("count", [WRITE_CHUNK - 1, WRITE_CHUNK + 1])
def test_codec_across_write_chunks(tmp_path, field, count):
    A = random_hypermatrix(np.random.default_rng(count), 1, count, 1, field)
    _check_against_per_value_codec(A, tmp_path)


@pytest.mark.parametrize(
    "text",
    [
        "nope\n",
        "PHT 2 1 1 1 real\n0\n",
        "PHT 1 1 1 1 quaternion\n0\n",
        "PHT 1 1 1 2 real\n0\n",              # too few values
        "PHT 1 1 1 1 real\n0\n1\n",           # too many values
        "PHT 1 1 1 1 complex\n0\n",           # complex needs two columns
        "PHT 1 1 1 1 real\nx\n",
        "PHT 1 100000 100000 100 real\n0\n",  # more values than the file can hold
        "PHT 1 1 1 1 real\n\n\n",             # blank lines only
        "PHT 1 1 1 1 complex\n1 2 3\n",       # complex takes exactly two columns
        "PHT 1 1 1 1 real\n1 # x\n",          # no comments
        "PHT 1 1 1 1 real\n1,2\n",
        "PHT 1 1 1 1 real\n0x10\n",
    ],
)
def test_malformed_files(tmp_path, text):
    path = tmp_path / "bad.pht"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhtFormatError):
            read_pht(path)
        with pytest.raises(PhtFormatError):
            read_pht_per_value(path)


@pytest.mark.parametrize("dim", ["1_0", "+1", "0x1"])
def test_python_only_header_integer_is_rejected(tmp_path, dim):
    # int() takes these; the header's dimensions are ASCII decimal digits.
    path = tmp_path / "dims.pht"
    path.write_text(f"PHT 1 1 {dim} 1 real\n" + "0\n" * 10)
    with pytest.raises(PhtFormatError, match="bad PHT dimensions"):
        read_pht(path)


def test_python_only_float_spelling_is_rejected(tmp_path):
    # float() takes digit separators; the writer never produces them and the reader refuses them.
    path = tmp_path / "sep.pht"
    path.write_text("PHT 1 1 1 1 real\n1_0\n")
    assert read_pht_per_value(path).data.item() == 10.0
    with pytest.raises(PhtFormatError):
        read_pht(path)


def test_accepts_blank_lines_tabs_crlf_and_special_values(tmp_path):
    path = tmp_path / "loose.pht"
    path.write_bytes(b"PHT 1 1 2 2 complex\r\n\n1\t2\r\n\r\n \t\n3 4\r\nnan +Infinity\n-inf\t-0\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = read_pht(path)
    expected = np.array([[[1 + 2j, 3 + 4j], [complex(np.nan, np.inf), complex(-np.inf, -0.0)]]])
    assert A.field == COMPLEX
    assert _same_values(A.data, expected)
    assert _same_values(A.data, read_pht_per_value(path).data)


@pytest.mark.parametrize(
    "data",
    [b"PHT 1 1 1 1 r\xe9al\n1\n", b"PHT 1 1 1 1 real\n1\xe9\n"],
    ids=["header", "body"],
)
def test_non_ascii_byte_raises_format_error(tmp_path, data):
    path = tmp_path / "bad.pht"
    path.write_bytes(data)
    with pytest.raises(PhtFormatError, match="non-ASCII"):
        read_pht(path)


@pytest.mark.parametrize(
    "A", [np.zeros((2, 2, 2)), [[[0.0]]], None], ids=["ndarray", "list", "None"]
)
def test_write_takes_only_hypermatrices(tmp_path, A):
    path = tmp_path / "a.pht"
    with pytest.raises(TypeError, match="HyperMatrix"):
        write_pht(A, path)
    assert not path.exists()


def _check_against_per_value(values, directory, field=REAL):
    """The per-value codec check, with warnings as errors, on values as one
    1 x k x 1 matrix; the per-value writer's f"{v:.17g}" is CPython's '%.17g'."""
    values = np.asarray(values, dtype=np.float64)
    data = values if field == REAL else values.view(np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_against_per_value_codec(HyperMatrix(data.reshape(1, -1, 1), field), directory)


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


_POWERS_OF_TEN = _with_neighbours([float(f"1e{k}") for k in range(-323, 309)])


class TestFastWriterMatchesPercentG:
    """write_pht's numpy formatter against CPython's '%.17g', byte for byte."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_neighbours(self, tmp_path, sign):
        _check_against_per_value(sign * _POWERS_OF_TEN, tmp_path)

    def test_form_switches(self, tmp_path):
        # %g switches between fixed and exponent form at 1e-4 and 1e17.
        switches = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = [switches]
        for direction in (0.0, np.inf):
            step = switches
            for _ in range(3):
                step = np.nextafter(step, direction)
                values.append(step)
        values = np.concatenate(values)
        _check_against_per_value(np.concatenate([values, -values]), tmp_path)

    def test_rounding_up_across_a_decade(self, tmp_path):
        # double(1e-185) is 9.99999999999999992e-186: scaled for e = -185 it
        # rounds to 10**16, but its 17 digits are those of e = -186.
        assert "%.17g" % 1e-185 == "9.9999999999999999e-186"
        values = [1e-185, 9.9999999999999999e-186, 0.99999999999999999, 99999999999999999.0,
                  9.9999999999999999e-5, 9.9999999999999999e-6]
        _check_against_per_value(_with_neighbours(values), tmp_path)

    def test_special_values(self, tmp_path):
        negative_nan = np.copysign(np.nan, -1.0)
        assert np.signbit(negative_nan) and "%.17g" % negative_nan == "nan"
        subnormals = [5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0)]
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, negative_nan, *subnormals,
                  *(-v for v in subnormals), 2.2250738585072014e-308, 1.7976931348623157e308,
                  2.0**53, 2.0**53 + 2, 1000.0, 1.0, 0.5, 123.456]
        _check_against_per_value(values, tmp_path)

    def test_exact_ties_are_left_to_percent(self, tmp_path):
        # 1e15 + 0.25 lies midway between two 17-digit decimals; '%' rounds it half to even.
        assert "%.17g" % (1e15 + 0.25) == "1000000000000000.2"
        values = 1e15 + np.arange(1, 200) * 0.25
        _check_against_per_value(np.concatenate([values, -values]), tmp_path)

    def test_zero_heavy_complex_chunk_straddling_write_chunk(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(2 * (WRITE_CHUNK + 3))
        values[rng.random(values.size) < 0.9] = 0.0
        values[rng.random(values.size) < 0.1] *= -0.0
        _check_against_per_value(values, tmp_path, COMPLEX)

    @pytest.mark.parametrize("value", [0.0, -0.0, np.nan, np.inf, 1e-300])
    def test_chunks_without_an_exact_value(self, tmp_path, value):
        _check_against_per_value(np.full(WRITE_CHUNK + 1, value), tmp_path)

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20181)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        _check_against_per_value(bits.view(np.float64), tmp_path)

    @pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["low", "high"])
    def test_result_does_not_depend_on_the_last_bit_of_log10(self, tmp_path, monkeypatch,
                                                             direction):
        # The decimal exponent starts from np.log10.  One ulp off, low, it is
        # a decade low at exact powers of ten; high, a decade high just below
        # them.  Both must give '%.17g' through the exponent steps and the
        # decade rules.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
        _check_against_per_value(_POWERS_OF_TEN, tmp_path)
        rng = np.random.default_rng(11)
        scales = 10.0 ** rng.integers(-30, 30, 5000)
        _check_against_per_value(rng.standard_normal(5000) * scales, tmp_path)


def test_line_ends_are_newlines_in_binary(tmp_path):
    A = random_hypermatrix(np.random.default_rng(3), 2, 2, 2, COMPLEX)
    path = tmp_path / "a.pht"
    write_pht(A, path)
    data = path.read_bytes()
    assert b"\r" not in data and data.count(b"\n") == 1 + 8 and data.endswith(b"\n")
