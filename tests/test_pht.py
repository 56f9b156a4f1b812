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
