import numpy as np
import pytest

from polarpcp import COMPLEX, REAL, PhtFormatError, read_pht, write_pht

from helpers import random_hypermatrix


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
    ],
)
def test_malformed_files(tmp_path, text):
    path = tmp_path / "bad.pht"
    path.write_text(text)
    with pytest.raises(PhtFormatError):
        read_pht(path)
