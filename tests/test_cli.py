import json

import numpy as np
import pytest

import polarpcp.hypermatrix as hm
from polarpcp import HyperMatrix, TubeTransform, read_pht, singular_moduli, write_pht
from polarpcp.cli import main

from helpers import random_hypermatrix


def _low_rank_pht(tmp_path, n=2, field="complex", name="x.pht"):
    rng = np.random.default_rng(0)
    u = random_hypermatrix(rng, 12, 1, n, field)
    v = random_hypermatrix(rng, 10, 1, n, field)
    X = u @ v.conj_transpose()
    path = tmp_path / name
    write_pht(X, path)
    return path, X


class TestSimulate:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(
            [
                "simulate", "--m", "20", "--ranks", "1", "--rhos", "0.05",
                "--epsilons", "0.1", "--trials", "1", "--seed", "3",
                "--embedding", "polar2bicomplex", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "embedding,r,rho,epsilon,part,successes,trials,seed"
        assert len(lines) == 3  # one cell, one epsilon, two parts

    def test_parameter_error_exit_code(self, tmp_path):
        code = main(
            [
                "simulate", "--m", "10", "--ranks", "20", "--trials", "1",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    def test_invalid_thread_count_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POLARPCP_THREADS", "many")
        code = main(
            [
                "simulate", "--m", "10", "--ranks", "1", "--rhos", "0.05",
                "--epsilons", "0.1", "--trials", "1", "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2
        assert "POLARPCP_THREADS must be a positive integer, got 'many'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "r.csv").exists()

    def test_io_error_exit_code(self, tmp_path):
        code = main(
            [
                "simulate", "--m", "10", "--ranks", "1", "--rhos", "0.05",
                "--epsilons", "0.1", "--trials", "1",
                "--out", str(tmp_path / "missing_dir" / "r.csv"),
            ]
        )
        assert code == 3

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--embedding", "sedenion"])
        assert exc.value.code == 2


class TestDecompose:
    def test_writes_parts_and_report(self, tmp_path):
        path, X = _low_rank_pht(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["decompose", str(path), "--out-dir", str(out)])
        assert code == 0
        L = read_pht(out / "L.pht")
        S = read_pht(out / "S.pht")
        assert hm.frobenius(X - L - S) <= 1e-6 * hm.frobenius(X)
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] == len(report["residuals"]) == len(report["mu"])
        assert report["lambda"] == pytest.approx(1 / np.sqrt(12))
        assert report["shape"] == [12, 10, 2]

    def test_tensor_rpca_variant(self, tmp_path):
        path, X = _low_rank_pht(tmp_path)
        out = tmp_path / "trpca"
        out.mkdir()
        code = main(["decompose", str(path), "--variant", "tensor-rpca", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "tensor-rpca"

    def test_field_coercion(self, tmp_path):
        rng = np.random.default_rng(1)
        A = random_hypermatrix(rng, 6, 5, 2, "real")
        path = tmp_path / "real.pht"
        write_pht(A, path)
        out = tmp_path / "c"
        out.mkdir()
        code = main(["decompose", str(path), "--field", "complex", "--out-dir", str(out)])
        assert code == 0
        assert read_pht(out / "L.pht").field == "complex"

    def test_complex_to_real_coercion_fails(self, tmp_path):
        path, _ = _low_rank_pht(tmp_path)
        code = main(["decompose", str(path), "--field", "real", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["decompose", str(tmp_path / "nope.pht")])
        assert code == 3

    def test_malformed_input_is_parameter_error(self, tmp_path):
        bad = tmp_path / "bad.pht"
        bad.write_text("not a tensor\n")
        code = main(["decompose", str(bad)])
        assert code == 2


class TestTsvdCommand:
    def test_writes_factors_and_summary(self, tmp_path):
        rng = np.random.default_rng(2)
        A = random_hypermatrix(rng, 6, 4, 3, "complex")
        path = tmp_path / "a.pht"
        write_pht(A, path)
        out = tmp_path / "f"
        out.mkdir()
        code = main(["tsvd", str(path), "--out-dir", str(out)])
        assert code == 0
        U = read_pht(out / "U.pht")
        S = read_pht(out / "S.pht")
        V = read_pht(out / "V.pht")
        R = U @ S @ V.conj_transpose()
        assert hm.frobenius(R - A) <= 1e-8 * hm.frobenius(A)
        summary = json.loads((out / "summary.json").read_text())
        mods = summary["singular_moduli"]
        assert mods == sorted(mods, reverse=True)
        assert len(mods) == 4

    @pytest.mark.parametrize("transform", ["dft", "skew-dft", "wht"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_summary_moduli_match_singular_moduli(self, tmp_path, transform, field):
        A = random_hypermatrix(np.random.default_rng(4), 6, 5, 4, field)
        path = tmp_path / "a.pht"
        write_pht(A, path)
        assert main(["tsvd", str(path), "--transform", transform, "--out-dir", str(tmp_path)]) == 0
        mods = np.array(json.loads((tmp_path / "summary.json").read_text())["singular_moduli"])
        want = singular_moduli(read_pht(path), TubeTransform.from_name(transform, 4))
        assert np.abs(mods - want).max() <= 1e-12 * want.max()

    @pytest.mark.parametrize(
        "field, n, calls",
        [
            # DFT of real 4-tubes: slices 0 and 2 are real (one batched call),
            # slice 1 is complex (one call) and slice 3 is its conjugate.
            ("real", 4, 2),
            # Complex tubes have no pairing: one batched call for all 3 slices.
            ("complex", 3, 1),
        ],
    )
    def test_one_svd_per_factored_slice_group(self, tmp_path, monkeypatch, field, n, calls):
        A = random_hypermatrix(np.random.default_rng(5), 6, 5, n, field)
        path = tmp_path / "a.pht"
        write_pht(A, path)
        seen = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            seen.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert main(["tsvd", str(path), "--out-dir", str(tmp_path)]) == 0
        assert len(seen) == calls, seen

    def test_non_finite_input_is_parameter_error(self, tmp_path, capsys):
        A = HyperMatrix.zeros(3, 2, 2)
        A.data[1, 0, 1] = np.nan
        path = tmp_path / "a.pht"
        write_pht(A, path)
        code = main(["tsvd", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_skew_transform(self, tmp_path):
        rng = np.random.default_rng(3)
        A = random_hypermatrix(rng, 5, 5, 4, "real")
        path = tmp_path / "a.pht"
        write_pht(A, path)
        code = main(["tsvd", str(path), "--transform", "skew-dft", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        total = sum(m**2 for m in summary["singular_moduli"])
        assert total == pytest.approx(hm.frobenius(A) ** 2, rel=1e-10)
