import json
import warnings

import numpy as np
import pytest

import polarpcp.cli as cli
import polarpcp.hypermatrix as hm
import polarpcp.simlab as simlab
import polarpcp.solvers as solvers
from polarpcp import (HyperMatrix, SolverConfig, TrialSpec, TSVDFactors, TubeTransform,
                      pcp_ialm, read_pht, reconstruct, singular_moduli, tsvd, write_pht)
from polarpcp.cli import main

from helpers import (fft_overflow_instance, fft_overflow_representable, ldexp, overflow_instance,
                     random_hypermatrix, run_python, scale_instance)

# Each command's --help at 80 columns: the choices come from EMBEDDINGS,
# simlab.VARIANTS and TubeTransform.NAMES.
HELP = {
    "polarpcp": """\
usage: polarpcp [-h] {simulate,decompose,tsvd} ...

positional arguments:
  {simulate,decompose,tsvd}
    simulate            run a synthetic recovery grid
    decompose           split a PHT tensor into L + S
    tsvd                factor a PHT tensor

options:
  -h, --help            show this help message and exit
""",
    "simulate": """\
usage: polarpcp simulate [-h] [--m M] [--ranks RANKS [RANKS ...]]
                         [--rhos RHOS [RHOS ...]]
                         [--epsilons EPSILONS [EPSILONS ...]]
                         [--trials TRIALS] [--seed SEED]
                         [--embedding {polar4complex,polar2bicomplex,both}]
                         [--variant {polar,tensor-rpca}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --m M
  --ranks RANKS [RANKS ...]
  --rhos RHOS [RHOS ...]
  --epsilons EPSILONS [EPSILONS ...]
  --trials TRIALS
  --seed SEED
  --embedding {polar4complex,polar2bicomplex,both}
  --variant {polar,tensor-rpca}
  --out OUT
""",
    "decompose": """\
usage: polarpcp decompose [-h] [--variant {polar,tensor-rpca}]
                          [--field {real,complex}] [--c C] [--tol TOL]
                          [--max-iters MAX_ITERS]
                          [--transform {dft,skew-dft,wht}] [--out-dir OUT_DIR]
                          input

positional arguments:
  input                 PHT v1 tensor file

options:
  -h, --help            show this help message and exit
  --variant {polar,tensor-rpca}
  --field {real,complex}
  --c C
  --tol TOL
  --max-iters MAX_ITERS
  --transform {dft,skew-dft,wht}
  --out-dir OUT_DIR
""",
    "tsvd": """\
usage: polarpcp tsvd [-h] [--transform {dft,skew-dft,wht}] [--out-dir OUT_DIR]
                     input

positional arguments:
  input                 PHT v1 tensor file

options:
  -h, --help            show this help message and exit
  --transform {dft,skew-dft,wht}
  --out-dir OUT_DIR
""",
}


def _strict_json(path):
    """The JSON document at path, rejecting the non-standard NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _low_rank_pht(tmp_path, n=2, field="complex", name="x.pht"):
    rng = np.random.default_rng(0)
    u = random_hypermatrix(rng, 12, 1, n, field)
    v = random_hypermatrix(rng, 10, 1, n, field)
    X = u @ v.conj_transpose()
    path = tmp_path / name
    write_pht(X, path)
    return path, X


class TestHelp:
    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if command == "polarpcp" else [command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    @pytest.mark.parametrize("command", ["decompose", "tsvd"])
    def test_constructor_name_is_not_a_transform(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "x.pht"), "--transform", "skew_dft"])
        assert exc.value.code == 2
        assert "invalid choice: 'skew_dft'" in capsys.readouterr().err


class TestOneVocabulary:
    def test_variant_names_and_defaults_have_one_home(self):
        # A grid's and the CLI's variants are solver rows under their own
        # names, and the flags' defaults are the dataclasses' fields.
        assert set(simlab.VARIANTS) <= set(solvers.VARIANTS)
        parser = cli._build_parser()
        for argv, defaults, names in (
            (["decompose", "x.pht"], SolverConfig(), ("c", "tol", "max_iters", "transform",
                                                      "variant")),
            (["simulate"], TrialSpec(), ("m", "epsilons", "trials", "seed", "variant")),
        ):
            args = parser.parse_args(argv)
            assert ({name: getattr(args, name) for name in names}
                    == {name: getattr(defaults, name) for name in names})


class TestOutputLocation:
    @pytest.mark.parametrize("argv, where", [
        (["simulate", "--m", "10", "--ranks", "1", "--rhos", "0.05", "--trials", "1",
          "--out", "{missing}/r.csv"], "{missing}"),
        (["decompose", "{input}", "--out-dir", "{missing}"], "{missing}"),
        (["tsvd", "{input}", "--out-dir", "{missing}"], "{missing}"),
        (["decompose", "{input}", "--out-dir", "{input}"], "{input}"),
        (["tsvd", "{input}", "--out-dir", "{input}"], "{input}"),
    ], ids=["simulate-missing", "decompose-missing", "tsvd-missing", "decompose-file", "tsvd-file"])
    def test_checked_before_the_work(self, tmp_path, monkeypatch, capsys, argv, where):
        # A missing directory, or a file where a directory is asked for, is
        # an I/O error before any input is read or solved.
        def fail(*args, **kwargs):
            raise AssertionError("called before the output location was checked")

        for name in ("read_pht", "pcp_ialm", "tsvd", "run_grid"):
            monkeypatch.setattr(cli, name, fail)
        paths = {"missing": tmp_path / "missing", "input": _low_rank_pht(tmp_path)[0]}
        assert main([arg.format(**paths) for arg in argv]) == 3
        assert capsys.readouterr().err == (
            f"polarpcp: I/O error: not an existing directory: {where.format(**paths)}\n"
        )


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

    def test_repeated_rank_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--m", "12", "--ranks", "1", "1", "--rhos", "0.05",
                     "--trials", "1", "--out", str(out)])
        assert code == 2
        assert "the rank axis repeats a value: (1, 1)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_complex_file_with_zero_imaginary_parts_as_real(self, tmp_path):
        data = np.random.default_rng(2).standard_normal((7, 6, 4))
        write_pht(HyperMatrix(data), tmp_path / "real.pht")
        write_pht(HyperMatrix(data.astype(np.complex128)), tmp_path / "complex.pht")
        assert read_pht(tmp_path / "complex.pht").field == "complex"
        outs = []
        for name, field in (("real", []), ("complex", ["--field", "real"])):
            out = tmp_path / f"from_{name}"
            out.mkdir()
            assert main(["decompose", str(tmp_path / f"{name}.pht"), *field,
                         "--out-dir", str(out)]) == 0
            outs.append([(out / f).read_bytes() for f in ("L.pht", "S.pht", "report.json")])
        assert outs[0] == outs[1]

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

    def test_svd_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, so it must not read as a
        # parameter error.
        def fail(X, cfg):
            raise np.linalg.LinAlgError("SVD did not converge")

        path, _ = _low_rank_pht(tmp_path)
        monkeypatch.setattr(cli, "pcp_ialm", fail)
        code = main(["decompose", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "polarpcp: numerical error: SVD did not converge\n"

    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    def test_largest_modulus_past_the_largest_float(self, tmp_path, capfd, embedding):
        # Every coefficient is finite, but the largest modulus is inf: the
        # solve runs at a power-of-two scale and writes finite parts.
        X, k = overflow_instance(embedding)
        write_pht(ldexp(X, k), tmp_path / "x.pht")
        assert main(["decompose", str(tmp_path / "x.pht"), "--out-dir", str(tmp_path)]) == 0
        assert capfd.readouterr().err == ""
        for name in ("L.pht", "S.pht"):
            assert np.isfinite(read_pht(tmp_path / name).data).all()

    @pytest.mark.parametrize("scale, nulls", [(1e-306, 7), (1e-304, 0)])
    def test_report_is_strict_json_far_below_unit_scale(self, tmp_path, scale, nulls):
        # Below about 1e-305 the unscaled mu passes the largest float: the
        # report writes null there and the parts stay finite.
        write_pht(HyperMatrix(np.random.default_rng(0).standard_normal((12, 10, 4)) * scale),
                  tmp_path / "x.pht")
        assert main(["decompose", str(tmp_path / "x.pht"), "--out-dir", str(tmp_path)]) == 0
        mu = _strict_json(tmp_path / "report.json")["mu"]
        want = pcp_ialm(read_pht(tmp_path / "x.pht")).mu_history
        assert [m is None for m in mu] == np.isinf(want).tolist()
        assert sum(m is None for m in mu) == nulls
        assert [m for m in mu if m is not None] == want[np.isfinite(want)].tolist()
        for name in ("L.pht", "S.pht"):
            assert np.isfinite(read_pht(tmp_path / name).data).all()


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
            # DFT of real 4-tubes: slices 0 and 2 are real, slice 1 is
            # complex and slice 3 is its conjugate, which is not factored.
            ("real", 4, 3),
            # Complex tubes have no pairing: all 3 slices are factored.
            ("complex", 3, 3),
        ],
    )
    def test_one_svd_per_factored_matrix(self, tmp_path, monkeypatch, field, n, calls):
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
        assert seen == [(6, 5)] * calls

    def test_non_finite_input_is_parameter_error(self, tmp_path, capsys):
        A = HyperMatrix.zeros(3, 2, 2)
        A.data[1, 0, 1] = np.nan
        path = tmp_path / "a.pht"
        write_pht(A, path)
        code = main(["tsvd", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]],
                             ids=["warnings", "warnings-as-errors"])
    def test_transform_overflow_is_numerical_error(self, tmp_path, flags):
        # The first two singular-tube moduli are past the largest float:
        # strict JSON cannot hold them, so no file is written.  A subprocess
        # under a timeout: on the overflowed slices of an unscaled transform
        # np.linalg.svd never returned, and the command hung.
        write_pht(fft_overflow_instance(), tmp_path / "x.pht")
        run = run_python("import sys; from polarpcp.cli import main; sys.exit(main())",
                         "tsvd", str(tmp_path / "x.pht"), "--out-dir", str(tmp_path),
                         flags=flags)
        assert run.returncode == 2
        assert run.stderr == ("polarpcp: numerical error: "
                              "a singular-tube modulus is past the largest float\n")
        assert not (tmp_path / "U.pht").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_transform_overflow_with_representable_factors(self, tmp_path, capsys):
        # The tube FFT of the input overflows, but tsvd transforms a scaled
        # copy: the factors are finite, and at 2^-600 they reconstruct.
        X = fft_overflow_representable()
        write_pht(X, tmp_path / "x.pht")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tsvd", str(tmp_path / "x.pht"), "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr() == ("", "")
        mods = np.array(_strict_json(tmp_path / "summary.json")["singular_moduli"])
        assert mods.tobytes() == tsvd(X).moduli.tobytes() and mods[0] > 2.0**1023
        U, S, V = (read_pht(tmp_path / f"{name}.pht") for name in "USV")
        L = reconstruct(TSVDFactors(U, ldexp(S, -600), V, TubeTransform.dft(X.n)))
        want = ldexp(X, -600)
        assert hm.frobenius(L - want) <= 1e-12 * hm.frobenius(want)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_summary_is_json_at_extreme_scales(self, tmp_path, c):
        # Squared singular values overflow or underflow at these scales.
        X = scale_instance("polar4complex")
        write_pht(X * c, tmp_path / "x.pht")
        assert main(["tsvd", str(tmp_path / "x.pht"), "--out-dir", str(tmp_path)]) == 0
        mods = np.array(_strict_json(tmp_path / "summary.json")["singular_moduli"])
        want = singular_moduli(X)
        assert np.linalg.norm(mods / c - want) <= 1e-12 * np.linalg.norm(want)

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
