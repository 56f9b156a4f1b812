"""The staged slice SVD of _lapack: gesdd's direct path run as its own
stages, against np.linalg.svd, and the solves that run it against the
same solves on np.linalg.svd."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import polarpcp._blas as _blas
import polarpcp._lapack as _lapack
import polarpcp.solvers as solvers
from polarpcp import COMPLEX, REAL, SolverConfig, TubeTransform, pcp_ialm, prox_trace
from polarpcp.prox import shrink_singular_values

from helpers import (
    GROUP_FACTORS,
    ialm_frequency_reference,
    low_rank_plus_sparse,
    random_hypermatrix,
    reference_compose_state,
    reference_prox_trace,
    reference_svd_state,
)

needs_routines = pytest.mark.skipif(
    _lapack.routines() is None, reason="numpy's LAPACK lacks the ILP64 gebrd/bdsdc/ormbr")


def _qr_threshold(short, complex_):
    """gesdd's MNTHR (dgesdd) or MNTHR1 (zgesdd): from this long side on it
    factors a QR (LQ) first."""
    return short * 17 // 9 if complex_ else short * 11 // 6


def _random(rng, l, m, complex_):
    a = rng.standard_normal((l, m))
    return a + 1j * rng.standard_normal((l, m)) if complex_ else a


def _factor(a):
    """_lapack._factor on a Fortran-ordered copy of a, as the slice-SVD
    kernel calls it."""
    return _lapack._factor(np.array(a, order="F"))


@st.composite
def _direct_matrices(draw):
    """(a, k): a real or complex matrix on gesdd's direct path, wide, square
    or tall, of full or low rank and of any scale gesdd does not change,
    and a count k of leading singular values."""
    complex_ = draw(st.booleans())
    short = draw(st.integers(2, 14))
    long_ = draw(st.integers(short, _qr_threshold(short, complex_) - 1))
    l, m = draw(st.sampled_from([(short, long_), (long_, short)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, short))
    a = _random(rng, l, rank, complex_) @ _random(rng, rank, m, complex_)
    a *= 10.0 ** draw(st.integers(-100, 100))
    return a, draw(st.integers(0, short))


@needs_routines
class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=_direct_matrices())
    def test_matches_numpy_svd(self, case):
        a, k = case
        s, f = _factor(a)
        assert _lapack.direct(a[np.newaxis])
        assert s.tobytes() == np.linalg.svd(a)[1].tobytes()
        U, s_thin, Vh = np.linalg.svd(a, full_matrices=False)
        assert s.tobytes() == s_thin.tobytes()
        got = _lapack.product(f, s[:k])
        want = (U[:, :k] * s[:k]) @ Vh[:k]
        assert got.dtype == a.dtype and got.shape == a.shape and got.flags.c_contiguous
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_in_place_step_overwrites_only_fortran_matrices(self, complex_):
        a = _random(np.random.default_rng(2), 9, 8, complex_)
        for bad in (a.copy(), a.astype(np.complex64 if complex_ else np.float32, order="F")):
            with pytest.raises(ValueError, match="Fortran-ordered"):
                _lapack._factor(bad)
        x = np.asfortranarray(a)
        s, f = _lapack._factor(x)
        assert f.a is x and x.tobytes() != np.asfortranarray(a).tobytes()
        assert s.tobytes() == np.linalg.svd(a, full_matrices=False)[1].tobytes()

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_product_into_out_and_into_its_own_reflectors(self, complex_, k):
        a = _random(np.random.default_rng(6), 9, 8, complex_)
        s, f = _factor(a)
        want = _lapack.product(f, s[:k])
        out = np.empty(a.shape, a.dtype)
        assert _lapack.product(f, s[:k], out) is out and out.tobytes() == want.tobytes()
        # compose_state multiplies a paired slice's product into the bytes
        # of its reflectors, which the back-transforms read first.
        own = f.a.T.reshape(a.shape)
        assert own.flags.c_contiguous and np.shares_memory(own, f.a)
        assert _lapack.product(f, s[:k], own) is own and own.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("l, m", [(9, 8), (8, 9), (8, 8)], ids=["tall", "wide", "square"])
    def test_product_of_no_singular_value_is_positive_zero(self, complex_, l, m):
        # Regression guard: a shrink that keeps nothing runs the same path.
        a = _random(np.random.default_rng(7), l, m, complex_)
        assert _lapack.direct(a[np.newaxis])
        s, f = _factor(a)
        out = np.full(a.shape, np.nan, a.dtype)
        assert _lapack.product(f, s[:0], out) is out
        assert out.tobytes() == np.zeros_like(a).tobytes()
        assert _lapack.product(f, s[:0]).tobytes() == np.zeros_like(a).tobytes()

    # Past 128 columns ?gebrd reduces blocks of 32 with ?labrd, so the
    # largest cases check that its workspace gives gesdd's blocking.
    @pytest.mark.parametrize("complex_,short", [(False, 6), (False, 30), (False, 140),
                                                (True, 9), (True, 30), (True, 140)])
    def test_direct_stops_at_gesdds_qr_threshold(self, complex_, short):
        rng = np.random.default_rng(short)
        limit = _qr_threshold(short, complex_)
        for l, m in ((short, limit - 1), (limit - 1, short)):
            a = _random(rng, l, m, complex_)
            assert _lapack.direct(a[np.newaxis])
            s, f = _factor(a)
            U, s_ref, Vh = np.linalg.svd(a, full_matrices=False)
            assert s.tobytes() == s_ref.tobytes()
            k = short // 3
            want = (U[:, :k] * s[:k]) @ Vh[:k]
            assert np.linalg.norm(_lapack.product(f, s[:k]) - want) <= 1e-13 * np.linalg.norm(want)
        for l, m in ((short, limit), (limit, short)):
            assert not _lapack.direct(_random(rng, l, m, complex_)[np.newaxis])

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_direct_stops_where_gesdd_scales(self, complex_):
        a = _random(np.random.default_rng(2), 6, 6, complex_)
        a /= np.abs(a).max()
        small, big = _lapack._SMALL, _lapack._BIG
        for top, direct in ((small, True), (big, True), (np.nextafter(small, 0), False),
                            (np.nextafter(big, np.inf), False), (0.0, False), (np.inf, False),
                            (np.nan, False)):
            b = a * top
            b[np.unravel_index(np.abs(a).argmax(), a.shape)] = top   # the exact largest modulus
            assert _lapack.direct(b[np.newaxis]) == direct, top
            # One matrix out of range takes the whole stack off the staged path.
            assert _lapack.direct(np.stack([a, b])) == direct, top

    def test_large_stacks_are_staged_unless_gesdd_would_not_be_direct(self):
        T = TubeTransform.dft(4)
        X = random_hypermatrix(np.random.default_rng(3), 64, 64, 4, REAL)
        planes = T.hat_state(X)
        U, s, Vh = T.svd_state(planes)
        assert Vh == [None, None]
        assert all(isinstance(f, _lapack.Factored) for u in U for f in u)
        assert s.tobytes() == reference_svd_state(T, planes)[1].tobytes()
        # Below LANE_MIN_WORK, past gesdd's QR threshold, or in need of scaling,
        # a stack keeps np.linalg.svd.
        rng = np.random.default_rng(4)
        for state in (T.hat_state(random_hypermatrix(rng, 63, 63, 4, REAL)),
                      T.hat_state(random_hypermatrix(rng, 130, 64, 4, REAL)),
                      planes * 1e-140):
            U, s, Vh = T.svd_state(state)
            assert all(isinstance(v, np.ndarray) for v in Vh)
            assert s.tobytes() == reference_svd_state(T, state)[1].tobytes()


    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_compose_consumes_the_factored_forms(self, field):
        T = TubeTransform.dft(4)
        state = T.hat_state(random_hypermatrix(np.random.default_rng(5), 64, 64, 4, field))
        U, s, Vh = T.svd_state(state)
        shrunk = shrink_singular_values(s, 0.5 * s.max(), True, T.weights(state)[1])
        got = T.compose_state(U, shrunk, Vh)
        assert all(f is None for u in U for f in u)
        U_ref, _, Vh_ref = reference_svd_state(T, state)
        want = reference_compose_state(T, U_ref, shrunk, Vh_ref)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _case(n, kind, variant="polar"):
    return SolverConfig(transform=GROUP_FACTORS[n] if kind == "group" else kind, variant=variant)


@pytest.fixture
def staged(monkeypatch):
    """Every matrix on gesdd's direct path factored in stages, and a record
    of the live singular columns of every compose, staged or reference, and
    of the staged products."""
    monkeypatch.setattr(_blas, "LANE_MIN_WORK", 0)
    record = {"solve": [], "reference": [], "products": 0}
    compose, reference_compose, product = (TubeTransform.compose_state,
                                           helpers.reference_slice_compose, _lapack.product)

    def live(s):
        columns = np.flatnonzero(s.any(axis=0))
        return columns[-1] + 1 if columns.size else 0

    def recording_compose(self, U, s, Vh):
        record["solve"].append(live(s))
        return compose(self, U, s, Vh)

    def recording_reference_compose(T, U, s, Vh, real):
        record["reference"].append(live(s))
        return reference_compose(T, U, s, Vh, real)

    def counting_product(f, s, out=None):
        record["products"] += 1
        return product(f, s, out)

    monkeypatch.setattr(TubeTransform, "compose_state", recording_compose)
    monkeypatch.setattr(helpers, "reference_slice_compose", recording_reference_compose)
    monkeypatch.setattr(_lapack, "product", counting_product)
    return record


def _on_direct_path(X, cfg):
    """True when some stack of X's solver state is on gesdd's direct path."""
    T = TubeTransform.from_name(cfg.transform, X.n)
    return any(len(p) and _lapack.direct(p) for p in T.kernel_buffer(T.hat_state(X)).parts)


def _assert_close(res, ref, record, on_direct_path):
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert np.array_equal(res.mu_history, ref.mu_history)
    assert res.stats == ref.stats
    assert record["solve"] == record["reference"] and len(record["solve"]) == res.iterations
    assert (record["products"] > 0) == on_direct_path
    for got, want in ((res.L.data, ref.L.data), (res.S.data, ref.S.data)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# (n, transform, (l, m)).  At 14 x 11 every matrix is on the direct path; at
# 25 x 14 the complex ones are and the real ones are just past dgesdd's QR
# threshold.  n = 1, 2 have only self-paired slices for real tubes, n = 4
# is also the Walsh-Hadamard transform and n = 6 a mixed (2, 3) group.
_SOLVE_CASES = ([(n, kind, (14, 11)) for n in (1, 2, 3, 4, 6)
                 for kind in ("dft", "skew-dft", "group")]
                + [(n, kind, (25, 14)) for n in (2, 4) for kind in ("dft", "skew-dft")])


@needs_routines
class TestSolvesOnTheStagedKernel:
    @pytest.mark.parametrize("grouped", [True, False], ids=["polar", "tensor-rpca"])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n,kind,shape", _SOLVE_CASES, ids=str)
    def test_frequency_matches_reference(self, staged, n, kind, shape, field, grouped):
        rng = np.random.default_rng(300 + n)
        X, _, _ = low_rank_plus_sparse(rng, *shape, n, field, 2, 0.05)
        cfg = _case(n, kind, "polar" if grouped else "tensor-rpca")
        res = pcp_ialm(X, cfg)
        _assert_close(res, ialm_frequency_reference(X, cfg, grouped), staged,
                      _on_direct_path(X, cfg))

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n,kind,shape", _SOLVE_CASES, ids=str)
    def test_naive_matches_full_stack_prox(self, staged, monkeypatch, n, kind, shape, field):
        rng = np.random.default_rng(400 + n)
        X, _, _ = low_rank_plus_sparse(rng, *shape, n, field, 2, 0.05)
        cfg = _case(n, kind, "naive")
        res = pcp_ialm(X, cfg)
        products = staged["products"]
        monkeypatch.setattr(solvers, "_prox_trace", reference_prox_trace)
        ref = pcp_ialm(X, cfg)
        assert staged["products"] == products   # the reference ran no staged product
        _assert_close(res, ref, staged, _on_direct_path(X, cfg))


@pytest.fixture
def parent_kernels(monkeypatch):
    """A switch to the packed-state kernels as they stood before the staged
    path."""
    def use():
        monkeypatch.setattr(TubeTransform, "svd_state", reference_svd_state)
        monkeypatch.setattr(TubeTransform, "compose_state", reference_compose_state)
    return use


def _output_bytes(result):
    return [a.tobytes() for a in (result.L.data, result.S.data, result.residual_history,
                                  result.mu_history)]


class TestWithoutTheRoutines:
    @pytest.mark.parametrize("min_work", [0, None], ids=["all-large", "default"])
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_solves_are_bitwise_the_parents(self, monkeypatch, parent_kernels, min_work,
                                            variant, field):
        monkeypatch.setattr(_lapack, "routines", lambda: None)
        if min_work is not None:
            monkeypatch.setattr(_blas, "LANE_MIN_WORK", min_work)
        rng = np.random.default_rng(7)
        X, _, _ = low_rank_plus_sparse(rng, 20, 16, 4, field, 2, 0.05)
        cfg = SolverConfig(variant=variant)
        got = pcp_ialm(X, cfg)
        Z = random_hypermatrix(rng, 20, 16, 4, field)
        prox = prox_trace(Z, 0.5)
        assert not _lapack.direct(TubeTransform.dft(4).hat(X))
        parent_kernels()
        want = pcp_ialm(X, cfg)
        assert _output_bytes(got) == _output_bytes(want)
        assert got.iterations == want.iterations and got.stats == want.stats
        assert prox.data.tobytes() == prox_trace(Z, 0.5).data.tobytes()
