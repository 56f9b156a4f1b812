import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import polarpcp.hypermatrix as hm
from polarpcp import (
    COMPLEX,
    REAL,
    HyperMatrix,
    TubeTransform,
    prox_l1,
    prox_trace,
    singular_moduli,
    tsvd,
)
from polarpcp.prox import shrink_singular_values, tube_group_shrink

from helpers import (
    GROUP_FACTORS,
    ldexp,
    overflow_instance,
    raises_exactly,
    random_hypermatrix,
    reference_prox_l1,
    reference_prox_trace,
    scale_instance,
)


def _rejects_non_finite(capfd, prox, field, bad, shape):
    """prox raises ValueError on an input holding bad, with no warning and
    no output."""
    Z = random_hypermatrix(np.random.default_rng(19), *shape, field)
    Z.data[1, 2, 0] = bad if field == REAL else complex(1.0, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            prox(Z, 0.5)
    assert capfd.readouterr() == ("", "")


class TestProxL1:
    def test_bicomplex_half_shrink(self):
        g = np.array([[[1 + 2j, 3 + 4j, 5 + 6j]]])
        Z = HyperMatrix(g)
        out = prox_l1(Z, math.sqrt(91) / 2)
        expected = np.array([[[0.5 + 1j, 1.5 + 2j, 2.5 + 3j]]])
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_below_threshold_zeroes_entry(self):
        rng = np.random.default_rng(1)
        Z = random_hypermatrix(rng, 3, 3, 4, COMPLEX)
        mods = np.sqrt((np.abs(Z.data) ** 2).sum(axis=2))
        out = prox_l1(Z, mods.max() + 1.0)
        assert np.abs(out.data).max() == 0.0

    def test_n1_real_matches_scalar_soft_threshold(self):
        xs = np.linspace(-2.0, 2.0, 9).reshape(3, 3, 1)
        out = prox_l1(HyperMatrix(xs), 0.75)
        expected = np.sign(xs) * np.maximum(np.abs(xs) - 0.75, 0.0)
        assert np.allclose(out.data, expected, atol=1e-15)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bitwise_equals_sequential_sum(self, field, n):
        # Each entry's norm adds its squared float64 coefficients in order.
        Z = random_hypermatrix(np.random.default_rng(2 + n), 4, 3, n, field)
        lam = 1.3
        out = prox_l1(Z, lam).data.view(np.float64)
        for coeffs, got in zip(Z.data.view(np.float64).reshape(-1, out.shape[-1]),
                               out.reshape(-1, out.shape[-1])):
            total = 0.0
            for c in coeffs:
                total += c * c
            norm = math.sqrt(total)
            factor = max(1.0 - lam / norm, 0.0) if norm > 0 else 0.0
            assert got.tobytes() == (coeffs * factor).tobytes()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference(self, field, n):
        Z = random_hypermatrix(np.random.default_rng(20 + n), 30, 20, n, field)
        lam = 0.5 * math.sqrt(2 * n)
        out = prox_l1(Z, lam).data
        expected = reference_prox_l1(Z, lam).data
        assert 0 < np.count_nonzero(out) < out.size
        assert np.abs(out - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_entry_maps_to_zero(self, field):
        Z = random_hypermatrix(np.random.default_rng(6), 3, 4, 3, field)
        Z.data[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_l1(Z, 0.5).data
        assert not out[1].any() and not np.isnan(out).any()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_threshold_is_identity(self, field):
        Z = random_hypermatrix(np.random.default_rng(7), 5, 4, 3, field)
        assert prox_l1(Z, 0.0).data.tobytes() == Z.data.tobytes()

    def test_phase_preservation(self):
        rng = np.random.default_rng(3)
        Z = random_hypermatrix(rng, 4, 4, 3, COMPLEX)
        out = prox_l1(Z, 0.8)
        for i in range(4):
            for k in range(4):
                z = Z.data[i, k]
                x = out.data[i, k]
                if np.abs(x).max() == 0:
                    continue
                ratio = x / z  # collinear tubes: constant nonnegative real ratio
                assert np.abs(ratio - ratio[0]).max() <= 1e-12
                assert ratio[0].real > 0 and abs(ratio[0].imag) <= 1e-15

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for field in (REAL, COMPLEX):
            Z1 = random_hypermatrix(rng, 5, 4, 3, field)
            Z2 = random_hypermatrix(rng, 5, 4, 3, field)
            d_out = hm.frobenius(prox_l1(Z1, 0.7) - prox_l1(Z2, 0.7))
            assert d_out <= hm.frobenius(Z1 - Z2) + 1e-10

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            prox_l1(HyperMatrix.zeros(1, 1, 2), -1.0)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_nan_threshold_rejected_inf_allowed(self, field):
        Z = random_hypermatrix(np.random.default_rng(5), 4, 3, 4, field)
        with pytest.raises(ValueError, match=r"threshold lam must be a real number in \[0, inf\], got nan"):
            prox_l1(Z, math.nan)
        assert not prox_l1(Z, math.inf).data.any()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("shape", [(3, 4, 3), (70, 70, 2)])
    def test_non_finite_raises_warns_and_prints_nothing(self, capfd, field, bad, shape):
        # inf and nan used to pass through to the output.
        _rejects_non_finite(capfd, prox_l1, field, bad, shape)


class TestShrinkSingularValues:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_grouped_bitwise_equals_group_formula(self, n):
        rng = np.random.default_rng(40 + n)
        s = np.abs(rng.standard_normal((n, 9)))
        s[:, 4] = 0.0                      # a zero group maps to zero
        s[:, 6] *= 1e-3                    # a group below the threshold
        tau = 0.9
        norms = np.sqrt((s * s).sum(axis=0))
        safe = np.where(norms > 0, norms, 1.0)
        expected = s * np.where(norms > 0, np.maximum(1.0 - tau / safe, 0.0), 0.0)
        got = shrink_singular_values(s, tau)
        assert got.tobytes() == expected.tobytes()
        assert not got[:, 4].any() and not got[:, 6].any()

    def test_single_slice_is_plain_soft_threshold(self):
        s = np.array([[3.0, 1.0, 0.25, 0.0]])
        for grouped in (True, False):
            assert shrink_singular_values(s, 0.5, grouped).tolist() == [[2.5, 0.5, 0.0, 0.0]]

    def test_ungrouped_thresholds_each_value(self):
        s = np.array([[3.0, 0.2], [0.4, 2.0]])
        out = shrink_singular_values(s, 0.5, grouped=False)
        assert out.tolist() == [[2.5, 0.0], [0.0, 1.5]]


@st.composite
def _kernel_values(draw):
    """(s, weights): rows of singular values as the slice-SVD kernel gives
    them, non-negative and non-increasing, with ties, zeros and all-zero
    rows, and the Parseval row weights of a real-tube state or None."""
    rows, k = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    pool = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0, 3.0]) | st.floats(0, 10),
                         min_size=rows * k, max_size=rows * k))
    s = -np.sort(-np.reshape(pool, (rows, k)), axis=1)
    s[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0.0
    weights = draw(st.sampled_from([None, "parseval"]))
    if weights:
        weights = np.repeat([2.0, 1.0], [rows // 2, rows - rows // 2])
    return s, weights


class TestLiveSingularValues:
    @settings(max_examples=300, deadline=None)
    @given(case=_kernel_values(), tau=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 20),
           grouped=st.booleans())
    def test_count_of_nonzeros_is_trim_zeros(self, case, tau, grouped):
        # compose_state takes a shrunk row's live values as its leading
        # count_nonzero(row) ones: a shrink keeps each row non-negative and
        # non-increasing, so they are the row with its trailing zeros cut.
        s, weights = case
        for row in shrink_singular_values(s, tau, grouped, weights):
            assert row[:np.count_nonzero(row)].tobytes() == np.trim_zeros(row, "b").tobytes()


def _formula_tube_shrink(stack, tau, weights=None):
    """The grouped tube shrink written out with fresh arrays: squares,
    norms and factors each in their own array."""
    if weights is None:
        norms = np.sqrt((stack.real**2 + stack.imag**2).sum(axis=0))
    else:
        squares = (stack * stack).reshape(len(weights), -1)
        norms = np.sqrt(weights @ squares).reshape(stack.shape[1:])
    factors = np.zeros_like(norms)
    nz = norms > 0
    factors[nz] = np.maximum(1.0 - tau / norms[nz], 0.0)
    return stack * factors[np.newaxis]


class TestTubeGroupShrink:
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    @pytest.mark.parametrize("tau", [0.0, 0.7, math.inf])
    def test_bitwise_equals_the_formula(self, dtype, weighted, tau):
        rng = np.random.default_rng(60)
        stack = rng.standard_normal((5, 7, 6))
        if dtype == np.complex128:
            stack = stack + 1j * rng.standard_normal(stack.shape)
        stack[:, 2, 3] = 0.0              # a zero tube maps to zero
        stack[:, 4, 1] *= 1e-3            # a tube below the threshold
        stack[0, 1, 1] = -0.0
        weights = np.array([1.0, 2.0, 2.0, 1.0, 2.0]) if weighted else None
        if weighted and dtype == np.complex128:
            return   # weights belong to the real planes of a packed state
        before = stack.tobytes()
        got = tube_group_shrink(stack, tau, weights)
        want = _formula_tube_shrink(stack, tau, weights)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert stack.tobytes() == before

    def test_allocates_one_stack(self):
        stack = np.random.default_rng(61).standard_normal((4, 200, 150))
        weights = np.array([1.0, 2.0, 1.0, 2.0])
        tube_group_shrink(stack, 0.5, weights)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = tube_group_shrink(stack, 0.5, weights)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The output, the norms and a ufunc buffer of 64 KiB; the formula's
        # squares and product add a stack each, its factors more planes.
        assert out.nbytes <= peak < out.nbytes + 2 * out[0].nbytes


class TestProxTrace:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("shape", [(3, 4, 3), (70, 70, 2)])
    def test_non_finite_raises_warns_and_prints_nothing(self, capfd, field, bad, shape):
        # nan used to fail in the SVD, and inf to warn in the fft first.
        _rejects_non_finite(capfd, prox_trace, field, bad, shape)

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(5)
        Z = random_hypermatrix(rng, 4, 3, 3, COMPLEX)
        out = prox_trace(Z, 0.0)
        assert np.abs(out.data - Z.data).max() <= 1e-12

    @pytest.mark.parametrize("field,n", [(COMPLEX, 2), (REAL, 4)])
    def test_no_local_minimiser_beats_it_on_2x2(self, field, n):
        # The prox objective f(L) = |L - Z|^2 / 2 + lam sum singular-tube
        # moduli is not convex, so a local minimiser could in principle
        # stop below a grouped shrink that was only a stationary point.
        # The grouped shrink is the global minimiser (see the prox module
        # docstring): no L-BFGS-B run from a random start, over the 16 real
        # coefficients of a 2x2 input, ends below it.
        rng = np.random.default_rng(20)

        def as_matrix(x):
            data = x if field == REAL else x.view(np.complex128)
            return HyperMatrix(data.reshape(2, 2, n), field)

        for _ in range(3):
            z = rng.standard_normal(16)
            lam = rng.uniform(0.1, 1.5)

            def f(x):
                return 0.5 * np.sum((x - z) ** 2) + lam * singular_moduli(as_matrix(x)).sum()

            prox = prox_trace(as_matrix(z), lam).data
            at_prox = f(np.ascontiguousarray(prox).view(np.float64).ravel())
            for _ in range(4):
                local = scipy.optimize.minimize(f, rng.standard_normal(16), method="L-BFGS-B")
                assert at_prox <= local.fun + 1e-12 * max(1.0, abs(local.fun))

    def test_n1_matches_singular_value_thresholding(self):
        rng = np.random.default_rng(6)
        Z = random_hypermatrix(rng, 5, 4, 1, REAL)
        lam = 0.9
        out = prox_trace(Z, lam)
        U, s, Vh = np.linalg.svd(Z.data[:, :, 0], full_matrices=False)
        svt = (U * np.maximum(s - lam, 0.0)) @ Vh
        assert np.abs(out.data[:, :, 0] - svt).max() <= 1e-12

    def test_singular_modulus_shrinkage(self):
        rng = np.random.default_rng(7)
        for field in (REAL, COMPLEX):
            Z = random_hypermatrix(rng, 6, 4, 3, field)
            lam = 0.6 * singular_moduli(Z).max()
            out = prox_trace(Z, lam)
            got = singular_moduli(out)
            expected = np.maximum(singular_moduli(Z) - lam, 0.0)
            assert np.abs(got - expected).max() <= 1e-8

    def test_local_optimality_by_sampling(self):
        rng = np.random.default_rng(8)
        Z = random_hypermatrix(rng, 4, 3, 3, REAL)
        lam = 0.5
        X = prox_trace(Z, lam)

        def objective(M):
            return 0.5 * hm.frobenius(Z - M) ** 2 + lam * singular_moduli(M).sum()

        base = objective(X)
        for _ in range(200):
            step = 10.0 ** rng.uniform(-4, -1)
            P = random_hypermatrix(rng, 4, 3, 3, REAL)
            assert base <= objective(X + P * (step / hm.frobenius(P))) + 1e-12

    def test_nonexpansive(self):
        rng = np.random.default_rng(9)
        Z1 = random_hypermatrix(rng, 5, 4, 2, COMPLEX)
        Z2 = random_hypermatrix(rng, 5, 4, 2, COMPLEX)
        d_out = hm.frobenius(prox_trace(Z1, 0.8) - prox_trace(Z2, 0.8))
        assert d_out <= hm.frobenius(Z1 - Z2) + 1e-10

    def test_alternate_transform(self):
        rng = np.random.default_rng(10)
        Z = random_hypermatrix(rng, 4, 4, 4, COMPLEX)
        T = TubeTransform.from_name("skew-dft", 4)
        out = prox_trace(Z, 0.4, T)
        got = singular_moduli(out, T)
        expected = np.maximum(singular_moduli(Z, T) - 0.4, 0.0)
        assert np.abs(got - expected).max() <= 1e-8

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            prox_trace(HyperMatrix.zeros(2, 2, 2), -0.5)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_nan_threshold_rejected_inf_allowed(self, field):
        Z = random_hypermatrix(np.random.default_rng(6), 4, 3, 4, field)
        with pytest.raises(ValueError, match=r"threshold lam must be a real number in \[0, inf\], got nan"):
            prox_trace(Z, math.nan)
        assert not prox_trace(Z, math.inf).data.any()

    def test_matches_prox_l1_on_1x1(self):
        # A 1x1 matrix has a single singular tube whose modulus equals the
        # entry modulus, so both proxes solve the same problem.
        rng = np.random.default_rng(11)
        Z = random_hypermatrix(rng, 1, 1, 3, COMPLEX)
        lam = 0.4 * hm.frobenius(Z)
        a = prox_trace(Z, lam)
        b = prox_l1(Z, lam)
        assert np.abs(a.data - b.data).max() <= 1e-12


@st.composite
def _prox_cases(draw):
    """(Z, lam, transform): a random real or complex tube matrix, n = 1..8,
    under the DFT, the skew DFT or a group DFT, and a threshold from zero to
    1.5 times its spectral norm."""
    n = draw(st.integers(1, 8))
    T = draw(st.sampled_from([TubeTransform.dft(n), TubeTransform.from_name("skew-dft", n),
                              TubeTransform.from_name(GROUP_FACTORS[n], n)]))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    l, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = random_hypermatrix(rng, l, m, n, field)
    return Z, draw(st.floats(0.0, 1.5)) * hm.spectral_norm(Z, T), T


class TestProxTraceOnPackedState:
    @settings(max_examples=200, deadline=None)
    @given(case=_prox_cases())
    def test_matches_full_stack_reference(self, case):
        # Bitwise on complex tubes, whose packed state is the stack; real
        # tubes multiply self-paired planes as real matrices.
        Z, lam, T = case
        got, want = prox_trace(Z, lam, T), reference_prox_trace(Z, lam, T)
        assert got.field == want.field and got.data.dtype == want.data.dtype
        if Z.field == COMPLEX:
            assert got.data.tobytes() == want.data.tobytes()
        else:
            assert np.linalg.norm(got.data - want.data) <= 1e-12 * np.linalg.norm(want.data)


# Functions that square moduli, each as f(X, c) on an input scaled by c with
# its threshold scaled alike.
_SCALED = {
    "prox_trace": lambda X, c: prox_trace(X, c).data,
    "prox_l1": lambda X, c: prox_l1(X, 0.1 * c).data,
    "singular_moduli": lambda X, c: singular_moduli(X),
    "tsvd_moduli": lambda X, c: tsvd(X).moduli,
    "frobenius": lambda X, c: np.array(hm.frobenius(X)),
}


class TestExtremeScales:
    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    @pytest.mark.parametrize("name", list(_SCALED))
    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_scaled_input_gives_the_scaled_result(self, embedding, name, c):
        # The squares of these moduli overflow or underflow: the function
        # runs on a power-of-two rescaled copy and scales back.
        X = scale_instance(embedding)
        want = _SCALED[name](X, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _SCALED[name](X * c, c)
        assert np.linalg.norm(got / c - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    @pytest.mark.parametrize("name", list(_SCALED))
    @pytest.mark.parametrize("e", [450, -450])
    def test_power_of_two_scale_is_exact(self, embedding, name, e):
        X = scale_instance(embedding)
        want = _SCALED[name](X, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _SCALED[name](X * math.ldexp(1.0, e), math.ldexp(1.0, e))
        assert got.tobytes() == np.ldexp(want.view(np.float64), e).tobytes()

    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    @pytest.mark.parametrize("name", ["prox_trace", "prox_l1"])
    def test_largest_modulus_past_the_largest_float(self, capfd, embedding, name):
        # Every coefficient is finite, but the largest modulus is inf: the
        # prox reads its exponent from the coefficients, so it shrinks at a
        # scale where the squares are finite.
        X, k = overflow_instance(embedding)
        want = _SCALED[name](X, 1.0)
        assert hm.max_modulus(ldexp(X, k)) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _SCALED[name](ldexp(X, k), math.ldexp(1.0, k))
        assert "On entry to" not in capfd.readouterr().err
        assert got.tobytes() == np.ldexp(want.view(np.float64), k).tobytes()
