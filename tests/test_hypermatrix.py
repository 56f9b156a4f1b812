import copy
import dataclasses
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarpcp.hypermatrix as hm
from polarpcp import (
    COMPLEX,
    REAL,
    HyperMatrix,
    PolarScalar,
    SpectralMatrix,
    adjoint,
    cft,
    icft,
    pcp_ialm,
    prox_l1,
    prox_trace,
    singular_moduli,
    stride_permutation,
    tsvd,
)
from polarpcp.hypermatrix import UNITARY, UNNORMALIZED
from polarpcp.tsvd import TubeTransform

from helpers import (
    dense_permutation,
    hyper_matmul_direct,
    kronecker_transforms,
    random_hypermatrix,
    raises_exactly,
    random_tube,
    tube_product_direct,
)


def table_matrix():
    """2x2 matrix over K_2 with the worked-example coefficient names."""
    a0, a1, b0, b1, c0, c1, d0, d1 = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
    data = np.array([[[a0, a1], [c0, c1]], [[b0, b1], [d0, d1]]])
    return HyperMatrix(data), (a0, a1, b0, b1, c0, c1, d0, d1)


class TestAdjoint:
    def test_worked_example(self):
        A, (a0, a1, b0, b1, c0, c1, d0, d1) = table_matrix()
        expected = np.array(
            [
                [a0, a1, c0, c1],
                [a1, a0, c1, c0],
                [b0, b1, d0, d1],
                [b1, b0, d1, d0],
            ]
        )
        assert np.array_equal(adjoint(A), expected)

    def test_identity(self):
        for m, n in ((1, 1), (3, 2), (2, 5)):
            assert np.allclose(adjoint(HyperMatrix.identity(m, n)), np.eye(m * n))

    def test_product_law(self):
        rng = np.random.default_rng(0)
        A = random_hypermatrix(rng, 3, 2, 3, REAL)
        B = random_hypermatrix(rng, 2, 4, 3, REAL)
        lhs = adjoint(A @ B)
        rhs = adjoint(A) @ adjoint(B)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_sum_and_conj_transpose_laws(self):
        rng = np.random.default_rng(1)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 3, 2, 4, field)
            B = random_hypermatrix(rng, 3, 2, 4, field)
            assert np.allclose(adjoint(A + B), adjoint(A) + adjoint(B))
            assert np.allclose(adjoint(A.conj_transpose()), adjoint(A).conj().T)

    def test_inverse_law(self):
        rng = np.random.default_rng(2)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 3, 3, 2, field) + HyperMatrix.identity(3, 2, field) * 5.0
            lhs = adjoint(hm.inv(A))
            rhs = np.linalg.inv(adjoint(A))
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_inv_rejects_singular(self):
        A = HyperMatrix.zeros(2, 2, 3)
        with pytest.raises(np.linalg.LinAlgError):
            hm.inv(A)


class TestStridePermutation:
    def test_documented_example(self):
        f = stride_permutation(4, 2)
        assert f.tolist() == [0, 2, 1, 3]
        x = np.array([10.0, 11.0, 12.0, 13.0])
        assert np.array_equal(x[f], [10.0, 12.0, 11.0, 13.0])

    def test_stride_one_is_identity(self):
        assert stride_permutation(7, 1).tolist() == list(range(7))

    def test_mutually_inverse(self):
        m, n = 3, 2
        P1 = dense_permutation(stride_permutation(m * n, m))
        P2 = dense_permutation(stride_permutation(m * n, n))
        assert np.array_equal(P1 @ P2, np.eye(m * n))

    def test_is_permutation(self):
        for m, s in ((6, 2), (6, 3), (12, 4), (8, 8), (5, 5)):
            f = stride_permutation(m, s)
            assert sorted(f.tolist()) == list(range(m))

    def test_invalid_sizes(self):
        # A bool or a float is no size: (True, True) gave [0], and
        # (4.0, 2) a float index map.
        for m, s in ((6, 4), (0, 1), (4, 0), (3, 2), (True, True), (4.0, 2), (4, 2.0)):
            with pytest.raises(ValueError):
                stride_permutation(m, s)


class TestCft:
    def test_worked_example_blocks(self):
        A, (a0, a1, b0, b1, c0, c1, d0, d1) = table_matrix()
        S = cft(A)
        sums = np.array([[a0 + a1, c0 + c1], [b0 + b1, d0 + d1]])
        diffs = np.array([[a0 - a1, c0 - c1], [b0 - b1, d0 - d1]])
        assert np.allclose(S.blocks[0], sums)
        assert np.allclose(S.blocks[1], diffs)
        # unitary normalization differs by exactly sqrt(n)
        S2 = cft(A, UNITARY)
        assert np.allclose(S2.blocks * math.sqrt(2), S.blocks)

    def test_flat_tubes_give_identical_blocks(self):
        rng = np.random.default_rng(3)
        data = np.zeros((3, 2, 5))
        data[:, :, 0] = rng.standard_normal((3, 2))
        S = cft(HyperMatrix(data))
        for b in range(1, 5):
            assert np.allclose(S.blocks[b], S.blocks[0])

    def test_matches_dense_shuffle_oracle(self):
        # Dense block-diagonalization of the adjoint.  With the gather
        # convention of stride_permutation the regrouping shuffle is
        # P_{ln,n} (.) P_{mn,n}^{-1}, the inverse orientation of
        # P_{ln,l} (.) P_{mn,m}^{-1}; both coincide when l = n.
        rng = np.random.default_rng(4)
        l, m, n = 2, 3, 4
        A = random_hypermatrix(rng, l, m, n, REAL)
        F = TubeTransform.dft(n).matrix("unitary")
        Pl = dense_permutation(stride_permutation(l * n, n))
        Pm = dense_permutation(stride_permutation(m * n, n))
        dense = (
            Pl
            @ np.kron(np.eye(l), F)
            @ adjoint(A)
            @ np.kron(np.eye(m), F.conj().T)
            @ np.linalg.inv(Pm)
        )
        S = cft(A)
        for b in range(n):
            block = dense[b * l : (b + 1) * l, b * m : (b + 1) * m]
            assert np.abs(block - S.blocks[b]).max() <= 1e-12 * max(np.abs(block).max(), 1.0)
            dense[b * l : (b + 1) * l, b * m : (b + 1) * m] = 0.0
        assert np.abs(dense).max() <= 1e-12

    def test_real_field_blocks_conjugate_symmetric(self):
        rng = np.random.default_rng(5)
        A = random_hypermatrix(rng, 3, 4, 6, REAL)
        S = cft(A)
        for b in range(6):
            assert np.allclose(S.blocks[b], np.conj(S.blocks[(-b) % 6]))

    def test_parseval(self):
        rng = np.random.default_rng(6)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 4, 3, 5, field)
            total = sum(np.linalg.norm(b) ** 2 for b in cft(A).blocks)
            expected = 5 * hm.frobenius(A) ** 2
            assert abs(total - expected) <= 1e-12 * expected
            total_u = sum(np.linalg.norm(b) ** 2 for b in cft(A, UNITARY).blocks)
            assert abs(total_u - hm.frobenius(A) ** 2) <= 1e-12 * total_u


class TestIcft:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        A = random_hypermatrix(rng, 4, 3, 5, COMPLEX)
        for norm in (UNNORMALIZED, UNITARY):
            B = icft(cft(A, norm), COMPLEX)
            assert B.field == COMPLEX
            assert np.abs(B.data - A.data).max() <= 1e-12 * np.abs(A.data).max()

    @pytest.mark.parametrize("k", [-1000, -900, -600, -40, 0, 40, 600, 900])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_roundtrip_keeps_the_field_at_every_scale(self, field, k):
        # A real field keeps the real part of the complex-field inverse, bit
        # for bit, far below and far above unit scale.
        rng = np.random.default_rng(k + 1000)
        for n in range(1, 6):
            A = random_hypermatrix(rng, 4, 3, n, field)
            A = HyperMatrix(A.data * 2.0**k, field)
            for norm in (UNNORMALIZED, UNITARY):
                S = cft(A, norm)
                B = icft(S, field)
                assert B.field == field
                assert np.abs(B.data - A.data).max() <= 1e-12 * np.abs(A.data).max()
                if field == REAL:
                    assert B.data.tobytes() == icft(S, COMPLEX).data.real.tobytes()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_spectrum_keeps_the_field_asked_for(self, field):
        B = icft(SpectralMatrix(np.zeros((3, 2, 2), complex)), field)
        assert B.field == field and not B.data.any()

    def test_flat_spectrum_gives_leading_coefficient(self):
        blocks = np.repeat(np.arange(6.0).reshape(1, 2, 3), 4, axis=0)
        B = icft(SpectralMatrix(blocks), REAL)
        assert np.allclose(B.data[:, :, 0], np.arange(6.0).reshape(2, 3))
        assert np.abs(B.data[:, :, 1:]).max() <= 1e-14

    def test_real_field_keeps_the_real_part(self):
        # A conjugate-symmetric spectrum's inverse is real up to rounding;
        # the real field drops that rounding, and a bogus field raises.
        rng = np.random.default_rng(8)
        A = random_hypermatrix(rng, 3, 2, 4, REAL)
        S = cft(A)
        full = icft(S, COMPLEX).data
        assert np.abs(full.imag).max() <= 1e-15 * np.abs(full).max()
        assert icft(S, REAL).data.tobytes() == full.real.tobytes()
        with pytest.raises(ValueError):
            icft(S, "quaternion")


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(9)
        A = random_hypermatrix(rng, 3, 4, 2, REAL)
        assert np.allclose((A @ HyperMatrix.identity(4, 2)).data, A.data)

    def test_against_direct_convolution(self):
        rng = np.random.default_rng(10)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 3, 4, 3, field)
            B = random_hypermatrix(rng, 4, 2, 3, field)
            direct = hyper_matmul_direct(A, B)
            C = A @ B
            assert C.field == field
            assert np.abs(C.data - direct.data).max() <= 1e-10 * np.abs(direct.data).max()

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            random_hypermatrix(rng, 2, 3, 2, REAL) @ random_hypermatrix(rng, 2, 3, 2, REAL)


class TestConjTranspose:
    def test_involution(self):
        rng = np.random.default_rng(12)
        A = random_hypermatrix(rng, 3, 2, 4, COMPLEX)
        assert np.allclose(A.conj_transpose().conj_transpose().data, A.data)

    def test_adjoint_oracle(self):
        rng = np.random.default_rng(13)
        A = random_hypermatrix(rng, 3, 2, 4, REAL)
        assert np.allclose(adjoint(A.conj_transpose()), adjoint(A).T)

    def test_hermitian_fixed_point(self):
        rng = np.random.default_rng(14)
        B = random_hypermatrix(rng, 3, 3, 4, COMPLEX)
        A = B + B.conj_transpose()
        assert np.allclose(A.conj_transpose().data, A.data, atol=1e-14)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_special_values_keep_their_bytes(self, field):
        # Regression guard: the tube DFT's conjugation, written out as the
        # roll of the reversed tubes, moves -0.0, inf and nan bit for bit.
        data = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5] * 3,
                        np.float64 if field == REAL else np.complex128)
        if field == COMPLEX:
            data.imag = np.roll(data.real, 3)
        A = HyperMatrix(data.reshape(2, 3, 4), field)
        want = np.conj(np.roll(np.transpose(A.data, (1, 0, 2))[:, :, ::-1], 1, axis=2))
        assert A.H.data.tobytes() == np.ascontiguousarray(want).tobytes()
        for i, k in itertools.product(range(2), range(3)):
            p = PolarScalar(A.data[i, k], field)
            assert p.conj().coeffs.tobytes() == want[k, i].tobytes()


class TestNormsAndIsomorphisms:
    def test_frobenius_of_bicomplex_scalar(self):
        g = np.array([[[1 + 2j, 3 + 4j, 5 + 6j]]])
        assert hm.frobenius(HyperMatrix(g)) == pytest.approx(math.sqrt(91), rel=1e-15)

    def test_frobenius_of_identity(self):
        for m in (1, 4, 9):
            assert hm.frobenius(HyperMatrix.identity(m, 3)) == pytest.approx(math.sqrt(m))

    def test_inner_trace_vs_vec(self):
        rng = np.random.default_rng(15)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 3, 4, 3, field)
            B = random_hypermatrix(rng, 3, 4, 3, field)
            # trace form: sum of the real parts of the diagonal tubes of A B*
            C = A @ B.conj_transpose()
            trace = sum(float(np.real(C.data[i, i, 0])) for i in range(3))
            vec_dot = float(hm.vec(A) @ hm.vec(B))
            got = hm.inner(A, B)
            assert got == pytest.approx(trace, rel=1e-12)
            assert got == pytest.approx(vec_dot, rel=1e-12)

    def test_vec_norm_identity(self):
        rng = np.random.default_rng(16)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 2, 5, 4, field)
            v = hm.vec(A)
            assert float(v @ v) == pytest.approx(hm.frobenius(A) ** 2, rel=1e-12)

    def test_unfold_slab_counts(self):
        rng = np.random.default_rng(17)
        A = random_hypermatrix(rng, 3, 4, 5, REAL)
        assert hm.unfold(A).shape == (3, 4 * 5)
        B = random_hypermatrix(rng, 3, 4, 5, COMPLEX)
        assert hm.unfold(B).shape == (3, 2 * 4 * 5)

    def test_unfold_layout(self):
        A, (a0, a1, b0, b1, c0, c1, d0, d1) = table_matrix()
        expected = np.array([[a0, c0, a1, c1], [b0, d0, b1, d1]])
        assert np.array_equal(hm.unfold(A), expected)
        # complex coefficients: real and imaginary slab of each index in turn
        B = HyperMatrix(A.data + 1j * (A.data + 10.0))
        expected = np.array(
            [
                [a0, c0, a0 + 10, c0 + 10, a1, c1, a1 + 10, c1 + 10],
                [b0, d0, b0 + 10, d0 + 10, b1, d1, b1 + 10, d1 + 10],
            ]
        )
        assert np.array_equal(hm.unfold(B), expected)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_unfold_matches_slab_concatenation(self, field):
        rng = np.random.default_rng(18)
        for l, m, n in ((1, 1, 1), (3, 4, 1), (2, 5, 3), (4, 1, 4)):
            A = random_hypermatrix(rng, l, m, n, field)
            slabs = [A.data[:, :, t] for t in range(n)]
            if field == COMPLEX:
                slabs = [part for slab in slabs for part in (slab.real, slab.imag)]
            out = hm.unfold(A)
            assert np.array_equal(out, np.concatenate(slabs, axis=1))
            assert out.flags.c_contiguous and not np.shares_memory(out, A.data)

    def test_spectral_norm_identity(self):
        assert hm.spectral_norm(HyperMatrix.identity(4, 3)) == pytest.approx(1.0)

    def test_spectral_norm_adjoint_oracle(self):
        rng = np.random.default_rng(18)
        A = random_hypermatrix(rng, 3, 3, 2, REAL)
        expected = np.linalg.norm(adjoint(A), 2)
        assert hm.spectral_norm(A) == pytest.approx(expected, rel=1e-12)

    def test_max_modulus_worked_example(self):
        A, coeffs = table_matrix()
        mods = [math.hypot(coeffs[i], coeffs[i + 1]) for i in range(0, 8, 2)]
        assert hm.max_modulus(A) == pytest.approx(max(mods), rel=1e-15)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_max_modulus_at_extreme_scales(self, field):
        # Squares of moduli past 2^+-511 would overflow or underflow; the
        # largest modulus is then measured on a power-of-two scaled copy.
        A = random_hypermatrix(np.random.default_rng(20), 3, 4, 3, field)
        mod = hm.max_modulus(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in (-1000, -600, -450, 450, 600, 1020):
                assert hm.max_modulus(A * math.ldexp(1.0, e)) == math.ldexp(mod, e)
            for c in (1e-200, 1e-160, 1e155, 1e200, 1e300):
                assert hm.max_modulus(A * c) == pytest.approx(mod * c, rel=1e-15)
            # The smallest subnormal is scaled by 2^1073, which is past the largest float.
            tiny = HyperMatrix.zeros(2, 2, 3, field)
            tiny.data[1, 0, 2] = -5e-324
            assert hm.max_modulus(tiny) == hm.frobenius(tiny) == 5e-324
        assert hm.max_modulus(HyperMatrix.zeros(2, 2, 3, field)) == 0.0


class TestScaleExponent:
    def test_reads_the_largest_float_magnitude(self):
        assert hm.scale_exponent(np.array([[1.0, -3 * 2.0**500]])) == 502
        assert hm.scale_exponent(np.array([0.75 * 2.0**-500, -2.0**-501])) == -500

    def test_complex_is_read_as_float_pairs(self):
        # Each part is 0.75 * 2^400, in the range, though the modulus,
        # 1.06 * 2^400, is not.
        part = 0.75 * 2.0**400
        assert hm.scale_exponent(np.array([part - 1j * part])) == 0
        assert hm.scale_exponent(np.array([[1.0 - 1j * 2.0**500, 0j]])) == 501
        assert hm.scale_exponent(np.array([2.0**-450 + 1j * 2.0**-440])) == -439

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf])
    def test_zero_and_non_finite_give_zero(self, dtype, value):
        a = np.full((2, 3, 4), 2.0**600, dtype)
        a[1, 2, 3] = value
        # A zero among huge values keeps their exponent; a nan or an inf
        # among them gives 0.
        assert hm.scale_exponent(a) == (0 if value else 601)
        assert hm.scale_exponent(np.full((2, 3), value, dtype)) == 0

    def test_both_bounds_are_inclusive(self):
        low, high = hm.SAFE_RANGE
        assert hm.scale_exponent(np.array([low])) == hm.scale_exponent(np.array([-high])) == 0
        assert hm.scale_exponent(np.array([np.nextafter(low, 0.0)])) == -400
        assert hm.scale_exponent(np.array([np.nextafter(high, math.inf)])) == 401

    def test_subnormal(self):
        assert hm.scale_exponent(np.array([0.0, -5e-324])) == -1073
        assert hm.scale_exponent(np.array([1j * 2.0**-1030])) == -1029


class TestConstruction:
    def test_entry_roundtrip(self):
        rng = np.random.default_rng(19)
        A = random_hypermatrix(rng, 2, 3, 4, COMPLEX)
        p = PolarScalar(A.data[1, 2], A.field)
        assert isinstance(p, PolarScalar)
        assert np.array_equal(p.coeffs, A.data[1, 2])

    def test_field_validation(self):
        with pytest.raises(ValueError):
            HyperMatrix(np.ones((2, 2, 2)) * 1j, REAL)
        with pytest.raises(ValueError):
            HyperMatrix(np.ones((2, 2)), REAL)

    def test_scalar_arithmetic(self):
        rng = np.random.default_rng(20)
        A = random_hypermatrix(rng, 2, 2, 3, REAL)
        assert np.allclose((A * 2.0 - A).data, A.data)
        assert (A * 1j).field == COMPLEX
        assert np.allclose((A / 2.0).data, A.data / 2.0)

    def test_complex_data_with_zero_imaginary_parts_enters_a_real_field(self):
        data = np.random.default_rng(21).standard_normal((3, 2, 4))
        A = HyperMatrix(data.astype(np.complex128), REAL)
        assert A.field == REAL and A.data.dtype == np.float64
        assert A.data.tobytes() == data.tobytes()


_A, _B = HyperMatrix(np.zeros((2, 3, 2))), HyperMatrix(np.zeros((3, 2, 2)))


class TestInputChecks:
    @pytest.mark.parametrize("call, kind, message", [
        (lambda: _A + _B, ValueError, "shape mismatch: (2, 3, 2) vs (3, 2, 2)"),
        (lambda: _A - _B, ValueError, "shape mismatch: (2, 3, 2) vs (3, 2, 2)"),
        (lambda: hm.inner(_A, _B), ValueError, "shape mismatch: (2, 3, 2) vs (3, 2, 2)"),
        (lambda: hm.inv(_A), ValueError, "matrix inverse requires a square matrix"),
        (lambda: _A + 1, TypeError, "unsupported operand type(s) for +: 'HyperMatrix' and 'int'"),
        (lambda: SpectralMatrix(np.zeros((2, 2))), ValueError,
         "blocks must have shape (n, l, m) with n, l, m >= 1"),
        (lambda: SpectralMatrix(np.zeros((1, 2, 2)), "orthonormal"), ValueError,
         "unknown normalization 'orthonormal'"),
        (lambda: HyperMatrix(np.zeros((1, 1, 2)), "quaternion"), ValueError,
         "field must be 'real' or 'complex', got 'quaternion'"),
    ], ids=["add", "sub", "inner", "inv", "add-int", "spectral-shape",
            "spectral-normalization", "field"])
    def test_rejects(self, call, kind, message):
        with raises_exactly(kind, message):
            call()

    @pytest.mark.parametrize("field, value", [("normalization", "bogus"),
                                              ("blocks", np.ones((4, 3, 2)))])
    def test_spectral_matrix_is_frozen(self, field, value):
        # An assignment would skip __post_init__'s checks.
        S = cft(HyperMatrix(np.ones((3, 2, 4))), UNITARY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(S, field, value)
        assert S.normalization == UNITARY and S.blocks.dtype == np.complex128

    @pytest.mark.parametrize("field, value", [("data", np.ones((3, 2, 4), bool)),
                                              ("field", COMPLEX)])
    def test_hyper_matrix_is_frozen(self, field, value):
        # An assignment would skip the constructor's checks; the
        # coefficients themselves may still be written.
        A = HyperMatrix(np.random.default_rng(22).standard_normal((3, 2, 4)))
        data = A.data
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(A, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(A, field)
        assert A.data is data and A.field == REAL
        A.data[0, 0, 0] = 2.0
        B = pickle.loads(pickle.dumps(A))
        assert B.data.tobytes() == A.data.tobytes() and B.field == REAL

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_hyper_matrix_round_trips(self, field, how):
        # Regression guard: pickle and copy restore the instance dict.
        A = random_hypermatrix(np.random.default_rng(23), 3, 2, 4, field)
        B = {"pickle": lambda: pickle.loads(pickle.dumps(A)), "copy": lambda: copy.copy(A),
             "deepcopy": lambda: copy.deepcopy(A)}[how]()
        assert type(B) is HyperMatrix and B is not A
        assert B.field == field and B.data.dtype == A.data.dtype
        assert B.data.tobytes() == A.data.tobytes()
        assert (B.data is A.data) == (how == "copy")
        with pytest.raises(dataclasses.FrozenInstanceError):
            B.field = REAL


FIELDS = (REAL, COMPLEX)


@st.composite
def _matrix_pairs(draw):
    """A (l x m) and B (m x k), l, m, k in 1..3, sharing n in 1..8; each real
    or complex."""
    n = draw(st.integers(1, 8))
    l, m, k = (draw(st.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (random_hypermatrix(rng, l, m, n, draw(st.sampled_from(FIELDS))),
            random_hypermatrix(rng, m, k, n, draw(st.sampled_from(FIELDS))))


KRONECKER = kronecker_transforms()


@st.composite
def _transform_tubes(draw):
    """(T, a, b): a transform of length n in 1..8, any Kronecker product of
    DFT and skew-DFT factors (the DFT, the skew DFT, the group DFTs and
    Walsh-Hadamard among them), and two random tubes of that length."""
    n = draw(st.integers(1, 8))
    T = draw(st.sampled_from([T for T in KRONECKER if T.n == n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (random_tube(rng, n, draw(st.sampled_from(FIELDS))) for _ in range(2))
    return T, a, b


class TestAlgebraLaws:
    @settings(max_examples=100, deadline=None)
    @given(pair=_matrix_pairs())
    def test_matmul_matches_adjoint_product(self, pair):
        A, B = pair
        want = adjoint(A) @ adjoint(B)
        got = adjoint(hm.matmul(A, B))
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(case=_transform_tubes())
    def test_transform_diagonalizes_the_tube_product(self, case):
        T, a, b = case
        want = T.forward(a) * T.forward(b)
        got = T.forward(tube_product_direct(T, a, b))
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@st.composite
def _spectral_cases(draw):
    """(T, A, B): a DFT or skew-DFT of length n in 1..8, a random real or
    complex 7x5 matrix A and a square 1..5 matrix B of the same field, with
    two equal rows half the time (a singular matrix)."""
    n = draw(st.integers(1, 8))
    T = TubeTransform.from_name(draw(st.sampled_from(["dft", "skew-dft"])), n)
    field = draw(st.sampled_from(FIELDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_hypermatrix(rng, 7, 5, n, field)
    m = draw(st.integers(1, 5))
    B = random_hypermatrix(rng, m, m, n, field)
    if m > 1 and draw(st.booleans()):
        B.data[1] = B.data[0]
    return T, A, B


class TestSingularValuesFromTheState:
    @settings(max_examples=200, deadline=None)
    @given(case=_spectral_cases())
    def test_bitwise_equal_to_full_stack_formula(self, case):
        # spectral_norm and inv read the singular values of the packed
        # state; the full-stack slice_svd gives the same max and min.
        T, A, B = case
        want = float(T.slice_svd(T.hat_state(A), compute_uv=False).max())
        assert np.float64(hm.spectral_norm(A, T)).tobytes() == np.float64(want).tobytes()
        D = TubeTransform.dft(B.n)
        svals = D.slice_svd(D.hat_state(B), compute_uv=False)
        if svals.min() <= hm.SINGULAR_RTOL * svals.max():
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                hm.inv(B)
        else:
            assert hm.inv(B).data.tobytes() == D.unhat(np.linalg.inv(D.hat(B)), B.field).data.tobytes()

    @pytest.mark.parametrize("field,coeffs,singular", [
        (REAL, [1.0, 1.0], True),                 # 1 + e_1 is a zero divisor of K_2
        (REAL, [1.0, 1.0 - 1e-13], True),         # spectrum (2, 1e-13)
        (REAL, [1.0, 0.5], False),
        (REAL, [1.0, 1.0, 1.0, 1.0], True),       # spectrum (4, 0, 0, 0)
        (REAL, [2.0, 1.0, 0.0, 0.0], False),
        (REAL, [3.0], False),
        (COMPLEX, [1j, 1j], True),
        (COMPLEX, [1.0, 1j, -1.0, -1j], True),    # spectrum (0, 0, 0, 4)
        (COMPLEX, [1.0 + 2j, 1j, 0.5, 0.0], False),
    ], ids=repr)
    def test_one_by_one_matches_full_stack_formula(self, field, coeffs, singular):
        # A 1 x 1 inverse reads the moduli of the spectrum instead of an SVD.
        B = HyperMatrix(np.array(coeffs).reshape(1, 1, -1), field)
        D = TubeTransform.dft(B.n)
        svals = D.slice_svd(D.hat_state(B), compute_uv=False)
        assert (svals.min() <= hm.SINGULAR_RTOL * svals.max()) == singular
        if singular:
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                hm.inv(B)
        else:
            assert hm.inv(B).data.tobytes() == D.unhat(np.linalg.inv(D.hat(B)), field).data.tobytes()


def _with_non_finite(A, bad):
    A.data[A.l // 2, A.m // 2, 0] = bad if A.field == REAL else complex(1.0, bad)
    return A


# Every entry that needs finite input, with the name its message gives it.
FINITE_ENTRIES = {
    "inv": (hm.inv, "matrix inverse input"),
    "spectral_norm": (hm.spectral_norm, "spectral_norm input"),
    "prox_l1": (lambda A: prox_l1(A, 0.5), "prox_l1 input"),
    "prox_trace": (lambda A: prox_trace(A, 0.5), "prox_trace input"),
    "pcp_ialm": (pcp_ialm, "solver input"),
    "tsvd": (tsvd, "t-SVD input"),
    "singular_moduli": (singular_moduli, "t-SVD input"),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", list(FINITE_ENTRIES))
    def test_each_entry_names_its_input(self, entry, field, bad):
        call, what = FINITE_ENTRIES[entry]
        A = _with_non_finite(random_hypermatrix(np.random.default_rng(23), 4, 4, 3, field), bad)
        with raises_exactly(ValueError, f"{what} contains non-finite values"):
            call(A)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_norms_pass_non_finite_input(self, field, bad):
        A = _with_non_finite(random_hypermatrix(np.random.default_rng(23), 4, 4, 3, field), bad)
        for norm in (hm.frobenius, hm.max_modulus):
            got = norm(A)
            assert (got == math.inf) if math.isinf(bad) else math.isnan(got), norm.__name__

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("size", [1, 3])
    def test_inverse_raises_value_error(self, field, bad, size):
        # A 1 x 1 inf used to invert to zeros, and nan to pass for singular.
        A = random_hypermatrix(np.random.default_rng(17), size, size, 2, field)
        A = _with_non_finite(A, bad)
        with pytest.raises(ValueError, match="non-finite"):
            hm.inv(A)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("shape", [(3, 4, 3), (70, 70, 2)])
    def test_spectral_norm_raises_warns_and_prints_nothing(self, capfd, field, bad, shape):
        # nan used to fail in the SVD, and inf to warn in the fft first.
        A = _with_non_finite(random_hypermatrix(np.random.default_rng(18), *shape, field), bad)
        for T in ("dft", TubeTransform.from_name("skew-dft", A.n)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    hm.spectral_norm(A, T)
        assert capfd.readouterr() == ("", "")
