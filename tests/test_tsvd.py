import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarpcp._blas as _blas
import polarpcp.hypermatrix as hm
from polarpcp import (
    COMPLEX,
    REAL,
    HyperMatrix,
    TubeTransform,
    adjoint,
    reconstruct,
    singular_moduli,
    t_conj_transpose,
    t_matmul,
    tsvd,
)
from polarpcp.prox import shrink_singular_values

from helpers import random_hypermatrix

ALL_TRANSFORMS = [
    TubeTransform.dft(6),
    TubeTransform.skew_dft(6),
    TubeTransform.group_dft((2, 3)),
]


class TestTubeTransform:
    @pytest.mark.parametrize("T", ALL_TRANSFORMS, ids=lambda t: t.kind)
    def test_forward_inverse_roundtrip(self, T):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        back = T.inverse(T.forward(x, axis=1), axis=1)
        assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("T", ALL_TRANSFORMS, ids=lambda t: t.kind)
    def test_matrix_matches_forward(self, T):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        assert np.allclose(T.matrix() @ x, T.forward(x), atol=1e-12)

    @pytest.mark.parametrize("T", ALL_TRANSFORMS, ids=lambda t: t.kind)
    def test_unitary_matrix(self, T):
        M = T.matrix("unitary")
        assert np.abs(M @ M.conj().T - np.eye(6)).max() <= 1e-12

    def test_skew_matrix_entries(self):
        n = 5
        M = TubeTransform.skew_dft(n).matrix("unitary")
        k, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        expected = np.exp(-1j * math.pi * i * (2 * k + 1) / n) / math.sqrt(n)
        assert np.array_equal(M, expected)

    def test_walsh_hadamard_entries(self):
        T = TubeTransform.walsh_hadamard(8)
        M = T.matrix("unitary")
        expected = np.array([[1.0]])
        H = np.array([[1.0, 1.0], [1.0, -1.0]])
        for _ in range(3):
            expected = np.kron(expected, H)
        assert np.array_equal(M.real, expected / math.sqrt(8))
        assert np.abs(M.imag).max() == 0.0

    def test_walsh_hadamard_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TubeTransform.walsh_hadamard(6)

    def test_group_factor_validation(self):
        with pytest.raises(ValueError):
            TubeTransform("group_dft", 6, (2, 2))
        with pytest.raises(ValueError):
            TubeTransform("dft", 4, (2, 2))
        with pytest.raises(ValueError):
            TubeTransform("whatever", 4)

    def test_group_dft_with_single_factor_is_dft(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        G = TubeTransform.group_dft((5,))
        D = TubeTransform.dft(5)
        assert np.allclose(G.forward(x), D.forward(x), atol=1e-13)

    @pytest.mark.parametrize("T", ALL_TRANSFORMS, ids=lambda t: t.kind)
    def test_conjugate_pairing(self, T):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        hat = T.forward(x)
        pair = T.conjugate_pairing()
        assert sorted(pair.tolist()) == list(range(6))
        assert np.array_equal(pair[pair], np.arange(6))  # involution
        assert np.allclose(hat[pair], np.conj(hat), atol=1e-12)

    def test_from_name(self):
        assert TubeTransform.from_name("dft", 3).kind == "dft"
        assert TubeTransform.from_name("skew-dft", 3).kind == "skew_dft"
        assert TubeTransform.from_name("wht", 4).factors == (2, 2)
        with pytest.raises(ValueError):
            TubeTransform.from_name("dct", 3)


def _transforms_for(n):
    out = [TubeTransform.dft(n), TubeTransform.skew_dft(n)]
    if n & (n - 1) == 0:
        out.append(TubeTransform.walsh_hadamard(n))
    else:
        out.append(TubeTransform.group_dft((n,)))
    return out


class TestTsvd:
    def test_identity_input(self):
        for n in (1, 3, 4):
            A = HyperMatrix.identity(3, n)
            for T in _transforms_for(n):
                f = tsvd(A, T)
                assert np.allclose(f.S.data, A.data, atol=1e-12)
                assert np.allclose(singular_moduli(A, T), 1.0, atol=1e-12)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_reconstruction(self, field):
        rng = np.random.default_rng(4)
        A = random_hypermatrix(rng, 6, 4, 3, field)
        for T in _transforms_for(3):
            f = tsvd(A, T)
            assert f.U.field == field and f.S.field == field and f.V.field == field
            R = reconstruct(f)
            assert hm.frobenius(R - A) <= 1e-10 * hm.frobenius(A)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_factor_unitarity(self, field):
        rng = np.random.default_rng(5)
        A = random_hypermatrix(rng, 5, 4, 4, field)
        for T in _transforms_for(4):
            f = tsvd(A, T)
            for Q in (f.U, f.V):
                I = HyperMatrix.identity(Q.l, 4, Q.field)
                err = hm.frobenius(t_matmul(Q, t_conj_transpose(Q, T), T) - I)
                assert err <= 1e-8

    def test_s_is_f_diagonal_and_ordered(self):
        rng = np.random.default_rng(6)
        A = random_hypermatrix(rng, 5, 3, 4, COMPLEX)
        f = tsvd(A)
        offdiag = f.S.data.copy()
        for i in range(3):
            offdiag[i, i, :] = 0.0
        assert np.abs(offdiag).max() <= 1e-12
        mods = [f.S.entry(i, i).modulus() for i in range(3)]
        assert mods == sorted(mods, reverse=True)
        assert np.allclose(mods, singular_moduli(A), atol=1e-10)

    def test_tessarine_change_of_basis(self):
        # For 2-tubes of complex coefficients the t-SVD is the pair of SVDs
        # of the sum and difference slices, mapped back by half-sum/half-diff.
        rng = np.random.default_rng(7)
        A = random_hypermatrix(rng, 5, 4, 2, COMPLEX)
        f = tsvd(A)
        plus = A.data[:, :, 0] + A.data[:, :, 1]
        minus = A.data[:, :, 0] - A.data[:, :, 1]
        up, sp, vhp = np.linalg.svd(plus)
        um, sm, vhm = np.linalg.svd(minus)
        assert np.abs(f.U.data[:, :, 0] - (up + um) / 2).max() <= 1e-10
        assert np.abs(f.U.data[:, :, 1] - (up - um) / 2).max() <= 1e-10
        smat_p = np.zeros((5, 4)); smat_p[np.arange(4), np.arange(4)] = sp
        smat_m = np.zeros((5, 4)); smat_m[np.arange(4), np.arange(4)] = sm
        assert np.abs(f.S.data[:, :, 0] - (smat_p + smat_m) / 2).max() <= 1e-10
        assert np.abs(f.S.data[:, :, 1] - (smat_p - smat_m) / 2).max() <= 1e-10
        assert np.abs(f.V.data[:, :, 0] - (vhp.conj().T + vhm.conj().T) / 2).max() <= 1e-10

    def test_transform_length_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            tsvd(random_hypermatrix(rng, 2, 2, 3, REAL), TubeTransform.dft(4))


class TestSingularModuli:
    def test_frobenius_identity(self):
        rng = np.random.default_rng(9)
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 6, 4, 5, field)
            for T in _transforms_for(5):
                mods = singular_moduli(A, T)
                assert np.sum(mods**2) == pytest.approx(hm.frobenius(A) ** 2, rel=1e-10)

    def test_rank_one_constant_tubes(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((6, 1))
        v = rng.standard_normal((4, 1))
        data = np.zeros((6, 4, 3))
        data[:, :, 0] = u @ v.T
        mods = singular_moduli(HyperMatrix(data))
        assert mods[0] > 1e-3
        assert np.abs(mods[1:]).max() <= 1e-12 * mods[0]

    def test_pooled_adjoint_singular_values(self):
        rng = np.random.default_rng(11)
        A = random_hypermatrix(rng, 5, 5, 4, REAL)
        hat_svals = np.linalg.svd(
            np.moveaxis(np.fft.fft(A.data, axis=2), 2, 0), compute_uv=False
        ).ravel()
        dense_svals = np.linalg.svd(adjoint(A), compute_uv=False)
        assert np.allclose(np.sort(hat_svals), np.sort(dense_svals), atol=1e-10)


class TestReconstructAndTruncation:
    def test_zero_matrix(self):
        f = tsvd(HyperMatrix.zeros(3, 2, 4))
        assert np.abs(f.S.data).max() == 0.0
        assert hm.frobenius(reconstruct(f)) <= 1e-14

    def test_truncation_energy(self):
        rng = np.random.default_rng(12)
        A = random_hypermatrix(rng, 6, 5, 3, COMPLEX)
        f = tsvd(A)
        mods = singular_moduli(A)
        for k in (1, 3):
            Sk = f.S.copy()
            for i in range(k, 5):
                Sk.data[i, i, :] = 0.0
            f_trunc = type(f)(f.U, Sk, f.V, f.transform)
            err2 = hm.frobenius(A - reconstruct(f_trunc)) ** 2
            assert err2 == pytest.approx(np.sum(mods[k:] ** 2), rel=1e-8)


class TestAlgebraOps:
    def test_t_matmul_dft_matches_matmul(self):
        rng = np.random.default_rng(13)
        A = random_hypermatrix(rng, 3, 4, 3, COMPLEX)
        B = random_hypermatrix(rng, 4, 2, 3, COMPLEX)
        assert np.allclose(t_matmul(A, B).data, (A @ B).data, atol=1e-12)
        # one blockwise product and one transform class, re-exported by tsvd
        assert t_matmul is hm.matmul
        assert importlib.import_module("polarpcp.tsvd").TubeTransform is hm.TubeTransform

    def test_t_conj_transpose_dft_matches(self):
        rng = np.random.default_rng(14)
        A = random_hypermatrix(rng, 3, 4, 5, COMPLEX)
        assert np.allclose(t_conj_transpose(A).data, A.conj_transpose().data, atol=1e-12)

    def test_extended_von_neumann_inequality(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            l = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            field = REAL if rng.random() < 0.5 else COMPLEX
            A = random_hypermatrix(rng, l, m, n, field)
            B = random_hypermatrix(rng, l, m, n, field)
            lhs = hm.inner(A, B)
            rhs = float(np.sum(singular_moduli(A) * singular_moduli(B)))
            assert lhs <= rhs + 1e-9


_GROUP_FACTORS = {1: (1,), 2: (2,), 3: (3,), 4: (2, 2), 5: (5,), 6: (2, 3)}


@st.composite
def _slice_stacks(draw):
    """(transform, stack, real): the hat of a random real or complex tube matrix."""
    n = draw(st.integers(1, 6))
    T = draw(st.sampled_from([
        TubeTransform.dft(n), TubeTransform.skew_dft(n), TubeTransform.group_dft(_GROUP_FACTORS[n]),
    ]))
    real = draw(st.booleans())
    l, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_hypermatrix(rng, l, m, n, REAL if real else COMPLEX)
    return T, T.hat(A), real


class TestSliceSvd:
    @settings(max_examples=150, deadline=None)
    @given(case=_slice_stacks(), full_matrices=st.booleans(), compute_uv=st.booleans())
    def test_matches_unpaired_batched_svd(self, case, full_matrices, compute_uv):
        T, stack, real = case
        got = T.slice_svd(stack, real, full_matrices=full_matrices, compute_uv=compute_uv)
        want = np.linalg.svd(stack, full_matrices=full_matrices, compute_uv=compute_uv)
        s, s_ref = (got[1], want[1]) if compute_uv else (got, want)
        scale = s_ref.max()
        assert s.shape == s_ref.shape
        assert np.abs(s - s_ref).max() <= 1e-12 * scale
        if compute_uv:
            U, _, Vh = got
            assert U.shape == want[0].shape and Vh.shape == want[2].shape
            k = s.shape[1]
            rebuilt = (U[:, :, :k] * s[:, np.newaxis, :]) @ Vh[:, :k, :]
            assert np.abs(rebuilt - stack).max() <= 1e-12 * scale

    @settings(max_examples=150, deadline=None)
    @given(case=_slice_stacks(), full_matrices=st.booleans(), compute_uv=st.booleans())
    def test_one_call_per_slice_matches_batched_calls(self, case, full_matrices, compute_uv):
        # Large slices get one np.linalg.svd call each, small ones one call
        # per kind; lowering the size limit must not change a bit.
        T, stack, real = case
        kw = dict(full_matrices=full_matrices, compute_uv=compute_uv)
        batched = T.slice_svd(stack, real, **kw)
        limit = _blas.LANE_MIN_WORK
        _blas.LANE_MIN_WORK = 0
        try:
            single = T.slice_svd(stack, real, **kw)
        finally:
            _blas.LANE_MIN_WORK = limit
        pairs = zip(batched, single) if compute_uv else [(batched, single)]
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)

    @settings(max_examples=150, deadline=None)
    @given(case=_slice_stacks(), grouped=st.booleans(), cut=st.floats(0.0, 1.5))
    def test_compose_matches_full_product(self, case, grouped, cut):
        # cut >= 1 shrinks every group to zero; cut = 0 keeps them all.
        T, stack, real = case
        U, s, Vh = T.slice_svd(stack, real)
        s = shrink_singular_values(s, cut * np.sqrt(T.n) * s.max(), grouped)
        want = (U * s[:, np.newaxis, :]) @ Vh
        got = T.slice_compose(U, s, Vh, real)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
