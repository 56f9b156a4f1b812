import contextlib
import copy
import dataclasses
import functools
import importlib
import math
import pickle
import sys
import threading
import warnings

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
    PolarScalar,
    TSVDFactors,
    TubeTransform,
    adjoint,
    reconstruct,
    singular_moduli,
    t_conj_transpose,
    t_matmul,
    tsvd,
)
from polarpcp.prox import shrink_singular_values, tube_group_shrink

from helpers import (
    factored_slices,
    fft_overflow_representable,
    kronecker_transforms,
    ldexp,
    random_hypermatrix,
    reference_expand,
    reference_conj_transpose,
    reference_hat,
    reference_pack,
    reference_parts,
    reference_slice_compose,
    reference_slice_svd,
    reference_split,
    reference_svd_state,
    reference_unhat,
    reference_unpack,
    run_python,
)

ALL_TRANSFORMS = [
    pytest.param(TubeTransform.dft(6), id="dft"),
    pytest.param(TubeTransform.from_name("skew-dft", 6), id="skew_dft"),
    pytest.param(TubeTransform.from_name((("dft", 2), ("dft", 3)), 6), id="group_dft"),
]
# Every Kronecker product of DFT and skew-DFT factors with n <= 8.
KRONECKER = [pytest.param(T, id="x".join(f"{kind}{f}" for kind, f in T.factors))
             for T in kronecker_transforms()]


def _factor_matrix(kind, f):
    """A factor's matrix, built here: entry (j, k) is exp(-2 pi i j k / f)
    for a DFT factor and exp(-pi i (2j + 1) k / f) for a skew one."""
    j, k = np.meshgrid(np.arange(f), np.arange(f), indexing="ij")
    return np.exp(-1j * math.pi * (2 * j + (kind == "skew")) * k / f)


class TestTubeTransform:
    @pytest.mark.parametrize("T", KRONECKER)
    def test_forward_inverse_roundtrip(self, T):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, T.n)) + 1j * rng.standard_normal((4, T.n))
        back = T.inverse(T.forward(x))
        assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("T", KRONECKER)
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matrix_matches_forward(self, T, field):
        x = random_hypermatrix(np.random.default_rng(1), 3, 2, T.n, field).data
        want = x @ T.matrix().T
        assert np.abs(T.forward(x) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("T", KRONECKER)
    def test_unitary_matrix(self, T):
        M = T.matrix("unitary")
        assert np.abs(M @ M.conj().T - np.eye(T.n)).max() <= 1e-12

    def test_skew_matrix_entries(self):
        n = 5
        M = TubeTransform.from_name("skew-dft", n).matrix("unitary")
        k, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        expected = np.exp(-1j * math.pi * i * (2 * k + 1) / n) / math.sqrt(n)
        assert np.array_equal(M, expected)

    def test_walsh_hadamard_entries(self):
        T = TubeTransform.from_name("wht", 8)
        M = T.matrix("unitary")
        expected = np.array([[1.0]])
        H = np.array([[1.0, 1.0], [1.0, -1.0]])
        for _ in range(3):
            expected = np.kron(expected, H)
        assert np.array_equal(M.real, expected / math.sqrt(8))
        assert np.abs(M.imag).max() == 0.0

    def test_walsh_hadamard_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TubeTransform.from_name("wht", 6)

    def test_factor_validation(self):
        with pytest.raises(ValueError, match="kind 'dft' or 'skew'"):
            TubeTransform((("whatever", 4),))
        with pytest.raises(ValueError, match="kind 'dft' or 'skew'"):
            TubeTransform((("dft", 2), ("skew_dft", 2)))
        with pytest.raises(ValueError, match="one or more"):
            TubeTransform(())
        # One check for the constructor and from_name: a tuple of pairs.
        for factors in ([("dft", 4)], (["dft", 4],), (("dft",),), (("dft", 4, 1),), 4):
            with pytest.raises(ValueError, match="tuple of one or more"):
                TubeTransform(factors)
            with pytest.raises(ValueError, match="tuple of one or more"):
                TubeTransform.from_name(factors, 4)

    @pytest.mark.parametrize("n", [0, -2, 4.0, 2.5, True, "4"])
    def test_length_must_be_a_positive_integer(self, n):
        TubeTransform.dft(4)   # a shared length-4 transform must not answer for 4.0
        with pytest.raises(ValueError, match="integer >= 1"):
            TubeTransform.dft(n)
        with pytest.raises(ValueError, match="integer >= 1"):
            TubeTransform((("skew", n),))
        with pytest.raises(ValueError, match="integer >= 1"):
            TubeTransform((("dft", 2), ("skew", n)))
        # Factors are checked alike: 2.5 and True used to pass as 2 and 1.
        with pytest.raises(ValueError, match="integer >= 1"):
            TubeTransform.from_name((("dft", n), ("dft", 2)), 4)
        with pytest.raises(ValueError, match="integer >= 1"):
            TubeTransform.from_name("wht", n)
        with pytest.raises(ValueError, match="integer >= 1"):
            TubeTransform.from_name((("dft", 4),), n)

    def test_integer_factors_of_any_type_share_one_instance(self):
        pairs = (("dft", 2), ("dft", 3))
        assert (TubeTransform.from_name((("dft", np.int64(2)), ("dft", 3)), np.int64(6))
                is TubeTransform.from_name(pairs, 6))
        assert TubeTransform.from_name("wht", np.int64(4)) is TubeTransform.from_name("wht", 4)
        assert TubeTransform.dft(np.int64(5)) is TubeTransform.dft(5)

    def test_single_dft_factor_is_dft(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        G = TubeTransform.from_name((("dft", 5),), 5)
        D = TubeTransform.dft(5)
        assert G is D
        assert np.allclose(G.forward(x), D.forward(x), atol=1e-13)

    @pytest.mark.parametrize("T", KRONECKER)
    def test_conjugate_pairing(self, T):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(T.n)
        hat = T.forward(x)
        pair = T.conjugate_pairing()
        assert sorted(pair.tolist()) == list(range(T.n))
        assert np.array_equal(pair[pair], np.arange(T.n))  # involution
        assert np.allclose(hat[pair], np.conj(hat), atol=1e-12)

    def test_from_name(self):
        assert TubeTransform.from_name("dft", 3) is TubeTransform.from_name((("dft", 3),), 3)
        assert TubeTransform.from_name("skew-dft", 3).factors == (("skew", 3),)
        assert TubeTransform.from_name("wht", 4).factors == (("dft", 2), ("dft", 2))
        with pytest.raises(ValueError):
            TubeTransform.from_name("dct", 3)
        with pytest.raises(ValueError, match=r"has product 6, not the tube length 4"):
            TubeTransform.from_name((("dft", 2), ("skew", 3)), 4)
        # An integer tuple names no transform.
        with pytest.raises(ValueError, match="tuple of one or more"):
            TubeTransform.from_name((2, 2), 4)

    def test_one_name_per_transform(self):
        # The CLI's spellings; skew_dft, a method name once, is not one.
        assert tuple(TubeTransform.NAMES) == ("dft", "skew-dft", "wht")
        with pytest.raises(ValueError):
            TubeTransform.from_name("skew_dft", 3)


def _refuse_transforms(monkeypatch):
    """Make every TubeTransform.forward and inverse call raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the tube transform was called")

    monkeypatch.setattr(TubeTransform, "forward", refuse)
    monkeypatch.setattr(TubeTransform, "inverse", refuse)


def _transforms_for(n):
    out = [TubeTransform.dft(n), TubeTransform.from_name("skew-dft", n)]
    out.append(TubeTransform.from_name("wht" if n & (n - 1) == 0 else (("dft", n),), n))
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
        mods = [PolarScalar(f.S.data[i, i], f.S.field).modulus() for i in range(3)]
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

    def test_polar_trace_norm_breaks_the_triangle_inequality(self):
        # Complex 2 x 2 2-tubes whose DFT slices are X = (diag(1, 0),
        # diag(1, 0)) and Y = (diag(1, 0), diag(0, 1)).  The i-th singular
        # tube groups the i-th largest singular value of every slice, and
        # that pairing by rank makes the sum of the moduli no norm: 1 for X
        # and for Y, but sqrt(5/2) + sqrt(1/2) = 2.288 for X + Y.  The
        # slice-wise nuclear norm, the adjoint's divided by n, is convex:
        # 1, 1 and 2.
        def from_slices(*diagonals):
            return TubeTransform.dft(2).unhat(np.array([np.diag(d) for d in diagonals],
                                                       np.complex128), COMPLEX)

        X, Y = from_slices([1, 0], [1, 0]), from_slices([1, 0], [0, 1])
        assert X.data.tolist() == [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        assert Y.data.tolist() == [[[0.5, 0.5], [0, 0]], [[0, 0], [0.5, -0.5]]]
        norms = [singular_moduli(A).sum() for A in (X, Y, X + Y)]
        assert norms[:2] == [1.0, 1.0]
        assert singular_moduli(X + Y) == pytest.approx([math.sqrt(2.5), math.sqrt(0.5)],
                                                       rel=1e-15)
        assert norms[2] == pytest.approx(2.288, abs=5e-4) and norms[2] > norms[0] + norms[1]
        nuclear = [np.linalg.norm(adjoint(A), "nuc") / 2 for A in (X, Y, X + Y)]
        assert nuclear == pytest.approx([1.0, 1.0, 2.0], rel=1e-15)

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

    def test_factors_are_frozen_and_resolve_their_transform(self):
        f = tsvd(random_hypermatrix(np.random.default_rng(24), 3, 2, 4, REAL))
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.transform = "dft"
        spelled = TSVDFactors(f.U, f.S, f.V, "dft")
        assert spelled.transform is f.transform
        assert reconstruct(spelled).data.tobytes() == reconstruct(f).data.tobytes()

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_factors_round_trip(self, how):
        # Regression guard: the factors, their moduli and their transform
        # survive pickle and copy.
        f = tsvd(random_hypermatrix(np.random.default_rng(25), 3, 2, 4, COMPLEX), "skew-dft")
        g = {"pickle": lambda: pickle.loads(pickle.dumps(f)), "copy": lambda: copy.copy(f),
             "deepcopy": lambda: copy.deepcopy(f)}[how]()
        assert type(g) is TSVDFactors and g is not f
        for got, want in ((g.U, f.U), (g.S, f.S), (g.V, f.V)):
            assert got.field == want.field and got.data.tobytes() == want.data.tobytes()
        assert g.moduli.tobytes() == f.moduli.tobytes()
        assert g.transform.factors == (("skew", 4),) and g.transform.n == 4
        assert reconstruct(g).data.tobytes() == reconstruct(f).data.tobytes()


class TestAlgebraOps:
    def test_t_matmul_dft_matches_matmul(self):
        rng = np.random.default_rng(13)
        A = random_hypermatrix(rng, 3, 4, 3, COMPLEX)
        B = random_hypermatrix(rng, 4, 2, 3, COMPLEX)
        assert np.allclose(t_matmul(A, B).data, (A @ B).data, atol=1e-12)
        # one blockwise product and one transform class, re-exported by tsvd
        assert t_matmul is hm.matmul
        assert importlib.import_module("polarpcp.tsvd").TubeTransform is hm.TubeTransform
        assert importlib.import_module("polarpcp.tsvd").t_conj_transpose is hm.t_conj_transpose

    def test_t_conj_transpose_dft_matches(self):
        rng = np.random.default_rng(14)
        A = random_hypermatrix(rng, 3, 4, 5, COMPLEX)
        assert t_conj_transpose(A).data.tobytes() == A.conj_transpose().data.tobytes()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("T", KRONECKER)
    def test_conj_transpose_is_an_exact_signed_permutation(self, monkeypatch, T, field):
        A = random_hypermatrix(np.random.default_rng(T.n), 3, 2, T.n, field)
        want = reference_conj_transpose(A, T)
        _refuse_transforms(monkeypatch)
        B = t_conj_transpose(A, T)
        assert B.field == field and B.data.shape == (2, 3, T.n)
        assert t_conj_transpose(B, T).data.tobytes() == A.data.tobytes()
        assert np.abs(B.data - want.data).max() <= 1e-13 * np.abs(want.data).max()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_conj_transpose_under_the_dft_is_h(self, monkeypatch, n, field):
        A = random_hypermatrix(np.random.default_rng(n), 3, 2, n, field)
        _refuse_transforms(monkeypatch)
        assert t_conj_transpose(A).data.tobytes() == A.H.data.tobytes()

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


_GROUP_FACTORS = {n: tuple(("dft", k) for k in lengths) for n, lengths in
                  {1: (1,), 2: (2,), 3: (3,), 4: (2, 2), 5: (5,), 6: (2, 3), 7: (7,),
                   8: (2, 4)}.items()}


@st.composite
def _slice_stacks(draw):
    """(transform, stack, state, real): the hat of a random real or complex
    tube matrix and its packed state."""
    n = draw(st.integers(1, 6))
    T = draw(st.sampled_from([
        TubeTransform.dft(n), TubeTransform.from_name("skew-dft", n),
        TubeTransform.from_name(_GROUP_FACTORS[n], n),
    ]))
    real = draw(st.booleans())
    l, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_hypermatrix(rng, l, m, n, REAL if real else COMPLEX)
    return T, T.hat(A), T.hat_state(A), real


@contextlib.contextmanager
def _staged_if(staged):
    """With staged, treat every matrix as large, so those on gesdd's direct
    path are factored in stages (_lapack)."""
    limit = _blas.LANE_MIN_WORK
    if staged:
        _blas.LANE_MIN_WORK = 0
    try:
        yield
    finally:
        _blas.LANE_MIN_WORK = limit


class TestSliceSvd:
    @settings(max_examples=150, deadline=None)
    @given(case=_slice_stacks(), compute_uv=st.booleans())
    def test_matches_unpaired_batched_svd(self, case, compute_uv):
        T, stack, state, real = case
        got = T.slice_svd(state, compute_uv=compute_uv)
        want = np.linalg.svd(stack, full_matrices=True, compute_uv=compute_uv)
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
    @given(case=_slice_stacks(), compute_uv=st.booleans())
    def test_one_call_per_slice_matches_batched_calls(self, case, compute_uv):
        # Large slices get one np.linalg.svd call each, small ones one call
        # per kind; lowering the size limit must not change a bit.
        T, _, state, _ = case
        batched = T.slice_svd(state, compute_uv=compute_uv)
        limit = _blas.LANE_MIN_WORK
        _blas.LANE_MIN_WORK = 0
        try:
            single = T.slice_svd(state, compute_uv=compute_uv)
        finally:
            _blas.LANE_MIN_WORK = limit
        pairs = zip(batched, single) if compute_uv else [(batched, single)]
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)

    @settings(max_examples=150, deadline=None)
    @given(case=_slice_stacks(), grouped=st.booleans(), cut=st.floats(0.0, 1.5),
           staged=st.booleans())
    def test_compose_matches_full_product(self, case, grouped, cut, staged):
        # cut >= 1 shrinks every group to zero; cut = 0 keeps them all.
        # staged factors the matrices on gesdd's direct path in stages; the
        # product is checked against np.linalg.svd's factors either way.
        T, _, state, real = case
        with _staged_if(staged):
            U, s, Vh = T.svd_state(state)
            U_ref, s_ref, Vh_ref = reference_svd_state(T, state)
            assert s.tobytes() == s_ref.tobytes()
            s = shrink_singular_values(s, cut * np.sqrt(T.n) * s.max(), grouped,
                                       T.weights(state)[1])
            got = reference_unpack(T, T.compose_state(U, s, Vh), real)
        U, s, Vh = (reference_expand(T, x) for x in (U_ref, hm._row_blocks(s, U_ref), Vh_ref))
        want = (U * s[:, np.newaxis, :]) @ Vh
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


@st.composite
def _tube_arrays(draw):
    """(factors, x): an ordered factorization of n = 1..16, factors of 1
    included, and a 1-3-D real or complex array of n-tubes."""
    n = rest = draw(st.integers(1, 16))
    factors = []
    while len(factors) < 2 and draw(st.booleans()):
        factors.append(draw(st.sampled_from([d for d in range(1, rest + 1) if rest % d == 0])))
        rest //= factors[-1]
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(lead + (n,))
    if draw(st.booleans()):
        x = x + 1j * rng.standard_normal(x.shape)
    return tuple(factors) + (rest,), x


class TestOneFftPath:
    @settings(max_examples=300, deadline=None)
    @given(case=_tube_arrays())
    def test_transforms_are_numpys_ffts_bit_for_bit(self, case):
        # The DFT is the one-factor group DFT, and a group DFT is fftn over
        # its factor axes.
        factors, x = case
        n, lead = x.shape[-1], x.shape[:-1]
        D = TubeTransform.dft(n)
        G = TubeTransform.from_name(tuple(("dft", k) for k in factors), n)
        assert D is TubeTransform.from_name((("dft", n),), n)
        grid = x.reshape(lead + factors)
        axes = tuple(range(len(lead), grid.ndim))
        for got, want in ((D.forward(x), np.fft.fft(x)), (D.inverse(x), np.fft.ifft(x)),
                          (G.forward(x), np.fft.fftn(grid, axes=axes).reshape(x.shape)),
                          (G.inverse(x), np.fft.ifftn(grid, axes=axes).reshape(x.shape))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        wrong = np.ones(lead + (n + 1,), x.dtype)
        for apply in (D.forward, D.inverse, G.forward, G.inverse):
            with pytest.raises(ValueError, match="transform length"):
                apply(wrong)

    @settings(max_examples=200, deadline=None)
    @given(case=_tube_arrays())
    def test_forward_in_place_is_the_same_transform(self, case):
        # The values are computed in out, which may be the input itself.
        factors, x = case
        n = x.shape[-1]
        S = TubeTransform.from_name("skew-dft", n)
        G = TubeTransform.from_name(tuple(("dft", k) for k in factors), n)
        grid = x.reshape(x.shape[:-1] + factors)
        axes = tuple(range(x.ndim - 1, grid.ndim))
        for T, want in ((TubeTransform.dft(n), np.fft.fft(x)),
                        (S, np.fft.fft(x * np.exp(-1j * math.pi * np.arange(n) / n))),
                        (G, np.fft.fftn(grid, axes=axes).reshape(x.shape))):
            fresh = T.forward(x)
            out = np.empty(x.shape, np.complex128)
            assert T.forward(x, out) is out
            inplace = x.astype(np.complex128)
            assert T.forward(inplace, inplace) is inplace
            for got in (fresh, out, inplace):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestOneKind:
    # Every transform is a Kronecker product of DFT and skew-DFT factors.
    @pytest.mark.parametrize("T", KRONECKER)
    def test_matrix_is_the_kronecker_product(self, T):
        want = functools.reduce(np.kron, [_factor_matrix(*f) for f in T.factors])
        assert np.abs(T.matrix() - want).max() <= 1e-12
        assert np.abs(T.matrix("unitary") - want / math.sqrt(T.n)).max() <= 1e-12

    @pytest.mark.parametrize("T", KRONECKER)
    def test_conjugate_pairing_is_a_search_of_the_matrix(self, T):
        W = T.matrix()
        want = []
        for i in range(T.n):
            rows = [j for j in range(T.n) if np.abs(W[j] - np.conj(W[i])).max() <= 1e-12]
            assert len(rows) == 1
            want += rows
        assert T.conjugate_pairing().tolist() == want

    @pytest.mark.parametrize("T", KRONECKER)
    def test_real_state_round_trip(self, T):
        A = random_hypermatrix(np.random.default_rng(T.n), 5, 4, T.n, REAL)
        state = T.hat_state(A)
        want = reference_pack(T, reference_hat(T, A), True)
        assert np.abs(state - want).max() <= 1e-12 * np.abs(want).max()
        back = T.unhat_state(state, REAL)
        assert np.abs(back.data - A.data).max() <= 1e-12 * np.abs(A.data).max()

    def test_named_transforms_are_their_factors(self):
        assert TubeTransform.dft(6).factors == (("dft", 6),)
        assert TubeTransform.from_name("skew-dft", 6).factors == (("skew", 6),)
        assert TubeTransform.from_name("wht", 8).factors == (("dft", 2),) * 3
        assert TubeTransform.from_name("wht", 1) is TubeTransform.dft(1)
        T = TubeTransform((("skew", np.int64(2)), ("dft", 3)))
        assert T.factors == (("skew", 2), ("dft", 3)) and T.n == 6
        assert all(type(f) is int for _, f in T.factors)


def _magnitudes(A, T):
    """The outputs of tsvd, singular_moduli and spectral_norm on A."""
    F = tsvd(A, T)
    return {"U": F.U.data, "S": F.S.data, "V": F.V.data, "moduli": F.moduli,
            "singular_moduli": singular_moduli(A, T),
            "spectral_norm": np.array(hm.spectral_norm(A, T))}


class TestTransformOverflow:
    # Every coefficient is finite, but the tube FFT of the input overflows
    # (fft_overflow_representable): each function scales its input before
    # it transforms.  2^j puts the largest coefficient at 1.5 * 2^(1022 + j),
    # outside [2^-400, 2^400], and at the reference scale 2^-1500 all
    # outputs are normal floats, so that a power of two rounds each of them
    # once, as the function does when it scales its result back.
    SCALES = (1, 0, -600, -1450)
    REFERENCE = -1500

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("name", list(TubeTransform.NAMES))
    def test_power_of_two_scales_are_exact(self, field, name):
        X = fft_overflow_representable(field=field)
        T = TubeTransform.from_name(name, X.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = _magnitudes(ldexp(X, self.REFERENCE), T)
            got = {j: _magnitudes(ldexp(X, j), T) for j in self.SCALES}
        for j, out in got.items():
            for key, value in out.items():
                shift = 0 if key in ("U", "V") else j - self.REFERENCE
                with np.errstate(over="ignore"):
                    want = np.ldexp(ref[key].view(np.float64), shift)
                assert value.tobytes() == want.tobytes(), (j, key)
        # At 2^0 the factors and moduli are finite.  Under the DFT and the
        # WHT the spectral norm, at least the first tube's first transform
        # value, 1.5 * 2^1024, is not.
        assert all(np.isfinite(got[0][key]).all() for key in ("U", "S", "V", "moduli"))
        assert (got[0]["spectral_norm"] == math.inf) == (name != "skew-dft")

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_inverse_power_of_two_scales_are_exact(self, field):
        X = fft_overflow_representable(10, 10, field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = hm.inv(ldexp(X, self.REFERENCE))
            got = {j: hm.inv(ldexp(X, j)) for j in self.SCALES}
        for j, inverse in got.items():
            assert inverse.data.tobytes() == ldexp(ref, self.REFERENCE - j).data.tobytes(), j

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_kernel_rejects_a_non_finite_state(self, bad):
        # No public function hands the kernel a non-finite slice of a finite
        # input, so the guard is called directly.  np.linalg.svd may spin
        # forever on such a matrix: a subprocess under a timeout.  A 70x70
        # matrix is large enough to be staged, but no nan or inf passes
        # _lapack.direct's range test, so _lapack._factor never sees one.
        run = run_python(
            "import sys; import numpy as np; from polarpcp import TubeTransform\n"
            "T = TubeTransform.dft(4)\n"
            "for dtype in (float, complex):\n"
            "  for shape in ((4, 3, 2), (4, 70, 70)):\n"
            "    state = np.ones(shape, dtype)\n"
            "    state[1, 2, 0] = float(sys.argv[1])\n"
            "    for run in (T.svd_state, T.slice_svd):\n"
            "        try:\n"
            "            run(state)\n"
            "        except np.linalg.LinAlgError as exc:\n"
            "            print(exc)\n", bad)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "SVD did not converge\n" * 8


class TestSlotTable:
    @staticmethod
    def _fresh_table(T):
        pair = T.conjugate_pairing()
        return ([(pair[b], b) for b in range(T.n) if pair[b] < b],
                [(b,) for b in range(T.n) if pair[b] == b])

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["dft", "skew_dft", "group_dft"])
    def test_table_is_fresh_and_immutable(self, kind, n):
        T = TubeTransform.from_name(
            {"dft": "dft", "skew_dft": "skew-dft", "group_dft": _GROUP_FACTORS[n]}[kind], n)
        table = T._real_slots
        assert [list(slots) for slots in table] == list(self._fresh_table(T))
        # Tuples of ints all the way down: only a hashable table is immutable.
        assert isinstance(table, tuple) and all(isinstance(slots, tuple) for slots in table)
        assert all(isinstance(slot, tuple) and all(isinstance(b, int) for b in slot)
                   for slots in table for slot in slots)
        hash(table)
        with pytest.raises(TypeError):
            table[0] = ()


class TestFullStackWrappers:
    @settings(max_examples=150, deadline=None)
    @given(case=_slice_stacks(), compute_uv=st.booleans())
    def test_slice_svd_bitwise_equal_to_reference(self, case, compute_uv):
        T, stack, state, real = case
        got = T.slice_svd(state, compute_uv=compute_uv)
        want = reference_slice_svd(T, stack, real, full_matrices=True, compute_uv=compute_uv)
        pairs = zip(got, want) if compute_uv else [(got, want)]
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)

    @pytest.mark.parametrize("T", ALL_TRANSFORMS + [
        pytest.param(TubeTransform.from_name("wht", 4), id="wht")])
    def test_real_tubes_never_build_the_slice_stack(self, T, monkeypatch):
        # The t-SVD and the moduli factor hat_state's packed state, so on
        # real tubes no complex slice stack of the input is built.
        calls = []
        hat = TubeTransform.hat

        def recording_hat(self, A):
            calls.append(A.data.shape)
            return hat(self, A)

        A = random_hypermatrix(np.random.default_rng(16), 7, 5, T.n, REAL)
        svals = reference_slice_svd(T, reference_hat(T, A), True, compute_uv=False)
        want = np.sqrt((svals * svals).sum(axis=0) / T.n)
        monkeypatch.setattr(TubeTransform, "hat", recording_hat)
        F = tsvd(A, T)
        moduli = singular_moduli(A, T)
        assert calls == []
        assert np.allclose(reconstruct(F).data, A.data, rtol=0, atol=1e-12 * np.abs(A.data).max())
        assert np.abs(moduli - want).max() <= 1e-14 * want.max()


@st.composite
def _real_hats(draw):
    """(transform, hat stack, packed state) of a random real tube matrix,
    n = 1..8, under the DFT, the skew DFT, a group DFT (a mixed (2, 3) one
    for n = 6) and, for powers of two, the Walsh-Hadamard transform."""
    n = draw(st.integers(1, 8))
    transforms = [TubeTransform.dft(n), TubeTransform.from_name("skew-dft", n),
                  TubeTransform.from_name(_GROUP_FACTORS[n], n)]
    if n & (n - 1) == 0:
        transforms.append(TubeTransform.from_name("wht", n))
    T = draw(st.sampled_from(transforms))
    l, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_hypermatrix(rng, l, m, n, REAL)
    return T, T.hat(A), T.hat_state(A)


class TestPackedState:
    @settings(max_examples=150, deadline=None)
    @given(case=_real_hats())
    def test_state_then_slice_stack_is_exact(self, case):
        T, hat, planes = case
        assert planes.shape == hat.shape and planes.dtype == np.float64
        full = reference_unpack(T, planes, True)
        factored, partners, sources, self_paired = reference_split(T, True)
        # The kept slices come back bit for bit, and a partner is the exact
        # conjugate of its source.
        paired = factored[~self_paired[factored]]
        assert full[paired].tobytes() == hat[paired].tobytes()
        assert full[self_paired].real.tobytes() == hat[self_paired].real.tobytes()
        assert not full[self_paired].imag.any()
        assert full[partners].tobytes() == np.conj(full[sources]).tobytes()
        # The hat of real tubes is conjugate-symmetric only up to rounding
        # (skew twiddles, n = 6), so it is exact once symmetric.
        assert np.abs(full - hat).max() <= 1e-14 * np.abs(hat).max()
        assert reference_unpack(T, reference_pack(T, full, True), True).tobytes() == full.tobytes()
        assert reference_pack(T, full, True).tobytes() == planes.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(case=_real_hats())
    def test_weighted_planes_keep_the_frobenius_norm(self, case):
        T, hat, planes = case
        plane_weights, row_weights = T.weights(planes)
        assert plane_weights.shape == (T.n,) and row_weights.shape == (factored_slices(T, True),)
        got = plane_weights @ np.einsum("bij,bij->b", planes, planes)
        want = np.linalg.norm(hat) ** 2
        assert abs(got - want) <= 1e-13 * want
        s = T.svd_state(planes, compute_uv=False)
        assert abs(row_weights @ (s * s).sum(axis=1) - want) <= 1e-13 * want

    @settings(max_examples=150, deadline=None)
    @given(case=_real_hats(), cut=st.floats(0.0, 1.5), staged=st.booleans())
    def test_state_kernel_matches_full_stack_kernel(self, case, cut, staged):
        T, hat, planes = case
        with _staged_if(staged):
            U, s, Vh = T.svd_state(planes)
        # Self-paired planes are factored as real matrices, as a stack of
        # np.linalg.svd's factors or one factored form each.
        assert [u.dtype if vh is not None else u[0].a.dtype for u, vh in zip(U, Vh)] \
            == [np.complex128, np.float64]
        assert all(vh is None or vh.dtype == u.dtype for u, vh in zip(U, Vh))
        _, _, sources, self_paired = reference_split(T, True)
        U_full, s_full, Vh_full = T.slice_svd(planes)
        assert s.tobytes() == np.concatenate([s_full[sources], s_full[self_paired]]).tobytes()
        tau = cut * np.sqrt(T.n) * s.max()
        shrunk = shrink_singular_values(s, tau, True, T.weights(planes)[1])
        shrunk_full = shrink_singular_values(s_full, tau, True)
        with _staged_if(staged):
            got = T.compose_state(U, shrunk, Vh)
        want = reference_pack(T, reference_slice_compose(T, U_full, shrunk_full, Vh_full, True),
                              True)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(hat).max(), 1e-300)

    @settings(max_examples=150, deadline=None)
    @given(case=_real_hats(), cut=st.floats(0.0, 1.5))
    def test_weighted_tube_shrink_matches_full_stack_shrink(self, case, cut):
        T, hat, planes = case
        full = reference_unpack(T, planes, True)
        tau = cut * np.abs(hat).max() * np.sqrt(T.n)
        got = tube_group_shrink(planes, tau, T.weights(planes)[0])
        want = reference_pack(T, tube_group_shrink(full, tau), True)
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(hat).max(), 1e-300)

    def test_complex_state_is_the_stack(self):
        T = TubeTransform.dft(4)
        A = random_hypermatrix(np.random.default_rng(3), 3, 2, 4, COMPLEX)
        hat, state = T.hat(A), T.hat_state(A)
        assert state.dtype == hat.dtype and state.strides == hat.strides
        assert state.tobytes() == hat.tobytes()
        assert T.weights(state) == (None, None)

    @pytest.mark.parametrize("T", ALL_TRANSFORMS)
    def test_kind_is_the_field_not_the_values(self, T):
        # A complex-field matrix whose imaginary parts are all zero is
        # complex tubes: its state is the complex slice stack, and the
        # kernel factors every slice.
        A = HyperMatrix(np.random.default_rng(5).standard_normal((4, 3, T.n)), COMPLEX)
        state = T.hat_state(A)
        assert state.dtype == np.complex128 and state.shape == (T.n, 4, 3)
        want = reference_slice_svd(T, reference_hat(T, A), False, compute_uv=False)
        assert T.svd_state(state, compute_uv=False).tobytes() == want.tobytes()


@st.composite
def _states(draw):
    """(T, state, real): a random packed state of real tubes, or a complex
    slice stack, under the DFT, the skew DFT or a group DFT."""
    n = draw(st.integers(1, 8))
    T = draw(st.sampled_from([TubeTransform.dft(n), TubeTransform.from_name("skew-dft", n),
                              TubeTransform.from_name(_GROUP_FACTORS[n], n)]))
    real = draw(st.booleans())
    l, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.standard_normal((n, l, m))
    if not real:
        state = state + 1j * rng.standard_normal((n, l, m))
    return T, state, real


class TestKernelBuffer:
    @settings(max_examples=150, deadline=None)
    @given(case=_states())
    def test_one_allocation_in_both_layouts(self, case):
        T, state, real = case
        buf = T.kernel_buffer(state)
        assert buf.scratch.shape == state.shape and buf.scratch.dtype == state.dtype
        assert buf.scratch.flags.c_contiguous
        assert sum(p.nbytes for p in buf.parts) == buf.scratch.nbytes
        # The stacks are the old _parts copies, layout included, in the
        # scratch array's bytes.
        want = reference_parts(T, state, real)
        assert len(buf.parts) == len(want)
        for got, ref in zip(buf.parts, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
            assert len(got) == 0 or (got.strides == ref.strides
                                     and np.shares_memory(got, buf.scratch))
        assert len(buf.planes) == T.n
        for plane, values in zip(buf.planes, state):
            assert np.shares_memory(plane, buf.scratch) and plane.tobytes() == values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=_states(), staged=st.booleans())
    def test_factoring_in_place_matches_factoring_a_copy(self, case, staged):
        T, state, real = case
        with _staged_if(staged):
            U, s, Vh = T.svd_state(state)
            buf = T.kernel_buffer(np.zeros_like(state))
            for plane, values in zip(buf.planes, state):
                plane[...] = values
            U_buf, s_buf, Vh_buf = T.svd_state(buf)
            assert s_buf.tobytes() == s.tobytes()
            shrunk = shrink_singular_values(s, 0.3 * s.max(), True, T.weights(state)[1])
            got = T.compose_state(U_buf, shrunk, Vh_buf)
            assert got.tobytes() == T.compose_state(U, shrunk, Vh).tobytes()
        assert got.flags.c_contiguous and got.dtype == state.dtype


# Row counts around the block length's first steps, and a ragged last block.
_BLOCKED_ROWS = [1, hm.ROW_BLOCKS - 1, hm.ROW_BLOCKS, hm.ROW_BLOCKS + 1, 4 * hm.ROW_BLOCKS + 3]


class TestRowBlockedExit:
    @pytest.mark.parametrize("l", _BLOCKED_ROWS)
    @pytest.mark.parametrize("T", ALL_TRANSFORMS)
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_blocks_are_the_one_shot_path_bit_for_bit(self, T, l, field):
        rng = np.random.default_rng(l)
        real = field == REAL
        state = rng.standard_normal((T.n, l, 5))
        if not real:
            state = state + 1j * rng.standard_normal(state.shape)
        # The one-shot path: the whole slice stack, then one inverse.
        blocks = reference_unpack(T, state, real)
        want = reference_unhat(T, blocks, field)
        got = T.unhat_state(state, field)
        assert got.field == field and got.data.tobytes() == want.data.tobytes()
        # unhat of a whole stack, as the t-SVD makes it, takes the same blocks.
        assert T.unhat(blocks, field).data.tobytes() == got.data.tobytes()

    @pytest.mark.parametrize("T", ALL_TRANSFORMS)
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_a_float_stack_is_slices(self, T, field):
        # unhat takes its blocks as complex slices whatever their dtype, so
        # a float64 stack is not read as a real-tube state's planes.
        blocks = np.random.default_rng(7).standard_normal((T.n, hm.ROW_BLOCKS + 1, 3))
        want = reference_unhat(T, blocks, field)
        assert T.unhat(blocks, field).data.tobytes() == want.data.tobytes()


class TestRowBlockedEntry:
    @pytest.mark.parametrize("l", _BLOCKED_ROWS)
    @pytest.mark.parametrize("T", ALL_TRANSFORMS + [
        pytest.param(TubeTransform.from_name("wht", 4), id="wht")])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_state_is_the_packed_one_shot_hat_bit_for_bit(self, T, l, field):
        A = random_hypermatrix(np.random.default_rng(l), l, 5, T.n, field)
        real = field == REAL
        want = reference_pack(T, reference_hat(T, A), real)
        got = T.hat_state(A)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if not real:
            # hat's layout, tubes last, so a norm reduces in the same order.
            assert got.strides == T.hat(A).strides
            assert np.linalg.norm(got) == np.linalg.norm(want)
        assert reference_pack(T, T.hat(A), real).tobytes() == got.tobytes()


class TestSharedTransforms:
    @pytest.mark.parametrize("name, value", [("factors", (("skew", 4),)), ("n", 2),
                                             ("_lengths", (2,)), ("_real_slots", ((), ())),
                                             ("_conjugation", None), ("forward", None)])
    def test_a_shared_instance_cannot_be_changed(self, name, value):
        # Every caller and every lane holds the same instance.
        T = TubeTransform.from_name("dft", 4)
        A = random_hypermatrix(np.random.default_rng(26), 3, 2, 4, COMPLEX)
        want = t_conj_transpose(A).data.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(T, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(T, name)
        for table in T._conjugation:
            with pytest.raises(ValueError, match="read-only"):
                table[:] = 0
        assert TubeTransform.from_name("dft", 4) is T
        assert T.factors == (("dft", 4),) and T.n == 4
        assert t_conj_transpose(A).data.tobytes() == want
        assert T.hat(A).shape == (4, 3, 2)

    def test_named_constructors_share_one_instance(self):
        assert TubeTransform.dft(4) is TubeTransform.dft(4)
        assert TubeTransform.from_name("skew-dft", 4) is TubeTransform.from_name((("skew", 4),), 4)
        pairs = (("dft", 2), ("dft", 3))
        assert TubeTransform.from_name(pairs, 6) is TubeTransform.from_name(pairs, 6)
        assert TubeTransform.from_name("wht", 4) is TubeTransform.from_name((("dft", 2),) * 2, 4)
        assert TubeTransform.dft(4) is not TubeTransform.from_name("skew-dft", 4)

    def test_scalar_inverses_build_one_split(self, monkeypatch):
        calls = []
        pairing = TubeTransform.conjugate_pairing

        def counting_pairing(self):
            calls.append(self)
            return pairing(self)

        monkeypatch.setattr(TubeTransform, "_shared", {})
        monkeypatch.setattr(TubeTransform, "conjugate_pairing", counting_pairing)
        p = PolarScalar(np.array([3.0, 1.0, -0.5, 0.25]))
        for _ in range(2000):
            p.inverse()
        assert len(calls) == 1

    def test_first_use_from_many_threads(self, monkeypatch):
        # More threads than cores race to build the same transforms.
        monkeypatch.setattr(TubeTransform, "_shared", {})
        workers = 8
        barrier = threading.Barrier(workers, timeout=10)
        A = random_hypermatrix(np.random.default_rng(4), 3, 3, 6, REAL)
        state = TubeTransform((("dft", 6),)).hat_state(A)
        seen = []

        def first_use():
            barrier.wait()
            T = TubeTransform.dft(6)
            seen.append((T, TubeTransform.from_name((("dft", 2), ("dft", 3)), 6),
                         T.slice_svd(state, compute_uv=False).tobytes()))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == workers
        assert all(T is seen[0][0] and G is seen[0][1] and s == seen[0][2] for T, G, s in seen)
