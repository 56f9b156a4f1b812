import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarpcp import COMPLEX, REAL, PolarScalar, SingularScalarError
from polarpcp.hyperalgebra import inner
from polarpcp.hypermatrix import SINGULAR_RTOL

from helpers import (
    ReferenceScalar,
    circ_conv,
    random_hypermatrix,
    random_scalar,
    raises_exactly,
    random_tube,
    reference_inner,
)

FIELDS = (REAL, COMPLEX)


def test_mul_unit_rule():
    e1 = PolarScalar.unit(3, 1)
    prod = e1 * e1
    assert np.allclose(prod.coeffs, [0, 0, 1], atol=1e-14)


def test_mul_zero_divisor():
    one = PolarScalar.unit(2, 0)
    e1 = PolarScalar.unit(2, 1)
    prod = (one + e1) * (one - e1)
    assert np.allclose(prod.coeffs, 0, atol=1e-14)


def test_mul_matches_circulant_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_scalar(rng, 5, REAL)
        q = random_scalar(rng, 5, REAL)
        first_col = (p.to_circulant() @ q.to_circulant())[:, 0]
        assert np.allclose((p * q).coeffs, first_col, atol=1e-12)


def test_mul_matches_direct_convolution():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4, 8):
        for field in (REAL, COMPLEX):
            p = random_scalar(rng, n, field)
            q = random_scalar(rng, n, field)
            direct = circ_conv(p.coeffs, q.coeffs)
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs((p * q).coeffs - direct).max() <= 1e-12 * scale


def test_spectral_product_identity_unitary_dft():
    # Under the unitary DFT the transform of a circular convolution picks up
    # a sqrt(n) factor relative to the pointwise product of transforms.
    rng = np.random.default_rng(3)
    n = 6
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    F = np.fft.fft(np.eye(n)) / math.sqrt(n)
    lhs = F @ circ_conv(a, b)
    rhs = math.sqrt(n) * (F @ a) * (F @ b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        random_scalar(np.random.default_rng(0), 3, REAL) * PolarScalar.unit(4, 0)


def test_mul_field_promotion():
    p = PolarScalar.unit(3, 1)
    q = PolarScalar(np.array([1j, 0, 0]))
    assert (p * q).field == COMPLEX
    assert (p * p).field == REAL


def test_conj_k2_is_identity():
    rng = np.random.default_rng(4)
    p = random_scalar(rng, 2, REAL)
    assert np.allclose(p.conj().coeffs, p.coeffs)


def test_conj_k3_reverses_tail():
    p = PolarScalar(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(p.conj().coeffs, [1.0, 3.0, 2.0])
    # transpose-of-circulant oracle
    assert np.allclose(p.conj().to_circulant(), p.to_circulant().T)


def test_conj_involution():
    rng = np.random.default_rng(5)
    p = random_scalar(rng, 4, COMPLEX)
    assert np.allclose(p.conj().conj().coeffs, p.coeffs)


def test_conj_matches_adjoint_conjugate_transpose():
    rng = np.random.default_rng(6)
    for field in (REAL, COMPLEX):
        p = random_scalar(rng, 5, field)
        assert np.allclose(p.conj().to_circulant(), p.to_circulant().conj().T)


def test_modulus_bicomplex_example():
    g = PolarScalar(np.array([1 + 2j, 3 + 4j, 5 + 6j]))
    assert g.modulus() == pytest.approx(math.sqrt(91), rel=1e-15)


def test_modulus_units():
    for n in (1, 2, 5):
        for k in range(n):
            assert PolarScalar.unit(n, k).modulus() == 1.0


def test_modulus_squared_is_self_inner():
    rng = np.random.default_rng(7)
    for field in (REAL, COMPLEX):
        p = random_scalar(rng, 6, field)
        assert inner(p, p) == pytest.approx(p.modulus() ** 2, rel=1e-12)


def test_inner_disjoint_units():
    assert inner(PolarScalar.unit(3, 1), PolarScalar.unit(3, 2)) == 0.0


def test_inner_direct_sum_oracle():
    rng = np.random.default_rng(8)
    p = random_scalar(rng, 5, COMPLEX)
    q = random_scalar(rng, 5, COMPLEX)
    expected = sum(
        (a * np.conj(b)).real for a, b in zip(p.coeffs, q.coeffs)
    )
    assert inner(p, q) == pytest.approx(expected, rel=1e-12)
    assert inner(p, q) == pytest.approx(inner(q, p), rel=1e-12)


def test_inner_bilinear_over_reals():
    rng = np.random.default_rng(9)
    p = random_scalar(rng, 4, COMPLEX)
    q = random_scalar(rng, 4, COMPLEX)
    r = random_scalar(rng, 4, COMPLEX)
    lhs = inner(p + q * 2.0, r)
    assert lhs == pytest.approx(inner(p, r) + 2.0 * inner(q, r), rel=1e-12)


def test_to_circulant_k2():
    p = PolarScalar(np.array([1.0, 2.0]))
    assert np.allclose(p.to_circulant(), [[1.0, 2.0], [2.0, 1.0]])


def test_to_circulant_identity():
    for n in (1, 3, 6):
        assert np.allclose(PolarScalar.unit(n, 0).to_circulant(), np.eye(n))


def test_to_circulant_equals_shift_power_sum():
    rng = np.random.default_rng(10)
    p = random_scalar(rng, 6, REAL)
    E = PolarScalar.unit(6, 1).to_circulant()
    total = sum(p.coeffs[i] * np.linalg.matrix_power(E, i) for i in range(6))
    assert np.allclose(p.to_circulant(), total)


def test_inverse_of_unit():
    for n in (2, 3, 5, 8):
        inv = PolarScalar.unit(n, 1).inverse()
        expected = np.zeros(n)
        expected[n - 1] = 1.0
        assert np.allclose(inv.coeffs, expected, atol=1e-12)


def test_inverse_zero_divisor_raises():
    p = PolarScalar(np.array([1.0, 1.0]))  # spectrum (2, 0)
    with pytest.raises(SingularScalarError):
        p.inverse()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_inverse_of_non_finite_raises_value_error(field, bad):
    # inf used to invert to zeros, and nan to pass for a zero divisor.
    p = PolarScalar([bad if field == REAL else complex(1.0, bad), 1.0], field)
    with pytest.raises(ValueError, match="non-finite"):
        p.inverse()


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    one = PolarScalar.unit(5, 0)
    for field in (REAL, COMPLEX):
        # identity offset keeps the spectrum away from zero
        p = random_scalar(rng, 5, field) + one * 4.0
        prod = p * p.inverse()
        assert np.abs(prod.coeffs - one.coeffs).max() <= 1e-10


def test_angles_of_one_k4():
    angles = PolarScalar.unit(4, 0).angles()
    assert angles.azimuthal == pytest.approx([0.0])
    assert angles.planar.size == 0
    assert angles.polar_plus == pytest.approx(math.atan(math.sqrt(2)))
    assert angles.polar_minus == pytest.approx(math.atan(math.sqrt(2)))


def test_angles_of_e1_k4():
    angles = PolarScalar.unit(4, 1).angles()
    assert angles.azimuthal == pytest.approx([math.pi / 2])


def test_angles_positive_real_scalar():
    for n in (3, 5, 8):
        p = PolarScalar.unit(n, 0) * 2.5
        assert np.allclose(p.angles().azimuthal, 0.0)


def test_angles_counts():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5, 6, 9):
        angles = random_scalar(rng, n, REAL).angles()
        half = (n + 1) // 2
        assert angles.azimuthal.size == half - 1
        assert angles.planar.size == max(half - 2, 0)
        assert (angles.polar_minus is not None) == (n % 2 == 0)
        assert 0.0 <= angles.polar_plus <= math.pi
        assert np.all((0.0 <= angles.azimuthal) & (angles.azimuthal < 2 * math.pi))
        assert np.all((0.0 <= angles.planar) & (angles.planar <= math.pi / 2))


def test_angles_reject_complex_field():
    with pytest.raises(ValueError):
        PolarScalar(np.array([1j, 0.0])).angles()


def test_homomorphism_product_and_sum():
    rng = np.random.default_rng(13)
    for n in (2, 4, 7):
        for field in (REAL, COMPLEX):
            p = random_scalar(rng, n, field)
            q = random_scalar(rng, n, field)
            Cp, Cq = p.to_circulant(), q.to_circulant()
            scale = max(np.abs(Cp @ Cq).max(), 1.0)
            assert np.abs((p * q).to_circulant() - Cp @ Cq).max() <= 1e-10 * scale
            assert np.allclose((p + q).to_circulant(), Cp + Cq)


def test_scalar_number_arithmetic():
    p = PolarScalar.unit(3, 1)
    q = 1 + p  # lifts the integer to e_0
    assert np.allclose(q.coeffs, [1.0, 1.0, 0.0])
    assert np.allclose((q - 1).coeffs, p.coeffs)
    r = 1j * p
    assert r.field == COMPLEX


def test_n1_degenerates_to_plain_numbers():
    a = PolarScalar(np.array([3.0]))
    b = PolarScalar(np.array([-2.0]))
    assert (a * b).coeffs[0] == pytest.approx(-6.0)
    assert a.inverse().coeffs[0] == pytest.approx(1 / 3)
    z = PolarScalar(np.array([1 + 1j]))
    assert (z * z.conj()).coeffs[0] == pytest.approx(2.0)


def _bits(p):
    return p.field, p.coeffs.tobytes()


def _angle_bits(a):
    return a.azimuthal.tobytes(), a.planar.tobytes(), a.polar_plus, a.polar_minus


class TestMatchesReferenceScalar:
    """The delegating scalar against the standalone arithmetic it replaced."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_operations_are_bit_equal(self, n, field):
        rng = np.random.default_rng(20 + n)
        for other_field in FIELDS:
            for _ in range(10):
                a, b = random_tube(rng, n, field), random_tube(rng, n, other_field)
                p, q = PolarScalar(a, field), PolarScalar(b, other_field)
                p0, q0 = ReferenceScalar(a, field), ReferenceScalar(b, other_field)
                x, z = float(rng.standard_normal()), complex(*rng.standard_normal(2))
                pairs = [
                    (p + q, p0 + q0), (p - q, p0 - q0), (-p, -p0), (p.conj(), p0.conj()),
                    (p + x, p0 + x), (x + p, x + p0), (p - x, p0 - x), (x - p, x - p0),
                    (p + z, p0 + z), (z + p, z + p0), (p - z, p0 - z), (z - p, z - p0),
                    (3 + p, 3 + p0), (p * x, p0 * x), (z * p, z * p0),
                ]
                for got, want in pairs:
                    assert _bits(got) == _bits(want)
                assert p.to_circulant().tobytes() == p0.to_circulant().tobytes()
                assert p.modulus() == p0.modulus()
                assert inner(p, q) == reference_inner(p0, q0)
                assert p.spectrum.tobytes() == p0.spectrum.tobytes()
                if field == REAL:
                    assert _angle_bits(p.angles()) == _angle_bits(p0.angles())

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_and_inverse_agree(self, n, field):
        rng = np.random.default_rng(40 + n)
        for other_field in FIELDS:
            for _ in range(10):
                a, b = random_tube(rng, n, field), random_tube(rng, n, other_field)
                p, q = PolarScalar(a, field), PolarScalar(b, other_field)
                p0, q0 = ReferenceScalar(a, field), ReferenceScalar(b, other_field)
                for got, want in ((p * q, p0 * q0), (p.inverse(), p0.inverse())):
                    assert got.field == want.field
                    err = np.abs(got.coeffs - want.coeffs).max()
                    assert err <= 1e-15 * np.abs(want.coeffs).max()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_divisors_raise_in_both(self, n):
        rng = np.random.default_rng(60 + n)
        for divisor in (np.ones(n), np.r_[1.0, -1.0, np.zeros(n - 2)]):
            for field in FIELDS:
                coeffs = (random_scalar(rng, n, field) * PolarScalar(divisor)).coeffs
                for cls in (PolarScalar, ReferenceScalar):
                    with pytest.raises(SingularScalarError):
                        cls(coeffs).inverse()


class TestInputChecks:
    @pytest.mark.parametrize("call, kind, message", [
        (lambda: PolarScalar(np.ones((2, 2))), ValueError,
         "coeffs must be a one-dimensional sequence with n >= 1 entries"),
        (lambda: PolarScalar([]), ValueError,
         "coeffs must be a one-dimensional sequence with n >= 1 entries"),
        (lambda: PolarScalar.unit(3, 3), ValueError, "unit index 3 out of range for n=3"),
        (lambda: PolarScalar.unit(3, -1), ValueError, "unit index -1 out of range for n=3"),
        (lambda: inner(PolarScalar([1.0, 2.0]), 1.0), TypeError,
         "q must be a PolarScalar, not float"),
    ], ids=["2-d", "empty", "unit-past-n", "unit-negative", "inner-not-a-scalar"])
    def test_rejects(self, call, kind, message):
        with raises_exactly(kind, message):
            call()


class TestCoefficientsAreCopies:
    @pytest.mark.parametrize("field", FIELDS)
    def test_scalar_does_not_alias_its_input(self, field):
        x = random_tube(np.random.default_rng(0), 5, field)
        p = PolarScalar(x, field)
        assert not np.shares_memory(p.coeffs, x)
        x[0] = 100.0
        assert p.coeffs[0] != 100.0

    @pytest.mark.parametrize("field", FIELDS)
    def test_entry_does_not_alias_the_matrix(self, field):
        A = random_hypermatrix(np.random.default_rng(1), 2, 3, 4, field)
        assert not np.shares_memory(PolarScalar(A.data[1, 2], A.field).coeffs, A.data)


@st.composite
def _scalars(draw, count):
    """count random scalars of one length n in 1..8, each real or complex."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [random_scalar(rng, n, draw(st.sampled_from(FIELDS))) for _ in range(count)]


def _close(got, want, rtol=1e-12):
    scale = max(np.abs(want.coeffs).max(), 1.0)
    return got.field == want.field and np.abs(got.coeffs - want.coeffs).max() <= rtol * scale


class TestAlgebraLaws:
    @settings(max_examples=100, deadline=None)
    @given(scalars=_scalars(3))
    def test_product_is_associative_commutative_and_distributive(self, scalars):
        p, q, r = scalars
        assert _close((p * q) * r, p * (q * r))
        assert _close(p * q, q * p)
        assert _close(p * (q + r), p * q + p * r)

    @settings(max_examples=100, deadline=None)
    @given(scalars=_scalars(1))
    def test_conj_is_an_involution_and_the_circulant_adjoint(self, scalars):
        (p,) = scalars
        assert _bits(p.conj().conj()) == _bits(p)
        assert np.array_equal(p.conj().to_circulant(), p.to_circulant().conj().T)

    @settings(max_examples=100, deadline=None)
    @given(scalars=_scalars(2))
    def test_inverse_of_a_non_zero_divisor(self, scalars):
        p, q = scalars
        # q times (1 - e_1) is a zero divisor for n >= 2: its spectrum is 0 at k = 0.
        if p.n > 1:
            with pytest.raises(SingularScalarError):
                (q * (1 - PolarScalar.unit(q.n, 1))).inverse()
        mags = np.abs(p.spectrum)
        cond = mags.max() / mags.min()
        if cond >= 1 / SINGULAR_RTOL:
            with pytest.raises(SingularScalarError):
                p.inverse()
            return
        one = PolarScalar.one(p.n, p.field)
        assert _close(p * p.inverse(), one, rtol=1e-14 * cond)
