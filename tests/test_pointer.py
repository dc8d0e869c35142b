"""Pointer closed forms checked against direct numerical quadrature."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import weaklab as wl
from weaklab.errors import InputError
from weaklab.pointer import PointerOperatorKind

ALL_KINDS = list(PointerOperatorKind)

sigmas = st.floats(min_value=0.2, max_value=20.0, allow_nan=False)
centers = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def quad_element(sigma, kind, left, right):
    """Independent oracle: integrate the defining matrix-element integral."""
    ptr = wl.GaussianPointer(sigma)

    def left_amp(x):
        return wl.wavefunction(ptr, left, x).real

    def right_amp(x):
        return wl.wavefunction(ptr, right, x).real

    def d_right(x):
        return -(x - right) / (2.0 * sigma**2) * right_amp(x)

    def d2_right(x):
        return (-(1.0) / (2.0 * sigma**2) + ((x - right) / (2.0 * sigma**2)) ** 2) * right_amp(x)

    if kind is PointerOperatorKind.IDENTITY:
        integrand = lambda x: left_amp(x) * right_amp(x)
        factor = 1.0
    elif kind is PointerOperatorKind.POSITION:
        integrand = lambda x: left_amp(x) * x * right_amp(x)
        factor = 1.0
    elif kind is PointerOperatorKind.POSITION_SQUARED:
        integrand = lambda x: left_amp(x) * x**2 * right_amp(x)
        factor = 1.0
    elif kind is PointerOperatorKind.MOMENTUM:
        # p = -i d/dx acting on the right packet; the integral is real
        # apart from the -i factor.
        integrand = lambda x: left_amp(x) * d_right(x)
        factor = -1.0j
    else:
        integrand = lambda x: left_amp(x) * d2_right(x)
        factor = -1.0
    lo = min(left, right) - 12.0 * sigma
    hi = max(left, right) + 12.0 * sigma
    value, _ = quad(integrand, lo, hi, limit=200)
    return factor * value


class TestWavefunction:
    def test_peak_value(self):
        expected = (2.0 * math.pi) ** -0.25
        assert wl.wavefunction(wl.GaussianPointer(1.0), 0.0, 0.0) == pytest.approx(expected)

    @given(centers)
    def test_translation_invariance(self, a):
        ptr = wl.GaussianPointer(1.0)
        assert wl.wavefunction(ptr, a, a) == pytest.approx(wl.wavefunction(ptr, 0.0, 0.0))

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 4.0])
    def test_normalized(self, sigma):
        ptr = wl.GaussianPointer(sigma)
        total, _ = quad(lambda x: abs(wl.wavefunction(ptr, 0.7, x)) ** 2, -12 * sigma, 12 * sigma + 1)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_positive_width_enforced(self):
        with pytest.raises(InputError):
            wl.GaussianPointer(0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_finite_width_enforced(self, sigma):
        with pytest.raises(InputError):
            wl.GaussianPointer(sigma)


class TestMatrixElement:
    def test_identity_overlap(self):
        got = wl.matrix_element(wl.GaussianPointer(1.0), PointerOperatorKind.IDENTITY, 1.0, 0.0)
        assert got == pytest.approx(math.exp(-0.125))
        assert got == pytest.approx(quad_element(1.0, PointerOperatorKind.IDENTITY, 1.0, 0.0))

    @pytest.mark.parametrize("sigma,c", [(0.5, -1.3), (2.0, 0.0), (7.0, 2.2)])
    def test_diagonal_position_is_center(self, sigma, c):
        got = wl.matrix_element(wl.GaussianPointer(sigma), PointerOperatorKind.POSITION, c, c)
        assert got == pytest.approx(c)

    def test_diagonal_momentum_vanishes(self):
        got = wl.matrix_element(wl.GaussianPointer(1.5), PointerOperatorKind.MOMENTUM, 0.8, 0.8)
        assert got == 0.0

    def test_position_squared_at_origin(self):
        got = wl.matrix_element(wl.GaussianPointer(1.0), PointerOperatorKind.POSITION_SQUARED, 0.0, 0.0)
        assert got == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_quadrature_agreement_random(self, kind):
        rng = np.random.default_rng(ALL_KINDS.index(kind))
        for _ in range(8):
            sigma = float(rng.uniform(0.2, 20.0))
            left = float(rng.uniform(-3.0, 3.0))
            right = float(rng.uniform(-3.0, 3.0))
            got = wl.matrix_element(wl.GaussianPointer(sigma), kind, left, right)
            want = quad_element(sigma, kind, left, right)
            assert got == pytest.approx(want, abs=1e-8)

    @given(sigmas, centers, centers)
    @settings(max_examples=60, deadline=None)
    def test_hermiticity(self, sigma, a, b):
        ptr = wl.GaussianPointer(sigma)
        for kind in ALL_KINDS:
            forward = wl.matrix_element(ptr, kind, a, b)
            backward = wl.matrix_element(ptr, kind, b, a)
            assert forward == pytest.approx(backward.conjugate(), abs=1e-12)


class TestDisplacedNorm:
    def test_real_shift(self):
        assert wl.displaced_norm(wl.GaussianPointer(1.0), 2.5) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "sigma,shift,expected",
        [(1.0, 1.0j, math.exp(0.25)), (0.5, 1.0j, math.e)],
    )
    def test_imaginary_shift(self, sigma, shift, expected):
        got = wl.displaced_norm(wl.GaussianPointer(sigma), shift)
        assert got == pytest.approx(expected)
        # oracle: numerically integrate |phi(x - shift)|^2 over real x
        norm_factor = (2.0 * math.pi * sigma**2) ** -0.25

        def intensity(x):
            return abs(norm_factor * cmath.exp(-((x - shift) ** 2) / (4.0 * sigma**2))) ** 2

        total, _ = quad(intensity, -14 * sigma, 14 * sigma)
        assert got**2 == pytest.approx(total, rel=1e-9)


class TestLinearizationError:
    def test_zero_eigenvalue(self):
        assert wl.linearization_error(wl.GaussianPointer(3.0), 0.0) == 0.0

    def test_leading_order_coefficient(self):
        got = wl.linearization_error(wl.GaussianPointer(10.0), 1.0)
        assert got == pytest.approx(3.0 / 64.0 * 1e-4, rel=0.1)

    def test_asymptotic_ratio(self):
        ratio = 1e-2
        got = wl.linearization_error(wl.GaussianPointer(1.0), ratio) / ratio**4
        assert got == pytest.approx(3.0 / 64.0, rel=0.01)

    @pytest.mark.parametrize("sigma,a", [(1.0, 1.0), (0.7, 0.4), (2.5, 3.0)])
    def test_quadrature_oracle(self, sigma, a):
        # defect amplitude: phi(x - a) - [phi(x) - a phi'(x)]
        ptr = wl.GaussianPointer(sigma)

        def defect(x):
            base = wl.wavefunction(ptr, 0.0, x).real
            d_base = -x / (2.0 * sigma**2) * base
            return wl.wavefunction(ptr, a, x).real - (base - a * d_base)

        total, _ = quad(lambda x: defect(x) ** 2, -abs(a) - 14 * sigma, abs(a) + 14 * sigma, limit=200)
        assert wl.linearization_error(ptr, a) == pytest.approx(total, abs=1e-10)


class TestWeakRegimeCheck:
    def test_wide_pointer_passes(self):
        assert wl.weak_regime_check(wl.GaussianPointer(100.0), [0.0, 1.0], 0.125)

    def test_narrow_pointer_fails(self):
        assert not wl.weak_regime_check(wl.GaussianPointer(1.0), [0.0, 1.0], 0.125)

    def test_boundary_inclusive(self):
        assert wl.weak_regime_check(wl.GaussianPointer(10.0), [-1.0, 1.0], 1.0)
