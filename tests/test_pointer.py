"""Pointer closed forms checked against direct numerical quadrature."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import weaklab as wl
from weaklab.errors import InputError
from weaklab.pointer import PointerOperatorKind, _step_tables, refused_widths

ALL_KINDS = list(PointerOperatorKind)

sigmas = st.floats(min_value=0.2, max_value=20.0, allow_nan=False)
centers = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


WIDTH_RULE = "pointer width must be positive and its square a positive finite float"
# The narrowest width whose square is a positive float, and the widest whose
# square is finite: the next double outward squares to 0 or to inf.
NARROWEST, WIDEST = 1.5717277847026288e-162, math.sqrt(sys.float_info.max)


def square(sigma):
    """sigma ** 2 as Python's float power, libm's pow, gives it; inf where
    it overflows."""
    try:
        return sigma**2
    except OverflowError:
        return math.inf


def one_step(sigma):
    """A one-step scenario whose pointer has width ``sigma``: the pointer
    holds its width as given, and the scenario checks it."""
    step = wl.MeasurementStep(np.diag([1.0, -1.0]), wl.GaussianPointer(sigma))
    return wl.Scenario(wl.KET_0, steps=[step])


def wavefunction(ptr, center, x):
    """Position-space amplitude of the packet displaced to ``center``."""
    s2 = ptr.sigma**2
    return (2.0 * math.pi * s2) ** -0.25 * math.exp(-((x - center) ** 2) / (4.0 * s2))


def quad_element(sigma, kind, left, right):
    """Independent oracle: integrate the defining matrix-element integral."""
    ptr = wl.GaussianPointer(sigma)

    def left_amp(x):
        return wavefunction(ptr, left, x)

    def right_amp(x):
        return wavefunction(ptr, right, x)

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
        assert wavefunction(wl.GaussianPointer(1.0), 0.0, 0.0) == pytest.approx(expected)

    @given(centers)
    def test_translation_invariance(self, a):
        ptr = wl.GaussianPointer(1.0)
        assert wavefunction(ptr, a, a) == pytest.approx(wavefunction(ptr, 0.0, 0.0))

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 4.0])
    def test_normalized(self, sigma):
        ptr = wl.GaussianPointer(sigma)
        total, _ = quad(lambda x: abs(wavefunction(ptr, 0.7, x)) ** 2, -12 * sigma, 12 * sigma + 1)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_positive_width_enforced(self):
        with pytest.raises(InputError, match=re.escape(f"{WIDTH_RULE}, got 0.0")):
            one_step(0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e200])
    def test_finite_width_enforced(self, sigma):
        with pytest.raises(InputError, match=re.escape(f"{WIDTH_RULE}, got {sigma!r}")):
            one_step(sigma)


class TestWidthArrays:
    def test_step_tables_fail_a_stack_with_an_underflowing_square(self):
        # A width whose square underflows to 0 is an input error; at the
        # narrowest accepted width the tables build, and the stack's other
        # widths keep their own tables.
        with pytest.raises(InputError, match=re.escape(f"{WIDTH_RULE}, got 1e-170")):
            wl.Scenario(wl.KET_0, np.stack([np.diag([1.0, -1.0])] * 3), [1.0, 1e-170, 2.0])
        widths, eigenvalues = np.array([1.0, NARROWEST, 2.0]), np.array([0.0, 1.0])
        with np.errstate(all="ignore"):
            tables = _step_tables(eigenvalues, widths, (PointerOperatorKind.MOMENTUM,))
        assert tables.shape == (3, 1, 2, 2)
        assert np.array_equal(tables[[0, 2]], _step_tables(eigenvalues, widths[[0, 2]], (PointerOperatorKind.MOMENTUM,)))

    def test_refused_widths_is_the_pointer_rule(self):
        # the mask refuses what the rule on one float, positive with a
        # positive finite square, refuses, and a scenario's steps refuse the
        # same widths
        def refuses(sigma):
            try:
                one_step(sigma)
            except InputError:
                return True
            return False

        widths = [1.0, 5e-324, 1.3e154, 1.35e154, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]
        widths += [WIDEST, math.nextafter(WIDEST, 0.0), math.nextafter(WIDEST, math.inf)]
        widths += [NARROWEST, math.nextafter(NARROWEST, math.inf), math.nextafter(NARROWEST, 0.0)]
        rng = np.random.default_rng(0)
        widths += np.exp(rng.uniform(350.0, 356.0, 1000)).tolist() + np.exp(rng.uniform(-376.0, -370.0, 1000)).tolist()
        rule = [not (sigma > 0 and 0.0 < square(sigma) < math.inf) for sigma in widths]
        assert refused_widths(np.array(widths)).tolist() == rule == [refuses(sigma) for sigma in widths]
        assert rule[-2006:-2000] == [False, False, True, False, False, True]
        assert 0 < sum(rule[-2000:-1000]) < 1000 and 0 < sum(rule[-1000:]) < 1000
        assert rule[:10] == [False, True, False, True, True, True, True, True, True, True]


def element(sigma, kind, left, right):
    """<phi(left)| O |phi(right)> read off ``_step_tables``, whose entry
    [k, l] has a_k on the right and a_l on the left."""
    return complex(_step_tables(np.array([left, right]), sigma, (kind,))[0, 1, 0])


class TestMatrixElement:
    def test_identity_overlap(self):
        got = element(1.0, PointerOperatorKind.IDENTITY, 1.0, 0.0)
        assert got == pytest.approx(math.exp(-0.125))
        assert got == pytest.approx(quad_element(1.0, PointerOperatorKind.IDENTITY, 1.0, 0.0))

    @pytest.mark.parametrize("sigma,c", [(0.5, -1.3), (2.0, 0.0), (7.0, 2.2)])
    def test_diagonal_position_is_center(self, sigma, c):
        got = element(sigma, PointerOperatorKind.POSITION, c, c)
        assert got == pytest.approx(c)

    def test_diagonal_momentum_vanishes(self):
        got = element(1.5, PointerOperatorKind.MOMENTUM, 0.8, 0.8)
        assert got == 0.0

    def test_position_squared_at_origin(self):
        got = element(1.0, PointerOperatorKind.POSITION_SQUARED, 0.0, 0.0)
        assert got == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_quadrature_agreement_random(self, kind):
        rng = np.random.default_rng(ALL_KINDS.index(kind))
        for _ in range(8):
            sigma = float(rng.uniform(0.2, 20.0))
            left = float(rng.uniform(-3.0, 3.0))
            right = float(rng.uniform(-3.0, 3.0))
            got = element(sigma, kind, left, right)
            want = quad_element(sigma, kind, left, right)
            assert got == pytest.approx(want, abs=1e-8)

    @given(sigmas, centers, centers)
    @settings(max_examples=60, deadline=None)
    def test_hermiticity(self, sigma, a, b):
        tables = _step_tables(np.array([a, b]), sigma, ALL_KINDS)
        assert np.allclose(tables, tables.conj().swapaxes(-1, -2), rtol=0, atol=1e-12)
