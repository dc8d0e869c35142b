"""Closed-form Gaussian pointer mathematics.

A measurement pointer is a Gaussian wavepacket of width ``sigma``; the
measurement coupling displaces its center by the measured eigenvalue
(units fixed so the coupling constant times interaction time is 1, and
hbar = 1). Everything downstream needs only matrix elements of 1, x, x^2,
p, p^2 between two displaced copies of the packet, and those have exact
closed forms: with ov = exp(-(a_k - a_l)^2 / (8 sigma^2)),

    <phi(a_l)| 1   |phi(a_k)> = ov
    <phi(a_l)| x   |phi(a_k)> = ((a_k + a_l)/2) ov
    <phi(a_l)| x^2 |phi(a_k)> = (sigma^2 + ((a_k + a_l)/2)^2) ov
    <phi(a_l)| p   |phi(a_k)> = (1/(2 sigma^2)) ((a_k - a_l)/(2i)) ov
    <phi(a_l)| p^2 |phi(a_k)> = (1/(4 sigma^4)) (sigma^2 - ((a_k - a_l)/2)^2) ov

The same elements with ov set to 1 are the weak-regime ones: ov tends to
1 for wide pointers while the x and p elements keep their 1/sigma scaling.
Each reads sigma only through sigma^2, which ``refused_widths`` keeps a
positive finite float. All functions here are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError

class PointerOperatorKind(enum.Enum):
    """Which pointer operator a joint moment reads out on one slot."""

    IDENTITY = "i"
    POSITION = "x"
    POSITION_SQUARED = "X"
    MOMENTUM = "p"
    MOMENTUM_SQUARED = "P"


@dataclass(frozen=True)
class GaussianPointer:
    """Gaussian pointer fully described by its width ``sigma``, held as
    given: ``Scenario(steps=...)`` checks the stacked widths once."""

    sigma: float


def _factor(kind: PointerOperatorKind, s2, mean, gap):
    """A ``_step_tables`` element without its overlap ov, from sigma^2 and
    the centers' mean and gap (right minus left): the element in the weak
    limit, where ov goes to 1 while x and p keep their 1/sigma scaling."""
    if kind is PointerOperatorKind.IDENTITY:
        return np.ones_like(gap)
    if kind is PointerOperatorKind.POSITION:
        return mean
    if kind is PointerOperatorKind.POSITION_SQUARED:
        return s2 + mean * mean
    if kind is PointerOperatorKind.MOMENTUM:
        return -0.25j * gap / s2
    return (s2 - 0.25 * gap * gap) / (4.0 * s2 * s2)


def _overlap(s2, gap):
    """ov = <phi(a_l)|phi(a_k)> from sigma^2 and the centers' gap."""
    return np.exp(gap * gap / (-8.0 * s2))


def _step_tables(eigenvalues: np.ndarray, sigmas, kinds, engine: str = "exact") -> np.ndarray:
    """Stacked F[k, l] = <phi(a_l)| O |phi(a_k)>, the weights of the P_k X P_l
    dyads, one per kind, (..., K, d, d) from eigenvalues (..., d) and widths
    (...) that ``refused_widths`` accepts: at overlap 1 for ``engine`` "weak",
    or "exact", or "both", exact then weak on a leading axis (2, ..., K, d, d)."""
    # sigma ** 2 as Python's float power gives it, through libm's pow, which
    # np.float_power calls too; sigma * sigma differs in the last bit for
    # about one width in a thousand.
    s2 = np.float_power(sigmas, 2)[..., np.newaxis, np.newaxis]
    # "right minus left" so that a momentum element between |phi(a_k)> on
    # the right and <phi(a_l)| on the left carries (a_k - a_l)/(2i).
    left, right = eigenvalues[..., np.newaxis, :], eigenvalues[..., :, np.newaxis]
    mean, gap = 0.5 * (left + right), right - left
    scaled = {"exact": (True,), "weak": (False,), "both": (True, False)}[engine]
    overlap = _overlap(s2, gap) if scaled[0] else None
    shape = np.broadcast(s2, gap).shape
    tables = np.empty((len(scaled), *shape[:-2], len(kinds), *shape[-2:]), dtype=complex)
    for row, kind in enumerate(kinds):
        factor = _factor(kind, s2, mean, gap)
        for table, exact in zip(tables, scaled):
            table[..., row, :, :] = factor * overlap if exact else factor
    return tables if engine == "both" else tables[0]


def refused_widths(sigmas: np.ndarray) -> np.ndarray:
    """The pointer-width rule as a mask: a width must be positive and its
    square, as ``_step_tables`` takes it, a positive finite float (sigma
    from 1.5717277847026288e-162 to sqrt(sys.float_info.max), ~1.34e154)."""
    with np.errstate(over="ignore"):
        s2 = np.float_power(sigmas, 2)
    return ~((sigmas > 0) & (s2 > 0) & (s2 < np.inf))


def check_widths(sigmas) -> None:
    """Raises InputError naming the first width, in C order, of a width or
    an array of them that ``refused_widths`` refuses."""
    sigmas = np.asarray(sigmas, dtype=float)
    refused = refused_widths(sigmas)
    if refused.any():
        first = float(sigmas.flat[refused.argmax()])
        raise InputError(f"pointer width must be positive and its square a positive finite float, got {first!r}")

