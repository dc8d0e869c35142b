"""Finite-dimensional complex Hilbert-space algebra.

States, observables and effects are plain complex arrays. The stacked
checks here serve ``simulator.Scenario``, which checks each input once
and holds it frozen; the stacks of random instances below are valid by
construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InputError

HERMITICITY_TOL = 1e-12   # max entry deviation, relative to max(1, the matrix's largest entry)
NORM_TOL = 1e-12          # absolute: states and effects are unit-scale
PSD_TOL = 1e-12           # absolute eigenvalue floor for states / POVM elements


# The checks take one instance or a stack along leading axes and report a
# stack's worst entry; near the float limit, an overflow to inf is refused.

def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has a non-finite entry")


@np.errstate(over="ignore")
def _check_hermitian(matrix: np.ndarray, name: str) -> None:
    deviations = np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    refused = deviations > HERMITICITY_TOL * np.fmax(1.0, np.abs(matrix).max(axis=(-2, -1)))
    if refused.any():
        raise InputError(f"{name} deviates from Hermiticity by {deviations[refused].max():.3e}")


@np.errstate(over="ignore")
def check_kets(kets: np.ndarray) -> None:
    """The state checks on (..., d) kets: finite entries, unit squared
    norm, summed as the trace of the ket's density matrix is, so that a ket
    passes exactly when its density matrix passes ``check_densities``."""
    _check_finite(kets, "state vector")
    squared = (kets * kets.conj()).sum(axis=-1).real
    deviation = abs(squared - 1.0)
    if deviation.max() > NORM_TOL:
        raise InputError(f"state squared norm is {float(np.ravel(squared)[deviation.argmax()])!r}, expected 1")


@np.errstate(over="ignore")
def check_densities(matrices: np.ndarray) -> None:
    """The state checks on (..., d, d) density matrices: finite, Hermitian,
    positive semidefinite, unit trace."""
    _check_finite(matrices, "density matrix")
    _check_hermitian(matrices, "density matrix")
    lowest = np.linalg.eigvalsh(matrices)[..., 0].min()
    if lowest < -PSD_TOL:
        raise InputError(f"density matrix has negative eigenvalue {lowest:.3e}")
    traces = np.trace(matrices, axis1=-2, axis2=-1).real
    deviation = abs(traces - 1.0)
    if deviation.max() > NORM_TOL:
        raise InputError(f"density matrix trace is {float(np.ravel(traces)[deviation.argmax()])!r}, expected 1")


def check_observables(matrices: np.ndarray) -> None:
    """The observable checks on (..., d, d) matrices: finite, Hermitian."""
    _check_finite(matrices, "observable")
    _check_hermitian(matrices, "observable")


def check_effects(matrices: np.ndarray) -> np.ndarray:
    """The effect checks on (..., d, d) matrices: finite, Hermitian,
    spectrum in [0, 1]. Returns each effect's largest eigenvalue, its norm."""
    _check_finite(matrices, "POVM element")
    _check_hermitian(matrices, "POVM element")
    eigenvalues = np.linalg.eigvalsh(matrices)
    lowest, highest = eigenvalues[..., 0].min(), eigenvalues[..., -1].max()
    if lowest < -PSD_TOL or highest > 1.0 + PSD_TOL:
        raise InputError(f"POVM element spectrum must lie in [0, 1], got [{lowest:.3e}, {highest:.3e}]")
    return eigenvalues[..., -1]


def square_matrix(matrix, name: str) -> np.ndarray:
    """``matrix`` as a new complex array, refused with DimensionMismatch
    unless it is one square matrix; ``name`` names it in the message."""
    mat = np.array(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {mat.shape}")
    return mat


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def projector_from_ket(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |k><k| of a (d,) unit ket, frozen."""
    return _freeze(projectors_from_kets(np.asarray(ket, dtype=complex)))


# Shared qubit constants.
KET_0 = _freeze(np.array([1.0, 0.0], dtype=complex))
SIGMA_X = _freeze(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Y = _freeze(np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def qubit_ket(theta: float) -> np.ndarray:
    """cos(theta)|0> + sin(theta)|1>, frozen; a complex theta raises TypeError."""
    theta = float(theta)
    return _freeze(np.array([np.cos(theta), np.sin(theta)], dtype=complex))


# Stacks of random instances, made from standard normals laid out as the
# real parts, then the imaginary parts, so a seed fixes the instances
# exactly. Leading axes index the instances, which are valid by construction.

def kets_from_normals(normals: np.ndarray) -> np.ndarray:
    """Haar-random unit kets from (..., 2, d) normals, each equal to the
    one-at-a-time ket vec / np.linalg.norm(vec) to the last bit: the squared
    norm is summed as ``np.linalg.norm`` of one ket sums it, re.re + im.im,
    each a dot product of strided views."""
    vec = normals[..., 0, :] + 1j * normals[..., 1, :]
    re, im = vec.real[..., np.newaxis, :], vec.imag[..., np.newaxis, :]
    squared = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return vec / np.sqrt(squared[..., 0])


def projectors_from_kets(kets: np.ndarray) -> np.ndarray:
    """Rank-1 projectors |k><k| of (..., d) unit kets."""
    return kets[..., :, np.newaxis] * kets.conj()[..., np.newaxis, :]


def densities_from_normals(normals: np.ndarray) -> np.ndarray:
    """Density matrices G G* / Tr(G G*) from (..., 2, d, d) normals, G
    complex Ginibre."""
    raw = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    mat = raw @ raw.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]


def observables_from_normals(normals: np.ndarray) -> np.ndarray:
    """Hermitian parts of complex Ginibre matrices, from (..., 2, d, d) normals."""
    raw = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return (raw + raw.conj().swapaxes(-1, -2)) / 2.0
