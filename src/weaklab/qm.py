"""Finite-dimensional complex Hilbert-space algebra.

States, observables and effects are plain complex arrays. The rules and
checks here serve ``simulator.Scenario``, which checks its inputs in one
pass and holds them frozen; the stacks of random instances below are
valid by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InputError, read_real

HERMITICITY_TOL = 1e-12   # max entry deviation, relative to max(1, the matrix's largest entry)
NORM_TOL = 1e-12          # absolute: states and effects are unit-scale
PSD_TOL = 1e-12           # absolute eigenvalue floor for states / POVM elements


# Each rule is a mask over a stack's leading axes, which ``Scenario`` runs
# once over all of its inputs, with overflow warnings off: an overflow to inf
# is refused. The checks wrap the rules, raise on the first that refuses, and
# report a stack's worst entry.

def refused_hermitian(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermiticity rule on finite matrices: each one's largest entry
    deviation from its adjoint, and the mask of those past
    ``HERMITICITY_TOL`` times max(1, the matrix's largest entry)."""
    deviations = np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return deviations, deviations > HERMITICITY_TOL * np.fmax(1.0, np.abs(matrices).max(axis=(-2, -1)))


def refused_norms(values: np.ndarray) -> np.ndarray:
    """The normalization rule, on kets' squared norms or on traces."""
    return abs(values - 1.0) > NORM_TOL


def refused_spectra(eigenvalues: np.ndarray, ceiling: float = np.inf) -> np.ndarray:
    """The spectrum rule on ``eigh``'s ascending eigenvalues (..., d): the
    least below -``PSD_TOL``, or the largest above ``ceiling`` + ``PSD_TOL``."""
    return (eigenvalues[..., 0] < -PSD_TOL) | (eigenvalues[..., -1] > ceiling + PSD_TOL)


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has a non-finite entry")


@np.errstate(over="ignore")
def _check_hermitian(matrix: np.ndarray, name: str) -> None:
    _check_finite(matrix, name)
    deviations, refused = refused_hermitian(matrix)
    if refused.any():
        raise InputError(f"{name} deviates from Hermiticity by {deviations[refused].max():.3e}")


@np.errstate(over="ignore")
def check_kets(kets: np.ndarray) -> None:
    """The state checks on (..., d) kets: finite entries, unit squared
    norm, summed as the trace of the ket's density matrix is, so that a ket
    passes exactly when its density matrix passes ``check_densities``."""
    _check_finite(kets, "state vector")
    squared = (kets * kets.conj()).sum(axis=-1).real
    if refused_norms(squared).any():
        raise InputError(f"state squared norm is {float(np.ravel(squared)[abs(squared - 1.0).argmax()])!r}, expected 1")


@np.errstate(over="ignore")
def check_densities(matrices: np.ndarray) -> None:
    """The state checks on (..., d, d) density matrices: finite, Hermitian,
    positive semidefinite, unit trace."""
    _check_hermitian(matrices, "density matrix")
    eigenvalues = np.linalg.eigh(matrices)[0]
    if refused_spectra(eigenvalues).any():
        raise InputError(f"density matrix has negative eigenvalue {eigenvalues[..., 0].min():.3e}")
    traces = np.trace(matrices, axis1=-2, axis2=-1).real
    if refused_norms(traces).any():
        raise InputError(f"density matrix trace is {float(np.ravel(traces)[abs(traces - 1.0).argmax()])!r}, expected 1")


def check_observables(matrices: np.ndarray) -> None:
    """The observable checks on (..., d, d) matrices: finite, Hermitian."""
    _check_hermitian(matrices, "observable")


def check_effects(matrices: np.ndarray) -> None:
    """The effect checks on (..., d, d) matrices: finite, Hermitian,
    spectrum in [0, 1]."""
    _check_hermitian(matrices, "POVM element")
    eigenvalues = np.linalg.eigh(matrices)[0]
    if refused_spectra(eigenvalues, 1.0).any():
        lowest, highest = eigenvalues[..., 0].min(), eigenvalues[..., -1].max()
        raise InputError(f"POVM element spectrum must lie in [0, 1], got [{lowest:.3e}, {highest:.3e}]")


def read_array(value, dtype: type, name: str) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex; an unreadable
    value, such as a string, a ragged list or complex read as float, raises InputError naming ``name``."""
    try:
        if dtype is float and np.iscomplexobj(value):  # numpy would drop the imaginary parts, with a warning
            raise TypeError("it holds complex numbers")
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not an array of {dtype.__name__} numbers: {exc}") from None


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
    """Rank-1 projector |k><k| of a (d,) unit ket, frozen; any other shape
    raises DimensionMismatch."""
    ket = read_array(ket, complex, "ket")
    if ket.ndim != 1:
        raise DimensionMismatch(f"ket must be one-dimensional, got shape {ket.shape}")
    return _freeze(projectors_from_kets(ket))


# Shared qubit constants.
KET_0 = _freeze(np.array([1.0, 0.0], dtype=complex))
SIGMA_X = _freeze(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Y = _freeze(np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def qubit_ket(theta: float) -> np.ndarray:
    """cos(theta)|0> + sin(theta)|1>, frozen; theta must be a finite real number."""
    theta = read_real("theta", theta)
    if not np.isfinite(theta):
        raise InputError(f"theta must be finite, got {theta!r}")
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
