"""Finite-dimensional complex Hilbert-space algebra.

States, observables and POVM elements are thin immutable wrappers around
numpy arrays. The eigendecomposition is delegated to numpy; this module
adds validation, canonical ordering and a cached spectral decomposition.

Values are immutable after construction and safe to share across
threads; the lazy decomposition cache is compute-equal (a race recomputes
the same value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InputError

HERMITICITY_TOL = 1e-12   # absolute, max entry deviation; inputs are unit-scale
NORM_TOL = 1e-12
PSD_TOL = 1e-12           # eigenvalue floor for states / POVM elements


def _as_complex_matrix(matrix, name: str) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has a non-finite entry")
    return arr


def _check_hermitian(matrix: np.ndarray, name: str) -> None:
    deviation = np.max(np.abs(matrix - matrix.conj().T))
    if deviation > HERMITICITY_TOL:
        raise InputError(f"{name} deviates from Hermiticity by {deviation:.3e}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector of dimension d >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if vec.size < 2:
            raise DimensionMismatch("state dimension must be at least 2")
        if not np.isfinite(vec).all():
            raise InputError("state vector has a non-finite entry")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > NORM_TOL:
            raise InputError(f"state norm is {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", _freeze(vec))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> "MixedState":
        return MixedState(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class MixedState:
    """Density matrix: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix, "density matrix")
        _check_hermitian(mat, "density matrix")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < -PSD_TOL:
            raise InputError(f"density matrix has negative eigenvalue {eigenvalues.min():.3e}")
        trace = mat.trace().real
        if abs(trace - 1.0) > NORM_TOL:
            raise InputError(f"density matrix trace is {trace!r}, expected 1")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.array(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.array(self.eigenvectors, dtype=complex)))


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with a lazily computed, cached spectral decomposition."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix, "observable")
        _check_hermitian(mat, "observable")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        return spectral_decompose(self)


@dataclass(frozen=True)
class PovmElement:
    """Effect operator: Hermitian with spectrum in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix, "POVM element")
        _check_hermitian(mat, "POVM element")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < -PSD_TOL or eigenvalues.max() > 1.0 + PSD_TOL:
            raise InputError(
                "POVM element spectrum must lie in [0, 1], got "
                f"[{eigenvalues.min():.3e}, {eigenvalues.max():.3e}]"
            )
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def spectral_decompose(obs: Observable) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues sorted ascending.

    numpy's ``eigh`` already returns ascending eigenvalues and orthonormal
    columns; within degenerate subspaces any orthonormal basis is
    acceptable (downstream formulas depend only on spectral projectors).
    """
    eigenvalues, eigenvectors = np.linalg.eigh(obs.matrix)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def spectral_norm(obs: Observable) -> float:
    """Largest absolute eigenvalue."""
    return float(np.max(np.abs(obs.decomposition.eigenvalues)))


def projector_from_ket(ket: PureState) -> Observable:
    """Rank-1 projector onto a normalized state."""
    return Observable(np.outer(ket.amplitudes, ket.amplitudes.conj()))


# Shared qubit constants.
KET_0 = PureState(np.array([1.0, 0.0]))
SIGMA_X = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
SIGMA_Y = Observable(np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def qubit_ket(theta: float, phi: float = 0.0) -> PureState:
    """cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return PureState(np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)]))


# Random instances. Each draws its real parts, then its imaginary parts,
# from ``rng.standard_normal``, so a seed fixes the instances exactly.

def random_ket(rng: np.random.Generator, d: int) -> PureState:
    """Haar-random pure state."""
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(vec / np.linalg.norm(vec))


def random_density(rng: np.random.Generator, d: int) -> MixedState:
    """Density matrix G G* / Tr(G G*) with G complex Ginibre."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = raw @ raw.conj().T
    return MixedState(mat / mat.trace().real)


def random_observable(rng: np.random.Generator, d: int) -> Observable:
    """Hermitian part of a complex Ginibre matrix."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Observable((raw + raw.conj().T) / 2.0)
