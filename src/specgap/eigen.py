"""Spectra of adjacency matrices.

All spectra are returned in descending order.  The dense symmetric
eigenproblem is delegated to LAPACK through numpy (``eigvalsh``/``eigh``),
whose symmetric solvers converge unconditionally; a failure is surfaced as
NonConvergenceError rather than a raw LinAlgError.

The shared zero classification rule lives here: an eigenvalue counts as
zero when |value| <= zero_tol, and the default tolerance scales with the
matrix order as 1e-9 * m.  A tolerance must be finite and non-negative.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph


class NonConvergenceError(RuntimeError):
    """The underlying eigenvalue iteration failed to converge."""


def default_zero_tol(order: int) -> float:
    return 1e-9 * order


def zero_tolerance(order: int, zero_tol: float | None = None) -> float:
    """The zero tolerance for spectra of this order: zero_tol, else the
    default.  Raises ValueError unless it is finite and non-negative."""
    tol = default_zero_tol(order) if zero_tol is None else zero_tol
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"zero tolerance must be finite and >= 0, not {tol}")
    return tol


def eigvals_symmetric(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix from outside, which is
    checked to be square and symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    return spectra_batch(a[None])[0].copy()


def spectrum(g: Graph) -> np.ndarray:
    """Descending adjacency spectrum of a graph: the one-graph case of
    spectra_batch, since an adjacency matrix is symmetric as built."""
    return spectra_batch(g.adjacency()[None])[0].copy()


def eigensystem(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and matching orthonormal eigenvector columns."""
    vals, vecs = eigensystems_batch(g.adjacency()[None])
    return vals[0].copy(), vecs[0].copy()


def spectra_batch(stack: np.ndarray) -> np.ndarray:
    """Descending spectra of a (n, m, m) stack of symmetric matrices.

    Fast path for census work; symmetry of the input is the caller's
    responsibility.
    """
    try:
        vals = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NonConvergenceError(str(exc)) from exc
    return vals[:, ::-1]


def eigensystems_batch(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues (n, m) and matching orthonormal eigenvector
    columns (n, m, m) of a stack of symmetric matrices.

    Each matrix goes through the same LAPACK routine as on its own, so the
    results equal a per-matrix ``eigh`` bit for bit.
    """
    try:
        vals, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NonConvergenceError(str(exc)) from exc
    return vals[:, ::-1], vecs[:, :, ::-1]


def nullity(values: np.ndarray, zero_tol: float | None = None) -> int:
    """Number of eigenvalues classified as zero."""
    values = np.asarray(values, dtype=float)
    tol = zero_tolerance(values.size, zero_tol)
    return int(np.count_nonzero(np.abs(values) <= tol))
