"""Global PCA across the volume dimension.

The decomposition works on the N x N Gram matrix of the (N, ...) stack
rather than a full SVD, which is cheaper since N << W, the voxel count.
The orthonormal basis preserves white-noise statistics, so noise is
uniformly distributed across all principal components. The data is
real: complex series are phase-stabilized before they get here.
"""

from dataclasses import dataclass

import numpy as np

INVERSE_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class PcStack:
    """Principal-component volumes with their basis and eigenvalues.

    Attributes
    ----------
    pcs : ndarray (N, ...)
        PC j is sum_i basis[i, j] * stack[i], strongest first; same
        shape as the input stack, stored voxel-major (the channel axis
        is the fastest-varying one in memory).
    basis : ndarray (N, N)
        Orthonormal eigenvector columns of the Gram matrix.
    eigenvalues : ndarray (N,)
        Nonincreasing, nonnegative; equal to the squared singular
        values of the data matrix.
    """

    pcs: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    return np.where(pivots < 0, -basis, basis)


def forward_pca(stack: np.ndarray) -> PcStack:
    """Eigendecompose the Gram matrix and project the data onto its basis.

    Parameters
    ----------
    stack : ndarray (N, ...)
        N real volumes (or vectors) along the first axis, at least N
        voxels each, finite entries; complex input raises ValueError.

    Returns
    -------
    PcStack
        PCs of the stack's shape ordered by descending eigenvalue,
        deterministic column signs (largest-magnitude entry of each
        basis column made positive). The PCs are a view of one
        (W, N) product, so the N values of a voxel sit side by side:
        the channel-last layout the filtering stages read without a
        copy.
    """
    stack = np.asarray(stack)
    if stack.ndim < 2:
        raise ValueError("expected an (N, ...) stack")
    N = stack.shape[0]
    X = stack.reshape(N, -1)
    if X.shape[1] < N:
        raise ValueError(f"need W >= N, got W={X.shape[1]}, N={N}")
    if np.iscomplexobj(X):
        raise ValueError("PCA expects real (phase-stabilized) data")
    if not np.all(np.isfinite(X)):
        raise ValueError("stack contains non-finite entries")

    gram = X @ X.T
    # symmetrize against round-off before the symmetric eigensolver
    gram = 0.5 * (gram + gram.T)
    eigenvalues, basis = np.linalg.eigh(gram)
    order = np.arange(N - 1, -1, -1)
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    basis = _fix_signs(basis[:, order])
    pcs = (X.T @ basis).reshape(stack.shape[1:] + (N,))
    return PcStack(np.moveaxis(pcs, -1, 0), basis, eigenvalues)


def inverse_pca(pcs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reconstruct the stack from (possibly filtered) PCs.

    Volume i is sum_j basis[i, j] * pcs[j], returned C-contiguous
    in the shape of `pcs`; `basis` must be orthonormal within 1e-8.
    Voxel-major PCs, as `forward_pca` and the filtering stages return
    them, are read in place as a transposed matrix operand.
    """
    pcs = np.asarray(pcs)
    basis = np.asarray(basis)
    n = basis.shape[0]
    if basis.shape != (n, n) or pcs.shape[0] != n:
        raise ValueError("basis must be N x N matching the PC count")
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(n))) > INVERSE_ORTHO_TOL:
        raise ValueError("basis is not orthonormal")
    return (basis @ pcs.reshape(n, -1)).reshape(pcs.shape)
