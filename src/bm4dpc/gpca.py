"""Global PCA across the volume dimension.

The decomposition works on the N x N Gram matrix of the (N, ...) stack
rather than a full SVD, which is cheaper since N << W, the voxel count.
The orthonormal basis preserves white-noise statistics, so noise is
uniformly distributed across all principal components. The stack is
real and finite: the entry points check it, and complex series are
phase-stabilized before they get here. The column signs are whatever
the eigensolver returns; no caller depends on them.
"""

from dataclasses import dataclass

import numpy as np


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
        Orthonormal eigenvector columns of the Gram matrix, each up to
        sign.
    eigenvalues : ndarray (N,)
        Nonincreasing, nonnegative; equal to the squared singular
        values of the data matrix.
    """

    pcs: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray


def forward_pca(stack: np.ndarray) -> PcStack:
    """Eigendecompose the Gram matrix and project the data onto its basis.

    Parameters
    ----------
    stack : ndarray (N, ...)
        N real, finite volumes (or vectors) along the first axis. With
        fewer voxels W than volumes, the N - W trailing eigenvalues are
        zero.

    Returns
    -------
    PcStack
        PCs of the stack's shape ordered by descending eigenvalue. The
        PCs are a view of one (W, N) product, so the N values of a
        voxel sit side by side: the channel-last layout the filtering
        stages read without a copy.
    """
    N = stack.shape[0]
    X = stack.reshape(N, -1)
    # X @ X.T is exactly symmetric, and eigh reads one triangle
    eigenvalues, basis = np.linalg.eigh(X @ X.T)
    eigenvalues = np.clip(eigenvalues[::-1], 0.0, None)
    basis = basis[:, ::-1].copy()  # C-contiguous, as BLAS takes it
    pcs = (X.T @ basis).reshape(stack.shape[1:] + (N,))
    return PcStack(np.moveaxis(pcs, -1, 0), basis, eigenvalues)


def inverse_pca(pcs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reconstruct the stack from (possibly filtered) PCs.

    Volume i is sum_j basis[i, j] * pcs[j], returned C-contiguous in
    the shape of `pcs`; `basis` is the orthonormal N x N basis of
    `forward_pca`. Voxel-major PCs, as `forward_pca` and the filtering
    stages return them, are read in place as a transposed matrix
    operand.
    """
    n = basis.shape[0]
    return (basis @ pcs.reshape(n, -1)).reshape(pcs.shape)
