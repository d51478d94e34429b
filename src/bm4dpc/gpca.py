"""Global PCA across the volume dimension.

The decomposition works on the N x N Gram matrix of the (N, ...) stack
rather than a full SVD, which is cheaper since N << W, the voxel count.
The orthonormal basis preserves white-noise statistics, so noise is
uniformly distributed across all principal components. The stack is
real and finite: the entry points check it, and complex series are
phase-stabilized before they get here. The column signs are whatever
the eigensolver returns; no caller depends on them.
"""

import numpy as np


def forward_pca(stack: np.ndarray):
    """Eigendecompose the Gram matrix and project the data onto its basis.

    Parameters
    ----------
    stack : ndarray (N, ...)
        N real, finite volumes (or vectors) along the first axis. With
        fewer voxels W than volumes, the N - W trailing eigenvalues are
        zero.

    Returns
    -------
    (pcs, basis, eigenvalues)
        `pcs` is the C-contiguous, channel-last stack.shape[1:] + (N,)
        array of PCs, strongest first: PC j is
        pcs[..., j] = sum_i basis[i, j] * stack[i]. `basis` is the
        (N, N) matrix of orthonormal eigenvector columns of the Gram
        matrix, each up to sign. `eigenvalues` (N,) are nonincreasing,
        nonnegative, and equal to the squared singular values of the
        data matrix.
    """
    N = stack.shape[0]
    X = stack.reshape(N, -1)
    # X @ X.T is exactly symmetric, and eigh reads one triangle
    eigenvalues, basis = np.linalg.eigh(X @ X.T)
    eigenvalues = np.clip(eigenvalues[::-1], 0.0, None)
    basis = basis[:, ::-1].copy()  # C-contiguous, as BLAS takes it
    pcs = (X.T @ basis).reshape(stack.shape[1:] + (N,))
    return pcs, basis, eigenvalues


def inverse_pca(pcs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reconstruct the stack from (possibly filtered) (..., N) PCs.

    Volume i is sum_j basis[i, j] * pcs[..., j], returned as a
    C-contiguous (N, ...) stack; `basis` is the orthonormal N x N basis
    of `forward_pca`.
    """
    n = basis.shape[0]
    return (basis @ pcs.reshape(-1, n).T).reshape((n,) + pcs.shape[:-1])


def _mp_tail_start(eigenvalues: np.ndarray, samples) -> int:
    """First PC of the Marchenko-Pastur noise tail (Veraart et al.,
    NeuroImage 2016): the first p with eigenvalues[p] - eigenvalues[-1]
    < 4 sqrt((N - p) / samples) mean(eigenvalues[p:]), else N. `samples`
    is the voxel count; the rule is scale-free, so Gram eigenvalues serve."""
    tail = np.arange(len(eigenvalues), 0, -1)
    spread = 4.0 * np.sqrt(tail / samples) / tail * np.cumsum(eigenvalues[::-1])[::-1]
    return int(np.argmax(np.append(eigenvalues - eigenvalues[-1] < spread, True)))
