"""Global PCA across the volume dimension.

The decomposition works on the N x N Gram matrix of the vectorized
dataset rather than a full SVD, which is cheaper since N << W. The
unitary basis preserves noise statistics, so noise is uniformly
distributed across all principal components.
"""

from dataclasses import dataclass

import numpy as np

from .core import Volume3, devectorize

ORTHONORMALITY_TOL = 1e-10
INVERSE_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class PcStack:
    """Principal-component volumes with their basis and eigenvalues.

    Attributes
    ----------
    pcs : tuple of Volume3
        Columns of the PC matrix reshaped to volumes, strongest first.
    basis : ndarray (N, N)
        Orthonormal eigenvector columns of the Gram matrix.
    eigenvalues : ndarray (N,)
        Nonincreasing, nonnegative; equal to the squared singular
        values of the data matrix.
    """

    pcs: tuple
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        n = len(self.pcs)
        basis = np.asarray(self.basis)
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if basis.shape != (n, n) or eig.shape != (n,):
            raise ValueError("basis/eigenvalue shapes must match PC count")
        gram = basis.conj().T @ basis
        if np.max(np.abs(gram - np.eye(n))) > ORTHONORMALITY_TOL:
            raise ValueError("basis columns are not orthonormal")
        if np.any(np.diff(eig) > 0) or np.any(eig < 0):
            raise ValueError("eigenvalues must be nonincreasing and nonnegative")
        dims = self.pcs[0].dims
        if any(pc.dims != dims for pc in self.pcs):
            raise ValueError("PC volumes must share dims")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def n_components(self) -> int:
        return len(self.pcs)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real-positive."""
    fixed = basis.copy()
    for j in range(basis.shape[1]):
        col = fixed[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if np.iscomplexobj(basis):
            mag = abs(pivot)
            if mag > 0:
                fixed[:, j] = col * (pivot.conj() / mag)
        elif pivot < 0:
            fixed[:, j] = -col
    return fixed


def forward_pca(matrix: np.ndarray, dims=None) -> PcStack:
    """Eigendecompose the Gram matrix and project the data onto its basis.

    Parameters
    ----------
    matrix : ndarray (W, N)
        Vectorized dataset, W >= N, finite entries.
    dims : (m, n, o), optional
        Volume dims for reshaping the PC columns. Required unless W
        factors as given; defaults to (W, 1, 1).

    Returns
    -------
    PcStack
        PCs ordered by descending eigenvalue, deterministic column
        signs (largest-magnitude entry of each basis column made
        real-positive).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a W x N matrix")
    W, N = matrix.shape
    if W < N:
        raise ValueError(f"need W >= N, got W={W}, N={N}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    if dims is None:
        dims = (W, 1, 1)
    if int(np.prod(dims)) != W:
        raise ValueError("dims product must equal row count")

    gram = matrix.conj().T @ matrix
    # symmetrize against round-off before the Hermitian eigensolver
    gram = 0.5 * (gram + gram.conj().T)
    eigenvalues, basis = np.linalg.eigh(gram)
    order = np.arange(N - 1, -1, -1)
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    basis = _fix_signs(basis[:, order])

    pc_matrix = matrix @ basis
    return PcStack(tuple(devectorize(pc_matrix, dims)), basis, eigenvalues)


def inverse_pca(pc_matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reconstruct the data matrix from (possibly filtered) PCs.

    Returns pc_matrix @ basis^H; `basis` must be orthonormal within
    1e-8.
    """
    pc_matrix = np.asarray(pc_matrix)
    basis = np.asarray(basis)
    n = basis.shape[0]
    if basis.shape != (n, n) or pc_matrix.shape[1] != n:
        raise ValueError("basis must be N x N matching the PC count")
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(n))) > INVERSE_ORTHO_TOL:
        raise ValueError("basis is not orthonormal")
    return pc_matrix @ basis.conj().T
