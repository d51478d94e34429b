"""Separable orthonormal transforms for grouped blocks.

A group of M blocks of shape (b0, b1, b2) is transformed by the 3D
DCT-II of each block, applied as one matrix over the flattened block
(`block_basis`, the Kronecker product of the per-axis DCT matrices),
and by an orthonormal Haar transform of size M along the group axis.
Everything is real and orthonormal, so coefficient energies and the
exact-variance formula stay simple.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n (rows are basis vectors)."""
    if n < 1:
        raise ValueError("transform size must be positive")
    j = np.arange(n)
    mat = np.cos(np.pi * np.outer(np.arange(n), 2 * j + 1) / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    return mat


@lru_cache(maxsize=None)
def haar_matrix(m: int) -> np.ndarray:
    """Orthonormal Haar matrix of size m (power of two); row 0 is DC."""
    if m < 1 or m & (m - 1):
        raise ValueError("Haar size must be a power of two")
    mat = np.ones((1, 1))
    while mat.shape[0] < m:
        n = mat.shape[0]
        mat = np.vstack([
            np.kron(mat, [1.0, 1.0]),
            np.kron(np.eye(n), [1.0, -1.0]),
        ]) / np.sqrt(2.0)
    return mat


def group_transform(samples: np.ndarray) -> np.ndarray:
    """Forward 4D transform of one group.

    `samples` has shape (..., M, b0, b1, b2); leading axes (such as a
    channel axis) are carried through untouched. M must be a power of
    two.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim < 4:
        raise ValueError("expected (..., M, b0, b1, b2) samples")
    size = int(np.prod(samples.shape[-3:]))
    basis = block_basis(samples.shape[-3:]).reshape(size, size)
    blocks = samples.reshape(-1, size) @ basis.T  # every block in one matmul
    flat = blocks.reshape(samples.shape[:-3] + (size,))
    return (haar_matrix(samples.shape[-4]) @ flat).reshape(samples.shape)


def group_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of group_transform (transposes, transforms orthonormal)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim < 4:
        raise ValueError("expected (..., M, b0, b1, b2) coefficients")
    size = int(np.prod(coeffs.shape[-3:]))
    basis = block_basis(coeffs.shape[-3:]).reshape(size, size)
    flat = coeffs.reshape(coeffs.shape[:-3] + (size,))
    blocks = haar_matrix(coeffs.shape[-4]).T @ flat
    return (blocks.reshape(-1, size) @ basis).reshape(coeffs.shape)


@lru_cache(maxsize=None)
def block_basis(block: tuple) -> np.ndarray:
    """All 3D transform basis functions, shape (prod(block), b0, b1, b2).

    Row-major over (k0, k1, k2): entry p = k0*b1*b2 + k1*b2 + k2 holds
    the outer product of the k0-th, k1-th, k2-th DCT rows.
    """
    t0, t1, t2 = (dct_matrix(e) for e in block)
    basis = np.einsum("ai,bj,ck->abcijk", t0, t1, t2)
    size = int(np.prod(block))
    basis = basis.reshape(size, *block)
    basis.setflags(write=False)  # cached: every caller shares this array
    return basis
