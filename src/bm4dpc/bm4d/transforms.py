"""Separable orthonormal transforms for grouped blocks.

A group of M blocks of shape (b0, b1, b2) is transformed by the 3D
DCT-II of each block and by an orthonormal Haar transform of size M
along the group axis. Groups are laid out group axis first, channels
trailing: (M, b0, b1, b2, ...). The Haar transform is one (M, M) matrix
product over all samples, and the 3D DCT is factored into a
kron(dct(b1), dct(b2)) pass over the (b1 * b2) axis and a dct(b0) pass.
`dct_matrix` is the one definition of the block DCT; the variance model
takes its basis autocorrelations from the same rows. Everything is real and
orthonormal, so coefficient energies and the exact-variance formula
stay simple. The cached matrices are float64; a group transform uses
them cast to its samples' dtype, cached per group shape and dtype, so
the stages' float32 groups are transformed in float32.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n >= 1 (rows are basis vectors)."""
    j = np.arange(n)
    mat = np.cos(np.pi * np.outer(np.arange(n), 2 * j + 1) / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    mat.setflags(write=False)  # cached: every caller shares this array
    return mat


@lru_cache(maxsize=None)
def haar_matrix(m: int) -> np.ndarray:
    """Orthonormal Haar matrix of size m (a power of two, unchecked); row 0 is DC."""
    mat = np.ones((1, 1))
    while mat.shape[0] < m:
        n = mat.shape[0]
        mat = np.vstack([
            np.kron(mat, [1.0, 1.0]),
            np.kron(np.eye(n), [1.0, -1.0]),
        ]) / np.sqrt(2.0)
    mat.setflags(write=False)  # cached: every caller shares this array
    return mat


@lru_cache(maxsize=None)
def _group_matrices(m, b0, b1, b2, dtype):
    """The Haar, plane-DCT (kron(dct(b1), dct(b2)), the 2D DCT over a
    raveled (b1, b2) plane) and first-axis DCT matrices of a group shape,
    cast to `dtype` (the Haar and DCT tables themselves when it is
    float64); cached, and read-only as those are."""
    plane = np.kron(dct_matrix(b1), dct_matrix(b2))
    mats = tuple(
        mat.astype(dtype, copy=False)
        for mat in (haar_matrix(m), plane, dct_matrix(b0))
    )
    for mat in mats:
        mat.setflags(write=False)  # cached: every caller shares this array
    return mats


def group_transform(samples: np.ndarray) -> np.ndarray:
    """Forward 4D transform of one group, in the dtype of `samples`.

    `samples` is float32 or float64 (M, b0, b1, b2, ...); trailing axes
    (such as a channel axis) are carried through untouched. M must be a
    power of two, as the matched group sizes are; any other M raises
    ValueError.
    """
    m, b0, b1, b2 = samples.shape[:4]
    haar, plane, first = _group_matrices(m, b0, b1, b2, samples.dtype)
    grouped = haar @ samples.reshape(m, -1)  # (M, P * C)
    planes = plane @ grouped.reshape(m * b0, b1 * b2, -1)
    coeffs = first @ planes.reshape(m, b0, -1)
    return coeffs.reshape(samples.shape)


def group_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of group_transform (transposes, transforms orthonormal)."""
    m, b0, b1, b2 = coeffs.shape[:4]
    haar, plane, first = _group_matrices(m, b0, b1, b2, coeffs.dtype)
    planes = first.T @ coeffs.reshape(m, b0, -1)
    grouped = plane.T @ planes.reshape(m * b0, b1 * b2, -1)
    blocks = haar.T @ grouped.reshape(m, -1)
    return blocks.reshape(coeffs.shape)
