"""Shared domain types, and the one smoother the layers share.

A series of N volumes of dims (m, n, o) is one array of shape
(N, m, n, o), which `DwiDataset.data` stores C-contiguous. The fields
of every type here cannot be reassigned after construction, and no
layer writes into the arrays they hold, so the types are safe to share
across workers.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

BVEC_NORM_TOL = 1e-6
SHELL_TOLERANCE = 50.0  # s/mm^2, typical scanner b-value jitter


def _starts(extent: int, size: int, step: int) -> list:
    """Strided window starts plus a clamped final start covering the end.

    The caller checks that the window fits: size <= extent.
    """
    starts = list(range(0, extent - size + 1, step))
    if starts[-1] != extent - size:
        starts.append(extent - size)
    return starts


def _gaussian_taps(sigma: float, radius: int) -> tuple:
    """Taps exp(-k^2 / (2 sigma^2)) for k = -radius..radius, summing to 1."""
    k = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * k * k)
    return tuple(phi / phi.sum())


@lru_cache(maxsize=64)
def _correlation_matrix(n: int, taps: tuple, nearest: bool) -> np.ndarray:
    """Read-only (n, n) matrix whose product with a length-n signal is
    its correlation with the odd, symmetric `taps`.

    Beyond the ends the signal is its edge sample when `nearest` (the
    "nearest" mode of scipy.ndimage), else zero (its "constant" mode
    with cval 0).
    """
    r = len(taps) // 2
    rows = np.repeat(np.arange(n), len(taps))
    cols = (np.arange(n)[:, None] + np.arange(-r, r + 1)).ravel()
    weights = np.tile(taps, n)
    if nearest:
        cols = np.clip(cols, 0, n - 1)
    else:
        inside = (cols >= 0) & (cols < n)
        rows, cols, weights = rows[inside], cols[inside], weights[inside]
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rows, cols), weights)
    matrix.flags.writeable = False
    return matrix


def _correlate(x: np.ndarray, taps: tuple, nearest: bool, axes) -> np.ndarray:
    """Real `x` correlated with `taps` along each of `axes` in turn.

    Each axis is one matrix product with its `_correlation_matrix`,
    batched over the axes before it; `x` is not written.
    """
    for axis in axes:
        shape = x.shape
        matrix = _correlation_matrix(shape[axis], taps, nearest)
        if axis == x.ndim - 1:
            x = x.reshape(-1, shape[axis]) @ matrix.T
        else:
            x = np.matmul(matrix, x.reshape(-1, shape[axis], math.prod(shape[axis + 1:])))
        x = x.reshape(shape)
    return x


def _as_samples(data, ndim: int, what: str) -> np.ndarray:
    """Finite, non-empty float64 or complex128 C-contiguous samples."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
    else:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite samples")
    return arr


def _as_real_grid(data, what: str) -> np.ndarray:
    """Finite, non-empty, real 3D samples as C-contiguous float64."""
    if np.iscomplexobj(data):
        raise ValueError(f"{what} must be real")
    return _as_samples(data, 3, what)


@dataclass(frozen=True)
class Volume3:
    """A dense 3D scalar grid, real- or complex-valued.

    Parameters
    ----------
    data : ndarray (m, n, o)
        Voxel samples. Real input is stored as float64, complex input
        as complex128. All samples must be finite.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_samples(self.data, 3, "volume"))

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)


@dataclass(frozen=True)
class DwiDataset:
    """A series of N diffusion-weighted volumes with per-volume b-values.

    Parameters
    ----------
    data : ndarray (N, m, n, o)
        N >= 2 volumes, volumes first. Stored C-contiguous, as float64
        for real input and complex128 for complex input. All samples
        must be finite.
    bvals : array (N,)
        Nonnegative b-values in s/mm^2.
    bvecs : array (N, 3), optional
        Finite unit gradient directions; only required for tensor
        fitting. Rows of b=0 volumes may hold any vector, and rows with
        b at most SHELL_TOLERANCE (the b=0 shell) may be zero vectors.
    """

    data: np.ndarray
    bvals: np.ndarray
    bvecs: Optional[np.ndarray] = None

    def __post_init__(self):
        data = _as_samples(self.data, 4, "dataset")
        n = data.shape[0]
        if n < 2:
            raise ValueError("dataset needs at least 2 volumes")
        bvals = np.asarray(self.bvals, dtype=np.float64)
        if bvals.shape != (n,):
            raise ValueError(
                f"bvals count must match volume count: got {bvals.size} "
                f"b-values for {n} volumes"
            )
        if np.any(bvals < 0) or not np.all(np.isfinite(bvals)):
            raise ValueError("bvals must be finite and nonnegative")
        bvecs = self.bvecs
        if bvecs is not None:
            bvecs = np.asarray(bvecs, dtype=np.float64)
            if bvecs.shape != (n, 3) or not np.all(np.isfinite(bvecs)):
                raise ValueError("bvecs must be a finite (N, 3) array")
            norms = np.linalg.norm(bvecs, axis=1)
            # scanners write b=5 or b=10 for a b=0 volume: in the b=0
            # shell a zero vector is accepted, as `fit_dti` reads it as b=0
            b0_row = (norms == 0) & (bvals <= SHELL_TOLERANCE)
            bad = (np.abs(norms - 1.0) > BVEC_NORM_TOL) & (bvals > 0) & ~b0_row
            if np.any(bad):
                raise ValueError("bvecs of weighted volumes must be unit length")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "bvals", bvals)
        object.__setattr__(self, "bvecs", bvecs)

    @property
    def dims(self) -> tuple:
        return self.data.shape[1:]

    @property
    def n_volumes(self) -> int:
        return self.data.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    @property
    def volumes(self) -> tuple:
        """Per-volume views of `data`, for callers that want Volume3s."""
        return tuple(Volume3(v) for v in self.data)

    def with_volumes(self, volumes: Sequence[Volume3]) -> "DwiDataset":
        """Same b-values/bvecs, new volumes."""
        return replace(self, data=np.stack([v.data for v in volumes]))


@dataclass(frozen=True)
class NoiseMap:
    """Voxel-wise noise standard deviation, shared across all volumes."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_real_grid(self.data, "noise map")
        if np.any(arr < 0):
            raise ValueError("noise map must be finite and nonnegative")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple:
        return self.data.shape


@dataclass(frozen=True)
class NoisePsd:
    """Full-grid power spectral density of the stationary noise.

    Only the shape of the spectrum is kept: the density is scaled to
    grid mean 1 on construction, so `NoisePsd(c * psi)` stores
    psi / mean(psi) for every c > 0 and white noise has psi identically
    1. The noise level belongs to the sigma map, which scales this
    unit-variance noise voxel by voxel.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_real_grid(self.data, "PSD")
        if np.any(arr < 0):
            raise ValueError("PSD must be finite and nonnegative")
        mean = arr.mean()
        if not 0 < mean < np.inf:
            raise ValueError("PSD must have a positive, finite grid mean")
        object.__setattr__(self, "data", arr / mean)

    @property
    def dims(self) -> tuple:
        return self.data.shape
