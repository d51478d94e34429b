"""Shared domain types.

A stack of N volumes of dims (m, n, o) is one C-contiguous array of
shape (N, m, n, o), as built by `DwiDataset.stack`; the PCA, noise
estimation and filtering layers all take and return that layout. Every
type here is immutable after construction and safe to share across
workers.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

BVEC_NORM_TOL = 1e-6
PSD_MEAN_TOL = 1e-6


def _starts(extent: int, size: int, step: int) -> list:
    """Strided window starts plus a clamped final start covering the end."""
    if size > extent:
        raise ValueError("window does not fit in the extent")
    starts = list(range(0, extent - size + 1, step))
    if starts[-1] != extent - size:
        starts.append(extent - size)
    return starts


def _as_samples(data) -> np.ndarray:
    """Coerce to a float64 or complex128 ndarray without copying twice."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
    else:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
    return arr


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
        arr = _as_samples(self.data)
        if arr.ndim != 3:
            raise ValueError(f"volume must be 3D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("volume must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume contains non-finite samples")
        object.__setattr__(self, "data", arr)

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
    volumes : sequence of Volume3
        N >= 2 volumes sharing dims and sample kind (all real or all
        complex).
    bvals : array (N,)
        Nonnegative b-values in s/mm^2.
    bvecs : array (N, 3), optional
        Unit gradient directions; only required for tensor fitting.
        Rows belonging to b=0 volumes may be zero vectors.
    """

    volumes: tuple
    bvals: np.ndarray
    bvecs: Optional[np.ndarray] = None

    def __post_init__(self):
        vols = tuple(self.volumes)
        if len(vols) < 2:
            raise ValueError("dataset needs at least 2 volumes")
        dims = vols[0].dims
        is_complex = vols[0].is_complex
        for v in vols:
            if v.dims != dims:
                raise ValueError("all volumes must share dims")
            if v.is_complex != is_complex:
                raise ValueError("all volumes must share sample kind")
        bvals = np.asarray(self.bvals, dtype=np.float64)
        if bvals.shape != (len(vols),):
            raise ValueError("bvals count must match volume count")
        if np.any(bvals < 0) or not np.all(np.isfinite(bvals)):
            raise ValueError("bvals must be finite and nonnegative")
        bvecs = self.bvecs
        if bvecs is not None:
            bvecs = np.asarray(bvecs, dtype=np.float64)
            if bvecs.shape != (len(vols), 3):
                raise ValueError("bvecs must be (N, 3)")
            norms = np.linalg.norm(bvecs, axis=1)
            bad = (np.abs(norms - 1.0) > BVEC_NORM_TOL) & (bvals > 0)
            if np.any(bad):
                raise ValueError("bvecs of weighted volumes must be unit length")
        object.__setattr__(self, "volumes", vols)
        object.__setattr__(self, "bvals", bvals)
        object.__setattr__(self, "bvecs", bvecs)

    @property
    def dims(self) -> tuple:
        return self.volumes[0].dims

    @property
    def n_volumes(self) -> int:
        return len(self.volumes)

    @property
    def is_complex(self) -> bool:
        return self.volumes[0].is_complex

    def stack(self) -> np.ndarray:
        """Samples as a C-contiguous array of shape (N, m, n, o)."""
        return np.stack([v.data for v in self.volumes])

    def with_volumes(self, volumes: Sequence[Volume3]) -> "DwiDataset":
        """Same b-values/bvecs, new volumes."""
        return DwiDataset(tuple(volumes), self.bvals, self.bvecs)


@dataclass(frozen=True)
class NoiseMap:
    """Voxel-wise noise standard deviation, shared across all volumes."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("noise map must be 3D")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("noise map must be finite and nonnegative")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple:
        return self.data.shape


@dataclass(frozen=True)
class NoisePsd:
    """Full-grid power spectral density of the stationary noise.

    The density is stored so that its grid mean equals the noise
    variance; with `unit_variance` set, mean(psi) == 1 within 1e-6 and
    white unit-variance noise has psi identically 1.
    """

    data: np.ndarray
    unit_variance: bool = True

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("PSD must be a full 3D frequency grid")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("PSD must be finite and nonnegative")
        if self.unit_variance and abs(arr.mean() - 1.0) > PSD_MEAN_TOL:
            raise ValueError(
                f"unit-variance PSD must have grid mean 1, got {arr.mean():.8f}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple:
        return self.data.shape


@dataclass(frozen=True)
class SpatialKernel:
    """Small dense convolution kernel describing noise spatial correlation.

    Depth-1 kernels model in-plane-only correlation. For unit-variance
    colored noise the kernel must have unit l2 norm.
    """

    data: np.ndarray
    center: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("kernel must be 3D (use depth 1 for in-plane)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("kernel contains non-finite values")
        center = self.center
        if center is None:
            center = tuple(s // 2 for s in arr.shape)
        center = tuple(int(c) for c in center)
        if len(center) != 3 or any(c < 0 or c >= s for c, s in zip(center, arr.shape)):
            raise ValueError("kernel center must index into the kernel")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "center", center)

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.data))

