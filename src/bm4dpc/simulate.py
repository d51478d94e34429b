"""Desk-scale in-silico data with known ground truth.

A lightweight tensor phantom (nested ellipsoids, monoexponential
signal), smooth synthetic phase, and spatially varying white or colored
complex noise whose exact sigma map and PSD are returned alongside the
data.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import SHELL_TOLERANCE, DwiDataset, NoiseMap, NoisePsd, _as_real_grid
from .dataio import group_shells

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
DOG_SIGMA_INNER = 0.8   # voxels, the colored kernel's narrow Gaussian
DOG_SIGMA_OUTER = 2.0   # voxels, its wide Gaussian; the kernel is cut at 4x this
GFACTOR_AMPLITUDE = 0.5  # height of the default g-factor bump above 1


def fibonacci_directions(count: int, seed: int = 0) -> np.ndarray:
    """Deterministic, roughly uniform unit directions on the sphere.

    A seeded azimuthal offset decorrelates direction sets drawn for
    different shells.
    """
    if count < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng([int(seed), 0x0D15])
    offset = rng.uniform(0.0, 2.0 * math.pi)
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = GOLDEN_ANGLE * i + offset
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _normalized_r2(dims, center, semiaxes) -> np.ndarray:
    """Per-voxel squared radius of an ellipsoid given in fractions of each dim."""
    grids = np.meshgrid(
        *(np.arange(d, dtype=np.float64) for d in dims), indexing="ij"
    )
    r2 = np.zeros(dims)
    for g, d, c, a in zip(grids, dims, center, semiaxes):
        r2 += ((g - c * (d - 1)) / (a * d)) ** 2
    return r2


def _rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Ellipsoid:
    """One tissue compartment: region, diffusion tensor, proton density."""

    semiaxes: tuple          # fractions of each dim
    tensor: np.ndarray       # SPD, mm^2/s
    s0: float
    center: tuple = (0.5, 0.5, 0.5)

    def __post_init__(self):
        tensor = np.asarray(self.tensor, dtype=np.float64)
        if tensor.shape != (3, 3) or np.max(np.abs(tensor - tensor.T)) > 1e-12:
            raise ValueError("tensor must be symmetric 3x3")
        if np.any(np.linalg.eigvalsh(tensor) <= 0):
            raise ValueError("tensor must be positive definite")
        if not self.s0 > 0:
            raise ValueError("S0 must be positive")
        object.__setattr__(self, "tensor", tensor)

    def mask(self, dims) -> np.ndarray:
        return _normalized_r2(dims, self.center, self.semiaxes) <= 1.0


def _default_tissue() -> tuple:
    # gel-filled FOV (keeps signal, and hence a stable phase estimate,
    # in every voxel), cortex-like shell, anisotropic core, CSF center
    wm = _rotation_z(math.radians(30.0)) @ np.diag([1.7e-3, 0.3e-3, 0.3e-3]) \
        @ _rotation_z(math.radians(30.0)).T
    return (
        Ellipsoid((10.0, 10.0, 10.0), 0.3e-3 * np.eye(3), 0.3),
        Ellipsoid((0.44, 0.42, 0.42), 0.8e-3 * np.eye(3), 0.8),
        Ellipsoid((0.30, 0.26, 0.30), wm, 0.7),
        Ellipsoid((0.11, 0.11, 0.16), 3.0e-3 * np.eye(3), 1.0),
    )


@dataclass(frozen=True)
class PhantomSpec:
    """Phantom geometry, acquisition shells, and seed."""

    dims: tuple = (32, 32, 16)
    shells: tuple = ((0.0, 3), (1000.0, 15), (2000.0, 15))
    tissue: tuple = field(default_factory=_default_tissue)
    seed: int = 7

    def __post_init__(self):
        if any(d < 1 for d in self.dims) or len(self.dims) != 3:
            raise ValueError("dims must be three positive voxel counts")
        if not self.tissue:
            raise ValueError("need at least one tissue compartment")
        if not any(b == 0 and c > 0 for b, c in self.shells):
            raise ValueError("need at least one b=0 volume")
        if self.seed < 0:
            raise ValueError(f"phantom seed must be nonnegative, got {self.seed}")


def _smooth_slice_phase(rng, m, n):
    """Sum of 3 low-frequency 2D sinusoids, values in radians."""
    x = np.arange(m)[:, None] / m
    y = np.arange(n)[None, :] / n
    phase = np.zeros((m, n))
    for _ in range(3):
        fx, fy = rng.integers(-2, 3, size=2)
        amp = rng.uniform(0.2, 0.8)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        phase += amp * np.sin(2.0 * math.pi * (fx * x + fy * y) + theta)
    return phase


def make_phantom(spec: PhantomSpec = None):
    """Simulate a noise-free complex dataset with known tensors.

    Per voxel and volume the magnitude is S0 * exp(-b * g^T D g); each
    volume then receives a smooth per-slice phase and one random global
    phase.

    Returns
    -------
    dataset : DwiDataset (complex)
    tensors : ndarray (m, n, o, 3, 3)
        Ground-truth diffusion tensor per voxel (zero outside support).
    support : ndarray (m, n, o) of bool
        Union of the tissue compartments.
    """
    if spec is None:
        spec = PhantomSpec()
    m, n, o = spec.dims

    s0_map = np.zeros(spec.dims)
    tensors = np.zeros(spec.dims + (3, 3))
    support = np.zeros(spec.dims, dtype=bool)
    for comp in spec.tissue:  # later compartments overwrite earlier ones
        inside = comp.mask(spec.dims)
        s0_map[inside] = comp.s0
        tensors[inside] = comp.tensor
        support |= inside

    bvals, bvecs = [], []
    for shell_idx, (b, count) in enumerate(spec.shells):
        if b == 0:
            bvals.extend([0.0] * count)
            bvecs.extend([np.zeros(3)] * count)
        else:
            dirs = fibonacci_directions(count, seed=spec.seed + shell_idx)
            bvals.extend([float(b)] * count)
            bvecs.extend(list(dirs))
    bvals = np.asarray(bvals)
    bvecs = np.asarray(bvecs)

    data = np.empty((len(bvals),) + spec.dims, dtype=np.complex128)
    for i, (b, g) in enumerate(zip(bvals, bvecs)):
        # g^T D g per voxel via the tensor's upper triangle; a b=0 volume's
        # zero b-vector gives exactly exp(-0) = 1
        gdg = (
            g[0] * g[0] * tensors[..., 0, 0]
            + g[1] * g[1] * tensors[..., 1, 1]
            + g[2] * g[2] * tensors[..., 2, 2]
            + 2.0 * g[0] * g[1] * tensors[..., 0, 1]
            + 2.0 * g[0] * g[2] * tensors[..., 0, 2]
            + 2.0 * g[1] * g[2] * tensors[..., 1, 2]
        )
        mag = s0_map * np.exp(-b * gdg)
        rng = np.random.default_rng([int(spec.seed), 1, i])
        phase = np.empty(spec.dims)
        for k in range(o):
            phase[:, :, k] = _smooth_slice_phase(rng, m, n)
        phase += rng.uniform(0.0, 2.0 * math.pi)  # global per-volume shift
        data[i] = mag * np.exp(1j * phase)

    return DwiDataset(data, bvals, bvecs), tensors, support


def make_colored_kernel() -> np.ndarray:
    """In-plane difference-of-Gaussians band-pass kernel, unit l2 norm.

    A real (17, 17, 1) array centered on its middle voxel, truncated at
    4 * DOG_SIGMA_OUTER; depth 1, so no through-slice correlation.
    """
    radius = int(math.ceil(4.0 * DOG_SIGMA_OUTER))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    r2 = xx * xx + yy * yy

    def unit_sum_gaussian(sigma):
        g = np.exp(-0.5 * r2 / sigma**2)
        return g / g.sum()

    dog = unit_sum_gaussian(DOG_SIGMA_INNER) - unit_sum_gaussian(DOG_SIGMA_OUTER)
    dog /= np.linalg.norm(dog)
    return dog[:, :, None]


def _kernel_spectrum(kernel, dims) -> np.ndarray:
    """DFT on `dims` of a checked kernel, padded with its middle voxel at the origin."""
    if any(k > d for k, d in zip(kernel.shape, dims)):
        raise ValueError("kernel does not fit in the requested dims")
    pad = np.zeros(dims)
    k0, k1, k2 = kernel.shape
    pad[:k0, :k1, :k2] = kernel
    return np.fft.fftn(np.roll(pad, [-(k // 2) for k in kernel.shape], axis=(0, 1, 2)))


def kernel_to_psd(kernel, dims) -> NoisePsd:
    """Exact PSD of noise colored by circular convolution with `kernel`.

    psi(f) = |DFT(g)|^2 on the full grid, for a real 3D kernel g
    centered on its middle voxel; NoisePsd scales it to unit grid mean,
    which divides by the squared l2 norm of the kernel (Parseval). A
    kernel that is not real, finite and 3D, `dims` that are not 3
    positive integers, or a kernel not inside `dims` raises ValueError.
    """
    kernel = _as_real_grid(kernel, "kernel")
    if len(dims) != 3:
        raise ValueError("dims must have 3 entries")
    if not all(isinstance(d, numbers.Integral) and d > 0 for d in dims):
        raise ValueError(f"dims must be positive integers, got {tuple(dims)}")
    return NoisePsd(np.abs(_kernel_spectrum(kernel, dims)) ** 2)


def default_gfactor(dims) -> np.ndarray:
    """Smooth positive field: 1 + GFACTOR_AMPLITUDE * centered 3D Gaussian bump."""
    r2 = _normalized_r2(dims, (0.5, 0.5, 0.5), (0.25, 0.25, 0.25))
    return 1.0 + GFACTOR_AMPLITUDE * np.exp(-0.5 * r2)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level, correlation kernel (None for white), spatial profile.

    The kernel is a real, finite 3D array centered on its middle voxel,
    shape // 2, with unit l2 norm, so colored noise keeps the variance
    the sigma map gives it.
    """

    level: float
    kernel: Optional[np.ndarray] = None
    gfactor: Optional[np.ndarray] = None  # None -> default bump
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.level) and self.level >= 0):
            raise ValueError("noise level must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"noise seed must be nonnegative, got {self.seed}")
        if self.kernel is not None:
            kernel = _as_real_grid(self.kernel, "kernel")
            if abs(np.linalg.norm(kernel) - 1.0) > 1e-9:
                raise ValueError("colored-noise kernel must have unit l2 norm")
            object.__setattr__(self, "kernel", kernel)
        if self.gfactor is not None:
            gf = _as_real_grid(self.gfactor, "gfactor map")
            if np.any(gf <= 0):
                raise ValueError("gfactor map must be positive")
            object.__setattr__(self, "gfactor", gf)


def add_noise(dataset: DwiDataset, spec: NoiseSpec):
    """Add spatially varying (optionally colored) complex Gaussian noise.

    The base level is sigma0 = level * max |b=0 signal|, read from the
    b=0 shell: the lowest `group_shells` shell, whose center must be at
    most SHELL_TOLERANCE (so b=5 labels count as b=0); the voxel-wise
    standard deviation sigma(x) = sigma0 * gfactor(x) applies to the
    real and imaginary channels independently. Colored noise is built
    by circularly convolving unit-variance white draws with the kernel,
    so the returned PSD is exact.

    Returns
    -------
    noisy : DwiDataset (complex)
    sigma_map : NoiseMap
        The exact per-channel sigma(x).
    psd : NoisePsd
        kernel_to_psd of the kernel (flat for white noise).
    """
    if not dataset.is_complex:
        raise ValueError("noise synthesis expects a complex dataset")
    dims = dataset.dims

    gfactor = spec.gfactor if spec.gfactor is not None else default_gfactor(dims)
    if gfactor.shape != dims:
        raise ValueError("gfactor dims must match the dataset")

    shells = group_shells(dataset.bvals)
    if shells.centers[0] > SHELL_TOLERANCE:
        raise ValueError("noise synthesis needs a b=0 volume to set the level")
    b0_max = float(np.abs(dataset.data[list(shells.members[0])]).max())
    sigma0 = spec.level * b0_max
    sigma = sigma0 * gfactor

    if spec.kernel is None:
        psd = NoisePsd(np.ones(dims))
        spectrum = None
    else:
        spectrum = _kernel_spectrum(spec.kernel, dims)
        psd = NoisePsd(np.abs(spectrum) ** 2)

    if spec.level == 0:
        return dataset, NoiseMap(sigma), psd

    noisy = dataset.data.copy()
    for i in range(dataset.n_volumes):
        rng = np.random.default_rng([int(spec.seed), i])
        draws = rng.standard_normal((2,) + dims)
        if spectrum is not None:
            for c in range(2):
                draws[c] = np.fft.ifftn(np.fft.fftn(draws[c]) * spectrum).real
        noisy[i] += sigma * (draws[0] + 1j * draws[1])
    return replace(dataset, data=noisy), NoiseMap(sigma), psd
