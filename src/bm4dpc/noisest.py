"""Noise map and noise PSD estimation from tail principal components.

The last few PCs of the highest shell carry almost no anatomy, so their
local statistics expose the noise: a windowed standard deviation gives
the spatial map, and windowed 2D periodograms (minimum across slice
chunks, to reject residual signal) give the in-plane power spectrum.
`estimate_noise` is the one entry: it checks the series before the
PCA, and the two estimators trust the tail it hands them.
"""

import numpy as np

from .bm4d.variance import fold_psd
from .core import DwiDataset, NoiseMap, NoisePsd, _correlate, _starts
from .dataio import group_shells
from .gpca import forward_pca

TAIL_COUNT = 3    # last PCs of the highest shell taken as pure noise
MAP_WINDOW = 5    # odd edge of the cubic window of the local std map
PSD_WINDOW = 16   # in-plane edge of the periodogram windows
CHUNK_SIZE = 5    # consecutive slices averaged into one chunk spectrum
CHUNK_STEP = 3    # slice step between chunks
WINDOW_STEP = 8   # in-plane step between periodogram windows
SIGMA_CLAMP_FRACTION = 0.01  # sigma floor, relative to the median positive sigma


def clamp_sigma(sigma: np.ndarray) -> np.ndarray:
    """Floor a sigma map at SIGMA_CLAMP_FRACTION of its median positive value.

    Keeps the subsequent voxel-wise division from exploding in
    background voxels where the estimate collapses to ~0. Relative
    flooring keeps the estimators scale equivariant.
    """
    positive = sigma[sigma > 0]
    if positive.size == 0:
        raise ValueError("sigma map has no positive entries to clamp against")
    return np.maximum(sigma, SIGMA_CLAMP_FRACTION * np.median(positive))


def _noise_map(tail_pcs) -> NoiseMap:
    """Voxel-wise noise sigma from windowed sample standard deviations.

    `tail_pcs` is the real (K, m, n, o) tail `estimate_noise` checked.
    Each tail PC yields a local std map (MAP_WINDOW-cubed window,
    mean-subtracted, divisor n-1, window shrunk at the borders); the
    final map is their arithmetic mean. The window sums and the counts
    of voxels inside the grid are box sums with zero padding, one
    matrix product per axis.
    """
    def box_sums(x):
        return _correlate(x, (1.0,) * MAP_WINDOW, False, (0, 1, 2))

    counts = box_sums(np.ones(tail_pcs.shape[1:]))
    maps = []
    for x in tail_pcs:
        s1 = box_sums(x)
        s2 = box_sums(x * x)
        var = (s2 - s1 * s1 / counts) / (counts - 1.0)
        maps.append(np.sqrt(np.clip(var, 0.0, None)))
    return NoiseMap(np.mean(maps, axis=0))


def _psd_for_pc(x: np.ndarray) -> np.ndarray:
    m, n, o = x.shape
    w = PSD_WINDOW
    xs = _starts(m, w, WINDOW_STEP)
    ys = _starts(n, w, WINDOW_STEP)
    chunk_psds = []
    for z0 in _starts(o, CHUNK_SIZE, CHUNK_STEP):
        sub = x[:, :, z0:z0 + CHUNK_SIZE]
        view = np.lib.stride_tricks.sliding_window_view(sub, (w, w), axis=(0, 1))
        wins = view[np.ix_(xs, ys)].astype(np.float64)  # (nx, ny, chunk, w, w)
        wins = wins - wins.mean(axis=(-2, -1), keepdims=True)
        pgrams = np.abs(np.fft.fft2(wins)) ** 2 / (w * w)
        chunk_psds.append(pgrams.mean(axis=(0, 1, 2)))
    local = np.min(chunk_psds, axis=0)  # signal leaks inflate, so take min
    plane = fold_psd(local, (m, n))
    psi = np.repeat(plane[:, :, None], o, axis=2)  # slice-independent noise
    return psi / psi.mean()


def _noise_psd(tail_pcs_normalized) -> NoisePsd:
    """Noise PSD from the sigma-normalized (K, m, n, o) tail PCs.

    Per PC: windowed mean-subtracted 2D periodograms are averaged
    within chunks of consecutive slices, the voxel-wise minimum across
    chunks rejects residual signal, and autocorrelation zero-padding
    upsamples the window-sized spectrum to the full in-plane grid
    (constant along the through-slice frequency). The per-PC spectra
    are averaged, and NoisePsd scales the average to unit grid mean.
    """
    spectra = [_psd_for_pc(x) for x in tail_pcs_normalized]
    return NoisePsd(np.mean(spectra, axis=0))


def estimate_noise(dataset: DwiDataset):
    """Estimate (sigma map, PSD) from the highest shell of a real dataset.

    The series is checked first: it must be real (phase-stabilize it
    first), the estimators' windows must fit its dims and its highest
    shell must hold more than TAIL_COUNT volumes, or ValueError is
    raised before any PCA runs. The highest-shell volumes are then
    decomposed by PCA; the last TAIL_COUNT PC images feed the map
    estimator, then, normalized by the clamped map, the PSD estimator.

    Returns
    -------
    (NoiseMap, NoisePsd)
    """
    if dataset.is_complex:
        raise ValueError("noise estimation expects real (phase-stabilized) data")
    m, n, o = dataset.dims
    if MAP_WINDOW > min(m, n, o):
        raise ValueError("window larger than the volume")
    if PSD_WINDOW > min(m, n):
        raise ValueError("psd window exceeds the slice dims")
    if CHUNK_SIZE > o:
        raise ValueError("fewer slices than one chunk")
    members = group_shells(dataset.bvals).highest
    if len(members) <= TAIL_COUNT:
        raise ValueError("highest shell has too few volumes for the tail")

    pcs, _, _ = forward_pca(dataset.data[list(members)])
    tail = np.moveaxis(pcs[..., -TAIL_COUNT:], -1, 0)  # (K, m, n, o)
    sigma = _noise_map(tail)
    psd = _noise_psd(tail / clamp_sigma(sigma.data))
    return sigma, psd
