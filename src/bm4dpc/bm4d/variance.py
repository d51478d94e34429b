"""Exact transform-domain noise variances for grouped blocks.

For stationary noise with PSD psi, the variance of every 4D transform
coefficient of a block group has a closed form that accounts for
inter-block correlation (blocks in a group overlap and share noise).
Rewriting that form through the autocorrelation function reduces each
group to table lookups at the pairwise block offsets, so the spectral
work is one inverse FFT of the PSD on its own grid, correlated once per
axis with the 1D autocorrelations of the block DCT rows. The table is
exact for the PSD the caller passes: nothing resamples or clips the
PSD first. `fold_psd` serves the noise estimator alone, which grows a
window-sized spectrum to the slice grid.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .transforms import dct_matrix, haar_matrix


def _centered_lags(size: int, extent: int) -> np.ndarray:
    """Where the lags of a `size`-point circular grid sit on a larger
    `extent`-point one.

    Entry t is lag t for t < (size + 1) // 2 and lag t - size above, so
    the lags [-(size // 2), (size + 1) // 2) keep their values when an
    autocorrelation grows onto the larger grid, modulo `extent`.
    """
    t = np.arange(size)
    return np.where(t < (size + 1) // 2, t, t - size) % extent


def fold_psd(psd_data: np.ndarray, shape: tuple) -> np.ndarray:
    """Grow a PSD onto a grid of `shape` by zero-padding its autocorrelation.

    The noise estimator's one use: a window-sized periodogram grown to
    the slice grid. The centered lags of `psd_data`'s grid keep their
    values, every longer lag is 0, and negative values of the grown
    spectrum are clipped to zero. An equal shape returns a float64
    copy. `shape` has one extent per axis of `psd_data`, none smaller.
    """
    if tuple(shape) == psd_data.shape:
        return np.array(psd_data, dtype=np.float64)
    grown = np.zeros(shape, dtype=np.complex128)
    grown[np.ix_(*(_centered_lags(d, e) for d, e in zip(psd_data.shape, shape)))] = (
        np.fft.ifftn(psd_data))
    return np.clip(np.fft.fftn(grown).real, 0.0, None)


def basis_autocorr(psi_work: np.ndarray, block: tuple, radius: tuple) -> np.ndarray:
    """Per-basis noise autocorrelation at the lags a group can hold.

    The covariance of coefficient p between two blocks at corner offset
    d is sum_s a_p(s) * R(d + s), for the noise autocorrelation R =
    ifftn(psi_work).real and the autocorrelation a_p of basis p. The
    block DCT is separable: at p = k0*b1*b2 + k1*b2 + k2, a_p is the
    outer product of the (2b - 1)-tap autocorrelations of rows k0, k1,
    k2 of `dct_matrix(b)`, so the sum is one matrix product per axis.
    Two corners of a group are at most 2 * radius apart: the result is
    the table at lags -2r..2r per axis, modulo the grid of `psi_work`,
    shape (4 r0 + 1, 4 r1 + 1, 4 r2 + 1, P), C-contiguous, so one
    raveled lag picks a row of all P. `bm4d_multichannel` passes the
    noise PSD on the full grid, once per run; the one full-grid complex
    inverse FFT is the build's largest transient.
    """
    # allocated before the temporaries, so that freeing them trims the heap top
    table = np.empty(tuple(4 * r + 1 for r in radius) + block)
    acorr = np.fft.ifftn(psi_work).real
    # R at the lags -(2r + b - 1)..(2r + b - 1) per axis, modulo the grid
    acorr = acorr[np.ix_(*(np.arange(-2 * r - b + 1, 2 * r + b) % w
                           for r, b, w in zip(radius, block, psi_work.shape)))]
    for axis, b in enumerate(block):
        taps = np.array([np.correlate(row, row, "full") for row in dct_matrix(b)])
        # each axis's basis index goes last, after those of the earlier axes
        acorr = np.matmul(sliding_window_view(acorr, 2 * b - 1, axis=axis), taps.T,
                          out=table if axis == 2 else None)
    return table.reshape(table.shape[:3] + (-1,))


@lru_cache(maxsize=None)
def _haar_pairs(m: int) -> np.ndarray:
    """(M, M * M) products haar[k, i] * haar[k, j], raveled over (i, j)."""
    haar = haar_matrix(m)
    pairs = (haar[:, :, None] * haar[:, None, :]).reshape(m, m * m)
    pairs.setflags(write=False)  # cached: every caller shares this array
    return pairs


def variances_from_fields(
    table: np.ndarray, offsets: np.ndarray, block: tuple
) -> np.ndarray:
    """Coefficient variances (M, b0, b1, b2) from the signed-lag table.

    var(c_{k,p}) = sum_{i,j} haar[k,i] * haar[k,j] * c_p[off_i - off_j],
    the quadratic form of the k-th row of the size-M Haar matrix over
    the pairwise-offset covariance table of basis p; round-off
    negatives are clipped to zero. `table` is `basis_autocorr`'s, and
    the offsets are the members' corners less the reference's, each
    within the table's radius. The raveled lags are one subtraction of
    the raveled offsets, the (M * M, P) covariances one row take at
    them, and all M * P forms one matrix product.
    """
    m = offsets.shape[0]
    lags = table.shape[:3]
    raveled = offsets @ np.array([lags[1] * lags[2], lags[2], 1])
    rows = table.reshape(-1, table.shape[3])
    center = len(rows) // 2  # the zero lag, the middle of an odd-edged box
    pairs = (raveled[:, None] - raveled[None, :] + center).ravel()
    covariances = np.take(rows, pairs, axis=0)  # (M * M, P)
    var = _haar_pairs(m) @ covariances  # (M, P)
    return np.clip(var, 0.0, None).reshape((m,) + tuple(block))
