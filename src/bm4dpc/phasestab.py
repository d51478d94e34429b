"""Slice-by-slice phase stabilization of complex DWIs.

The slowly varying image phase is estimated per slice with a 2D
Gaussian low-pass (in-plane sigma LOWPASS_SIGMA voxels, truncated at
4 sigma, edges padded with the edge sample), the complex signal is
rotated toward the real axis, and the imaginary part (noise only) is
discarded. Output noise stays zero-mean Gaussian with the per-channel
standard deviation of the input. This is the one layer that handles
complex samples: every later layer works on the real series it
returns, and real input passes through unchanged. It works one volume
at a time, so besides its input and its float64 output it holds only
one volume's temporaries.
"""

from dataclasses import replace

import numpy as np

from .core import DwiDataset, _correlate, _gaussian_taps

LOWPASS_SIGMA = 2.0  # in-plane sigma (voxels) of the phase-smoothing Gaussian
_LOWPASS_TAPS = _gaussian_taps(LOWPASS_SIGMA, int(4 * LOWPASS_SIGMA + 0.5))


def stabilize_phase(dataset: DwiDataset) -> DwiDataset:
    """Convert a complex dataset to real volumes with Gaussian noise.

    A real dataset, such as a magnitude series or one stabilized
    already, is returned as is, so a second call changes nothing. For
    each slice s the phase estimate is arg(G_sigma (*) s) and the
    output is Re(s * exp(-i * phase)). Deterministic and independent
    per (volume, slice): each volume, read as real samples with re and
    im interleaved along the slice axis, is smoothed by one matrix
    product per in-plane axis and written into one preallocated float64
    output, so the full-size arrays alive are the input and the output.
    """
    if not dataset.is_complex:
        return dataset
    out = np.empty(dataset.data.shape)
    for x, rotated in zip(dataset.data, out):
        _rotate_volume(x, rotated)
    return replace(dataset, data=out)


def _rotate_volume(x: np.ndarray, rotated: np.ndarray) -> None:
    """Write one complex volume, stabilized, into `rotated`; its
    temporaries are freed on return, before the next volume's."""
    # replicate padding keeps the border phase estimate stable
    smooth = _correlate(x.view(np.float64), _LOWPASS_TAPS, True, (0, 1))
    smooth_re, smooth_im = smooth[..., 0::2], smooth[..., 1::2]
    # Re(x * conj(g) / |g|) for the smoothed g, in place in the
    # smoothed buffer; where g = 0 the phase is arctan2(0, 0) = 0, so
    # g is taken as 1 there and the voxel keeps Re(x)
    norm = np.abs(smooth.view(np.complex128))
    flat = norm == 0
    smooth_re[flat] = 1.0
    norm[flat] = 1.0
    smooth_re *= x.real
    smooth_im *= x.imag
    smooth_re += smooth_im
    np.divide(smooth_re, norm, out=rotated)
