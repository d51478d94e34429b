"""Slice-by-slice phase stabilization of complex DWIs.

The slowly varying image phase is estimated per slice with a 2D
Gaussian low-pass, the complex signal is rotated toward the real axis,
and the imaginary part (noise only) is discarded. Output noise stays
zero-mean Gaussian with the per-channel standard deviation of the
input. This is the one layer that handles complex samples: every later
layer works on the real series it returns, and real input passes
through unchanged. It works one volume at a time, so besides its
input and its float64 output it holds only one volume's temporaries.
"""

from dataclasses import replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .core import DwiDataset

LOWPASS_SIGMA = 2.0  # in-plane sigma (voxels) of the phase-smoothing Gaussian


def stabilize_phase(dataset: DwiDataset) -> DwiDataset:
    """Convert a complex dataset to real volumes with Gaussian noise.

    A real dataset, such as a magnitude series or one stabilized
    already, is returned as is, so a second call changes nothing. For
    each slice s the phase estimate is arg(G_sigma (*) s) and the
    output is Re(s * exp(-i * phase)). Deterministic and independent
    per (volume, slice): each volume is filtered with a zero sigma
    along the slice axis and written into one preallocated float64
    output, so the full-size arrays alive are the input and the output.
    """
    if not dataset.is_complex:
        return dataset
    s = LOWPASS_SIGMA
    out = np.empty(dataset.data.shape)
    for x, rotated in zip(dataset.data, out):
        # replicate padding keeps the border phase estimate stable
        smooth_re = gaussian_filter(x.real, (s, s, 0), mode="nearest")
        smooth_im = gaussian_filter(x.imag, (s, s, 0), mode="nearest")
        # Re(x * conj(g) / |g|) for the smoothed g, in place in the two
        # smoothed buffers; where g = 0 the phase is arctan2(0, 0) = 0, so
        # g is taken as 1 there and the voxel keeps Re(x)
        norm = np.hypot(smooth_re, smooth_im)
        flat = norm == 0
        smooth_re[flat] = 1.0
        norm[flat] = 1.0
        smooth_re *= x.real
        smooth_im *= x.imag
        smooth_re += smooth_im
        np.divide(smooth_re, norm, out=rotated)
    return replace(dataset, data=out)
