"""End-to-end denoising: stabilize, estimate, normalize, PCA, filter.

The full chain: phase stabilization makes complex data real, the noise map
and PSD are estimated from the highest shell (or taken from the
caller), volumes are normalized by the clamped map, floored so that
the components stay inside the float32 stages' range, decorrelated by
global PCA, every component is collaboratively filtered under the
shared PSD, and the result is rotated and rescaled back. The method's
fixed settings are module constants of the layer that uses them; the
caller supplies only the data and, optionally, the noise statistics.
"""

from typing import Optional

import numpy as np

from .bm4d import bm4d_multichannel
from .bm4d.engine import MAX_EXPONENT, as_float32_stack
from .core import DwiDataset, NoiseMap, NoisePsd
from .gpca import forward_pca, inverse_pca
from .noisest import clamp_sigma, estimate_noise
from .phasestab import stabilize_phase


def denoise_bm4dpc(dataset: DwiDataset, noise_map: Optional[NoiseMap] = None,
                   psd: Optional[NoisePsd] = None, threads: int = 1):
    """Denoise a DWI dataset.

    Complex input is phase-stabilized first; real input is taken as
    is. A given `noise_map` or `psd` replaces the estimate from the
    data. The caller's arrays are never written. Each full-size
    intermediate is dropped after its last use, and the PCs are cast
    to float32 (`engine.as_float32_stack`) before filtering, so the
    float64 PCs are gone when stage 1 starts. The clamped map is also
    floored at max|x| * sqrt(N) * 2^(1 - engine.MAX_EXPONENT) for the
    N volumes x. By Cauchy-Schwarz a PC is at most
    sqrt(N) * max|x / sigma|, so the PCs stay inside the float32
    stages' range, even for noise-free input or a near-zero given
    map, and the floor scales with the data. On CPython 3.11
    and later, where a Python-to-Python call moves its arguments into
    the callee, a caller that hands over its only reference to
    `dataset` lets the input be freed once it is phase-stabilized.
    A given noise map or PSD of other dims is a `ValueError` here,
    before any layer runs; `bm4d_multichannel` raises one for a volume
    smaller than its block.

    Returns
    -------
    (denoised DwiDataset, NoiseMap, NoisePsd)
        The map and PSD actually used (the map after clamping).
    """
    # before any layer runs: a wrong-shaped map could broadcast in the
    # division below, and a wrong PSD would fail only after the PCA
    for given, name in ((noise_map, "noise map"), (psd, "PSD")):
        if given is not None and given.dims != dataset.dims:
            raise ValueError(f"{name} dims must match the data")
    real = stabilize_phase(dataset)
    del dataset
    bvals, bvecs = real.bvals, real.bvecs

    if noise_map is None or psd is None:
        # estimation runs on the non-normalized real data
        est_map, est_psd = estimate_noise(real)
        noise_map = noise_map if noise_map is not None else est_map
        psd = psd if psd is not None else est_psd

    largest = max(real.data.max(), -real.data.min())
    floor = largest * np.sqrt(real.n_volumes) * 2.0 ** (1 - MAX_EXPONENT)
    clamped = np.maximum(clamp_sigma(noise_map.data), floor)
    normalized = real.data / clamped
    del real
    pcs, basis, _ = forward_pca(normalized)
    del normalized
    # the stages' only copy of the PCs: the float64 ones go before stage 1
    pcs = as_float32_stack(pcs)
    denoised_pcs = bm4d_multichannel(pcs, psd, threads=threads)
    del pcs
    restored = inverse_pca(denoised_pcs, basis)
    del denoised_pcs
    restored *= clamped

    return DwiDataset(restored, bvals, bvecs), NoiseMap(clamped), psd
