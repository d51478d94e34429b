"""End-to-end denoising: stabilize, estimate, normalize, PCA, filter.

The full chain: phase stabilization makes the data real, the noise map
and PSD are estimated from the highest shell (or taken from the
caller), volumes are normalized by the clamped map, decorrelated by
global PCA, every component is collaboratively filtered under the
shared PSD, and the result is rotated and rescaled back. Between the
input and the returned dataset the volumes travel as one (N, m, n, o)
array.
"""

from dataclasses import dataclass, field
from typing import Optional

from .bm4d import Bm4dProfile, bm4d_multichannel
from .core import DwiDataset, NoiseMap, NoisePsd, Volume3
from .gpca import forward_pca, inverse_pca
from .noisest import NoiseEstParams, clamp_sigma, estimate_noise
from .phasestab import PhaseFilterParams, stabilize_phase


@dataclass(frozen=True)
class PipelineOptions:
    """Knobs for the full pipeline; defaults mirror the standard setup."""

    provided_noise_map: Optional[NoiseMap] = None
    provided_psd: Optional[NoisePsd] = None
    noise_est_params: NoiseEstParams = field(default_factory=NoiseEstParams)
    bm4d_profile: Bm4dProfile = field(default_factory=Bm4dProfile)
    phase_params: PhaseFilterParams = field(default_factory=PhaseFilterParams)
    sigma_clamp_fraction: float = 0.01
    skip_phase_stabilization: bool = False

    def __post_init__(self):
        if not 0 < self.sigma_clamp_fraction < 1:
            raise ValueError("sigma_clamp_fraction must lie in (0, 1)")


def denoise_bm4dpc(dataset: DwiDataset, options: PipelineOptions = None,
                   threads: int = 1):
    """Denoise a DWI dataset.

    Returns
    -------
    (denoised DwiDataset, NoiseMap, NoisePsd)
        The map and PSD actually used (the map after clamping).
    """
    if options is None:
        options = PipelineOptions()

    if options.skip_phase_stabilization:
        if dataset.is_complex:
            raise ValueError(
                "skip_phase_stabilization requires already-real input"
            )
        real = dataset
    else:
        real = stabilize_phase(dataset, options.phase_params)

    dims = real.dims
    block = options.bm4d_profile.ht.block
    if any(d < b for d, b in zip(dims, block)):
        raise ValueError("volume dims fall below the filtering block size")

    sigma_map = options.provided_noise_map
    psd = options.provided_psd
    if sigma_map is None or psd is None:
        # estimation runs on the non-normalized real data
        est_map, est_psd = estimate_noise(
            real, options.noise_est_params, options.sigma_clamp_fraction
        )
        sigma_map = sigma_map if sigma_map is not None else est_map
        psd = psd if psd is not None else est_psd
    if sigma_map.dims != dims or psd.dims != dims:
        raise ValueError("noise map and PSD dims must match the data")

    clamped = clamp_sigma(sigma_map.data, options.sigma_clamp_fraction)
    stack = forward_pca(real.stack() / clamped)
    denoised_pcs = bm4d_multichannel(
        stack.pcs, psd, options.bm4d_profile, threads=threads
    )
    restored = inverse_pca(denoised_pcs, stack.basis)
    restored *= clamped

    result = real.with_volumes([Volume3(v) for v in restored])
    return result, NoiseMap(clamped), psd
