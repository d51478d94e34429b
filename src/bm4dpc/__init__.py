"""Volumetric denoising of diffusion MRI via PCA and collaborative filtering.

The pipeline stabilizes the image phase, estimates the noise map and
power spectrum from the tail principal components of the highest
shell, decorrelates the volumes by global PCA, filters every component
with a two-stage nonlocal block-matching scheme that knows the exact
transform-domain noise variances, and maps the result back.
"""

__version__ = "0.1.0"

from .bm4d import (
    Bm4dProfile,
    StageParams,
    bm4d_multichannel,
    bm4d_stage,
    coeff_variances,
)
from .core import DwiDataset, NoiseMap, NoisePsd, SpatialKernel, Volume3
from .dataio import (
    NiftiError,
    ShellTable,
    attach_gradients,
    group_shells,
    read_bvals_bvecs,
    read_nifti,
    write_nifti,
)
from .evaluate import (
    MetricReport,
    fit_dti,
    mppca_denoise,
    psnr,
    report_metrics,
    rmse_map,
    ssim,
)
from .gpca import PcStack, forward_pca, inverse_pca
from .noisest import clamp_sigma, estimate_noise, estimate_noise_map, estimate_psd
from .phasestab import stabilize_phase
from .pipeline import PipelineOptions, denoise_bm4dpc
from .simulate import (
    NoiseSpec,
    PhantomSpec,
    add_noise,
    fibonacci_directions,
    kernel_to_psd,
    make_colored_kernel,
    make_phantom,
)

__all__ = [
    "Bm4dProfile",
    "DwiDataset",
    "MetricReport",
    "NiftiError",
    "NoiseMap",
    "NoisePsd",
    "NoiseSpec",
    "PcStack",
    "PhantomSpec",
    "PipelineOptions",
    "ShellTable",
    "SpatialKernel",
    "StageParams",
    "Volume3",
    "add_noise",
    "attach_gradients",
    "bm4d_multichannel",
    "bm4d_stage",
    "clamp_sigma",
    "coeff_variances",
    "denoise_bm4dpc",
    "estimate_noise",
    "estimate_noise_map",
    "estimate_psd",
    "fibonacci_directions",
    "fit_dti",
    "forward_pca",
    "group_shells",
    "inverse_pca",
    "kernel_to_psd",
    "make_colored_kernel",
    "make_phantom",
    "mppca_denoise",
    "psnr",
    "read_bvals_bvecs",
    "read_nifti",
    "report_metrics",
    "rmse_map",
    "ssim",
    "stabilize_phase",
    "write_nifti",
]
