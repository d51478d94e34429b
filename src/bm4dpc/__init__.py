"""Volumetric denoising of diffusion MRI via PCA and collaborative filtering.

The pipeline stabilizes the image phase, estimates the noise map and
power spectrum from the tail principal components of the highest
shell, decorrelates the volumes by global PCA, filters every component
with a two-stage nonlocal block-matching scheme that knows the exact
transform-domain noise variances, and maps the result back.

The package exports what a user of the method calls: the pipeline and
its two preprocessing steps, the data types, I/O, simulation and
metrics. The layers' own functions (`gpca.forward_pca`,
`bm4d.bm4d_multichannel`, `bm4d.engine.bm4d_stage`, ...) are imported
from their modules, and `dataio.ShellTable`, the type `group_shells`
returns, from `dataio`.
"""

__version__ = "0.1.0"

from .core import DwiDataset, NoiseMap, NoisePsd, Volume3
from .dataio import (
    NiftiError,
    attach_gradients,
    group_shells,
    read_bvals_bvecs,
    read_nifti,
    write_nifti,
)
from .evaluate import (
    fit_dti,
    mppca_denoise,
    psnr,
    report_metrics,
    rmse_map,
    ssim,
)
from .noisest import estimate_noise
from .phasestab import stabilize_phase
from .pipeline import denoise_bm4dpc
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
    "DwiDataset",
    "NiftiError",
    "NoiseMap",
    "NoisePsd",
    "NoiseSpec",
    "PhantomSpec",
    "Volume3",
    "add_noise",
    "attach_gradients",
    "denoise_bm4dpc",
    "estimate_noise",
    "fibonacci_directions",
    "fit_dti",
    "group_shells",
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
