"""The package's public names: what a user of the method calls."""

import importlib.util
import inspect
import os
import subprocess
import sys

import bm4dpc
from bm4dpc import bm4d, pipeline
from bm4dpc.bm4d import engine

PUBLIC = [
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


def test_public_names_pinned():
    assert sorted(bm4dpc.__all__) == PUBLIC
    assert len(PUBLIC) <= 30
    assert bm4d.__all__ == ["bm4d_multichannel"]


def test_every_public_name_resolves():
    for name in bm4dpc.__all__:
        assert getattr(bm4dpc, name) is not None, name


def test_no_options_or_profile_objects():
    """The input decides phase stabilization and the stages use the
    standard settings, the engine's module constants, so no options,
    profile or parameter type exists."""
    for module in (bm4dpc, pipeline, bm4d, engine):
        assert not [n for n in dir(module) if n.endswith(("Options", "Profile"))]
    for module in (bm4d, engine):
        assert not [n for n in dir(module) if n.endswith("Params")]
    assert importlib.util.find_spec("bm4dpc.bm4d.profile") is None
    params = inspect.signature(bm4dpc.denoise_bm4dpc).parameters
    assert list(params) == ["dataset", "noise_map", "psd", "threads"]


def test_import_loads_no_scipy():
    """The package and its CLI run on numpy alone: importing them loads
    no scipy module, whose import would dominate a process's start."""
    src = os.path.dirname(os.path.dirname(bm4dpc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, bm4dpc, bm4dpc.cli; "
             "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
