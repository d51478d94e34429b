"""Command-line interface for simulation, denoising, and evaluation.

Exit codes follow the exception type: 0 success; 2 invalid arguments
or input values (`ValueError`: bad b-values, a negative noise map, dims
below the block size, the noise estimator's windows, the SSIM window
or the MPPCA patch, samples beyond NIfTI's float32); 3
unreadable or malformed files (`OSError`, `NiftiError`, including non-finite
NIfTI samples, and an output path that is a directory or whose
directory does not exist, refused before any input is read); 4
numerical failure (`np.linalg.LinAlgError`). All diagnostics go to
stderr; metric reports are JSON with stable key order. `--threads` caps
the stages' worker threads, which never outnumber the usable CPUs
(`engine.usable_cpus`, also the default).
"""

import argparse
import contextlib
import errno
import json
import os
import shutil
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bm4d.engine import usable_cpus
from .core import DwiDataset, NoiseMap, NoisePsd, Volume3
from .dataio import (NiftiError, attach_gradients, read_bvals_bvecs, read_nifti,
                     write_bvals_bvecs, write_nifti)
from .evaluate import fit_dti, mppca_denoise, report_metrics
from .noisest import estimate_noise
from .phasestab import stabilize_phase
from .pipeline import denoise_bm4dpc
from .simulate import NoiseSpec, PhantomSpec, add_noise, make_colored_kernel, make_phantom

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _err(message):
    print(f"error: {message}", file=sys.stderr)


def _parse_shells(text):
    shells = []
    for part in text.split(","):
        b, _, count = part.partition(":")
        try:
            shells.append((float(b), int(count)))
        except ValueError:
            raise ValueError(f"--shells entry {part!r} is not b:count") from None
        if shells[-1][1] < 1:
            raise ValueError(f"--shells entry {part!r}: volume count must be positive")
    return tuple(shells)


def _load_dataset(path, bval_path=None, bvec_path=None):
    loaded = read_nifti(path)
    if isinstance(loaded, Volume3):
        raise ValueError(f"{path} holds a single volume; need a 4D series")
    if bval_path is not None:
        bvals, bvecs = read_bvals_bvecs(bval_path, bvec_path)
        loaded = attach_gradients(loaded, bvals, bvecs)
    return loaded


def _load_volume(path):
    loaded = read_nifti(path)
    if isinstance(loaded, DwiDataset):
        raise ValueError(f"{path} holds a 4D series; need a single volume")
    return loaded


def _check_outputs(*paths):
    """Refuse, before any input is read, an output path that is a
    directory or whose directory does not exist (an `OSError`)."""
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "output is a directory", path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(errno.ENOENT, "output directory does not exist", path)


@contextlib.contextmanager
def _output_dir(path):
    """Make the directory `path`; if the block then fails, remove the
    outermost directory this made, and keep one that already existed."""
    created, parent = None, os.path.abspath(path)
    while not os.path.exists(parent):
        created, parent = parent, os.path.dirname(parent)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _cmd_simulate(args):
    spec = PhantomSpec(
        dims=tuple(args.size), shells=_parse_shells(args.shells), seed=args.seed
    )
    clean, _tensors, support = make_phantom(spec)
    kernel = make_colored_kernel() if args.noise_type == "colored" else None
    noisy, sigma, psd = add_noise(
        clean, NoiseSpec(level=args.noise_level, kernel=kernel, seed=args.seed)
    )

    with _output_dir(args.out):
        magnitude = replace(clean, data=np.abs(clean.data))
        write_nifti(magnitude, os.path.join(args.out, "gt.nii"))
        write_nifti(noisy, os.path.join(args.out, "noisy.nii"))
        write_nifti(sigma, os.path.join(args.out, "sigma_true.nii"))
        write_nifti(psd, os.path.join(args.out, "psd_true.nii"))
        write_nifti(
            Volume3(support.astype(np.float64)), os.path.join(args.out, "mask.nii")
        )
        write_bvals_bvecs(os.path.join(args.out, "bvals"),
                          os.path.join(args.out, "bvecs"), clean.bvals, clean.bvecs)
    return EXIT_OK


def _cmd_denoise(args):
    estimates = args.save_noise_estimates
    # a directory that cannot be made fails before the input is read
    with _output_dir(estimates) if estimates else contextlib.nullcontext():
        _check_outputs(args.out)  # after the directory, as --out may lie in it
        provided_map = provided_psd = None
        if args.noise_map:
            provided_map = NoiseMap(_load_volume(args.noise_map).data)
        if args.psd:
            provided_psd = NoisePsd(_load_volume(args.psd).data)
        if provided_map is not None and provided_psd is not None:
            print("noise estimation skipped (map and PSD provided)", file=sys.stderr)

        # the pipeline holds the only reference to the input, so it can free it
        denoised, used_map, used_psd = denoise_bm4dpc(
            _load_dataset(args.input, args.bval), provided_map,
            provided_psd, threads=args.threads,
        )
        write_nifti(denoised, args.out)
        if estimates:
            write_nifti(used_map, os.path.join(estimates, "sigma_est.nii"))
            write_nifti(used_psd, os.path.join(estimates, "psd_est.nii"))
    return EXIT_OK


def _cmd_estimate_noise(args):
    _check_outputs(args.out_map, args.out_psd)
    dataset = stabilize_phase(_load_dataset(args.input, args.bval))
    sigma, psd = estimate_noise(dataset)
    write_nifti(sigma, args.out_map)
    write_nifti(psd, args.out_psd)
    return EXIT_OK


def _cmd_metrics(args):
    _check_outputs(args.out)
    ref = stabilize_phase(_load_dataset(args.ref, args.bval))
    test = stabilize_phase(_load_dataset(args.test, args.bval))
    report = report_metrics(ref, test)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return EXIT_OK


def _cmd_dti(args):
    _check_outputs(args.out_fa, args.out_md)
    dataset = stabilize_phase(_load_dataset(args.input, args.bval, args.bvec))
    mask = (
        _load_volume(args.mask).data > 0.5
        if args.mask
        else np.ones(dataset.dims, bool)
    )
    fa, md = fit_dti(dataset, mask)
    write_nifti(fa, args.out_fa)
    write_nifti(md, args.out_md)
    return EXIT_OK


def _cmd_baseline_mppca(args):
    _check_outputs(args.out)
    denoised = mppca_denoise(stabilize_phase(_load_dataset(args.input)))
    write_nifti(denoised, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bm4dpc",
        description="PCA-spectral collaborative denoising for diffusion MRI",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--threads", type=int, default=usable_cpus(),
        help="at most this many worker threads, and never more than the usable "
             "CPUs (default: the usable CPUs); results do not depend on it",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a phantom acquisition")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--size", type=int, nargs=3, default=[32, 32, 16],
                   metavar=("M", "N", "O"))
    p.add_argument("--shells", default="0:3,1000:15,2000:15",
                   help="b:count[,b:count...]")
    p.add_argument("--noise-level", type=float, default=0.05)
    p.add_argument("--noise-type", choices=["white", "colored"],
                   default="colored")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("denoise", help="run the full denoising pipeline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bval", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-map", help="NIfTI sigma map overriding estimation")
    p.add_argument("--psd", help="NIfTI noise PSD overriding estimation")
    p.add_argument("--save-noise-estimates", metavar="DIR")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("estimate-noise", help="noise map and PSD only")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bval", required=True)
    p.add_argument("--out-map", required=True)
    p.add_argument("--out-psd", required=True)
    p.set_defaults(func=_cmd_estimate_noise)

    p = sub.add_parser("metrics", help="shell-wise PSNR/SSIM report")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--bval", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("dti", help="FA and MD maps from a tensor fit")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bval", required=True)
    p.add_argument("--bvec", required=True)
    p.add_argument("--mask")
    p.add_argument("--out-fa", required=True)
    p.add_argument("--out-md", required=True)
    p.set_defaults(func=_cmd_dti)

    p = sub.add_parser("baseline-mppca", help="patchwise PCA baseline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline_mppca)

    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports and exits; keep the code
        return int(exc.code or 0)

    if args.threads < 1:
        _err("--threads must be positive")
        return EXIT_USAGE

    try:
        return args.func(args)
    except NiftiError as exc:
        _err(str(exc))
        return EXIT_IO
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO
    except np.linalg.LinAlgError as exc:
        _err(f"numerical failure: {exc}")
        return EXIT_NUMERIC
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
