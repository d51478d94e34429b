"""One measured process of the benchmark: import, generate, run, score.

Usage: python3 bench/child.py '<json task>'

The task names a workload, a seed, a mode and a work directory. Modes:
  probe     import bm4dpc only (a set-up time sample);
  prepare   write the CLI workload's inputs with `bm4dpc simulate`;
  repeat    one timed denoise call, then its correctness and quality.
The last line of standard output is one JSON object with the results.
A failure raises, so the process exits nonzero with a traceback.
"""

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import layers
from spans import Tracer
from workloads import NOISE_LEVEL, WORKLOADS

ROOT = os.getcwd()


def span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def traced_call(tracer, name, fn, *args, **kwargs):
    """Time one call; with a tracer, wrap the layers around it."""
    if tracer is not None:
        layers.install(tracer)
    try:
        start = time.perf_counter()
        with span(tracer, name):
            result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, elapsed, rss_mb


def emit(result):
    print(json.dumps(result))


def digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def b1000_members(bvals):
    from bm4dpc.dataio import group_shells

    shells = group_shells(bvals, 50.0)
    for center, members in zip(shells.centers, shells.members):
        if abs(center - 1000.0) <= 50.0:
            return members
    raise ValueError("no b=1000 shell")


def score(gt_real, noisy, denoised, support) -> dict:
    """Quality of `denoised` against the magnitude ground truth.

    The comparison arm is the phase-stabilized noisy input, as in the
    acceptance gate.
    """
    import numpy as np

    from bm4dpc.evaluate import fit_dti, psnr, rmse_map, ssim
    from bm4dpc.phasestab import stabilize_phase

    stabilized = stabilize_phase(noisy)
    members = b1000_members(gt_real.bvals)

    def mean_psnr(test):
        return float(np.mean([psnr(gt_real.volumes[i], test.volumes[i]) for i in members]))

    fa_gt, _ = fit_dti(gt_real, support)
    fa_noisy, _ = fit_dti(stabilized, support)
    fa_den, _ = fit_dti(denoised, support)
    psnr_noisy = mean_psnr(stabilized)
    psnr_den = mean_psnr(denoised)
    return {
        "psnr_noisy_db": psnr_noisy,
        "psnr_denoised_db": psnr_den,
        "psnr_gain_b1000_db": psnr_den - psnr_noisy,
        "ssim_b1000": float(np.mean(
            [ssim(gt_real.volumes[i], denoised.volumes[i]) for i in members]
        )),
        "fa_rmse_ratio": rmse_map(fa_gt, fa_den, support) / rmse_map(fa_gt, fa_noisy, support),
    }


def simulate_args(workload, seed, out_dir):
    m, n, o = workload.dims
    return [
        "--seed", str(workload.input_seed(seed)),
        "simulate", "--out", out_dir,
        "--size", str(m), str(n), str(o),
        "--shells", workload.shells_arg(),
        "--noise-level", str(NOISE_LEVEL),
        "--noise-type", "colored" if workload.colored else "white",
    ]


def run_library(workload, seed, tracer):
    import numpy as np

    from bm4dpc import pipeline, simulate
    from bm4dpc.core import Volume3

    with span(tracer, "simulate.generate"):
        clean, _, support = simulate.make_phantom(
            simulate.PhantomSpec(dims=workload.dims, shells=workload.shells)
        )
        kernel = simulate.make_colored_kernel() if workload.colored else None
        noisy, _, _ = simulate.add_noise(clean, simulate.NoiseSpec(
            level=NOISE_LEVEL, kernel=kernel, seed=workload.input_seed(seed),
        ))
    working_set = sum(v.data.nbytes for v in noisy.volumes)

    (denoised, _, _), denoise_s, rss_mb = traced_call(
        tracer, "pipeline.denoise_bm4dpc",
        pipeline.denoise_bm4dpc, noisy, threads=workload.threads,
    )

    out = np.stack([v.data for v in denoised.volumes])
    gt_real = clean.with_volumes([Volume3(np.abs(v.data)) for v in clean.volumes])
    measured = {
        "denoise_s": denoise_s, "peak_rss_mb": rss_mb, "input_bytes": working_set,
        "digest": digest(out), "finite": bool(np.isfinite(out).all()),
    }
    return measured, (gt_real, noisy, denoised, support)


def run_cli(workload, threads, workdir, tag, tracer):
    import numpy as np

    from bm4dpc import cli
    from bm4dpc.dataio import attach_gradients, read_bvals_bvecs, read_nifti

    def path(name):
        return os.path.join(workdir, name)

    inputs = ["noisy.nii", "bvals", "sigma_true.nii", "psd_true.nii"]
    working_set = sum(os.path.getsize(path(p)) for p in inputs)
    out_path = path(f"denoised_{tag}.nii")
    argv = [
        "--threads", str(threads), "denoise",
        "--in", path("noisy.nii"), "--bval", path("bvals"),
        "--noise-map", path("sigma_true.nii"), "--psd", path("psd_true.nii"),
        "--out", out_path,
    ]
    code, denoise_s, rss_mb = traced_call(tracer, "cli.run_cli", cli.run_cli, argv)
    if code != 0:
        raise RuntimeError(f"bm4dpc denoise exited with code {code}")

    with open(out_path, "rb") as fh:
        out_digest = hashlib.sha256(fh.read()).hexdigest()
    bvals, bvecs = read_bvals_bvecs(path("bvals"), path("bvecs"))
    denoised = attach_gradients(read_nifti(out_path), bvals, bvecs)
    os.remove(out_path)
    out = np.stack([v.data for v in denoised.volumes])
    gt_real = attach_gradients(read_nifti(path("gt.nii")), bvals, bvecs)
    noisy = attach_gradients(read_nifti(path("noisy.nii")), bvals, bvecs)
    support = read_nifti(path("mask.nii")).data > 0.5
    measured = {
        "denoise_s": denoise_s, "peak_rss_mb": rss_mb, "input_bytes": working_set,
        "digest": out_digest, "finite": bool(np.isfinite(out).all()),
    }
    return measured, (gt_real, noisy, denoised, support)


def main():
    task = json.loads(sys.argv[1])
    start = time.perf_counter()
    import bm4dpc
    import_s = time.perf_counter() - start

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(bm4dpc.__file__), src]) != src:
        raise RuntimeError(f"bm4dpc imported from {bm4dpc.__file__}, not {src}")
    result = {"import_s": import_s}
    if task["mode"] == "probe":
        emit(result)
        return

    import numpy
    import scipy

    workload = WORKLOADS[task["workload"]]
    seed = task["seed"]
    if task["mode"] == "prepare":
        from bm4dpc.cli import run_cli as cli_main

        start = time.perf_counter()
        code = cli_main(simulate_args(workload, seed, task["workdir"]))
        result["generate_s"] = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"bm4dpc simulate exited with code {code}")
        emit(result)
        return

    tracer = Tracer() if task["trace"] else None
    if workload.kind == "cli":
        measured, scored = run_cli(workload, task["threads"], task["workdir"],
                                   task["tag"], tracer)
    else:
        measured, scored = run_library(workload, seed, tracer)
    result.update(measured)

    with span(tracer, "evaluate.score"):
        result.update(score(*scored))
    result.update({
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    })
    if task["trace"]:
        values = layers.per_layer(tracer)
        missing = layers.missing_metrics(tracer.missing)
        result["per_layer"] = {k: v for k, v in values.items() if k not in missing}
        result["missing_callables"] = tracer.missing
        result["missing_metrics"] = missing
    emit(result)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    main()
