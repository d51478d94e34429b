"""Benchmark of bm4dpc: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gate-colored --seed 0 --seconds 40 --trace 0

Each repeat runs in a fresh child process (bench/child.py), one after the
other (a closed loop with one client), for a window of `--seconds` that opens
once the inputs (and the CLI workload's `--threads 1` reference) are ready.
Children run with one BLAS/OpenMP thread, so pool workers x BLAS threads
stays within the core count. With `--trace 1` one more repeat runs with
every layer wrapped, and the per-layer metrics come from it.

Lines before the last one describe the environment and each child. The
last line is one JSON object: correct, attempted, failed and metrics.
bench/README.md defines every metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from layers import PER_LAYER
from workloads import MAX_FA_RMSE_RATIO, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0    # the whole run, set-up included, ends before this
SETUP_SAMPLES = 5     # imports measured per run, probes filling the gap
MIN_REPEATS = 3       # timed repeats per run, so that a median means something
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "denoise_s": "s",
    "throughput_mvox_per_s": "Mvox/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "psnr_gain_b1000_db": "dB",
    "ssim_b1000": "1",
    "fa_rmse_ratio": "ratio",
}


class ChildFailed(Exception):
    pass


@dataclass
class Attempt:
    """One child process that was asked to denoise."""

    label: str
    result: Optional[dict] = None
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def run_child(task: dict, root: str, timeout: float) -> dict:
    """Run bench/child.py on `task`; its last stdout line is the result."""
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(task)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise ChildFailed(f"exit code {proc.returncode}: {tail[0]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed("no result line")
    result["child_wall_s"] = time.perf_counter() - start
    return result


def attempt(label: str, runner, task: dict) -> Attempt:
    """Run one denoising child; a crash is recorded, never raised."""
    try:
        return Attempt(label, runner(task))
    except ChildFailed as exc:
        return Attempt(label, failures=[str(exc)])


def quality_failures(result: dict, workload) -> list:
    failures = []
    if not result["finite"]:
        failures.append("non-finite output")
    gain = result["psnr_gain_b1000_db"]
    if not gain >= workload.min_gain_db:
        failures.append(f"PSNR gain {gain:.2f} dB below {workload.min_gain_db:g}")
    ratio = result["fa_rmse_ratio"]
    if not ratio <= MAX_FA_RMSE_RATIO:
        failures.append(f"FA RMSE ratio {ratio:.3f} above {MAX_FA_RMSE_RATIO:g}")
    return failures


def judge(attempts, workload, reference: Optional[str] = None):
    """Mark failures on finished attempts.

    Every output must be finite and meet the quality floors. All outputs
    must share one digest: `reference` when given (the CLI's --threads 1
    run), else the most common digest among the attempts.
    """
    finished = [a for a in attempts if a.result is not None]
    if reference is None and finished:
        # ties go to the digest seen first
        reference = Counter(a.result["digest"] for a in finished).most_common(1)[0][0]
    for a in finished:
        a.failures.extend(quality_failures(a.result, workload))
        if a.result["digest"] != reference:
            a.failures.append("output digest differs from the reference")


def end_to_end(measured, import_samples, workload) -> dict:
    timed = [a.result for a in measured if a.result is not None]
    if not timed:
        return {}
    denoise_s = statistics.median(r["denoise_s"] for r in timed)
    values = {
        "denoise_s": denoise_s,
        "throughput_mvox_per_s": workload.voxel_volumes / denoise_s / 1e6,
        "setup_s": statistics.median(import_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    for key in ("psnr_gain_b1000_db", "ssim_b1000", "fa_rmse_ratio"):
        values[key] = statistics.median(r[key] for r in timed)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def cache_sizes() -> dict:
    """L2/L3 sizes of CPU 0 as sysfs reports them (empty if unreadable)."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def git_commit(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root, workload, seed, sample) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "versions": sample.get("versions") if sample else None,
        "git_commit": git_commit(root),
        "caches": cache_sizes(),
        "workload": workload.name,
        "workload_seed": seed,
        "input_seed": workload.input_seed(seed),
        "input_bytes": sample.get("input_bytes") if sample else None,
    }


@dataclass
class Run:
    """Everything one invocation measured."""

    attempts: list = field(default_factory=list)   # every denoising child
    measured: list = field(default_factory=list)   # the untraced repeats
    traced: Optional[Attempt] = None
    imports: list = field(default_factory=list)    # set-up samples, s
    generate_s: Optional[float] = None             # CLI input generation


def measure(workload, seed, seconds, trace, root, workdir, runner=run_child,
            clock=time.monotonic) -> Run:
    """Run the children of one invocation and judge their outputs."""
    start = clock()
    out = Run()
    reference = None

    def remaining():
        return DEADLINE_S - (clock() - start)

    def task(**kw):
        return dict({"workload": workload.name, "seed": seed, "workdir": workdir,
                     "threads": workload.threads, "trace": False}, **kw)

    def child(label, **kw):
        a = attempt(label, lambda t: runner(t, root, remaining()), task(**kw))
        if a.result is not None:
            out.imports.append(a.result["import_s"])
        return a

    if workload.kind == "cli":
        prep = child("prepare", mode="prepare")
        if prep.failed:
            out.attempts.append(prep)
            return out
        out.generate_s = prep.result["generate_s"]
        ref = child("threads-1", mode="repeat", threads=1, tag="t1")
        out.attempts.append(ref)
        if not ref.failed:
            reference = ref.result["digest"]

    # The window opens once the inputs and the reference are ready. A repeat
    # starts only if it should end inside the window, except that a run
    # always makes MIN_REPEATS of them, deadline permitting.
    window = clock()
    last = 0.0
    while len(out.measured) < MIN_REPEATS or clock() - window + last <= seconds:
        # in a traced run, leave time for the traced repeat
        if out.measured and remaining() < last * (2.4 if trace else 1.2) + 5:
            break
        t0 = clock()
        out.measured.append(child(f"repeat-{len(out.measured)}", mode="repeat",
                                  tag=f"r{len(out.measured)}"))
        last = clock() - t0
    out.attempts.extend(out.measured)

    if trace:
        out.traced = child("traced", mode="repeat", trace=True, tag="tr")
        out.attempts.append(out.traced)

    while len(out.imports) < SETUP_SAMPLES and remaining() > 10:
        try:
            out.imports.append(runner(task(mode="probe"), root, remaining())["import_s"])
        except ChildFailed:
            break

    judge(out.attempts, workload, reference)
    return out


def per_layer_metrics(run: Run) -> dict:
    traced = run.traced
    if traced is None or traced.result is None:
        return {}
    values = dict(traced.result["per_layer"])
    if run.generate_s is not None:  # the CLI workload generates in its own child
        values["simulate.generate_s"] = run.generate_s
    untraced = [a.result["denoise_s"] for a in run.measured if a.result is not None]
    if untraced:
        base = statistics.median(untraced)
        values["trace.overhead_pct"] = 100.0 * (traced.result["denoise_s"] - base) / base
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bm4dpc", "__init__.py")):
        print("error: run from the root of a bm4dpc checkout (src/bm4dpc not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = os.path.join(work_root, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace),
                      root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    attempts = run.attempts
    sample = next((a.result for a in attempts if a.result is not None), None)
    print(json.dumps({"environment": environment(root, workload, args.seed, sample)}))
    for a in attempts:
        row = {"child": a.label, "failures": a.failures}
        if a.result is not None:
            row.update({k: a.result[k] for k in (
                "child_wall_s", "denoise_s", "import_s", "peak_rss_mb", "psnr_noisy_db",
                "psnr_denoised_db", "ssim_b1000", "fa_rmse_ratio", "digest",
            )})
        print(json.dumps(row))
    print(json.dumps({"setup_samples_s": run.imports}))

    if args.trace:
        traced = run.traced
        metrics = per_layer_metrics(run)
        if traced is not None and traced.result is not None:
            missing = traced.result["missing_metrics"]
            if missing:
                print(json.dumps({
                    "missing_spans": traced.result["missing_callables"],
                    "metrics_not_reported": missing,
                }))
    else:
        metrics = end_to_end(run.measured, run.imports, workload)

    failed = sum(a.failed for a in attempts)
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
