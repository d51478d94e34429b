"""Which program callables the traced run wraps, and the per-layer metrics.

Every wrapped callable is a module global that its caller resolves at call
time, so the wrapper sees every call while the program runs unchanged.
A metric whose callables are missing (renamed or removed) is reported as
missing, never as zero.
"""

import math
import os

from spans import self_time

TOP_SPANS = ("cli.run_cli", "pipeline.denoise_bm4dpc")  # the glue layers
STAGES = (1, 2)


def _stage_name(args, kwargs):
    stage = kwargs.get("stage", args[3] if len(args) > 3 else None)
    return f"bm4d.stage{stage}"


def group_flop(shape) -> float:
    """Flops of one separable group transform, computed from its shape.

    A (..., M, b0, b1, b2) group is transformed by a dense b_i x b_i matrix
    along each block axis and an M x M Haar matrix along the group axis:
    2 * C * M * b0*b1*b2 * (b0 + b1 + b2 + M), C the product of the
    leading axes.
    """
    *lead, m, b0, b1, b2 = shape
    return 2.0 * math.prod(lead) * m * b0 * b1 * b2 * (b0 + b1 + b2 + m)


def _flop(args, kwargs, result):
    return {"flop": group_flop(result.shape)}


def _group_size(args, kwargs, result):
    return {"group_size": len(result)}


def _read_bytes(args, kwargs, result):
    paths = [p for p in args if isinstance(p, (str, os.PathLike))]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def install(tracer):
    """Wrap the callables of every layer; `tracer.restore()` undoes it."""
    import bm4dpc.bm4d.engine as engine
    import bm4dpc.cli as cli
    import bm4dpc.pipeline as pipeline

    wraps = [
        (pipeline, "stabilize_phase", "phasestab.stabilize_phase", None),
        (pipeline, "estimate_noise", "noisest.estimate_noise", None),
        (pipeline, "forward_pca", "gpca.forward_pca", None),
        (pipeline, "inverse_pca", "gpca.inverse_pca", None),
        (engine, "fold_psd", "bm4d.psd_fields", None),
        (engine, "basis_autocorr", "bm4d.psd_fields", None),
        (engine, "_match_from_view", "bm4d.match", _group_size),
        (engine, "variances_from_fields", "bm4d.variance", None),
        (engine, "group_transform", "bm4d.transform", _flop),
        (engine, "group_inverse", "bm4d.transform", _flop),
        (engine, "_ht_core", "bm4d.shrink", None),
        (engine, "wiener_shrink", "bm4d.shrink", None),
        (cli, "read_nifti", "dataio.read", _read_bytes),
        (cli, "read_bvals_bvecs", "dataio.read", _read_bytes),
        (cli, "write_nifti", "dataio.write", _written_bytes),
        (cli, "denoise_bm4dpc", "pipeline.denoise_bm4dpc", None),
    ]
    for module, attr, name, describe in wraps:
        tracer.wrap(module, attr, name, describe)
    tracer.wrap(engine, "bm4d_stage", _stage_name, cpu=True)


# metric -> (unit, wrapped callables it needs); names match BENCHMARK.json
PER_LAYER = {
    "phasestab.stabilize_phase_s": ("s", ["pipeline.stabilize_phase"]),
    "noisest.estimate_noise_s": ("s", ["pipeline.estimate_noise"]),
    "gpca.forward_pca_s": ("s", ["pipeline.forward_pca"]),
    "gpca.inverse_pca_s": ("s", ["pipeline.inverse_pca"]),
    "pipeline.self_s": ("s", [
        "pipeline.stabilize_phase", "pipeline.estimate_noise",
        "pipeline.forward_pca", "pipeline.inverse_pca", "bm4d.engine.bm4d_stage",
    ]),
    "cli.self_s": ("s", [
        "cli.read_nifti", "cli.read_bvals_bvecs", "cli.write_nifti",
        "cli.denoise_bm4dpc",
    ]),
    "dataio.read_s": ("s", ["cli.read_nifti", "cli.read_bvals_bvecs"]),
    "dataio.write_s": ("s", ["cli.write_nifti"]),
    "dataio.bytes_read": ("B", ["cli.read_nifti", "cli.read_bvals_bvecs"]),
    "dataio.bytes_written": ("B", ["cli.write_nifti"]),
    "simulate.generate_s": ("s", []),
    "evaluate.score_s": ("s", []),
    "bm4d.psd_fields_s": ("s", ["bm4d.engine.fold_psd", "bm4d.engine.basis_autocorr"]),
}
_STAGE_CHILDREN = [
    "bm4d.engine._match_from_view", "bm4d.engine.variances_from_fields",
    "bm4d.engine.group_transform", "bm4d.engine.group_inverse",
    "bm4d.engine._ht_core", "bm4d.engine.wiener_shrink",
    "bm4d.engine.fold_psd", "bm4d.engine.basis_autocorr",
]
for _k in STAGES:
    _p = f"bm4d.stage{_k}."
    _stage = ["bm4d.engine.bm4d_stage"]
    PER_LAYER.update({
        _p + "wall_s": ("s", _stage),
        _p + "match_s": ("s", _stage + ["bm4d.engine._match_from_view"]),
        _p + "match_calls": ("count", _stage + ["bm4d.engine._match_from_view"]),
        _p + "variance_s": ("s", _stage + ["bm4d.engine.variances_from_fields"]),
        _p + "variance_calls": ("count", _stage + ["bm4d.engine.variances_from_fields"]),
        _p + "variance_hit_ratio": ("ratio", _stage + [
            "bm4d.engine._match_from_view", "bm4d.engine.variances_from_fields",
        ]),
        _p + "transform_s": ("s", _stage + [
            "bm4d.engine.group_transform", "bm4d.engine.group_inverse",
        ]),
        _p + "transform_gflop": ("GFLOP_computed", _stage + [
            "bm4d.engine.group_transform", "bm4d.engine.group_inverse",
        ]),
        _p + "shrink_s": ("s", _stage + ["bm4d.engine._ht_core", "bm4d.engine.wiener_shrink"]),
        _p + "group_size_mean": ("blocks", _stage + ["bm4d.engine._match_from_view"]),
        _p + "self_s": ("s", _stage + _STAGE_CHILDREN),
        _p + "busy_s": ("s", _stage),
        _p + "parallelism": ("ratio", _stage),
    })
PER_LAYER.update({
    "trace.coverage_pct": ("%", list(PER_LAYER["pipeline.self_s"][1])),
    "trace.overhead_pct": ("%", []),
})


def missing_metrics(missing_callables) -> list:
    """Per-layer metrics that depend on a callable that could not be wrapped."""
    gone = {name.removeprefix("bm4dpc.") for name in missing_callables}
    return [m for m, (_, needs) in PER_LAYER.items() if gone.intersection(needs)]


def per_layer(tracer) -> dict:
    """Per-layer values from one traced repeat (all but trace.overhead_pct).

    Durations are summed over calls and, inside a stage, over worker
    threads. A stage's busy_s is the process CPU time over the stage span,
    so parallelism = busy_s / wall_s counts every thread that did work.
    """
    kids = {}
    for s in tracer.spans:
        kids.setdefault(s.parent, []).append(s)

    def summed(spans, key=None):
        return sum(s.duration if key is None else s.attrs[key] for s in spans)

    def total(name, key=None):
        return summed(tracer.named(name), key)

    def self_of(spans):
        return sum(self_time(s, kids.get(s.id, [])) for s in spans)

    out = {
        "phasestab.stabilize_phase_s": total("phasestab.stabilize_phase"),
        "noisest.estimate_noise_s": total("noisest.estimate_noise"),
        "gpca.forward_pca_s": total("gpca.forward_pca"),
        "gpca.inverse_pca_s": total("gpca.inverse_pca"),
        "pipeline.self_s": self_of(tracer.named("pipeline.denoise_bm4dpc")),
        "cli.self_s": self_of(tracer.named("cli.run_cli")),
        "dataio.read_s": total("dataio.read"),
        "dataio.write_s": total("dataio.write"),
        "dataio.bytes_read": total("dataio.read", "bytes"),
        "dataio.bytes_written": total("dataio.write", "bytes"),
        "simulate.generate_s": total("simulate.generate"),
        "evaluate.score_s": total("evaluate.score"),
        "bm4d.psd_fields_s": total("bm4d.psd_fields"),
    }
    for k in STAGES:
        p = f"bm4d.stage{k}."
        stages = tracer.named(f"bm4d.stage{k}")
        children = [c for s in stages for c in kids.get(s.id, [])]

        def child(name, key=None):
            return summed([c for c in children if c.name == name], key)

        def calls(name):
            return sum(c.name == name for c in children)

        wall = sum(s.duration for s in stages)
        busy = sum(s.cpu_end - s.cpu_start for s in stages)
        matches = calls("bm4d.match")
        variances = calls("bm4d.variance")
        out.update({
            p + "wall_s": wall,
            p + "match_s": child("bm4d.match"),
            p + "match_calls": matches,
            p + "variance_s": child("bm4d.variance"),
            p + "variance_calls": variances,
            p + "variance_hit_ratio": 1.0 - variances / matches if matches else 0.0,
            p + "transform_s": child("bm4d.transform"),
            p + "transform_gflop": child("bm4d.transform", "flop") / 1e9,
            p + "shrink_s": child("bm4d.shrink"),
            p + "group_size_mean": (
                child("bm4d.match", "group_size") / matches if matches else 0.0
            ),
            p + "self_s": self_of(stages),
            p + "busy_s": busy,
            p + "parallelism": busy / wall if wall else 0.0,
        })

    top_s = summed(s for s in tracer.spans if s.name in TOP_SPANS and s.parent is None)
    glue_s = out["pipeline.self_s"] + out["cli.self_s"]
    out["trace.coverage_pct"] = 100.0 * (top_s - glue_s) / top_s if top_s else 0.0
    return out
