"""Tests of the benchmark's own logic: python3 -m pytest bench -q"""

import json
import os
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import run
from layers import PER_LAYER, group_flop, missing_metrics
from spans import Span, Tracer, covered, self_time
from workloads import WORKLOADS

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")


def _span(i, start, end, parent=None, thread=0):
    return Span(id=i, name=f"s{i}", parent=parent, thread=thread, start=start, end=end)


def test_covered_merges_overlaps_and_skips_empty():
    assert covered([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert covered([]) == 0


def test_self_time_nested_counts_direct_children_once():
    parent = _span(0, 0.0, 10.0)
    child = _span(1, 1.0, 5.0, parent=0)
    # a grandchild lies inside its parent, which is the only direct child
    assert self_time(parent, [child]) == pytest.approx(6.0)
    assert self_time(child, [_span(2, 2.0, 3.0, parent=1)]) == pytest.approx(3.0)


def test_self_time_threaded_overlap_is_counted_once():
    parent = _span(0, 0.0, 10.0)
    kids = [
        _span(1, 1.0, 6.0, parent=0, thread=1),
        _span(2, 4.0, 8.0, parent=0, thread=2),
        _span(3, 9.5, 12.0, parent=0, thread=1),  # clipped at the parent's end
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 7.0 - 0.5)


def test_worker_thread_spans_attach_to_owner_span_and_restore():
    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: x * 2
    original = mod.work
    tracer = Tracer()
    tracer.wrap(mod, "work", "fake.work", lambda a, k, r: {"out": r})
    tracer.wrap(mod, "renamed_away", "fake.gone")

    with tracer.span("outer", cpu=True) as outer:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(mod.work, range(4)))
    tracer.restore()

    assert results == [0, 2, 4, 6]
    assert mod.work is original
    work = tracer.named("fake.work")
    assert len(work) == 4
    assert all(s.parent == outer.id for s in work)
    assert {s.thread for s in work} - {threading.get_ident()}
    assert sorted(s.attrs["out"] for s in work) == [0, 2, 4, 6]
    assert outer.cpu_end >= outer.cpu_start
    assert tracer.missing == ["fake_layer.renamed_away"]


def test_missing_callable_reports_metrics_missing_not_zero():
    gone = missing_metrics(["bm4dpc.bm4d.engine._match_from_view"])
    assert "bm4d.stage1.match_s" in gone
    assert "bm4d.stage2.group_size_mean" in gone
    assert "bm4d.stage1.self_s" in gone
    assert "gpca.forward_pca_s" not in gone
    assert missing_metrics([]) == []


def test_group_flop_on_known_shape():
    # 33 channels, 32 blocks of 4x4x4: 2*C*M*b^3*(sum(b)+M)
    assert group_flop((33, 32, 4, 4, 4)) == 2 * 33 * 32 * 64 * (12 + 32)
    assert group_flop((33, 32, 4, 4, 4)) == 5_947_392
    assert group_flop((8, 4, 4, 4)) == 2 * 8 * 64 * 20


def _result(digest="d0", gain=14.7, ratio=0.14, finite=True, denoise_s=7.0):
    return {
        "import_s": 0.4, "denoise_s": denoise_s, "peak_rss_mb": 160.0,
        "digest": digest, "finite": finite, "psnr_gain_b1000_db": gain,
        "ssim_b1000": 0.97, "fa_rmse_ratio": ratio,
    }


class FakeChildren:
    """Stands in for child processes; each call advances a fake clock."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.now = 0.0
        self.tasks = []

    def clock(self):
        return self.now

    def __call__(self, task, root, timeout):
        self.now += 10.0
        self.tasks.append(task)
        if task["mode"] == "probe":
            return {"import_s": 0.5}
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_injected_failing_repeat_is_counted_and_run_continues():
    fake = FakeChildren([
        _result(denoise_s=7.0),
        run.ChildFailed("exit code 1: RuntimeError: injected"),
        _result(denoise_s=9.0),
    ])
    result = run.measure(
        WORKLOADS["gate-colored"], 0, 25.0, False, "/nowhere", "/nowhere",
        runner=fake, clock=fake.clock,
    )
    attempts = result.attempts
    assert len(attempts) == 3
    assert [a.failed for a in attempts] == [False, True, False]
    assert "injected" in attempts[1].failures[0]
    metrics = run.end_to_end(result.measured, result.imports, WORKLOADS["gate-colored"])
    assert metrics["denoise_s"]["value"] == pytest.approx(8.0)
    assert len(result.imports) == run.SETUP_SAMPLES  # probes filled the gap


def test_window_opens_after_cli_reference_and_keeps_min_repeats():
    prepared = {"import_s": 0.4, "generate_s": 2.0}

    def repeats(seconds):
        fake = FakeChildren([prepared] + [_result() for _ in range(9)])
        result = run.measure(
            WORKLOADS["cli-many-volumes"], 0, seconds, False, "/nowhere", "/nowhere",
            runner=fake, clock=fake.clock,
        )
        assert [t.get("threads") for t in fake.tasks[:2]] == [2, 1]  # prepare, reference
        return len(result.measured)

    # the window opens at t=20, after prepare and the --threads 1 reference
    assert repeats(5.0) == run.MIN_REPEATS
    assert repeats(40.0) == 4    # a 5th repeat would end at t=70, past 20+40
    assert repeats(50.0) == 5


def test_judge_flags_digest_quality_and_nonfinite():
    gate = WORKLOADS["gate-colored"]
    attempts = [
        run.Attempt("a", _result()),
        run.Attempt("b", _result()),
        run.Attempt("c", _result(digest="other")),
        run.Attempt("d", _result(gain=9.0)),
        run.Attempt("e", _result(ratio=0.6, finite=False)),
    ]
    run.judge(attempts, gate)
    assert [a.failed for a in attempts] == [False, False, True, True, True]
    assert len(attempts[4].failures) == 2

    # the CLI workload checks every repeat against its --threads 1 run
    cli = [run.Attempt("a", _result(gain=12.0)), run.Attempt("b", _result(gain=12.0))]
    run.judge(cli, WORKLOADS["cli-many-volumes"], reference="t1")
    assert all(a.failed for a in cli)


def test_white_noise_floor_is_lower():
    large = WORKLOADS["large-volume"]
    ok = run.Attempt("a", _result(gain=9.0))
    run.judge([ok], large)
    assert not ok.failed


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    # large-volume runs only by hand (bench/workloads.py says why)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"large-volume"}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {k: unit for k, (unit, _) in PER_LAYER.items()}


def test_tracing_a_small_denoise_keeps_output_and_covers_it():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    import numpy as np

    from bm4dpc import pipeline, simulate

    clean, _, _ = simulate.make_phantom(simulate.PhantomSpec(
        dims=(16, 16, 8), shells=((0.0, 1), (1000.0, 6), (2000.0, 6)),
    ))
    noisy, _, _ = simulate.add_noise(clean, simulate.NoiseSpec(level=0.05, seed=5))

    def denoise():
        out, _, _ = pipeline.denoise_bm4dpc(noisy, threads=2)
        return np.stack([v.data for v in out.volumes])

    plain = denoise()
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("pipeline.denoise_bm4dpc"):
            traced = denoise()
    finally:
        tracer.restore()

    assert traced.tobytes() == plain.tobytes()
    assert tracer.missing == []
    values = layers.per_layer(tracer)
    assert set(values) == set(PER_LAYER) - {"trace.overhead_pct"}
    assert values["bm4d.stage1.match_calls"] == values["bm4d.stage2.match_calls"] > 0
    assert values["noisest.estimate_noise_s"] > 0
    assert values["dataio.read_s"] == 0  # no CLI on this path
    assert 90.0 < values["trace.coverage_pct"] <= 100.0
