"""Block matching, shrinkage, aggregation and the stage driver."""

import collections
import itertools
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.ndimage

from bm4dpc.bm4d import bm4d_multichannel
from bm4dpc.bm4d import engine
from bm4dpc.bm4d.engine import (
    WEIGHT_FLOOR,
    _add_group,
    _group_weight,
    _ht_core,
    _match_from_view,
    _shortlists,
    _spread_weights,
    as_float32_stack,
    block_offsets,
    wiener_shrink,
)
from bm4dpc.bm4d.transforms import group_inverse, group_transform
from bm4dpc.bm4d.variance import basis_autocorr, variances_from_fields
from bm4dpc.core import NoisePsd, _starts
from bm4dpc.gpca import forward_pca
from bm4dpc.noisest import clamp_sigma
from bm4dpc.simulate import kernel_to_psd, make_colored_kernel

from _util import pin_cpus, run_stage


def _use_small_geometry(monkeypatch):
    """Both stages of `bm4d_multichannel` search a unit radius and
    group at most 4 blocks."""
    monkeypatch.setattr(engine, "SEARCH_RADIUS", (1, 1, 1))
    monkeypatch.setattr(engine, "HT_MAX_GROUP", 4)
    monkeypatch.setattr(engine, "WIENER_MAX_GROUP", 4)


def _match(data, ref):
    """Stage 1's exact ranking on one guide volume, over the whole search
    window of any corner `ref` whose block fits."""
    dims = data.shape
    x, y, z = (
        np.arange(max(r - s, 0), min(r + s, d - b) + 1)
        for r, s, d, b in zip(ref, engine.SEARCH_RADIUS, dims, engine.BLOCK)
    )
    window = ((x[:, None, None] * dims[1] + y[:, None]) * dims[2] + z).ravel()
    count = min(window.size, engine.HT_MAX_GROUP)
    count = 1 << (count.bit_length() - 1)
    return _match_from_view(
        data.astype(np.float64).ravel(), dims, np.ravel_multi_index(ref, dims),
        window, count, block_offsets(dims, engine.BLOCK),
    )


def _row_groups(data, max_group):
    """The stage's matched groups of every reference corner of a guide
    volume, in corner order: the rows' shortlists re-ranked exactly."""
    dims = data.shape
    guide = data.astype(np.float64).ravel()
    offsets = block_offsets(dims, engine.BLOCK)
    return [
        _match_from_view(guide, dims, *shortlist, offsets)
        for shortlist in _shortlists(guide, dims, max_group)
    ]


def _reference_corners(dims):
    return itertools.product(
        *(_starts(d, b, engine.STEP) for d, b in zip(dims, engine.BLOCK))
    )


def _brute_match(data, ref, max_group=None):
    """Reference matcher: every corner of the window scored by the float64
    mean squared difference of its block to the reference block, a
    (distance, corner) sort with the reference forced first, and
    power-of-two truncation."""
    if max_group is None:
        max_group = engine.HT_MAX_GROUP
    data = data.astype(np.float64)
    dims = data.shape
    block = engine.BLOCK
    ranges = [
        np.arange(max(r - s, 0), min(r + s, d - b) + 1)
        for r, s, d, b in zip(ref, engine.SEARCH_RADIUS, dims, block)
    ]
    windows = np.lib.stride_tricks.sliding_window_view(data, block)
    cands = windows[np.ix_(*ranges)]  # (nx, ny, nz) + block
    ref_block = data[tuple(slice(r, r + b) for r, b in zip(ref, block))]
    dist = ((cands - ref_block) ** 2).mean(axis=(3, 4, 5)).ravel()
    corners = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 3)
    dist[(corners == ref).all(axis=1)] = -np.inf
    order = np.lexsort((corners[:, 2], corners[:, 1], corners[:, 0], dist))
    count = min(len(order), max_group)
    count = 1 << (count.bit_length() - 1)
    return corners[order[:count]]


def _oracle_guide(kind):
    """Guides whose distances are generic, nearly tied, exactly tied,
    of float64 samples at 2^62, of float32 samples at the ends of the
    stages' range (near 2^31 and below float32's smallest normal), or
    on odd, small and long grids, and on a grid of one z start per
    row."""
    rng = np.random.default_rng(21)
    dims = (32, 32, 16)
    if kind == "noise":
        return rng.standard_normal(dims).astype(np.float32)
    if kind == "ramp":
        ramp = np.arange(np.prod(dims)).reshape(dims) * 0.01 + 1e4
        return ramp.astype(np.float32)
    if kind == "ties":
        guide = np.where(rng.random(dims) < 0.9, 1.0, rng.standard_normal(dims))
        return guide.astype(np.float32)
    if kind == "quantized":
        return np.round(2.0 * rng.standard_normal(dims)).astype(np.float32)
    if kind == "float64":
        return 2.0**60 * (5.0 + rng.standard_normal(dims))
    if kind == "near_ties":
        # symmetric under x <-> y, so transposed candidates of a reference
        # on the diagonal tie; a one-ulp nudge of a fifth of the samples
        # leaves gaps that float32 rounding can reverse
        noise = rng.standard_normal(dims).astype(np.float32)
        guide = noise + noise.transpose(1, 0, 2)
        nudged = rng.random(dims) < 0.2
        guide[nudged] = np.nextafter(guide[nudged], np.float32(np.inf))
        return guide
    if kind == "offset":  # distances tiny against |r|^2 + |c|^2
        return 0.37 * np.indices(dims).sum(axis=0) + 1e12
    if kind == "underflow":  # float32 squares below the subnormals
        return (1e-25 * rng.standard_normal(dims)).astype(np.float32)
    if kind == "float32_top":  # the largest samples the pipeline's floor allows
        return (2.0**30 * (1.5 + 0.1 * rng.standard_normal(dims))).astype(np.float32)
    if kind == "subnormal":  # float32 samples below its smallest normal
        return (1e-40 * rng.standard_normal(dims)).astype(np.float32)
    # rows of many z starts (long_z, odd_long_z) and of one (one_z)
    shapes = {"odd": (17, 19, 9), "few": (5, 6, 7), "one": (4, 4, 4),
              "long_z": (12, 12, 24), "odd_long_z": (9, 20, 31),
              "one_z": (12, 12, 4)}
    return rng.standard_normal(shapes[kind]).astype(np.float32)


class TestMatchBlocks:
    def test_constant_volume_tie_order(self):
        """On a constant volume every distance ties, so the result is
        the reference followed by window corners in raster order."""
        positions = _match(np.full((8, 8, 8), 3.7), (2, 2, 2))
        assert positions.shape == (16, 3)
        assert tuple(positions[0]) == (2, 2, 2)
        lex = [
            c
            for c in itertools.product(range(5), range(5), range(5))
            if c != (2, 2, 2)
        ]
        assert [tuple(p) for p in positions[1:]] == lex[:15]

    def test_reference_always_first(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((10, 10, 10))
        positions = _match(data, (3, 5, 2))
        assert tuple(positions[0]) == (3, 5, 2)

    def test_planted_duplicate_ranks_second(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((12, 12, 12))
        # exact copy of the reference block at a disjoint corner
        data[0:4, 4:8, 4:8] = data[4:8, 4:8, 4:8]
        positions = _match(data, (4, 4, 4))
        assert tuple(positions[0]) == (4, 4, 4)
        assert tuple(positions[1]) == (0, 4, 4)

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((12, 12, 12))
        data[0:4, 4:8, 4:8] = data[4:8, 4:8, 4:8]
        got = _match(data, (4, 4, 4))
        expected = _brute_match(data, (4, 4, 4))
        assert np.array_equal(got, expected)

    def test_truncates_to_power_of_two(self):
        # 2 * 3 * 1 = 6 candidate corners, so 4 blocks come back
        positions = _row_groups(np.zeros((5, 6, 4)), engine.HT_MAX_GROUP)[0]
        assert positions.shape == (4, 3)

    @pytest.mark.parametrize("max_group", [engine.HT_MAX_GROUP, engine.WIENER_MAX_GROUP])
    @pytest.mark.parametrize("kind", [
        "noise", "ramp", "ties", "quantized", "near_ties", "offset", "float64",
        "underflow", "float32_top", "subnormal", "odd", "few", "one", "long_z",
        "odd_long_z", "one_z",
    ])
    def test_tiles_match_exhaustive_scan(self, kind, max_group):
        """The rows' distance products and exact re-ranking pick the
        exhaustive scan's group at every reference corner, each once: on
        noise, on a ramp at 1e4 (near ties), on a 90% constant guide
        (exact ties), on quantized values, on near ties, on a float64
        ramp at 1e12 (the expansion's error dwarfs the distances), on a
        float64 guide at 2^62, on float32 guides at 1e-25, near 2^31 and
        at 1e-40, below float32's smallest normal (float64 squares of
        float32 samples neither overflow nor underflow, so the rankings
        are real ones), on odd dims, on windows with
        fewer candidates than a group (5x6x7 and 4x4x4), on grids of
        long rows (12x12x24 and 9x20x31) and on one of one z start per
        row (12x12x4)."""
        guide = _oracle_guide(kind)
        groups = _row_groups(guide, max_group)
        expected = [_brute_match(guide, ref, max_group)
                    for ref in _reference_corners(guide.shape)]
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert np.array_equal(got, want), want[0]

    @pytest.mark.parametrize("max_group", [4, 16])
    def test_tiles_match_exhaustive_scan_unit_radius(self, monkeypatch, max_group):
        """The search radius is read at call time: under a unit radius,
        windows of at most 27 corners, the rows pick the exhaustive
        scan's groups on odd dims."""
        monkeypatch.setattr(engine, "SEARCH_RADIUS", (1, 1, 1))
        guide = _oracle_guide("odd")
        groups = _row_groups(guide, max_group)
        expected = [_brute_match(guide, ref, max_group)
                    for ref in _reference_corners(guide.shape)]
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert np.array_equal(got, want), want[0]

    @pytest.mark.parametrize("kind", ["odd_long_z", "one_z"])
    def test_one_row_call_per_xy_start(self, monkeypatch, kind):
        """A `_shortlists` pass calls `_shortlist_row` once per (x, y)
        start, in raster order, and a wrapped row function leaves every
        group as it is."""
        guide = _oracle_guide(kind)
        expected = _row_groups(guide, engine.HT_MAX_GROUP)
        row, calls = engine._shortlist_row, []

        def counting(blocks, index, x, y, zs, max_group):
            calls.append((x, y))
            return row(blocks, index, x, y, zs, max_group)

        monkeypatch.setattr(engine, "_shortlist_row", counting)
        got = _row_groups(guide, engine.HT_MAX_GROUP)
        xs, ys, _ = (_starts(d, b, engine.STEP) for d, b in zip(guide.shape, engine.BLOCK))
        assert calls == list(itertools.product(xs, ys))
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a, b), b[0]

    @pytest.mark.parametrize("max_group", [engine.HT_MAX_GROUP, engine.WIENER_MAX_GROUP])
    @pytest.mark.parametrize("kind", [
        "near_ties", "ties", "underflow", "float32_top", "subnormal",
    ])
    def test_groups_independent_of_guide_dtype(self, kind, max_group):
        """A float32 guide is matched as its float64 values: on near and
        exact ties, on squares below float32's subnormals, and at both
        ends of the stages' range (samples near 2^31 and subnormal
        samples), the groups of every reference corner are those of the
        float64 guide."""
        guide = _oracle_guide(kind)
        assert guide.dtype == np.float32
        exact = _row_groups(guide.astype(np.float64), max_group)
        for got, want in zip(_row_groups(guide, max_group), exact, strict=True):
            assert np.array_equal(got, want), want[0]

    @pytest.mark.parametrize("max_group", [engine.HT_MAX_GROUP, engine.WIENER_MAX_GROUP])
    def test_float32_guide_picks_the_same_corners(self, colored_arm,
                                                  colored_stabilized, max_group):
        """The stages match on their rows' dtype. On the first principal
        component of the colored gate arm (seed 1), normalized by its
        noise map as the pipeline does, the float32 guide picks the
        float64 guide's corners in the same order at every reference
        corner."""
        normalized = colored_stabilized.data / clamp_sigma(colored_arm["sigma"].data)
        guide = forward_pca(normalized)[0][..., 0]
        exact = _row_groups(guide, max_group)
        rounded = _row_groups(guide.astype(np.float32), max_group)
        corners = list(_reference_corners(guide.shape))
        assert len(exact) == len(rounded) == len(corners)
        for ref, a, b in zip(corners, rounded, exact):
            assert np.array_equal(a, b), ref

    def test_reference_inside_volume(self):
        """Reference corners are strided starts whose last start is
        clamped so the final block ends at the volume edge."""
        assert _starts(9, 4, 3) == [0, 3, 5]
        assert _starts(7, 4, 3) == [0, 3]
        assert _starts(4, 4, 3) == [0]


class TestHardThreshold:
    """`_ht_core` on a group's (M * P, C) coefficient rows, one variance
    per row."""

    def test_zero_lambda_keeps_values(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((32, 3))
        keep = _ht_core(coeffs, np.ones(32), 0.0)
        assert keep.dtype == coeffs.dtype
        assert np.array_equal(coeffs * keep, coeffs)
        assert keep.sum() == coeffs.size

    def test_threshold_scales_with_sigma(self):
        """Each row's threshold is lam times its own deviation, the same
        for every channel of the row."""
        coeffs = np.array([[0.0, 0.0], [3.0, 1.0], [3.0, 6.0]])  # row 0: the DC
        var = np.array([1.0, 1.0, 4.0])
        keep = _ht_core(coeffs, var, 2.7)
        assert np.array_equal(keep, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        # same coefficients survive a 4x noisier spectrum only if they
        # clear the doubled deviate
        keep4 = _ht_core(coeffs, 4.0 * var, 1.4)
        assert np.array_equal(keep4, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_group_dc_always_kept(self):
        coeffs = np.full((16, 3), 0.01, dtype=np.float32)
        var = np.ones(16, dtype=np.float32)
        keep = _ht_core(coeffs, var, 2.7)
        assert keep.dtype == np.float32
        assert np.array_equal(keep[0], np.ones(3))
        assert keep.sum() == 3
        # the mask is its own square: only the DC's unit variance is left
        assert np.array_equal(_group_weight(keep, var), np.ones(3))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal((32, 3))
        var = np.full(32, 0.5)
        once = coeffs * _ht_core(coeffs, var, 1.0)
        twice = once * _ht_core(once, var, 1.0)
        assert np.array_equal(once, twice)


class TestWienerShrink:
    """`wiener_shrink` and `_group_weight` on a group's (M * P, C) pilot
    rows, one variance per row."""

    def test_zero_pilot_kills_everything(self):
        pilot = np.zeros((16, 2))
        var = np.ones(16)
        gain = wiener_shrink(pilot, var)
        assert np.all(gain == 0.0)
        assert _group_weight(gain * gain, var) == pytest.approx(1.0 / WEIGHT_FLOOR)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_pilot_at_zero_variance(self, dtype):
        """0 / 0 is never formed: the gain is 0 and the weight finite,
        with no floating-point warning."""
        pilot = np.zeros((16, 3), dtype=dtype)
        var = np.zeros(16, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain = wiener_shrink(pilot, var)
            weight = _group_weight(gain * gain, var)
        assert gain.dtype == dtype and np.all(gain == 0.0)
        assert np.all(np.isfinite(weight))
        assert weight == pytest.approx(1.0 / WEIGHT_FLOOR, rel=1e-6)

    def test_zero_variance_passes_through(self):
        rng = np.random.default_rng(5)
        pilot = rng.standard_normal((16, 2))  # nonzero everywhere
        var = np.zeros(16)
        gain = wiener_shrink(pilot, var)
        assert np.allclose(gain, 1.0, atol=1e-12)
        assert _group_weight(gain * gain, var) == pytest.approx(1.0 / WEIGHT_FLOOR)

    def test_half_gain_at_unit_snr(self):
        pilot = np.full((8, 1), 2.0)
        var = np.full(8, 4.0)  # pilot^2 == var
        gain = wiener_shrink(pilot, var)
        assert np.allclose(gain, 0.5, atol=1e-12)
        # weight = 1 / sum(gain^2 var) = 1 / (8 * 0.25 * 4)
        assert _group_weight(gain * gain, var) == pytest.approx(1.0 / 8.0)

    def test_weight_per_channel(self):
        rng = np.random.default_rng(6)
        pilot = rng.standard_normal((16, 3))
        var = np.full(16, 0.7)
        gain = wiener_shrink(pilot, var)
        assert gain.shape == pilot.shape
        weight = _group_weight(gain * gain, var)
        assert weight.shape == (3,)
        for c in range(3):
            single = wiener_shrink(pilot[:, c:c + 1], var)
            assert weight[c] == pytest.approx(_group_weight(single * single, var)[0],
                                              rel=1e-12)

    def test_inputs_not_mutated(self):
        """The gain is a new array, never the caller's, also where the
        variance is floored."""
        rng = np.random.default_rng(16)
        pilot = rng.standard_normal((32, 3))
        pilot[0] = 0.0
        var = rng.random(32)
        var[0] = 0.0  # pilot^2 + var == 0 before the floor
        copies = [a.copy() for a in (pilot, var)]
        gain = wiener_shrink(pilot, var)
        for given, kept in zip((pilot, var), copies):
            assert np.array_equal(given, kept)
        assert np.all(gain[0] == 0.0)

    @pytest.mark.parametrize("nchan", [1, 33, 96])
    @pytest.mark.parametrize("m", [16, 32])
    def test_weight_is_the_float64_residual(self, m, nchan):
        """The float32 weight of either stage's gain is 1 / sum(gain^2 *
        var) taken in float64, within the float32 rounding of a sum of
        M * P nonnegative terms."""
        rng = np.random.default_rng(17)
        rows = m * int(np.prod(engine.BLOCK))
        var = rng.random(rows).astype(np.float32)
        coeffs = (3.0 * rng.standard_normal((rows, nchan))).astype(np.float32)
        wiener = wiener_shrink(coeffs, var)
        keep = _ht_core(coeffs, var, engine.HT_THRESHOLD)
        for gain_sq in (wiener * wiener, keep):
            weight = _group_weight(gain_sq, var)
            assert weight.dtype == np.float32 and weight.shape == (nchan,)
            residual = var.astype(np.float64) @ gain_sq.astype(np.float64)
            expected = 1.0 / np.maximum(residual, WEIGHT_FLOOR)
            tol = rows * np.finfo(np.float32).eps
            assert np.max(np.abs(weight / expected - 1.0)) <= tol


def _aggregate(groups, dims):
    """(num, den) after adding (positions, blocks, weights) groups.

    `blocks` are (M, b0, b1, b2, C), channel-last like the stage's, and
    unweighted; the sums are (m, n, o, C).
    """
    nchan = groups[0][1].shape[-1]
    num = np.zeros(dims + (nchan,))
    corner_weight = np.zeros(dims + (nchan,))
    for positions, blocks, weights in groups:
        weights = np.asarray(weights)
        _add_group(num, corner_weight, np.asarray(positions), blocks * weights, weights)
    return num, _spread_weights(corner_weight, blocks.shape[1:4])


class TestAggregate:
    def test_single_group_restores_block(self):
        rng = np.random.default_rng(7)
        blocks = rng.standard_normal((1, 4, 4, 4, 1))
        num, den = _aggregate([([[2, 3, 1]], blocks, [1.0])], (8, 8, 8))
        inside = (slice(2, 6), slice(3, 7), slice(1, 5), 0)
        assert np.allclose(num[inside] / den[inside], blocks[0, ..., 0], atol=1e-12)
        num[inside] = 0.0
        den[inside] = 0.0
        assert np.all(num == 0.0) and np.all(den == 0.0)

    def test_overlap_weighted_average(self):
        def flat(value):
            return np.full((1, 4, 4, 4, 2), value)

        # channel 0 weighs the groups 3:1, channel 1 evenly
        num, den = _aggregate(
            [([[0, 0, 0]], flat(2.0), [3.0, 1.0]),
             ([[2, 0, 0]], flat(8.0), [1.0, 1.0])],
            (6, 4, 4),
        )
        out = num / den
        assert np.allclose(out[0:2], 2.0, atol=1e-12)
        assert np.allclose(out[2:4, ..., 0], 3.5, atol=1e-12)  # (3*2 + 1*8) / 4
        assert np.allclose(out[2:4, ..., 1], 5.0, atol=1e-12)
        assert np.allclose(out[4:6], 8.0, atol=1e-12)

    def test_spread_equals_block_coverage_non_cubic(self):
        """The box sum of corner weights equals adding each weight over
        its whole (2, 3, 4) block, corners up to the last that fits."""
        rng = np.random.default_rng(14)
        dims, block = (7, 6, 9), (2, 3, 4)
        corner_weight = np.zeros(dims + (2,))
        expected = np.zeros(dims + (2,))
        corners = [range(d - b + 1) for d, b in zip(dims, block)]
        for x, y, z in itertools.product(*corners):
            w = rng.random(2)
            corner_weight[x, y, z] = w
            expected[x:x + 2, y:y + 3, z:z + 4] += w
        got = _spread_weights(corner_weight, block)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def _smooth_signal(rng, dims, amplitude):
    rough = rng.standard_normal(dims)
    smooth = scipy.ndimage.gaussian_filter(rough, 2.0, mode="nearest")
    return amplitude * smooth / smooth.std()


@pytest.fixture(scope="module")
def bm4d_noise_bench():
    """Two smooth channels plus unit white noise on a 16^3 grid."""
    rng = np.random.default_rng(10)
    dims = (16, 16, 16)
    clean = [_smooth_signal(rng, dims, 6.0), _smooth_signal(rng, dims, 3.0)]
    noisy = np.stack([c + rng.standard_normal(dims) for c in clean], axis=-1)
    psd = NoisePsd(np.ones(dims))
    return np.stack(clean, axis=-1), noisy, psd


@pytest.fixture(scope="module")
def bm4d_bench_stage1(bm4d_noise_bench):
    _, noisy, psd = bm4d_noise_bench
    return run_stage(noisy, psd, stage=1)


class TestBm4dStage:
    def test_zero_threshold_is_identity(self, monkeypatch):
        monkeypatch.setattr(engine, "HT_THRESHOLD", 0.0)
        rng = np.random.default_rng(8)
        channels = rng.standard_normal((16, 16, 16, 1))
        psd = NoisePsd(np.ones((16, 16, 16)))
        out = run_stage(channels, psd, stage=1)
        assert out.shape == channels.shape
        assert np.max(np.abs(out - channels)) <= 1e-6

    def test_stage1_reduces_noise(self, bm4d_noise_bench, bm4d_bench_stage1):
        clean, noisy, _ = bm4d_noise_bench
        pilots = bm4d_bench_stage1
        for c in range(clean.shape[-1]):
            mse_in = np.mean((noisy[..., c] - clean[..., c]) ** 2)
            mse_out = np.mean((pilots[..., c] - clean[..., c]) ** 2)
            assert mse_out < 0.5 * mse_in

    def test_two_stage_beats_stage1(self, bm4d_noise_bench, bm4d_bench_stage1):
        clean, noisy, psd = bm4d_noise_bench
        pilots = bm4d_bench_stage1
        final = bm4d_multichannel(noisy, psd)
        mse_pilot = np.mean((pilots[..., 0] - clean[..., 0]) ** 2)
        mse_final = np.mean((final[..., 0] - clean[..., 0]) ** 2)
        assert mse_final < mse_pilot

    def test_thread_count_does_not_change_output(self, monkeypatch, bm4d_noise_bench):
        _, noisy, psd = bm4d_noise_bench
        pin_cpus(monkeypatch, 4)
        serial = bm4d_multichannel(noisy, psd, threads=1)
        threaded = bm4d_multichannel(noisy, psd, threads=4)
        assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("dims", [(12, 12, 24), (9, 20, 31), (12, 12, 4)])
    def test_threads_agree_across_rows(self, monkeypatch, dims):
        """On grids of long rows (many z starts per (x, y) start) and of
        one z start per row, every thread count gives the same bytes."""
        pin_cpus(monkeypatch, 4)
        rng = np.random.default_rng(18)
        channels = rng.standard_normal(dims + (2,))
        psd = NoisePsd(np.ones(dims))
        serial = bm4d_multichannel(channels, psd, threads=1)
        for threads in (2, 3):
            assert np.array_equal(bm4d_multichannel(channels, psd, threads=threads), serial)

    def test_odd_dims_clamped_starts(self, monkeypatch):
        """Non-cubic odd dims end on clamped starts along x and z, and a
        unit search radius gives groups of 8 blocks at the corners."""
        rng = np.random.default_rng(11)
        dims = (11, 13, 9)
        channels = rng.standard_normal(dims + (2,))
        psd = NoisePsd(np.ones(dims))
        monkeypatch.setattr(engine, "SEARCH_RADIUS", (1, 1, 1))
        pin_cpus(monkeypatch, 4)
        with monkeypatch.context() as identity:
            identity.setattr(engine, "HT_THRESHOLD", 0.0)
            out = run_stage(channels, psd, stage=1)
        assert np.max(np.abs(out - channels)) <= 1e-6
        serial = bm4d_multichannel(channels, psd, threads=1)
        threaded = bm4d_multichannel(channels, psd, threads=3)
        assert np.array_equal(serial, threaded)

    def test_pool_shut_down_on_error(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("variance lookup failed")

        monkeypatch.setattr(engine, "variances_from_fields", fail)
        pin_cpus(monkeypatch, 4)
        rng = np.random.default_rng(12)
        channels = rng.standard_normal((16, 16, 16, 1))
        psd = NoisePsd(np.ones((16, 16, 16)))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="variance lookup failed"):
            run_stage(channels, psd, stage=1, threads=2)
        assert threading.active_count() == before

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        """`threads` is a cap: each stage builds a pool of
        min(threads, usable CPUs) workers, so a huge `threads` on two
        CPUs gives two-worker pools and the serial bytes, and on one CPU
        no pool is built. The stand-in executor records its size and
        runs each group inline, so no thread starts."""
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        rng = np.random.default_rng(19)
        channels = rng.standard_normal((12, 12, 12, 2))
        psd = NoisePsd(np.ones((12, 12, 12)))
        serial = bm4d_multichannel(channels, psd, threads=1)
        monkeypatch.setattr(engine, "ThreadPoolExecutor", InlineExecutor)
        pin_cpus(monkeypatch, 2)
        assert np.array_equal(bm4d_multichannel(channels, psd, threads=10**6), serial)
        assert sizes == [2, 2]
        pin_cpus(monkeypatch, 1)
        assert np.array_equal(bm4d_multichannel(channels, psd, threads=10**6), serial)
        assert sizes == [2, 2]

    @pytest.mark.parametrize("colored", [False, True], ids=["white", "dog"])
    def test_zero_slab_stays_finite(self, colored):
        """Groups of blocks in an exactly zero slab get zero Wiener gains
        and so the WEIGHT_FLOOR weight; every voxel's weight sum stays
        positive, the output finite and the slab's far side zero."""
        rng = np.random.default_rng(13)
        dims = (17, 19, 9)
        channels = 5.0 + rng.standard_normal(dims + (2,))
        channels[:9] = 0.0
        psd = NoisePsd(np.ones(dims))
        if colored:
            psd = kernel_to_psd(make_colored_kernel(), dims)
        out = bm4d_multichannel(channels, psd, threads=2)
        assert np.all(np.isfinite(out))
        assert np.all(out[:5] == 0.0)

    def test_large_samples_filter_in_float32(self, monkeypatch):
        """Both stages receive float32 stacks. With a first channel within
        a factor of 2 of 2^MAX_EXPONENT and a second of smooth signal in
        unit noise, each channel filters to within 1e-5 of its largest
        magnitude of the output of float64 stages (an overflow warning
        is an error in CI). The largest supported stack, just below
        2^MAX_EXPONENT, filters to a finite output; a sample at
        2^MAX_EXPONENT is a ValueError before any stage runs."""
        rng = np.random.default_rng(17)
        dims = (12, 12, 12)
        noisy = _smooth_signal(rng, dims, 3.0) + rng.standard_normal(dims)
        psd = NoisePsd(np.ones(dims))
        stage, dtypes = engine.bm4d_stage, []

        def recorded(stack, *args, **kwargs):
            dtypes.append(stack.dtype)
            return stage(stack, *args, **kwargs)

        bound = 2.0**engine.MAX_EXPONENT
        large = bound / 16 * (5.0 + rng.standard_normal(dims))
        channels = np.stack([large, noisy], axis=-1)
        assert bound / 2 <= channels.max() < bound
        pilot = run_stage(channels, psd, stage=1)
        expected = run_stage(channels, psd, stage=2, pilot=pilot)
        monkeypatch.setattr(engine, "bm4d_stage", recorded)
        out = bm4d_multichannel(channels, psd)
        assert dtypes == [np.float32, np.float32]
        err = np.abs(out - expected).max(axis=(0, 1, 2))
        assert np.all(err <= 1e-5 * np.abs(expected).max(axis=(0, 1, 2)))
        top = channels * (np.nextafter(bound, 0) / channels.max())
        assert np.all(np.isfinite(bm4d_multichannel(top, psd)))
        top[0, 0, 0, 0] = bound
        dtypes.clear()
        with pytest.raises(ValueError, match="beyond the float32 stages' range"):
            bm4d_multichannel(top, psd)
        assert dtypes == []

    def test_single_channel_supported(self):
        rng = np.random.default_rng(9)
        channels = _smooth_signal(rng, (12, 12, 12), 5.0)[..., None]
        psd = NoisePsd(np.ones((12, 12, 12)))
        out = bm4d_multichannel(channels, psd)
        assert out.shape == (12, 12, 12, 1)
        assert out.dtype == np.float64

    def test_input_validation(self):
        """`bm4d_multichannel` checks its input once, for both stages."""
        psd = NoisePsd(np.ones((8, 8, 8)))
        with pytest.raises(ValueError, match="at least one channel"):
            bm4d_multichannel(np.zeros((8, 8, 8, 0)), psd)
        with pytest.raises(ValueError, match="at least one channel"):
            bm4d_multichannel(np.zeros((8, 8, 8)), psd)
        with pytest.raises(ValueError, match="must be real"):
            bm4d_multichannel(np.zeros((8, 8, 8, 1), dtype=np.complex128), psd)
        nan = np.zeros((8, 8, 8, 1))
        nan[1, 2, 3, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            bm4d_multichannel(nan, psd)
        with pytest.raises(ValueError, match="smaller than the block"):
            bm4d_multichannel(np.zeros((3, 8, 8, 1)), NoisePsd(np.ones((3, 8, 8))))
        with pytest.raises(ValueError, match="smaller than the block"):
            bm4d_multichannel(np.zeros((0, 8, 8, 1)), psd)
        with pytest.raises(ValueError, match="PSD dims"):
            bm4d_multichannel(np.zeros((8, 8, 8, 1)), NoisePsd(np.ones((8, 8, 4))))


class TestChannelLayout:
    """Channel-last stacks, as the PCA returns its PCs, are handed to the
    stages without copies."""

    def test_stages_read_rows_of_the_stack(self, monkeypatch):
        """A C-contiguous float32 stack is the stages' one copy: both
        stages receive the stack object itself, and stage 2's pilot is
        the stack that stage 1 returns."""
        rng = np.random.default_rng(13)
        dims = (6, 5, 4)
        single = rng.standard_normal(dims + (3,)).astype(np.float32)
        _use_small_geometry(monkeypatch)
        stage = engine.bm4d_stage
        seen, returned = [], []

        def recorded(stack, *args, **kwargs):
            seen.append((stack, kwargs.get("pilot")))
            returned.append(stage(stack, *args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(engine, "bm4d_stage", recorded)
        bm4d_multichannel(single, NoisePsd(np.ones(dims)))
        assert len(seen) == 2
        assert all(stack is single for stack, _ in seen)
        assert seen[0][1] is None
        assert seen[1][1] is returned[0]
        assert returned[0].shape == single.shape

    def test_stage_passed_by_keyword(self, monkeypatch):
        """Both stage calls name `stage=`: the benchmark's trace labels a
        stage's span by that keyword."""
        dims = (8, 8, 8)
        stages = []

        def recorded(stack, *args, **kwargs):
            stages.append(kwargs.get("stage"))
            return stack

        monkeypatch.setattr(engine, "bm4d_stage", recorded)
        bm4d_multichannel(np.zeros(dims + (1,)), NoisePsd(np.ones(dims)))
        assert stages == [1, 2]

    def test_hooks_called_once_per_reference_corner(self, monkeypatch):
        """In each stage, `_match_from_view`, `variances_from_fields` and
        the stage's shrinker (`_ht_core`, then `wiener_shrink`) are module
        globals called once per reference corner: the benchmark's trace
        wraps them by name and times each stage's layers by them."""
        dims = (10, 9, 8)
        channels = np.random.default_rng(18).standard_normal(dims + (2,))
        _use_small_geometry(monkeypatch)
        stage_of_call, calls = [], []

        def counted(name):
            inner = getattr(engine, name)

            def wrapper(*args, **kwargs):
                calls.append((stage_of_call[-1], name))
                return inner(*args, **kwargs)

            monkeypatch.setattr(engine, name, wrapper)

        hooks = ("_match_from_view", "variances_from_fields", "_ht_core", "wiener_shrink")
        for name in hooks:
            counted(name)
        stage = engine.bm4d_stage

        def staged(*args, **kwargs):
            stage_of_call.append(kwargs["stage"])
            return stage(*args, **kwargs)

        monkeypatch.setattr(engine, "bm4d_stage", staged)
        bm4d_multichannel(channels, NoisePsd(np.ones(dims)))
        corners = len(list(_reference_corners(dims)))
        assert dict(collections.Counter(calls)) == {
            (1, "_match_from_view"): corners, (1, "variances_from_fields"): corners,
            (1, "_ht_core"): corners, (2, "_match_from_view"): corners,
            (2, "variances_from_fields"): corners, (2, "wiener_shrink"): corners,
        }

    def test_float32_stack_kept(self, monkeypatch):
        """A C-contiguous float32 stack, as the pipeline hands over its
        PCs, is checked and cast without a float64 or float32 copy, and
        filtered to the bytes of its float64 values; so is an int16
        stack. A float32 stack of another layout is copied once, to C
        order, so the stages' voxel rows are views of that copy."""
        rng = np.random.default_rng(15)
        dims = (10, 9, 8)
        double = rng.standard_normal(dims + (3,))
        single = as_float32_stack(double)
        assert single.dtype == np.float32
        assert as_float32_stack(single) is single
        assert as_float32_stack(np.asfortranarray(single)).flags.c_contiguous
        _use_small_geometry(monkeypatch)
        psd = NoisePsd(np.ones(dims))
        out = bm4d_multichannel(single, psd)
        assert np.array_equal(out, bm4d_multichannel(double, psd))
        integers = np.round(1000.0 * double).astype(np.int16)
        assert np.array_equal(bm4d_multichannel(integers, psd),
                              bm4d_multichannel(integers.astype(np.float64), psd))

    def test_output_independent_of_input_layout(self, monkeypatch):
        """The output is a C-contiguous float64 (m, n, o, C) array, and
        non-contiguous views of the same values (channel-first memory,
        or every other channel of a wider float32 stack) filter to the
        same bytes."""
        rng = np.random.default_rng(14)
        dims = (10, 9, 8)
        c_ordered = rng.standard_normal(dims + (3,))
        channel_first = np.moveaxis(np.moveaxis(c_ordered, -1, 0).copy(), 0, -1)
        wide = np.zeros(dims + (6,), dtype=np.float32)
        wide[..., ::2] = c_ordered
        psd = NoisePsd(np.ones(dims))
        _use_small_geometry(monkeypatch)
        out = bm4d_multichannel(c_ordered, psd)
        assert out.shape == c_ordered.shape
        assert out.dtype == np.float64
        assert out.flags.c_contiguous
        for view in (channel_first, wide[..., ::2]):
            assert not view.flags.c_contiguous
            assert np.array_equal(bm4d_multichannel(view, psd), out)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_channel_sign_flip_flips_its_output(self, monkeypatch, threads):
        """The PCA's column signs are arbitrary: a channel given with
        the opposite sign comes back as the exact negative, and the
        other channels do not change."""
        rng = np.random.default_rng(16)
        dims = (10, 9, 8)
        channels = rng.standard_normal(dims + (3,))
        psd = NoisePsd(np.ones(dims))
        _use_small_geometry(monkeypatch)
        pin_cpus(monkeypatch, 4)
        out = bm4d_multichannel(channels, psd, threads=threads)
        flipped = channels.copy()
        flipped[..., 1] *= -1.0
        out_flipped = bm4d_multichannel(flipped, psd, threads=threads)
        assert np.array_equal(out_flipped[..., 1], -out[..., 1])
        assert np.array_equal(out_flipped[..., [0, 2]], out[..., [0, 2]])

    def test_multichannel_peak_memory(self, monkeypatch):
        """The stages hold float32 arrays of half the float64 channels'
        size: the stack, the pilot, the numerator and the weight field.
        The stack and the pilot are freed before the float64 output is
        made. A second copy of the stack, a float64 stage array or a
        kept stage output would each add half a channel stack or more."""
        rng = np.random.default_rng(15)
        dims = (16, 16, 12)
        channels = rng.standard_normal(dims + (16,))
        psd = NoisePsd(np.ones(dims))
        _use_small_geometry(monkeypatch)
        # the PSD lag table is C-independent set-up, made before tracing
        fields = engine.basis_autocorr(psd.data, engine.BLOCK, engine.SEARCH_RADIUS)
        monkeypatch.setattr(engine, "basis_autocorr", lambda *args: fields)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bm4d_multichannel(channels, psd)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * channels.nbytes


def _reference_stage(channels, psd, stage, pilot=None):
    """The stage as it reads on paper: the exhaustive matcher, slice
    gathers, and per-block slice adds into (m, n, o, C) numerator and
    weight sums."""
    block = engine.BLOCK
    dims = channels.shape[:3]
    guide = (channels if stage == 1 else pilot)[..., 0]
    max_group = engine.HT_MAX_GROUP if stage == 1 else engine.WIENER_MAX_GROUP
    fields = basis_autocorr(psd.data, block, engine.SEARCH_RADIUS)

    def block_at(pos):
        return tuple(slice(p, p + b) for p, b in zip(pos, block))

    num = np.zeros(channels.shape)
    den = np.zeros(channels.shape)
    for ref in _reference_corners(dims):
        positions = _brute_match(guide, ref, max_group)
        var = variances_from_fields(fields, positions - positions[0], block).ravel()
        # (M, b0, b1, b2, C): the group axis first, channels trailing; the
        # shrinkers read it as (M * P, C) coefficient rows
        coeffs = group_transform(np.stack([channels[block_at(p)] for p in positions]))
        rows = coeffs.reshape(len(var), -1)
        if stage == 1:
            gain = _ht_core(rows, var, engine.HT_THRESHOLD)
        else:
            pilots = np.stack([pilot[block_at(p)] for p in positions])
            gain = wiener_shrink(group_transform(pilots).reshape(rows.shape), var)
        residual = (np.square(gain, dtype=np.float64) * var[:, None]).sum(axis=0)
        weight = 1.0 / np.maximum(residual, WEIGHT_FLOOR)
        blocks = group_inverse(gain.reshape(coeffs.shape) * coeffs)
        for j, pos in enumerate(positions):
            num[block_at(pos)] += weight * blocks[j]
            den[block_at(pos)] += weight
    return num / den


class TestStageOracle:
    def test_matches_slice_add_reference(self):
        """Flat-index gathers and the channel-last, corner-weighted
        aggregation reproduce the per-block reference on odd dims with
        clamped last starts, under a colored PSD, for both stages, and
        every thread count gives the same bytes. The two-stage driver
        filters in float32: its output is within 1e-5 of its largest
        magnitude of the float64 stages' output, and has the same bytes
        at every thread count."""
        rng = np.random.default_rng(13)
        dims = (11, 13, 9)
        clean = np.stack([_smooth_signal(rng, dims, a) for a in (6.0, 3.0, 1.0)], axis=-1)
        channels = clean + rng.standard_normal(clean.shape)
        kernel = rng.random((3, 3, 3))
        spectrum = np.abs(np.fft.fftn(kernel, dims, axes=(0, 1, 2))) ** 2
        psd = NoisePsd(spectrum / spectrum.mean())

        pilot = run_stage(channels, psd, stage=1)
        expected = _reference_stage(channels, psd, 1)
        assert np.max(np.abs(pilot - expected)) <= 1e-12
        final = run_stage(channels, psd, stage=2, pilot=pilot)
        expected = _reference_stage(channels, psd, 2, pilot)
        assert np.max(np.abs(final - expected)) <= 1e-12

        for threads in (1, 2, 3):
            assert np.array_equal(run_stage(channels, psd, stage=1, threads=threads), pilot)
            assert np.array_equal(
                run_stage(channels, psd, stage=2, pilot=pilot, threads=threads), final
            )
        driven = [bm4d_multichannel(channels, psd, threads=t) for t in (1, 2, 3)]
        assert np.max(np.abs(driven[0] - final)) <= 1e-5 * np.max(np.abs(driven[0]))
        for out in driven[1:]:
            assert np.array_equal(out, driven[0])


class TestProfiles:
    def test_standard_defaults(self):
        assert engine.BLOCK == (4, 4, 4)
        assert engine.SEARCH_RADIUS == (5, 5, 5)
        assert engine.STEP == 3
        assert engine.HT_THRESHOLD == 2.7
        assert engine.HT_MAX_GROUP == 16
        assert engine.WIENER_MAX_GROUP == 32

    def test_reference_blocks_tile_the_volume(self):
        """A step past the smallest block edge would leave voxels that
        no reference block covers, and the search needs a positive
        radius on every axis."""
        assert 1 <= engine.STEP <= min(engine.BLOCK)
        assert len(engine.SEARCH_RADIUS) == 3
        assert all(r >= 1 for r in engine.SEARCH_RADIUS)
