"""Two-stage collaborative filtering over grouped blocks.

Stage 1 hard-thresholds grouped 4D spectra against their exact noise
variances; stage 2 re-runs the grouping on the stage-1 pilot and
applies empirical Wiener gains. Either stage is its gain: `_ht_core`
returns the 0/1 keep mask and `wiener_shrink` the pilot^2 / (pilot^2 +
var) gains, and the stage multiplies the group's coefficients by the
gain and weights the group by 1 / (var @ gain^2), `_group_weight`, on
(M * P, C) coefficient rows and one (M * P,) variance vector.
Multiple channels (principal components) ride along the same matched
positions, so matching happens once per reference corner. It reads one
float64 copy of the guide channel in two steps with the exact result
of one: `_shortlist_row` narrows the search windows of a row of
reference corners, those at one (x, y) start, with one distance
product, and `_match_from_view` ranks each reference's shortlist
exactly. A guide's groups do not depend on its dtype.

The method's settings are the module constants below, read at call
time. Both stages share the block geometry, so `bm4d_multichannel`,
the one entry point, checks its input against the block and the PSD
dims and builds the PSD lag table once for both.
The table is `basis_autocorr` of the PSD on its full grid, exact for
the PSD the caller passes.

The stages take and return real (m, n, o, C) stacks, channel-last,
and filter in the dtype of the stack, float32 from `bm4d_multichannel`.
`as_float32_stack` is the one check and cast: the pipeline casts the
PCs with it and drops the float64 PCs before it calls
`bm4d_multichannel`, and the driver applies it again for any other
caller. It refuses a sample at 2^MAX_EXPONENT or beyond, and the
pipeline floors its noise map so that no component gets there.
The noise variances are computed in float64 and cast per group. Inside
a stage, the stack and the stage-2 pilot are read as (V, C) voxel rows,
views of C-contiguous stacks, and a block is addressed by one flat
voxel index, its corner's raveled index plus `block_offsets`, so each
group is one row take of shape (M, P, C). Groups are transformed as
(M, b0, b1, b2, C) arrays, and the filtered blocks add into an
(m, n, o, C) numerator without a layout change; group weights go into
a corner field that `_spread_weights` turns into the per-voxel weight
sums. The stage returns its numerator: stage 2 takes the stage-1 one
as its pilot, and `bm4d_multichannel` casts the stage-2 one to a
float64 array.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core import NoisePsd, _starts
from .transforms import group_inverse, group_transform
# fold_psd is unused here: bench/layers.py wraps engine.fold_psd until ROADMAP item 11
from .variance import basis_autocorr, fold_psd, variances_from_fields

WEIGHT_FLOOR = 1e-12
# The float32 stages' range: samples below 2^MAX_EXPONENT in magnitude. A
# group's coefficients reach sqrt(M * P) = 45 times its largest sample, so the
# Wiener pilot's float32 squares, the largest values a stage forms, stay
# below 2^76, far from float32's 2^128.
MAX_EXPONENT = 32


# the standard two-stage settings; both stages share the block geometry
BLOCK = (4, 4, 4)
SEARCH_RADIUS = (5, 5, 5)  # matching window half-width around a reference corner
STEP = 3  # reference corner stride; at most min(BLOCK), so the blocks tile
HT_THRESHOLD = 2.7  # hard-threshold multiplier of the coefficient deviation
HT_MAX_GROUP = 16  # blocks per group in stage 1
WIENER_MAX_GROUP = 32  # blocks per group in stage 2


def usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity where the OS
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_offsets(dims, block) -> np.ndarray:
    """Raveled offsets of a block's voxels from its corner, raster order."""
    return np.ravel_multi_index(np.indices(block).reshape(3, -1), dims)


def _match_from_view(guide, dims, ref, candidates, count, offsets) -> np.ndarray:
    """Corners of the `count` blocks most similar to the reference block.

    `guide` is the float64 guide volume of shape `dims`, raveled in
    C order, and `offsets` its `block_offsets`. `ref` is the raveled
    corner of the reference block and `candidates` the raveled corners
    of a shortlist of its SEARCH_RADIUS window, ascending (raster
    order), that holds the reference and the whole result. The
    candidates are ranked by float64 mean squared difference, read as
    the sum (the mean times the block size, a power of two: the same
    order), ties in raster order, and the reference always comes first.
    Returns the (count, 3) corners.
    """
    blocks = guide[candidates[:, None] + offsets]  # (K, block voxels)
    blocks -= guide[ref + offsets]
    blocks *= blocks
    dist = blocks.sum(axis=1)
    dist[candidates == ref] = -np.inf  # reference always ranks first
    order = np.argsort(dist, kind="stable")[:count]  # ties fall back to corner order
    return np.stack(np.unravel_index(candidates[order], dims), axis=1)


def _shortlist_row(blocks, index, x, y, zs, max_group):
    """`_match_from_view`'s (ref, candidates, count) for the references of
    one row: the T corners (x, y, z) for z in the ascending `zs`.

    `blocks` is the sliding block view of the float64 guide volume
    and `index` the raveled index of each of its voxels. A reference's
    group is the exact ranking of its SEARCH_RADIUS window cut to
    `count` blocks, the largest power of two of at most min(window
    candidates, max_group) (Haar needs a power of two). The references
    share their x and y windows, so the row's candidates are one box,
    those windows by the union of the z windows, and each reference's
    window is a z interval of it. One matrix product of the references'
    blocks with the box's gives the distances |r|^2 + |c|^2 - 2 r.c in
    float64, and a candidate of a reference's window is shortlisted when
    it is within a rounding bound of the count-th smallest distance
    there. The bound covers the product's error and that of the exact
    distance, so the shortlist holds the exact group, the reference (at
    distance 0 up to rounding) among it.
    """
    dims = index.shape
    size = int(np.prod(BLOCK))
    # the bound: the float64 error of the product and of the exact distance per
    # unit of |r|^2 + |c|^2 (float64 squares of float32 samples stay normal)
    slack = 16 * (size + 2) * np.finfo(np.float64).eps
    (x_lo, x_hi), (y_lo, y_hi) = (
        (max(c - r, 0), min(c + r, d - b))
        for c, r, d, b in zip((x, y), SEARCH_RADIUS, dims, BLOCK)
    )
    lows = np.maximum(zs - SEARCH_RADIUS[2], 0)
    highs = np.minimum(zs + SEARCH_RADIUS[2], dims[2] - BLOCK[2])
    box = (slice(x_lo, x_hi + 1), slice(y_lo, y_hi + 1), slice(lows[0], highs[-1] + 1))
    corners = index[box]  # the box's raveled corners, ascending
    cands = np.moveaxis(blocks[box], (3, 4, 5), (0, 1, 2)).reshape(size, -1)
    norms = np.einsum("pk,pk->k", cands, cands)
    refs = np.ravel_multi_index((x - x_lo, y - y_lo, zs - lows[0]), corners.shape)
    dist = cands[:, refs].T @ cands  # (T, K): the references by the box's corners
    dist *= -2.0
    dist += norms
    dist += norms[refs, None]
    # each reference's window: a (T, depth) z mask over the box's (x, y) columns
    z = np.arange(lows[0], highs[-1] + 1)
    inside = (z >= lows[:, None]) & (z <= highs[:, None])
    np.copyto(dist.reshape(len(zs), -1, len(z)), np.inf, where=~inside[:, None, :])
    counts = np.minimum(corners[..., 0].size * (highs - lows + 1), max_group)
    counts = [1 << (int(n).bit_length() - 1) for n in counts]
    ranks = np.array(counts) - 1
    kth = np.partition(dist, np.unique(ranks), axis=1)[np.arange(len(zs)), ranks]
    limit = kth + slack * (norms[refs] + norms.max())
    corners = corners.ravel()
    # a distance outside the window is inf, beyond every (finite) limit
    return [(corners[ref], corners[row], count)
            for ref, row, count in zip(refs, dist <= limit[:, None], counts)]


def _shortlists(guide, dims, max_group):
    """Yield (ref, candidates, count) for every reference block, in corner
    order: `_match_from_view`'s arguments for the reference's group, one
    `_shortlist_row` per (x, y) start in raster order."""
    blocks = np.lib.stride_tricks.sliding_window_view(guide.reshape(dims), BLOCK)
    index = np.arange(guide.size).reshape(dims)
    xs, ys, zs = (_starts(d, b, STEP) for d, b in zip(dims, BLOCK))
    zs = np.array(zs)
    for x in xs:
        for y in ys:
            yield from _shortlist_row(blocks, index, x, y, zs, max_group)


def _ht_core(coeffs, variances, lam):
    """Hard-threshold gain of (M * P, C) coefficient rows, in their dtype:
    1 beyond lam * sigma of the row, else 0; the group DC row survives."""
    keep = np.abs(coeffs) > (lam * np.sqrt(variances))[:, None]
    keep[0] = True
    return keep.astype(coeffs.dtype)


def wiener_shrink(pilot, variances):
    """Empirical Wiener gain pilot^2 / (pilot^2 + var) of (M * P, C) pilot
    coefficient rows. The variances are floored at their dtype's smallest
    normal: a zero pilot gets gain 0, also at zero variance."""
    floored = np.maximum(variances, np.finfo(variances.dtype).tiny)
    energy = pilot * pilot
    energy /= energy + floored[:, None]
    return energy


def _group_weight(gain_sq, variances):
    """1 / (variances @ gain_sq) per channel, for (M * P, C) squared gains:
    the inverse residual noise of the filtered group, floored to stay finite."""
    return 1.0 / np.maximum(variances @ gain_sq, WEIGHT_FLOOR)


def _add_group(num, corner_weight, positions, blocks, weight) -> None:
    """Add one group's weighted blocks and its weights at their corners.

    `num` and `corner_weight` are channel-last (m, n, o, C); `blocks`
    is (M, b0, b1, b2, C), already multiplied by `weight` (one entry
    per channel), with corners `positions` (M, 3), which are distinct.
    """
    b0, b1, b2 = blocks.shape[1:4]
    for (x, y, z), block in zip(positions.tolist(), blocks):
        num[x:x + b0, y:y + b1, z:z + b2] += block
    corner_weight[tuple(positions.T)] += weight


def _spread_weights(corner_weight, block) -> np.ndarray:
    """Per-voxel weight sums from the weights deposited at block corners.

    Each corner's weight covers the block that starts there, so the sum
    at a voxel is a box sum of the corner field, taken one axis at a
    time and in place: walking an axis downwards, each slice adds the
    edge - 1 slices below it before they are updated. Corners hold
    weight only where a whole block fits, so nothing spills past the
    volume. Returns `corner_weight`, now the sums.
    """
    for axis, edge in enumerate(block):
        lines = np.moveaxis(corner_weight, axis, 0)  # a view
        for i in range(len(lines) - 1, 0, -1):
            lines[i] += lines[max(i - edge + 1, 0):i].sum(axis=0)
    return corner_weight


def as_float32_stack(channels) -> np.ndarray:
    """`channels` as the C-contiguous float32 (m, n, o, C) stack the
    stages filter: real, of at least one channel, finite and below
    2^MAX_EXPONENT in magnitude, or a ValueError. A C-contiguous float32
    array is not copied."""
    if np.iscomplexobj(channels):
        raise ValueError("channels must be real")
    stack = np.asarray(channels)
    if stack.ndim != 4 or stack.shape[-1] == 0:
        raise ValueError("need an (m, n, o, C) array of at least one channel")
    # no integer wrap, a nan propagates, an empty volume goes to the block check
    largest = max(float(stack.max(initial=0)), -float(stack.min(initial=0)))
    if not np.isfinite(largest):
        raise ValueError("channels contain non-finite samples")
    if largest >= 2.0**MAX_EXPONENT:
        raise ValueError(f"channels reach {largest:.3g}, beyond the float32 "
                         "stages' range; is the noise map near zero?")
    # C order: the stages' voxel rows are then views, not one copy per stage
    return stack.astype(np.float32, order="C", copy=False)


def bm4d_stage(stack, fields, stage: int, pilot=None, threads: int = 1) -> np.ndarray:
    """One filtering pass over a real (m, n, o, C) channel stack.

    `fields` is the `basis_autocorr` lag table of the noise PSD. Stage 1
    matches on channel 0 of `stack` and hard-thresholds; stage 2 matches
    on channel 0 of `pilot` (the stage-1 output, a stack of the same
    shape) and Wiener-filters every channel against its own pilot
    spectrum. The inputs are the ones `bm4d_multichannel` checked; the
    stage checks nothing again, and divides by the weight sums directly.
    Matching reads a float64 copy of the guide channel; the transforms,
    the gains, the weights and the sums run in the dtype of `stack`.
    Returns the filtered C-contiguous (m, n, o, C) stack, of that dtype.
    `threads` is a cap: the stage starts min(threads, `usable_cpus()`)
    workers and filters on the calling thread when that is one.
    Identical output for any thread count: the calling thread
    shortlists the references row by row (`_shortlists`), worker
    threads rank each reference's shortlist exactly and filter its
    group, and the calling thread adds the groups up in corner order.
    """
    dims, nchan = stack.shape[:3], stack.shape[-1]
    # (V, C) voxel rows, views of C-contiguous stacks: a group is one take
    rows = stack.reshape(-1, nchan)
    guide_rows = rows if stage == 1 else pilot.reshape(-1, nchan)
    offsets = block_offsets(dims, BLOCK)
    guide = guide_rows[:, 0].astype(np.float64)
    max_group = HT_MAX_GROUP if stage == 1 else WIENER_MAX_GROUP
    shortlists = _shortlists(guide, dims, max_group)

    def filter_group(shortlist):
        positions = _match_from_view(guide, dims, *shortlist, offsets)
        var = variances_from_fields(fields, positions - positions[0], BLOCK)
        var = var.astype(stack.dtype).ravel()  # one entry per coefficient row
        idx = np.ravel_multi_index(positions.T, dims)[:, None] + offsets
        group_shape = (len(positions),) + BLOCK + (nchan,)
        coeffs = group_transform(np.take(rows, idx, axis=0).reshape(group_shape))
        # shrinking in (M * P, C) rows; ROADMAP item 7 lists the layouts found slower
        if stage == 1:  # a 0/1 gain is its own square
            gain = gain_sq = _ht_core(coeffs.reshape(-1, nchan), var, HT_THRESHOLD)
        else:
            pilot_group = np.take(guide_rows, idx, axis=0).reshape(group_shape)
            gain = wiener_shrink(group_transform(pilot_group).reshape(-1, nchan), var)
            gain_sq = gain * gain
        weight = _group_weight(gain_sq, var)
        coeffs *= gain.reshape(group_shape)
        blocks = group_inverse(coeffs)
        blocks *= weight
        return positions, blocks, weight

    num = np.zeros(stack.shape, dtype=stack.dtype)
    corner_weight = np.zeros(stack.shape, dtype=stack.dtype)
    # a worker beyond the usable CPUs only adds memory and switching
    workers = min(threads, usable_cpus())
    # serial at one worker: a one-worker pool ran gate-colored slower (ROADMAP item 14)
    if workers <= 1:
        for shortlist in shortlists:
            _add_group(num, corner_weight, *filter_group(shortlist))
    else:
        # a bounded queue keeps finished groups from piling up, and the
        # corner-order sum makes the output independent of the thread count
        with ThreadPoolExecutor(max_workers=workers) as executor:
            pending = deque()
            for shortlist in shortlists:
                pending.append(executor.submit(filter_group, shortlist))
                if len(pending) == 2 * workers:
                    _add_group(num, corner_weight, *pending.popleft().result())
            for future in pending:
                _add_group(num, corner_weight, *future.result())

    # sums > 0: reference blocks tile, each leads its own group, group weights > 0
    num /= _spread_weights(corner_weight, BLOCK)
    return num


def bm4d_multichannel(channels, psd: NoisePsd, threads: int = 1):
    """Full two-stage filtering of a real (m, n, o, C) channel stack.

    Both stages filter float32 and match in float64. A C-contiguous
    float32 stack, as the pipeline passes its PCs, is used as it is;
    any other, integer stacks too, is cast once, by `as_float32_stack`,
    which refuses a sample at 2^MAX_EXPONENT or beyond before any stage
    runs. Both stages take the stack itself, and stage 2 the stack that
    stage 1 returns as its pilot. Returns the filtered C-contiguous
    float64 (m, n, o, C) array.
    """
    stacked = as_float32_stack(channels)
    dims = stacked.shape[:3]
    if any(b > d for b, d in zip(BLOCK, dims)):
        raise ValueError("volume smaller than the block")
    if psd.dims != dims:
        raise ValueError("PSD dims must match the channels")
    fields = basis_autocorr(psd.data, BLOCK, SEARCH_RADIUS)
    pilot = bm4d_stage(stacked, fields, stage=1, threads=threads)
    out = bm4d_stage(stacked, fields, stage=2, pilot=pilot, threads=threads)
    del stacked, pilot  # freed before the float64 output is made
    return out.astype(np.float64)
