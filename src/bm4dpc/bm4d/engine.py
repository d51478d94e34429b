"""Two-stage collaborative filtering over grouped blocks.

Stage 1 hard-thresholds grouped 4D spectra against their exact noise
variances; stage 2 re-runs the grouping on the stage-1 pilot and
applies empirical Wiener gains. Either stage is its gain: `_ht_core`
returns the 0/1 keep mask and `wiener_shrink` the pilot^2 / (pilot^2 +
var) gains, and the stage multiplies the group's coefficients by the
gain and weights the group by 1 / sum(gain^2 * var), `_group_weight`.
Multiple channels (principal components) ride along the same matched
positions, so matching happens once per reference corner.

The method's settings are the module constants below, read at call
time. Both stages share the block geometry, so `bm4d_multichannel`,
the one entry point, checks its input against the block and the PSD
dims, builds the PSD fields and takes the voxel rows once for both.

The whole stage is channel-last and computes in the dtype of its rows.
The channels (and the stage-2 pilot) are read as a (V, C) array of
voxel rows, a view of the (m, n, o, C) stack. One function,
`as_filter_dtype`, holds the dtype rule: float32, unless a sample is
too large for float32 squares. The pipeline casts the PCs with it and
drops the float64 PCs before it calls `bm4d_multichannel`; the driver
applies it again for any other caller, and uses a float32 stack as it
is. The noise variances are computed in float64 and cast per group. A
block is addressed by one flat voxel index, its corner's raveled index
plus `block_offsets`, so each group is one row take of shape
(M, P, C). Groups are transformed as (M, b0, b1, b2, C) arrays,
and the filtered blocks add into an (m, n, o, C) numerator without a
layout change; group weights go into a corner field that
`_spread_weights` turns into the per-voxel weight sums. The stage
returns its numerator as (V, C) rows: stage 2 reads them as its pilot
without a copy, and `bm4d_multichannel` casts the stage-2 rows to a
float64 (m, n, o, C) array.
"""

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core import NoisePsd, _starts
from .transforms import group_inverse, group_transform
from .variance import basis_autocorr, fold_psd, variances_from_fields, working_dims

WEIGHT_FLOOR = 1e-12
# Channels filter in float32 up to this magnitude. A group's coefficients
# reach sqrt(M * P) = 45 times its largest sample, and their float32
# squares overflow past 1.8e19; a larger sample keeps the stages float64.
FLOAT32_MAX_SAMPLE = 1e15


# the standard two-stage settings; both stages share the block geometry
BLOCK = (4, 4, 4)
SEARCH_RADIUS = (5, 5, 5)  # matching window half-width around a reference corner
STEP = 3  # reference corner stride; at most min(BLOCK), so the blocks tile
HT_THRESHOLD = 2.7  # hard-threshold multiplier of the coefficient deviation
HT_MAX_GROUP = 16  # blocks per group in stage 1
WIENER_MAX_GROUP = 32  # blocks per group in stage 2


def block_offsets(dims, block) -> np.ndarray:
    """Raveled offsets of a block's voxels from its corner, raster order."""
    return np.ravel_multi_index(np.indices(block).reshape(3, -1), dims)


def _match_from_view(guide, dims, ref_pos, max_group, offsets) -> np.ndarray:
    """Corners of the blocks most similar to the reference block.

    `guide` is the real matching volume of shape `dims`, raveled in C
    order, `offsets` its `block_offsets`, and `ref_pos` a corner whose
    block lies inside the volume. Candidates are every corner in the
    SEARCH_RADIUS window around it (clamped so blocks stay inside),
    ranked by mean squared difference with lexicographic tie-breaking;
    the reference is always first. The result length is the largest
    power of two not exceeding min(candidate count, max_group).
    """
    lows = [max(r - s, 0) for r, s in zip(ref_pos, SEARCH_RADIUS)]
    highs = [
        min(r + s, d - b) for r, s, d, b in zip(ref_pos, SEARCH_RADIUS, dims, BLOCK)
    ]
    shape = tuple(h - lo + 1 for lo, h in zip(lows, highs))
    x, y, z = (np.arange(lo, h + 1) for lo, h in zip(lows, highs))
    base = ((x[:, None, None] * dims[1] + y[:, None]) * dims[2] + z).ravel()
    candidates = guide[base[:, None] + offsets]  # (K, block voxels)

    ref_flat = np.ravel_multi_index([r - lo for r, lo in zip(ref_pos, lows)], shape)
    dist = ((candidates - candidates[ref_flat]) ** 2).mean(axis=1)
    dist[ref_flat] = -np.inf  # reference always ranks first
    order = np.argsort(dist, kind="stable")  # ties fall back to corner order

    count = min(order.size, max_group)
    count = 1 << (count.bit_length() - 1)  # Haar needs a power of two
    picked = np.stack(np.unravel_index(order[:count], shape), axis=1)
    return picked + np.asarray(lows, dtype=np.int64)


def _ht_core(coeffs, variances, lam):
    """Hard-threshold gain: keep coefficients beyond lam * sigma (a mask)."""
    keep = np.abs(coeffs) > lam * np.sqrt(variances)
    keep[0, 0, 0, 0] = True  # group DC always survives
    return keep


def wiener_shrink(pilot, variances):
    """Empirical Wiener gain pilot^2 / (pilot^2 + var) of each coefficient.

    The variances are nonnegative, so where pilot^2 + var is zero the
    gain is zero.
    """
    energy = pilot * pilot
    denom = energy + variances
    return np.divide(energy, denom, out=energy, where=denom > 0)


def _group_weight(gain, variances):
    """1 / sum(gain^2 * var) over the four group axes, one per channel:
    the inverse residual noise of the filtered group, floored to stay
    finite."""
    residual = (gain * gain * variances).sum(axis=(0, 1, 2, 3))
    return 1.0 / np.maximum(residual, WEIGHT_FLOOR)


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


def _channel_stack(channels) -> np.ndarray:
    """A real, finite (m, n, o, C) array with C >= 1, float32 or float64.

    A float32 stack is kept as it is and any other dtype is cast to
    float64; a float32 or float64 array is not copied.
    """
    if np.iscomplexobj(channels):
        raise ValueError("channels must be real")
    stacked = np.asarray(channels)
    if stacked.dtype != np.float32:
        stacked = stacked.astype(np.float64, copy=False)
    if stacked.ndim != 4 or stacked.shape[-1] == 0:
        raise ValueError("need an (m, n, o, C) array of at least one channel")
    if not np.all(np.isfinite(stacked)):
        raise ValueError("channels contain non-finite samples")
    return stacked


def as_filter_dtype(stack) -> np.ndarray:
    """`stack` in the dtype the stages filter in, its layout kept.

    Float32, unless a sample is beyond FLOAT32_MAX_SAMPLE or not
    finite, as float32 squares could overflow; then float64. No copy
    when the stack has that dtype already.
    """
    largest = max(stack.max(), -stack.min())
    dtype = np.float32 if largest <= FLOAT32_MAX_SAMPLE else np.float64
    return stack.astype(dtype, copy=False)


def _psd_fields(psd_data) -> np.ndarray:
    """The per-basis autocorrelation fields of a PSD for the block geometry."""
    work = working_dims(psd_data.shape, BLOCK, SEARCH_RADIUS)
    return basis_autocorr(fold_psd(psd_data, work), BLOCK)


def bm4d_stage(rows, dims, fields, stage: int, pilot_rows=None,
               threads: int = 1) -> np.ndarray:
    """One filtering pass over the (V, C) voxel rows of an (m, n, o) grid.

    `fields` are the `_psd_fields` of the noise PSD. Stage 1 matches on
    channel 0 of `rows` and hard-thresholds; stage 2 matches on channel
    0 of `pilot_rows` (the stage-1 output) and Wiener-filters every
    channel against its own pilot spectrum. The inputs are the ones
    `bm4d_multichannel` checked; the stage checks nothing again, and
    divides by the weight sums directly. The matching, the transforms,
    the gains, the weights and the sums run in the dtype of `rows`:
    float32 from `bm4d_multichannel`, unless a sample is beyond
    FLOAT32_MAX_SAMPLE, and float64 otherwise. Returns the filtered
    C-contiguous (V, C) rows, of that dtype.
    Identical output for any thread count: worker threads filter the
    groups, and the calling thread adds them up in corner order.
    """
    nchan = rows.shape[1]
    offsets = block_offsets(dims, BLOCK)
    guide = np.ascontiguousarray((rows if stage == 1 else pilot_rows)[:, 0])
    max_group = HT_MAX_GROUP if stage == 1 else WIENER_MAX_GROUP
    corners = itertools.product(*(_starts(d, b, STEP) for d, b in zip(dims, BLOCK)))

    def filter_group(ref):
        positions = _match_from_view(guide, dims, ref, max_group, offsets)
        var = variances_from_fields(fields, positions - positions[0], BLOCK)
        var = var.astype(rows.dtype)[..., None]  # broadcast over the channels
        idx = np.ravel_multi_index(positions.T, dims)[:, None] + offsets
        group_shape = (len(positions),) + BLOCK + (nchan,)
        coeffs = group_transform(np.take(rows, idx, axis=0).reshape(group_shape))
        if stage == 1:
            gain = _ht_core(coeffs, var, HT_THRESHOLD)
        else:
            pilot = np.take(pilot_rows, idx, axis=0).reshape(group_shape)
            gain = wiener_shrink(group_transform(pilot), var)
        weight = _group_weight(gain, var)
        coeffs *= gain
        blocks = group_inverse(coeffs)
        blocks *= weight
        return positions, blocks, weight

    num = np.zeros(dims + (nchan,), dtype=rows.dtype)
    corner_weight = np.zeros(dims + (nchan,), dtype=rows.dtype)
    # serial at one thread: a one-worker pool ran gate-colored slower (ROADMAP item 7)
    if threads <= 1:
        for ref in corners:
            _add_group(num, corner_weight, *filter_group(ref))
    else:
        # a bounded queue keeps finished groups from piling up, and the
        # corner-order sum makes the output independent of the thread count
        with ThreadPoolExecutor(max_workers=threads) as executor:
            pending = deque()
            for ref in corners:
                pending.append(executor.submit(filter_group, ref))
                if len(pending) == 2 * threads:
                    _add_group(num, corner_weight, *pending.popleft().result())
            for future in pending:
                _add_group(num, corner_weight, *future.result())

    # sums > 0: reference blocks tile, each leads its own group, group weights > 0
    num /= _spread_weights(corner_weight, BLOCK)
    return num.reshape(-1, nchan)


def bm4d_multichannel(channels, psd: NoisePsd, threads: int = 1):
    """Full two-stage filtering of a real (m, n, o, C) channel stack.

    Both stages filter in the dtype of `as_filter_dtype`, float32 for a
    stack with no sample beyond FLOAT32_MAX_SAMPLE (float32 squares
    could overflow past it) and float64 otherwise. A float32 stack, as
    the pipeline passes its PCs, is used as it is; any other is cast
    once here. The stages read the stack's (V, C) voxel rows, a view of
    a C-contiguous stack. Returns the filtered C-contiguous float64
    (m, n, o, C) array.
    """
    stacked = _channel_stack(channels)
    dims = stacked.shape[:3]
    if any(b > d for b, d in zip(BLOCK, dims)):
        raise ValueError("volume smaller than the block")
    if psd.dims != dims:
        raise ValueError("PSD dims must match the channels")
    # the fields' FFT temporaries are freed before any (V, C) row copy exists
    fields = _psd_fields(psd.data)
    rows = as_filter_dtype(stacked).reshape(-1, stacked.shape[-1])
    pilot_rows = bm4d_stage(rows, dims, fields, stage=1, threads=threads)
    out = bm4d_stage(
        rows, dims, fields, stage=2, pilot_rows=pilot_rows, threads=threads
    )
    del rows, pilot_rows  # freed before the float64 output is made
    return out.astype(np.float64, copy=False).reshape(dims + (-1,))
