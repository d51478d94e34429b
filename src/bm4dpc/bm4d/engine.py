"""Two-stage collaborative filtering over grouped blocks.

Stage 1 hard-thresholds grouped 4D spectra against their exact noise
variances; stage 2 re-runs the grouping on the stage-1 pilot and
applies empirical Wiener gains. Multiple channels (principal
components) ride along the same matched positions, so matching happens
once per reference corner.

The whole stage is channel-last. The channels (and the stage-2
pilot) are read as a (V, C) array of voxel rows, which is a view when
the stack is voxel-major, as the PCA and both stages produce it, and a
copy otherwise. A block is addressed by one flat voxel index, its
corner's raveled index plus `block_offsets`, so each group is one row
take of shape (M, P, C). Groups are transformed as (M, b0, b1, b2, C)
arrays, and the filtered blocks add into an (m, n, o, C) numerator
without a layout change; group weights go into a corner field that
`_spread_weights` turns into the per-voxel weight sums. The stage
returns its numerator as a voxel-major (C, m, n, o) view, so stage 2
and the inverse PCA read it without a copy.
"""

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core import NoisePsd, _starts
from .transforms import group_inverse, group_transform
from .variance import basis_autocorr, fold_psd, variances_from_fields, working_dims

WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class StageParams:
    """Geometry and strength parameters for one filtering stage."""

    block: tuple = (4, 4, 4)
    max_group: int = 16
    search_radius: tuple = (5, 5, 5)
    step: int = 3
    threshold: float = 2.7  # hard-threshold multiplier; unused by Wiener

    def __post_init__(self):
        if len(self.block) != 3 or any(int(e) != e or e < 2 for e in self.block):
            raise ValueError("block edges must be integers >= 2")
        if len(self.search_radius) != 3 or any(r < 1 for r in self.search_radius):
            raise ValueError("search radii must be positive")
        if self.max_group < 1:
            raise ValueError("max_group must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.step > min(self.block):  # reference blocks must tile the volume
            raise ValueError("step must not exceed the smallest block edge")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")


# the standard two-stage settings; both stages share the block geometry
HT_PARAMS = StageParams(max_group=16)
WIENER_PARAMS = StageParams(max_group=32)


def block_offsets(dims, block) -> np.ndarray:
    """Raveled offsets of a block's voxels from its corner, raster order."""
    return np.ravel_multi_index(np.indices(block).reshape(3, -1), dims)


def _match_from_view(guide, dims, ref_pos, params: StageParams,
                     offsets) -> np.ndarray:
    """Corners of the blocks most similar to the reference block.

    `guide` is the real matching volume of shape `dims`, raveled in C
    order, `offsets` its `block_offsets`, and `ref_pos` a corner whose
    block lies inside the volume. Candidates are every corner in the
    search window around it (clamped so blocks stay inside), ranked by
    mean squared difference with lexicographic tie-breaking; the
    reference is always first. The result length is the largest power
    of two not exceeding min(candidate count, max group size).
    """
    lows = [max(r - s, 0) for r, s in zip(ref_pos, params.search_radius)]
    highs = [
        min(r + s, d - b)
        for r, s, d, b in zip(ref_pos, params.search_radius, dims, params.block)
    ]
    shape = tuple(h - lo + 1 for lo, h in zip(lows, highs))
    x, y, z = (np.arange(lo, h + 1) for lo, h in zip(lows, highs))
    base = ((x[:, None, None] * dims[1] + y[:, None]) * dims[2] + z).ravel()
    candidates = guide[base[:, None] + offsets]  # (K, block voxels)

    ref_flat = np.ravel_multi_index([r - lo for r, lo in zip(ref_pos, lows)], shape)
    dist = ((candidates - candidates[ref_flat]) ** 2).mean(axis=1)
    dist[ref_flat] = -np.inf  # reference always ranks first
    order = np.argsort(dist, kind="stable")  # ties fall back to corner order

    count = min(order.size, params.max_group)
    count = 1 << (count.bit_length() - 1)  # Haar needs a power of two
    picked = np.stack(np.unravel_index(order[:count], shape), axis=1)
    return picked + np.asarray(lows, dtype=np.int64)


def _ht_core(coeffs, variances, lam):
    """Zero coefficients within lam * sigma; returns (shrunk, kept mask)."""
    keep = np.abs(coeffs) > lam * np.sqrt(variances)
    keep[0, 0, 0, 0] = True  # group DC always survives
    return np.where(keep, coeffs, 0.0), keep


def wiener_shrink(noisy: np.ndarray, pilot: np.ndarray, variances: np.ndarray):
    """Empirical Wiener gains from pilot energies.

    gain = pilot^2 / (pilot^2 + var), applied to the noisy
    coefficients of an (M, b0, b1, b2, ...) group; the returned weight
    is 1 / sum(gain^2 * var) over the four group axes, floored to stay
    finite, one weight per trailing channel. The variances are
    nonnegative, so where pilot^2 + var is zero the gain is zero.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    pilot = np.asarray(pilot, dtype=np.float64)
    var = np.asarray(variances, dtype=np.float64)
    energy = pilot * pilot
    denom = energy + var
    gain = np.divide(energy, denom, out=energy, where=denom > 0)
    shrunk = gain * noisy
    gain *= gain
    gain *= var
    weight = 1.0 / np.maximum(gain.sum(axis=(0, 1, 2, 3)), WEIGHT_FLOOR)
    return shrunk, weight


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
    """A real, finite (C, m, n, o) array with C >= 1, as float64.

    The memory layout is kept as given (no copy of a float64 array), so
    a voxel-major stack stays voxel-major.
    """
    if np.iscomplexobj(channels):
        raise ValueError("channels must be real")
    stacked = np.asarray(channels, dtype=np.float64)
    if stacked.ndim != 4 or len(stacked) == 0:
        raise ValueError("need a (C, m, n, o) array of at least one channel")
    if not np.all(np.isfinite(stacked)):
        raise ValueError("channels contain non-finite samples")
    return stacked


def _voxel_rows(stacked) -> np.ndarray:
    """The C-contiguous (V, C) rows of a (C, m, n, o) stack, one per voxel.

    A view of a voxel-major stack; any other layout is copied.
    """
    return np.ascontiguousarray(stacked.reshape(len(stacked), -1).T)


def bm4d_stage(
    channels,
    psd: NoisePsd,
    params: StageParams,
    stage: int,
    pilot_channels=None,
    threads: int = 1,
) -> np.ndarray:
    """One filtering pass over a real (C, m, n, o) channel stack.

    `params` are the settings of this stage (`HT_PARAMS` or
    `WIENER_PARAMS` in the standard method). Stage 1 matches on
    channel 0 of the noisy data and hard-thresholds; stage 2 matches on
    channel 0 of `pilot_channels` (the stage-1 output, same shape) and
    Wiener-filters every channel against its own pilot spectrum. Any
    memory layout is accepted; voxel-major stacks are read without a
    copy. Returns the filtered (C, m, n, o) array as a voxel-major view
    of a C-contiguous (m, n, o, C) array.
    Identical output for any thread count: worker threads filter the
    groups, and the calling thread adds them up in corner order.
    """
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    stacked = _channel_stack(channels)
    nchan, dims = stacked.shape[0], stacked.shape[1:]
    if any(b > d for b, d in zip(params.block, dims)):
        raise ValueError("volume smaller than the block")
    if psd.dims != dims:
        raise ValueError("PSD dims must match the channels")
    if stage == 2:
        if pilot_channels is None:
            raise ValueError("stage 2 needs a pilot")
        pilot = _channel_stack(pilot_channels)
        if pilot.shape != stacked.shape:
            raise ValueError("pilot shape must match the channels")
    elif pilot_channels is not None:
        raise ValueError("stage 1 takes no pilot")

    block = params.block
    work = working_dims(dims, block, params.search_radius)
    # the fields' FFT temporaries are freed before any (V, C) row copy exists
    fields = basis_autocorr(fold_psd(psd.data, work), block)
    offsets = block_offsets(dims, block)
    guide = (stacked if stage == 1 else pilot)[0].ravel()
    rows = _voxel_rows(stacked)
    pilot_rows = _voxel_rows(pilot) if stage == 2 else None
    corners = itertools.product(*(
        _starts(d, b, params.step) for d, b in zip(dims, block)
    ))

    def filter_group(ref):
        positions = _match_from_view(guide, dims, ref, params, offsets)
        var = variances_from_fields(fields, positions - positions[0], block)
        var = var[..., None]  # broadcast over the channels
        idx = np.ravel_multi_index(positions.T, dims)[:, None] + offsets
        group_shape = (len(positions),) + block + (nchan,)
        coeffs = group_transform(np.take(rows, idx, axis=0).reshape(group_shape))
        if stage == 1:
            shrunk, keep = _ht_core(coeffs, var, params.threshold)
            weight = 1.0 / np.maximum(
                (keep * var).sum(axis=(0, 1, 2, 3)), WEIGHT_FLOOR
            )
        else:
            pilot_coeffs = group_transform(
                np.take(pilot_rows, idx, axis=0).reshape(group_shape)
            )
            shrunk, weight = wiener_shrink(coeffs, pilot_coeffs, var)
        blocks = group_inverse(shrunk)
        blocks *= weight
        return positions, blocks, weight

    num = np.zeros(dims + (nchan,))
    corner_weight = np.zeros(dims + (nchan,))
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

    den = _spread_weights(corner_weight, block)
    if not np.all(den > 0):
        raise AssertionError("aggregation left uncovered voxels")
    num /= den
    return np.moveaxis(num, -1, 0)


def bm4d_multichannel(channels, psd: NoisePsd, threads: int = 1):
    """Full two-stage filtering of a real (C, m, n, o) channel stack."""
    pilots = bm4d_stage(channels, psd, HT_PARAMS, stage=1, threads=threads)
    return bm4d_stage(
        channels, psd, WIENER_PARAMS, stage=2, pilot_channels=pilots,
        threads=threads,
    )
