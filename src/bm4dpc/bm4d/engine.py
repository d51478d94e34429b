"""Two-stage collaborative filtering over grouped blocks.

Stage 1 hard-thresholds grouped 4D spectra against their exact noise
variances; stage 2 re-runs the grouping on the stage-1 pilot and
applies empirical Wiener gains. Multiple channels (principal
components) ride along the same matched positions, so matching happens
once per reference corner.
"""

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core import NoisePsd, _starts
from .profile import Bm4dProfile, StageParams
from .transforms import group_inverse, group_transform
from .variance import basis_autocorr, fold_psd, variances_from_fields, working_dims

WEIGHT_FLOOR = 1e-12


def _match_from_view(view, dims, ref_pos, params: StageParams) -> np.ndarray:
    """Corners of the blocks most similar to the reference block.

    `view` is the sliding block view of the real matching guide and
    `ref_pos` a corner whose block lies inside the volume. Candidates
    are every corner in the search window around it (clamped so blocks
    stay inside), ranked by mean squared difference with lexicographic
    tie-breaking; the reference is always first. The result length is
    the largest power of two not exceeding min(candidate count, max
    group size).
    """
    block = params.block
    lows = [max(r - s, 0) for r, s in zip(ref_pos, params.search_radius)]
    highs = [
        min(r + s, d - b)
        for r, s, d, b in zip(ref_pos, params.search_radius, dims, block)
    ]
    sub = view[lows[0]:highs[0] + 1, lows[1]:highs[1] + 1, lows[2]:highs[2] + 1]
    ref_block = view[tuple(ref_pos)]
    dist = ((sub - ref_block) ** 2).mean(axis=(-3, -2, -1)).ravel()

    ref_flat = np.ravel_multi_index(
        [r - lo for r, lo in zip(ref_pos, lows)], sub.shape[:3]
    )
    dist[ref_flat] = -np.inf  # reference always ranks first
    order = np.argsort(dist, kind="stable")  # ties fall back to corner order

    count = min(order.size, params.max_group)
    count = 1 << (count.bit_length() - 1)  # Haar needs a power of two
    picked = np.stack(np.unravel_index(order[:count], sub.shape[:3]), axis=1)
    return picked + np.asarray(lows, dtype=np.int64)


def _ht_core(coeffs, variances, lam):
    """Zero coefficients within lam * sigma; returns (shrunk, kept mask)."""
    keep = np.abs(coeffs) > lam * np.sqrt(variances)
    keep[..., 0, 0, 0, 0] = True  # group DC always survives
    return np.where(keep, coeffs, 0.0), keep


def wiener_shrink(noisy: np.ndarray, pilot: np.ndarray, variances: np.ndarray):
    """Empirical Wiener gains from pilot energies.

    gain = pilot^2 / (pilot^2 + var), applied to the noisy
    coefficients; the returned weight is 1 / sum(gain^2 * var), floored
    to stay finite, one weight per leading channel.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    pilot = np.asarray(pilot, dtype=np.float64)
    var = np.asarray(variances, dtype=np.float64)
    energy = pilot * pilot
    denom = energy + var
    gain = np.where(denom > 0, energy / np.where(denom > 0, denom, 1.0), 0.0)
    shrunk = gain * noisy
    axes = tuple(range(shrunk.ndim - 4, shrunk.ndim))
    weight = 1.0 / np.maximum((gain * gain * var).sum(axis=axes), WEIGHT_FLOOR)
    return shrunk, weight


def accumulate_blocks(num, den, positions, blocks, weight) -> None:
    """Add weighted blocks into running numerator and weight sums.

    `num` and `den` are (C, m, n, o); `blocks` is (C, M, b0, b1, b2)
    with corners `positions` (M, 3); `weight` has one entry per
    channel. The aggregate estimate is num / den once every group has
    been added.
    """
    edges = blocks.shape[-3:]
    wcol = weight[:, None, None, None]
    for j, pos in enumerate(positions):
        sl = (slice(None),) + tuple(slice(p, p + e) for p, e in zip(pos, edges))
        num[sl] += wcol * blocks[:, j]
        den[sl] += wcol


def _channel_stack(channels) -> np.ndarray:
    """A real, finite (C, m, n, o) array with C >= 1, as float64."""
    if np.iscomplexobj(channels):
        raise ValueError("channels must be real")
    stacked = np.ascontiguousarray(channels, dtype=np.float64)
    if stacked.ndim != 4 or len(stacked) == 0:
        raise ValueError("need a (C, m, n, o) array of at least one channel")
    if not np.all(np.isfinite(stacked)):
        raise ValueError("channels contain non-finite samples")
    return stacked


def _stage_params(profile: Bm4dProfile, stage: int) -> StageParams:
    if stage == 1:
        return profile.ht
    if stage == 2:
        return profile.wiener
    raise ValueError("stage must be 1 or 2")


def bm4d_stage(
    channels,
    psd: NoisePsd,
    profile: Bm4dProfile,
    stage: int,
    pilot_channels=None,
    threads: int = 1,
) -> np.ndarray:
    """One filtering pass over a real (C, m, n, o) channel stack.

    Stage 1 matches on channel 0 of the noisy data and hard-thresholds;
    stage 2 matches on channel 0 of `pilot_channels` (the stage-1
    output, same shape) and Wiener-filters every channel against its
    own pilot spectrum. Returns the filtered (C, m, n, o) array.
    Identical output for any thread count: worker threads filter the
    groups, and the calling thread adds them up in corner order.
    """
    params = _stage_params(profile, stage)
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
    window = np.lib.stride_tricks.sliding_window_view  # no copy
    view = window(stacked, block, axis=(1, 2, 3))
    pilot_view = window(pilot, block, axis=(1, 2, 3)) if stage == 2 else None
    guide_view = (view if stage == 1 else pilot_view)[0]

    work = working_dims(dims, block, params.search_radius)
    fields = basis_autocorr(fold_psd(psd.data, work), block)
    corners = itertools.product(*(
        _starts(d, b, params.step) for d, b in zip(dims, block)
    ))

    def filter_group(ref):
        positions = _match_from_view(guide_view, dims, ref, params)
        var = variances_from_fields(fields, positions - positions[0], block)
        px, py, pz = positions[:, 0], positions[:, 1], positions[:, 2]
        group = view[:, px, py, pz]  # (C, M, b0, b1, b2)
        coeffs = group_transform(group)
        if stage == 1:
            shrunk, keep = _ht_core(coeffs, var, params.threshold)
            weight = 1.0 / np.maximum(
                (keep * var).sum(axis=(1, 2, 3, 4)), WEIGHT_FLOOR
            )
        else:
            pilot_group = pilot_view[:, px, py, pz]
            shrunk, weight = wiener_shrink(
                coeffs, group_transform(pilot_group), var
            )
        return positions, group_inverse(shrunk), weight

    num = np.zeros((nchan,) + dims)
    den = np.zeros((nchan,) + dims)
    if threads <= 1:
        for ref in corners:
            accumulate_blocks(num, den, *filter_group(ref))
    else:
        # a bounded queue keeps finished groups from piling up, and the
        # corner-order sum makes the output independent of the thread count
        with ThreadPoolExecutor(max_workers=threads) as executor:
            pending = deque()
            for ref in corners:
                pending.append(executor.submit(filter_group, ref))
                if len(pending) == 2 * threads:
                    accumulate_blocks(num, den, *pending.popleft().result())
            for future in pending:
                accumulate_blocks(num, den, *future.result())

    if not np.all(den > 0):
        raise AssertionError("aggregation left uncovered voxels")
    num /= den
    return num


def bm4d_multichannel(channels, psd: NoisePsd, profile: Bm4dProfile = None,
                      threads: int = 1):
    """Full two-stage filtering of a real (C, m, n, o) channel stack."""
    if profile is None:
        profile = Bm4dProfile()
    pilots = bm4d_stage(channels, psd, profile, stage=1, threads=threads)
    return bm4d_stage(
        channels, psd, profile, stage=2, pilot_channels=pilots, threads=threads
    )
