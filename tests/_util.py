"""Shared helpers for the test suite: small oracles and metric shortcuts."""

import numpy as np

from bm4dpc import group_shells, psnr
from bm4dpc.bm4d import engine
from bm4dpc.bm4d.variance import variances_from_fields


def shell_mean_psnr(gt_dataset, test_dataset, center, tol=50.0):
    """Mean PSNR over the volumes of one b-value shell."""
    shells = group_shells(gt_dataset.bvals, tol)
    for c, members in zip(shells.centers, shells.members):
        if abs(c - center) <= tol:
            vals = [psnr(gt_dataset.data[i], test_dataset.data[i]) for i in members]
            return float(np.mean(vals))
    raise ValueError(f"no shell near b={center}")


def run_stage(channels, psd, stage, pilot=None, threads=1):
    """One engine stage on an (m, n, o, C) stack, filtered in float64,
    given the PSD lag table that `bm4d_multichannel` builds.

    Returns the filtered (m, n, o, C) stack.
    """
    return engine.bm4d_stage(
        np.asarray(channels, dtype=np.float64),
        engine.basis_autocorr(psd.data, engine.BLOCK, engine.SEARCH_RADIUS),
        stage=stage, pilot=pilot, threads=threads,
    )


def group_variances(psd, positions):
    """Exact (M, b0, b1, b2) noise variances of one group's coefficients,
    by the engine's two calls: the PSD lag table a run builds once, then
    the variances at the members' offsets from the reference (first)
    corner that every stage group reads.
    """
    positions = np.asarray(positions)
    table = engine.basis_autocorr(psd.data, engine.BLOCK, engine.SEARCH_RADIUS)
    return variances_from_fields(table, positions - positions[0], engine.BLOCK)


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.corrcoef(a, b)[0, 1])


def radial_profile(psd_data):
    """In-plane radially averaged PSD profile over wrapped frequencies.

    Returns (radii, means) where radius is the rounded magnitude of the
    wrapped in-plane frequency index. The through-slice axis is
    averaged out first (the PSDs used here are constant along it).
    """
    plane = np.asarray(psd_data, dtype=np.float64).mean(axis=2)
    m, n = plane.shape
    fx = np.minimum(np.arange(m), m - np.arange(m))[:, None]
    fy = np.minimum(np.arange(n), n - np.arange(n))[None, :]
    r = np.rint(np.hypot(fx, fy)).astype(int)
    radii = np.unique(r)
    means = np.array([plane[r == k].mean() for k in radii])
    return radii, means


def rel_rmse(est, truth, mask) -> float:
    """RMSE of est vs truth over mask, relative to the RMS of truth."""
    est = np.asarray(est, dtype=np.float64)[mask]
    truth = np.asarray(truth, dtype=np.float64)[mask]
    return float(
        np.sqrt(np.mean((est - truth) ** 2)) / np.sqrt(np.mean(truth**2))
    )


def synth_colored(rng, dims, psd_data):
    """Draw one real correlated-noise field with the given PSD.

    White unit-variance noise is shaped in the frequency domain by
    sqrt(psi); for a symmetric PSD the result is exactly a circular
    convolution of the white field with a real kernel of that PSD.
    """
    white = rng.standard_normal(dims)
    shaped = np.fft.fftn(white) * np.sqrt(np.asarray(psd_data))
    return np.fft.ifftn(shaped).real


def synth_colored_batch(rng, count, dims, psd_data, chunk=1000):
    """Yield batches of correlated draws, shaped (batch, *dims)."""
    root = np.sqrt(np.asarray(psd_data))
    done = 0
    while done < count:
        size = min(chunk, count - done)
        white = rng.standard_normal((size,) + tuple(dims))
        shaped = np.fft.fftn(white, axes=(1, 2, 3)) * root
        yield np.fft.ifftn(shaped, axes=(1, 2, 3)).real
        done += size
