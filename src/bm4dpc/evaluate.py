"""Quality metrics, a DTI fit, and the random-matrix baseline denoiser.

PSNR and SSIM are reported per shell against a noise-free reference;
FA and MD from a weighted least-squares tensor fit of the shells up to
DTI_MAX_BVAL support derived-map error comparisons; mppca_denoise
provides the patchwise PCA baseline, a `gpca` round trip per patch with
its noise tail zeroed. Shells are those of `dataio.group_shells`.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from .core import SHELL_TOLERANCE, DwiDataset, Volume3, _correlate, _gaussian_taps, _starts
from .dataio import group_shells
from .gpca import forward_pca, inverse_pca

SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 7
SSIM_SIGMA = 1.5
DTI_MAX_BVAL = 1000.0  # the tensor fit uses the shells up to this b
MPPCA_KERNEL = 5  # smallest edge of the baseline's cubic patches
MPPCA_STEP = 3    # stride between the baseline's patch corners
_SSIM_TAPS = _gaussian_taps(SSIM_SIGMA, SSIM_WINDOW // 2)


def _data(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x
    return np.asarray(getattr(x, "data", x))


def _finite(what: str, samples: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{what} contains non-finite samples")
    return samples


def _real_pair(gt, test):
    """The two volumes' arrays as float64, so integer samples do not
    wrap, checked to share dims, to be real and to be finite."""
    a, b = _data(gt), _data(test)
    if a.shape != b.shape:
        raise ValueError("dims mismatch")
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise ValueError("metrics expect real volumes; phase-stabilize first")
    return (_finite("gt", a.astype(np.float64, copy=False)),
            _finite("test", b.astype(np.float64, copy=False)))


def psnr(gt: Volume3, test: Volume3) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the volumes agree.

    Peak = max |reference|; mean squared error over all voxels. Both
    volumes must be real and finite.
    """
    a, b = _real_pair(gt, test)
    peak = float(np.abs(a).max())
    if peak == 0:
        raise ValueError("reference volume is all zero")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _ssim_window_filter(x: np.ndarray) -> np.ndarray:
    """The SSIM window's weighted mean at every voxel, edges padded
    with the edge sample."""
    return _correlate(x, _SSIM_TAPS, True, range(x.ndim))


def ssim(gt: Volume3, test: Volume3) -> float:
    """Mean structural similarity over valid 7x7x7 window centers.

    Gaussian weighting (sigma 1.5), uncorrected local moments, dynamic
    range from the reference. Borders within half a window of the edge
    are excluded from the mean. Both volumes must be real and finite.
    """
    a, b = _real_pair(gt, test)
    pad = SSIM_WINDOW // 2
    if any(d <= 2 * pad for d in a.shape):
        raise ValueError("volume too small for the SSIM window")
    data_range = float(a.max() - a.min())
    if data_range == 0:
        raise ValueError("reference has zero dynamic range")

    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    mu_a = _ssim_window_filter(a)
    mu_b = _ssim_window_filter(b)
    var_a = _ssim_window_filter(a * a) - mu_a * mu_a
    var_b = _ssim_window_filter(b * b) - mu_b * mu_b
    cov = _ssim_window_filter(a * b) - mu_a * mu_b

    smap = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    core = smap[pad:-pad, pad:-pad, pad:-pad]
    return float(core.mean())


def rmse_map(gt_map, test_map, mask) -> float:
    """Root mean squared difference over the masked voxels, which must
    be finite in both maps."""
    a, b = _data(gt_map), _data(test_map)
    m = _data(mask).astype(bool)
    if a.shape != b.shape or a.shape != m.shape:
        raise ValueError("dims mismatch")
    if not m.any():
        raise ValueError("empty mask")
    diff = np.subtract(_finite("gt_map", a[m]), _finite("test_map", b[m]),
                       dtype=np.float64)
    return float(np.sqrt(np.mean(diff * diff)))


def fit_dti(dataset: DwiDataset, mask):
    """Weighted least-squares diffusion tensor fit (low-b subset).

    Uses the volumes of every `group_shells` shell whose center is at
    most DTI_MAX_BVAL + SHELL_TOLERANCE, so a b=1000 shell written as
    995 or 1005 is fitted whole. Per masked voxel the log-signal
    model ln S = ln S0 - b g^T D g is solved with weights S^2, the
    tensor eigenvalues are clipped at zero, and FA and MD follow from
    them. Masked voxels with nonpositive signals yield zeros. Complex
    data raises ValueError: phase-stabilize it first. A design
    that is numerically singular (condition number of the column-scaled
    design above 1/sqrt(eps)) raises ValueError.

    Returns
    -------
    (fa, md) : pair of Volume3
    """
    if dataset.bvecs is None:
        raise ValueError("tensor fit needs b-vectors")
    if dataset.is_complex:
        raise ValueError("tensor fit expects real (phase-stabilized) data")
    mask = _data(mask).astype(bool)
    if mask.shape != dataset.dims:
        raise ValueError("mask dims mismatch")
    shells = group_shells(dataset.bvals)
    sel = sorted(i for center, members in zip(shells.centers, shells.members)
                 if center <= DTI_MAX_BVAL + SHELL_TOLERANCE for i in members)
    if len(sel) < 7:
        raise ValueError("need at least 7 low-b volumes")

    bvals = dataset.bvals[sel]
    bvecs = dataset.bvecs[sel]
    gx, gy, gz = bvecs[:, 0], bvecs[:, 1], bvecs[:, 2]
    design = np.stack([
        np.ones_like(bvals),
        -bvals * gx * gx,
        -bvals * gy * gy,
        -bvals * gz * gz,
        -2.0 * bvals * gx * gy,
        -2.0 * bvals * gx * gz,
        -2.0 * bvals * gy * gz,
    ], axis=1)
    # scale-free test: unit-norm columns, so the unit of b does not matter;
    # past 1/sqrt(eps) the weighted normal equations keep no correct digit
    norms = np.linalg.norm(design, axis=0)
    sv = np.linalg.svd(design / np.where(norms > 0, norms, 1.0), compute_uv=False)
    if sv[-1] <= sv[0] * np.sqrt(np.finfo(np.float64).eps):
        raise ValueError(
            "rank-deficient design (need 6 well-spread, non-collinear directions)"
        )

    signals = dataset.data[sel][:, mask].T.copy()  # (voxels, volumes)
    usable = signals.min(axis=1) > 0
    fa_flat = np.zeros(signals.shape[0])
    md_flat = np.zeros(signals.shape[0])
    if usable.any():
        s = signals[usable]
        w = s * s
        y = np.log(s)
        lhs = np.einsum("vi,nv,vj->nij", design, w, design)
        rhs = np.einsum("vi,nv,nv->ni", design, w, y)
        beta = np.linalg.solve(lhs, rhs[..., None])[..., 0]  # (n, 7)

        tensors = beta[:, [[1, 4, 5], [4, 2, 6], [5, 6, 3]]]  # symmetric (n, 3, 3)
        evals = np.clip(np.linalg.eigvalsh(tensors), 0.0, None)

        md = evals.mean(axis=1)
        norm2 = (evals * evals).sum(axis=1)
        dev2 = ((evals - md[:, None]) ** 2).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            fa = np.sqrt(1.5 * dev2 / norm2)
        fa[norm2 == 0] = 0.0
        fa_flat[usable] = fa
        md_flat[usable] = md

    fa_map = np.zeros(dataset.dims)
    md_map = np.zeros(dataset.dims)
    fa_map[mask] = fa_flat
    md_map[mask] = md_flat
    return Volume3(fa_map), Volume3(md_map)


def mppca_denoise(dataset: DwiDataset) -> DwiDataset:
    """Patchwise PCA denoising with an automatic eigenvalue cutoff.

    The patch edge is MPPCA_KERNEL, grown by 2 until edge^3 >= N. Each
    cubic patch, corners MPPCA_STEP apart, is centered and decomposed by
    `gpca.forward_pca`; the PCs from the first one whose eigenvalue spread
    fits pure noise (Marchenko-Pastur) on are zeroed and `gpca.inverse_pca`
    rebuilds the patch. Overlapping patch estimates are averaged. Complex
    data (phase-stabilize it first) and volumes smaller than the patch
    raise ValueError.
    """
    if dataset.is_complex:
        raise ValueError("MPPCA expects real (phase-stabilized) data")
    n = dataset.n_volumes
    edge = MPPCA_KERNEL
    while edge**3 < n:
        edge += 2
    dims = dataset.dims
    if any(d < edge for d in dims):
        raise ValueError("volume smaller than the patch")

    # the noise tail starts at the first PC p with evals[p] - evals[-1] <
    # 4 sqrt((N - p) / edge^3) mean(evals[p:]); scale-free, so Gram eigenvalues serve
    tail_counts = np.arange(n, 0, -1)
    spread_scale = 4.0 * np.sqrt(tail_counts / edge**3) / tail_counts
    num = np.zeros(dataset.data.shape)
    den = np.zeros(dims)
    corners = itertools.product(*(_starts(d, edge, MPPCA_STEP) for d in dims))
    for corner in corners:
        sl = (slice(None),) + tuple(slice(c, c + edge) for c in corner)
        patch = dataset.data[sl]
        means = patch.mean(axis=(1, 2, 3), keepdims=True)
        pcs, basis, evals = forward_pca(patch - means)
        noise = evals - evals[-1] < spread_scale * np.cumsum(evals[::-1])[::-1]
        if noise.any():  # zero the noise tail
            pcs[..., np.argmax(noise):] = 0.0
            patch = inverse_pca(pcs, basis) + means
        num[sl] += patch
        den[sl[1:]] += 1.0
    return replace(dataset, data=num / den)


def report_metrics(gt: DwiDataset, test: DwiDataset) -> dict:
    """Shell-wise PSNR/SSIM of `test` against `gt`, ready for JSON.

    Returns {"shells": {"<b>": {"psnr_db", "ssim", "volumes"}}}, one
    entry per shell in ascending b, keyed by the shell center in %g
    form, with the means over the shell's volumes. An infinite PSNR
    (identical data) is None, so the dict serializes as strict JSON.
    SSIM is at most 1 by construction, but rounding can lift a
    near-identical pair to 1 plus one ulp, which is reported as it is.
    FA and MD errors come from fit_dti and rmse_map.
    """
    if gt.data.shape != test.data.shape:
        raise ValueError("datasets must share volume count and dims")
    if not np.array_equal(gt.bvals, test.bvals):
        raise ValueError("datasets must share b-values")

    shells = group_shells(gt.bvals)
    report = {}
    for center, members in zip(shells.centers, shells.members):
        mean_psnr = float(np.mean([psnr(gt.data[i], test.data[i]) for i in members]))
        mean_ssim = float(np.mean([ssim(gt.data[i], test.data[i]) for i in members]))
        report[f"{center:g}"] = {
            "psnr_db": mean_psnr if math.isfinite(mean_psnr) else None,
            "ssim": mean_ssim,
            "volumes": len(members),
        }
    return {"shells": report}
