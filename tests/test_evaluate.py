"""Metrics, tensor fitting and the patchwise PCA baseline."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bm4dpc import evaluate
from bm4dpc.core import DwiDataset, Volume3
from bm4dpc.evaluate import (
    fit_dti,
    mppca_denoise,
    psnr,
    report_metrics,
    rmse_map,
    ssim,
)
from bm4dpc.phasestab import stabilize_phase
from bm4dpc.simulate import PhantomSpec, fibonacci_directions, make_phantom

from _util import shell_mean_psnr


def _reference_ssim(a, b, data_range):
    """Direct-definition SSIM: explicit radius-3 Gaussian window
    (sigma 1.5), edge padding, uncorrected moments, border cropped."""
    radius = 3
    k = np.arange(-radius, radius + 1)
    g = np.exp(-0.5 * (k / 1.5) ** 2)
    g = g / g.sum()
    kernel = g[:, None, None] * g[None, :, None] * g[None, None, :]

    def filt(x):
        padded = np.pad(x, radius, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)
        return np.tensordot(windows, kernel, axes=3)

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_a, mu_b = filt(a), filt(b)
    var_a = filt(a * a) - mu_a * mu_a
    var_b = filt(b * b) - mu_b * mu_b
    cov = filt(a * b) - mu_a * mu_b
    smap = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(smap[radius:-radius, radius:-radius, radius:-radius].mean())


def _tensor_dataset(tensors, s0, bvals, bvecs):
    """Noise-free diffusion dataset from a tensor field via the
    monoexponential forward model."""
    vols = []
    for b, g in zip(bvals, bvecs):
        expo = np.einsum("...ij,i,j->...", tensors, g, g)
        vols.append(s0 * np.exp(-b * expo))
    return DwiDataset(np.stack(vols), np.asarray(bvals, float), np.asarray(bvecs, float))


def _protocol(n_dwi, bval=1000.0, seed=3):
    bvals = np.array([0.0, 0.0] + [bval] * n_dwi)
    bvecs = np.vstack([np.zeros((2, 3)), fibonacci_directions(n_dwi, seed=seed)])
    return bvals, bvecs


def _random_spd_field(rng, dims):
    a = rng.standard_normal(dims + (3, 3))
    return 1e-4 * (a @ a.swapaxes(-1, -2) + 3.0 * np.eye(3))


class TestPsnr:
    def test_identical_is_infinite(self):
        v = Volume3(np.linspace(0, 1, 60).reshape(3, 4, 5))
        assert psnr(v, v) == math.inf

    def test_known_value(self):
        gt = Volume3(np.ones((4, 4, 4)))
        test = Volume3(np.full((4, 4, 4), 1.1))
        assert psnr(gt, test) == pytest.approx(20.0, abs=1e-10)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        gt = Volume3(rng.standard_normal((6, 6, 6)))
        test = Volume3(gt.data + 0.3 * rng.standard_normal((6, 6, 6)))
        peak = np.abs(gt.data).max()
        mse = np.mean((gt.data - test.data) ** 2)
        expected = 10.0 * np.log10(peak**2 / mse)
        assert psnr(gt, test) == pytest.approx(expected, abs=1e-10)

    def test_decreases_with_noise(self):
        rng = np.random.default_rng(1)
        gt = Volume3(rng.standard_normal((6, 6, 6)))
        jitter = rng.standard_normal((6, 6, 6))
        a = psnr(gt, Volume3(gt.data + 0.1 * jitter))
        b = psnr(gt, Volume3(gt.data + 0.5 * jitter))
        assert a > b

    def test_validation(self):
        with pytest.raises(ValueError, match="dims mismatch"):
            psnr(Volume3(np.ones((4, 4, 4))), Volume3(np.ones((4, 4, 5))))
        with pytest.raises(ValueError, match="all zero"):
            psnr(Volume3(np.zeros((4, 4, 4))), Volume3(np.ones((4, 4, 4))))
        real = Volume3(np.ones((4, 4, 4)))
        phased = Volume3(np.full((4, 4, 4), 1j))
        for gt, test in ((real, phased), (phased, real), (phased, phased)):
            with pytest.raises(ValueError, match="real volumes"):
                psnr(gt, test)
        for bad in (np.nan, np.inf):
            sample = np.ones((8, 8, 8))
            sample[1, 2, 3] = bad
            with pytest.raises(ValueError, match="gt contains non-finite"):
                psnr(sample, np.ones((8, 8, 8)))
            with pytest.raises(ValueError, match="test contains non-finite"):
                psnr(np.ones((8, 8, 8)), sample)


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        v = Volume3(rng.standard_normal((10, 10, 10)))
        assert ssim(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 10, 9))
        b = a + 0.4 * rng.standard_normal((12, 10, 9))
        data_range = float(a.max() - a.min())
        got = ssim(Volume3(a), Volume3(b))
        expected = _reference_ssim(a, b, data_range)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_noise_lowers_similarity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 10, 10))
        b = a + rng.standard_normal((10, 10, 10))
        assert ssim(Volume3(a), Volume3(b)) < 0.9

    def test_validation(self, monkeypatch):
        flat = Volume3(np.ones((10, 10, 10)))
        with pytest.raises(ValueError, match="zero dynamic range"):
            ssim(flat, flat)
        with pytest.raises(ValueError, match="dims mismatch"):
            ssim(Volume3(np.ones((10, 10, 10))), Volume3(np.ones((10, 10, 9))))
        with pytest.raises(ValueError, match="real volumes"):
            ssim(
                Volume3(np.ones((10, 10, 10), dtype=np.complex128)),
                Volume3(np.ones((10, 10, 10), dtype=np.complex128)),
            )

        def unreachable(x):
            raise AssertionError("window filter ran")

        # refused before the five window filters run
        monkeypatch.setattr(evaluate, "_ssim_window_filter", unreachable)
        small = Volume3(np.linspace(0, 1, 6 * 10 * 10).reshape(6, 10, 10))
        with pytest.raises(ValueError, match="too small"):
            ssim(small, small)
        ramp = np.linspace(0, 1, 1000).reshape(10, 10, 10)
        for bad in (np.nan, np.inf):
            sample = ramp.copy()
            sample[4, 5, 6] = bad
            with pytest.raises(ValueError, match="gt contains non-finite"):
                ssim(sample, ramp)
            with pytest.raises(ValueError, match="test contains non-finite"):
                ssim(ramp, sample)


class TestRmseMap:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5, 5))
        mask = np.ones((5, 5, 5), bool)
        assert rmse_map(a, a.copy(), mask) == 0.0

    def test_constant_offset(self):
        a = np.zeros((5, 5, 5))
        b = np.full((5, 5, 5), 0.25)
        mask = np.ones((5, 5, 5), bool)
        assert rmse_map(a, b, mask) == pytest.approx(0.25, abs=1e-12)

    def test_mask_restricts(self):
        a = np.zeros((5, 5, 5))
        b = np.zeros((5, 5, 5))
        b[0, 0, 0] = 100.0  # outside the mask, must not count
        mask = np.ones((5, 5, 5), bool)
        mask[0, 0, 0] = False
        assert rmse_map(a, b, mask) == 0.0

    def test_validation(self):
        a = np.zeros((5, 5, 5))
        with pytest.raises(ValueError, match="empty mask"):
            rmse_map(a, a, np.zeros((5, 5, 5), bool))
        with pytest.raises(ValueError, match="dims mismatch"):
            rmse_map(a, np.zeros((5, 5, 4)), np.ones((5, 5, 5), bool))
        mask = np.ones((5, 5, 5), bool)
        for bad in (np.nan, np.inf):
            sample = np.zeros((5, 5, 5))
            sample[1, 2, 3] = bad
            with pytest.raises(ValueError, match="gt_map contains non-finite"):
                rmse_map(sample, a, mask)
            with pytest.raises(ValueError, match="test_map contains non-finite"):
                rmse_map(a, sample, mask)
            # outside the mask a non-finite sample does not count
            mask[1, 2, 3] = False
            assert rmse_map(sample, a, mask) == 0.0
            mask[1, 2, 3] = True


@pytest.mark.parametrize("dtype", [np.int16, np.uint8])
def test_integer_samples_do_not_wrap(dtype):
    """Integer volumes score as their float64 values: no difference,
    square, peak or range wraps around in the integer dtype."""
    rng = np.random.default_rng(7)
    info = np.iinfo(dtype)
    gt, test = rng.integers(info.min, info.max, (2, 8, 8, 8), endpoint=True,
                            dtype=dtype)
    mask = np.ones((8, 8, 8), bool)
    exact = gt.astype(np.float64), test.astype(np.float64)
    assert psnr(gt, test) == psnr(*exact)
    assert ssim(gt, test) == ssim(*exact)
    assert rmse_map(gt, test, mask) == rmse_map(*exact, mask)


class TestFitDti:
    def test_isotropic_tensor(self):
        dims = (6, 6, 3)
        d = 1.0e-3
        tensors = np.broadcast_to(d * np.eye(3), dims + (3, 3))
        bvals, bvecs = _protocol(15)
        ds = _tensor_dataset(tensors, 0.8, bvals, bvecs)
        fa, md = fit_dti(ds, np.ones(dims, bool))
        assert np.max(np.abs(fa.data)) <= 1e-9
        assert np.max(np.abs(md.data - d)) <= 1e-9

    def test_stick_tensor_has_unit_anisotropy(self):
        dims = (4, 4, 3)
        tensor = np.diag([1.5e-3, 0.0, 0.0])
        tensors = np.broadcast_to(tensor, dims + (3, 3))
        bvals, bvecs = _protocol(15)
        ds = _tensor_dataset(tensors, 1.0, bvals, bvecs)
        fa, _ = fit_dti(ds, np.ones(dims, bool))
        assert np.max(np.abs(fa.data - 1.0)) <= 1e-6

    def test_recovers_random_tensor_field(self):
        """Fit of noise-free forward-model data reproduces FA and MD
        computed in closed form from the planted tensors."""
        rng = np.random.default_rng(7)
        dims = (6, 6, 3)
        tensors = _random_spd_field(rng, dims)
        s0 = 0.5 + 0.5 * rng.random(dims)
        evals = np.linalg.eigvalsh(tensors)
        md_true = evals.mean(axis=-1)
        dev2 = ((evals - md_true[..., None]) ** 2).sum(axis=-1)
        norm2 = (evals * evals).sum(axis=-1)
        fa_true = np.sqrt(1.5 * dev2 / norm2)

        # a b=1000 shell written as 1005 is still the fitted shell
        for bvals, bvecs in (_protocol(20), _protocol(20, bval=1005.0)):
            ds = _tensor_dataset(tensors, s0, bvals, bvecs)
            fa, md = fit_dti(ds, np.ones(dims, bool))
            assert np.max(np.abs(fa.data - fa_true)) <= 1e-6
            assert np.max(np.abs(md.data - md_true)) <= 1e-6

    def test_jittered_shell_is_fitted_whole(self, gt_real, colored_stabilized,
                                            support):
        """Scanners jitter a shell's b-values: the b=1000 shell of the
        colored arm written as 995 and 1005 alternately is fitted whole,
        and its FA error against the truth stays within 1% of the
        exact-label fit."""
        fa_gt, _ = fit_dti(gt_real, support)
        fa_exact, _ = fit_dti(colored_stabilized, support)
        jittered = colored_stabilized.bvals.copy()
        b1000 = np.flatnonzero(jittered == 1000.0)
        jittered[b1000] += np.where(np.arange(b1000.size) % 2 == 0, -5.0, 5.0)
        fa_jit, _ = fit_dti(replace(colored_stabilized, bvals=jittered), support)
        exact = rmse_map(fa_gt, fa_exact, support)
        assert rmse_map(fa_gt, fa_jit, support) == pytest.approx(exact, rel=0.01)

    def test_mask_and_nonpositive_handling(self):
        rng = np.random.default_rng(8)
        dims = (5, 5, 3)
        tensors = _random_spd_field(rng, dims)
        bvals, bvecs = _protocol(15)
        arrays = []
        for b, g in zip(bvals, bvecs):
            expo = np.einsum("...ij,i,j->...", tensors, g, g)
            arrays.append(0.9 * np.exp(-b * expo))
        arrays[3][2, 2, 1] = 0.0  # dead voxel in one volume
        ds = DwiDataset(np.stack(arrays), bvals, bvecs)
        mask = np.ones(dims, bool)
        mask[0, 0, :] = False
        fa, md = fit_dti(ds, mask)
        assert np.all(fa.data[0, 0, :] == 0.0)
        assert np.all(md.data[0, 0, :] == 0.0)
        assert fa.data[2, 2, 1] == 0.0
        assert md.data[2, 2, 1] == 0.0
        usable = mask.copy()
        usable[2, 2, 1] = False
        assert np.all(md.data[usable] > 0.0)

    def test_validation(self):
        dims = (5, 5, 3)
        bvals, bvecs = _protocol(15)
        tensors = np.broadcast_to(1e-3 * np.eye(3), dims + (3, 3))
        ds = _tensor_dataset(tensors, 1.0, bvals, bvecs)
        with pytest.raises(ValueError, match="mask dims"):
            fit_dti(ds, np.ones((5, 5, 4), bool))

        no_vecs = DwiDataset(ds.data, ds.bvals)
        with pytest.raises(ValueError, match="needs b-vectors"):
            fit_dti(no_vecs, np.ones(dims, bool))

        few = DwiDataset(ds.data[:6], ds.bvals[:6], ds.bvecs[:6])
        with pytest.raises(ValueError, match="at least 7 low-b"):
            fit_dti(few, np.ones(dims, bool))

        same_dir = np.tile([1.0, 0.0, 0.0], (15, 1))
        collinear = np.vstack([np.zeros((2, 3)), same_dir])
        ds2 = _tensor_dataset(tensors, 1.0, bvals, collinear)
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_dti(ds2, np.ones(dims, bool))

    def test_complex_input_rejected(self):
        """Fitting the real part of this complex phantom gives FA 0 in
        every support voxel; the fit refuses complex data, and the
        phase-stabilized series gives a positive FA almost everywhere."""
        spec = PhantomSpec(dims=(16, 16, 8), shells=((0.0, 2), (1000.0, 12)))
        clean, _, support = make_phantom(spec)
        assert clean.is_complex
        with pytest.raises(ValueError, match="real"):
            fit_dti(clean, support)
        fa, _ = fit_dti(stabilize_phase(clean), support)
        assert np.mean(fa.data[support] > 0.0) > 0.9

    def test_numerically_singular_design_rejected_at_any_b_unit(self):
        """Six full-sphere Fibonacci directions make a tensor design that
        is singular up to round-off. Rounded to 8 decimals, as a bvecs
        text file holds them, the design has full numerical rank, yet
        its condition number is ~1e9: it must be refused whether b is
        in s/mm^2 or in ms/um^2, while seven directions are fitted."""
        dims = (4, 4, 3)
        tensors = np.broadcast_to(1e-3 * np.eye(3), dims + (3, 3))
        mask = np.ones(dims, bool)
        for scale in (1.0, 1e-3):
            for count in (6, 7):
                dirs = np.round(fibonacci_directions(count, seed=1), 8)
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                bvals = np.array([0.0, 0.0] + [1000.0 * scale] * count)
                bvecs = np.vstack([np.zeros((2, 3)), dirs])
                ds = _tensor_dataset(tensors / scale, 1.0, bvals, bvecs)
                if count == 6:
                    with pytest.raises(ValueError, match="rank-deficient"):
                        fit_dti(ds, mask)
                else:
                    _, md = fit_dti(ds, mask)
                    assert np.max(np.abs(md.data * scale - 1e-3)) <= 1e-9


class TestMppca:
    def test_pure_noise_variance_drops(self):
        """130 volumes outnumber the 125 voxels of a 5^3 patch, so their
        patch edge grows to 7."""
        rng = np.random.default_rng(9)
        dims = (16, 16, 16)
        for count in (16, 130):
            ds = DwiDataset(rng.standard_normal((count,) + dims), np.zeros(count))
            out = mppca_denoise(ds)
            assert np.var(out.data) < 0.3 * np.var(ds.data)

    def test_noiseless_low_rank_preserved(self):
        rng = np.random.default_rng(10)
        dims = (12, 12, 12)
        comps = [rng.standard_normal(dims) for _ in range(3)]
        mix = rng.standard_normal((10, 3))
        arrays = [
            2.0 + sum(w * c for w, c in zip(row, comps)) for row in mix
        ]
        ds = DwiDataset(np.stack(arrays), np.zeros(10))
        out = mppca_denoise(ds)
        for a, v in zip(arrays, out.data):
            rel = np.linalg.norm(v - a) / np.linalg.norm(a)
            assert rel <= 0.05

    def test_improves_noisy_dwi(self, gt_real, white_stabilized, white_mppca):
        noisy = shell_mean_psnr(gt_real, white_stabilized, 1000.0)
        cleaned = shell_mean_psnr(gt_real, white_mppca, 1000.0)
        assert cleaned >= noisy + 5.0

    def test_validation(self, monkeypatch):
        small = DwiDataset(np.zeros((10, 4, 8, 8)), np.zeros(10))
        with pytest.raises(ValueError, match="volume smaller than the patch"):
            mppca_denoise(small)
        grown = DwiDataset(np.zeros((130, 6, 8, 8)), np.zeros(130))  # edge 7
        with pytest.raises(ValueError, match="volume smaller than the patch"):
            mppca_denoise(grown)
        phased = DwiDataset(np.full((10, 8, 8, 8), 1j), np.zeros(10))
        with pytest.raises(ValueError, match="phase-stabilized"):
            mppca_denoise(phased)
        rng = np.random.default_rng(12)
        ds = DwiDataset(rng.standard_normal((10, 8, 8, 8)), np.zeros(10))
        monkeypatch.setattr(evaluate, "MPPCA_KERNEL", 4)
        edge4 = mppca_denoise(ds)
        # 8 voxels < 10 volumes: the edge grows from 2 to 4
        monkeypatch.setattr(evaluate, "MPPCA_KERNEL", 2)
        assert np.array_equal(mppca_denoise(ds).data, edge4.data)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(11)
    dims = (8, 8, 8)
    tensors = _random_spd_field(rng, dims)
    s0 = 0.5 + 0.5 * rng.random(dims)
    bvals, bvecs = _protocol(15)
    gt = _tensor_dataset(tensors, s0, bvals, bvecs)
    noisy_vols = [
        np.clip(v + 0.01 * rng.standard_normal(dims), 1e-4, None)
        for v in gt.data
    ]
    test = DwiDataset(np.stack(noisy_vols), bvals, bvecs)
    return gt, test


class TestReportMetrics:
    def test_full_report(self, pair):
        gt, test = pair
        report = report_metrics(gt, test)
        assert list(report) == ["shells"]
        assert list(report["shells"]) == ["0", "1000"]
        b1000 = report["shells"]["1000"]
        assert list(b1000) == ["psnr_db", "ssim", "volumes"]
        assert report["shells"]["0"]["volumes"] == 2
        assert b1000["volumes"] == 15
        assert 0.0 < b1000["psnr_db"] < math.inf
        assert b1000["ssim"] < 1.0
        assert b1000["psnr_db"] == pytest.approx(
            np.mean([psnr(gt.data[i], test.data[i]) for i in range(2, 17)])
        )

    def test_near_identical_pair(self):
        """SSIM is at most 1 by construction, but rounding lifts this
        pair's shell mean to 1 plus one ulp; the report takes it."""
        rng = np.random.default_rng(0)
        bvals = np.array([0.0, 1000.0, 1000.0, 1000.0])
        data = rng.random((4, 12, 12, 12)) + 0.5
        gt = DwiDataset(data, bvals)
        test = DwiDataset(data + 1e-13 * rng.standard_normal(data.shape), bvals)
        report = report_metrics(gt, test)
        for shell in report["shells"].values():
            assert abs(shell["ssim"] - 1.0) <= 1e-12

    def test_validation(self, pair):
        gt, test = pair
        with pytest.raises(ValueError, match="share volume count"):
            report_metrics(gt, DwiDataset(test.data[:-1], test.bvals[:-1]))
        other = DwiDataset(test.data, test.bvals * 2.0, test.bvecs)
        with pytest.raises(ValueError, match="share b-values"):
            report_metrics(gt, other)


class TestMetricReport:
    """The layout of the dict that report_metrics returns."""

    def test_to_dict_structure(self, pair):
        gt, _ = pair
        report = report_metrics(gt, gt)
        assert report == {
            "shells": {
                "0": {"psnr_db": None, "ssim": 1.0, "volumes": 2},
                "1000": {"psnr_db": None, "ssim": 1.0, "volumes": 15},
            }
        }
        assert json.loads(json.dumps(report, allow_nan=False)) == report
