"""Noise map and PSD estimation from tail principal components."""

from dataclasses import replace

import numpy as np
import pytest

from bm4dpc import (
    DwiDataset,
    Volume3,
    estimate_noise,
    kernel_to_psd,
    make_colored_kernel,
    noisest,
)
from bm4dpc.bm4d.variance import fold_psd
from bm4dpc.noisest import _noise_map, _noise_psd, clamp_sigma
from bm4dpc.simulate import default_gfactor

from _util import pearson, radial_profile, rel_rmse, synth_colored


def _white_volumes(rng, count, dims):
    """A (count, *dims) stack of unit white noise."""
    return rng.standard_normal((count,) + dims)


def _series(dims, count=5):
    """A real series of `count` b=2000 volumes of unit white noise."""
    rng = np.random.default_rng(30)
    return DwiDataset(_white_volumes(rng, count, dims), np.full(count, 2000.0))


class TestParams:
    def test_defaults(self):
        assert noisest.TAIL_COUNT == 3
        assert noisest.MAP_WINDOW == 5
        assert noisest.PSD_WINDOW == 16
        assert noisest.CHUNK_SIZE == 5
        assert noisest.CHUNK_STEP == 3
        assert noisest.WINDOW_STEP == 8
        assert noisest.SIGMA_CLAMP_FRACTION == 0.01


class TestClampSigma:
    def test_floors_relative_to_median_positive(self):
        sigma = np.array([0.0, 0.001, 1.0, 2.0, 3.0])
        out = clamp_sigma(sigma)
        floor = 0.01 * np.median([0.001, 1.0, 2.0, 3.0])
        assert out[0] == floor
        assert np.array_equal(out[2:], sigma[2:])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            clamp_sigma(np.zeros(5))


class TestNoiseMap:
    def test_all_zero_pc(self):
        out = _noise_map(np.zeros((1, 8, 8, 8)))
        assert np.all(out.data == 0.0)

    def test_iid_unit_noise_mean(self):
        rng = np.random.default_rng(20)
        out = _noise_map(rng.standard_normal((1, 32, 32, 32)))
        assert 0.95 <= out.data.mean() <= 1.05

    def test_bump_map_recovered(self):
        # three tail components, as the estimator sees by default
        dims = (32, 32, 32)
        truth = default_gfactor(dims)
        rng = np.random.default_rng(21)
        pcs = np.stack([rng.standard_normal(dims) * truth for _ in range(3)])
        out = _noise_map(pcs)
        assert pearson(out.data, truth) >= 0.9

    def test_averages_tail_pcs(self):
        rng = np.random.default_rng(22)
        pcs = _white_volumes(rng, 3, (16, 16, 16))
        separate = [_noise_map(pc[None]).data for pc in pcs]
        combined = _noise_map(pcs).data
        assert np.allclose(combined, np.mean(separate, axis=0), atol=1e-12)

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(23)
        pc = rng.standard_normal((12, 12, 12))
        base = _noise_map(pc[None]).data
        scaled = _noise_map(2.0 * pc[None]).data
        assert np.array_equal(scaled, 2.0 * base)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window larger"):
            estimate_noise(_series((8, 4, 8)))  # 5-voxel window


class TestPsd:
    def test_white_noise_stays_flat(self):
        rng = np.random.default_rng(24)
        pcs = _white_volumes(rng, 3, (64, 64, 16))
        psd = _noise_psd(pcs)
        rms_dev = np.sqrt(np.mean((psd.data - 1.0) ** 2))
        assert rms_dev <= 0.10

    def test_unit_mean_always(self):
        rng = np.random.default_rng(25)
        pcs = 3.0 * rng.standard_normal((1, 32, 32, 8))
        psd = _noise_psd(pcs)
        assert abs(psd.data.mean() - 1.0) <= 1e-6

    def test_colored_radial_profile_recovered(self):
        dims = (64, 64, 16)
        kernel = make_colored_kernel()
        truth = kernel_to_psd(kernel, dims)
        rng = np.random.default_rng(26)
        pcs = np.stack([synth_colored(rng, dims, truth.data) for _ in range(3)])
        est = _noise_psd(pcs)

        _, prof_est = radial_profile(est.data)
        _, prof_true = radial_profile(truth.data)
        assert pearson(prof_est, prof_true) >= 0.9

    def test_constant_along_slice_frequency(self):
        rng = np.random.default_rng(27)
        psd = _noise_psd(_white_volumes(rng, 1, (32, 32, 12)))
        assert np.allclose(psd.data, psd.data[:, :, :1], atol=1e-12)

    @pytest.mark.parametrize("w, m, n", [(16, 32, 32), (16, 17, 19), (15, 32, 20)])
    def test_zero_padding_upsamples_exactly(self, w, m, n):
        """A 3 x 3 kernel's autocorrelation spans lags -2..2, inside the
        window's [-w/2, w/2), so zero-padding it gives the exact spectrum
        of the kernel on the full grid."""
        kernel = np.random.default_rng(29).random((3, 3))
        local = np.abs(np.fft.fft2(kernel, (w, w))) ** 2
        full = np.abs(np.fft.fft2(kernel, (m, n))) ** 2
        assert np.max(np.abs(fold_psd(local, (m, n)) - full)) <= 1e-12

    def test_window_and_chunk_validation(self, monkeypatch):
        with pytest.raises(ValueError, match="psd window exceeds the slice dims"):
            estimate_noise(_series((8, 8, 8)))  # 16 x 16 window cannot fit
        # at CHUNK_SIZE = MAP_WINDOW a series thinner than one chunk
        # fails the map window first
        monkeypatch.setattr(noisest, "CHUNK_SIZE", noisest.MAP_WINDOW + 1)
        with pytest.raises(ValueError, match="fewer slices than one chunk"):
            estimate_noise(_series((32, 32, noisest.MAP_WINDOW)))


class TestEstimateNoise:
    def test_sigma_accuracy_on_colored_phantom(
        self, colored_stabilized, colored_arm, support
    ):
        sigma, _ = estimate_noise(colored_stabilized)
        err = rel_rmse(sigma.data, colored_arm["sigma"].data, support)
        assert err <= 0.15

    def test_highest_shell_selected(self, colored_stabilized, colored_arm):
        """Estimating from the full dataset equals estimating from the
        b=2000 subset alone: only the highest shell is used."""
        members = [
            i for i, b in enumerate(colored_stabilized.bvals) if b == 2000.0
        ]
        subset = DwiDataset(
            colored_stabilized.data[members], colored_stabilized.bvals[members]
        )
        full_sigma, full_psd = estimate_noise(colored_stabilized)
        sub_sigma, sub_psd = estimate_noise(subset)
        assert np.array_equal(full_sigma.data, sub_sigma.data)
        assert np.array_equal(full_psd.data, sub_psd.data)

    def test_scale_equivariance(self, colored_stabilized):
        sigma, psd = estimate_noise(colored_stabilized)
        doubled = colored_stabilized.with_volumes(
            [Volume3(2.0 * v.data) for v in colored_stabilized.volumes]
        )
        sigma2, psd2 = estimate_noise(doubled)
        assert np.allclose(sigma2.data, 2.0 * sigma.data, rtol=1e-12, atol=0)
        assert np.max(np.abs(psd2.data - psd.data)) <= 1e-10

    def test_complex_input_rejected(self, colored_arm):
        with pytest.raises(ValueError):
            estimate_noise(colored_arm["noisy"])

    @pytest.mark.parametrize("dims, match", [
        ((12, 12, 8), "psd window exceeds the slice dims"),
        ((32, 32, 4), "window larger than the volume"),
        ((32, 32, 16), "expects real"),
    ])
    def test_checked_before_pca(self, monkeypatch, dims, match):
        """A series too small for the estimators' windows, or a complex
        one, is refused before any PCA runs."""
        def no_pca(stack):
            raise AssertionError("forward_pca ran on a refused series")

        monkeypatch.setattr(noisest, "forward_pca", no_pca)
        series = _series(dims, 15)
        if match == "expects real":  # dims that fit, complex samples
            series = replace(series, data=1j * series.data)
        with pytest.raises(ValueError, match=match):
            estimate_noise(series)

    def test_small_highest_shell_rejected(self):
        rng = np.random.default_rng(29)
        vols = [rng.standard_normal((16, 16, 8)) for _ in range(5)]
        ds = DwiDataset(np.stack(vols), [0.0, 0.0, 2000.0, 2000.0, 2000.0])
        with pytest.raises(ValueError):
            estimate_noise(ds)  # 3 volumes in the tail shell, tail_count 3
