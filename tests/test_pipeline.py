"""End-to-end denoising chain behavior."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bm4dpc import pipeline
from bm4dpc.bm4d import engine
from bm4dpc.core import DwiDataset, NoiseMap, NoisePsd
from bm4dpc.pipeline import denoise_bm4dpc

from _util import shell_mean_psnr


class TestVanishingNoise:
    def test_near_identity_on_clean_input(self, gt_real):
        """With (sigma, psd) pinned to a vanishing noise level the
        filter must hand back the clean input almost untouched."""
        dims = gt_real.dims
        out, _, _ = denoise_bm4dpc(
            gt_real, NoiseMap(np.full(dims, 1e-6)), NoisePsd(np.ones(dims)),
            threads=4,
        )
        ref = gt_real.data
        diff = np.abs(out.data - ref)
        rel = np.max(diff) / np.max(np.abs(ref))
        assert rel <= 1e-3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_noise_free_input_with_estimated_statistics(self, gt_real, dtype):
        """The noise map estimated from noise-free data is near zero (with
        exact zeros for the float32-rounded series), so the pipeline's
        floor sets it and keeps the components inside the float32
        stages' range: the output is finite and within 1e-5 of the
        input's maximum."""
        data = gt_real.data.astype(dtype).astype(np.float64)
        out, _, _ = denoise_bm4dpc(replace(gt_real, data=data))
        assert np.all(np.isfinite(out.data))
        assert np.max(np.abs(out.data - data)) <= 1e-5 * np.max(np.abs(data))

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noise_free"])
    def test_power_of_two_scale_equivariant(self, gt_real, colored_arm,
                                            colored_denoised, noisy):
        """Denoising 2^k x gives 2^k times the output for x, byte for
        byte, for k = +-60: every estimate, the clamp and the floor are
        relative to the data. On noise-free input the floor sets the map."""
        if noisy:
            data, expected = colored_arm["noisy"], colored_denoised["dataset"].data
        else:
            data = gt_real
            expected = denoise_bm4dpc(data, threads=2)[0].data
        for k in (60, -60):
            scaled = replace(data, data=data.data * 2.0**k)
            out, _, _ = denoise_bm4dpc(scaled, threads=2)
            assert np.array_equal(out.data, expected * 2.0**k), k


class TestDenoiseQuality:
    def test_structure_preserved(self, phantom, colored_denoised):
        noisy = phantom[0]
        out = colored_denoised["dataset"]
        assert out.dims == noisy.dims
        assert out.n_volumes == noisy.n_volumes
        assert np.array_equal(out.bvals, noisy.bvals)
        assert np.array_equal(out.bvecs, noisy.bvecs)
        assert not out.is_complex

    def test_improves_every_shell(self, gt_real, colored_stabilized,
                                  colored_denoised):
        for center in (0.0, 1000.0, 2000.0):
            before = shell_mean_psnr(gt_real, colored_stabilized, center)
            after = shell_mean_psnr(
                gt_real, colored_denoised["dataset"], center
            )
            assert after > before

    def test_estimated_map_and_psd_exposed(self, colored_denoised,
                                           colored_arm, support):
        sigma = colored_denoised["sigma"]
        psd = colored_denoised["psd"]
        truth = colored_arm["sigma"]
        assert sigma.dims == truth.dims
        assert np.all(sigma.data > 0.0)  # clamped map is strictly positive
        assert psd.data.mean() == pytest.approx(1.0, abs=1e-6)

    def test_true_priors_beat_mismatched_priors(self, gt_real, colored_arm,
                                                colored_stabilized):
        """Supplying the correct spectrum never loses to a deliberately
        wrong flat spectrum on correlated noise."""
        dims = gt_real.dims
        sigma = NoiseMap(colored_arm["sigma"].data)
        out_right, _, _ = denoise_bm4dpc(
            colored_stabilized, sigma, NoisePsd(colored_arm["psd"].data),
            threads=4,
        )
        out_wrong, _, _ = denoise_bm4dpc(
            colored_stabilized, sigma, NoisePsd(np.ones(dims)), threads=4
        )
        for center in (1000.0, 2000.0):
            good = shell_mean_psnr(gt_real, out_right, center)
            bad = shell_mean_psnr(gt_real, out_wrong, center)
            assert good >= bad


class TestGivenPsd:
    def test_psd_scale_does_not_change_output(self):
        """The sigma map carries the noise scale: a PSD given at 4x (a
        power of two, so the unit-mean scaling is exact) filters the
        data to the same bytes."""
        rng = np.random.default_rng(8)
        data = 1.0 + rng.standard_normal((4, 8, 8, 6))
        ds = DwiDataset(data, np.array([0.0, 1000.0, 1000.0, 1000.0]))
        dims = ds.dims
        sigma = NoiseMap(np.full(dims, 0.5))
        psi = np.abs(rng.standard_normal(dims)) + 0.25
        out, _, used = denoise_bm4dpc(ds, sigma, NoisePsd(psi))
        out4, _, used4 = denoise_bm4dpc(ds, sigma, NoisePsd(4.0 * psi))
        assert np.array_equal(used4.data, used.data)
        assert np.array_equal(out4.data, out.data)

    def test_fewer_voxels_than_volumes(self):
        """65 volumes of 4x4x4 voxels: the PCA has more components than
        voxels, and the trailing zero-eigenvalue PCs filter to finite
        output."""
        rng = np.random.default_rng(9)
        bvals = np.repeat([0.0, 1000.0, 2000.0], [2, 31, 32])
        ds = DwiDataset(1.0 + rng.standard_normal((65, 4, 4, 4)), bvals)
        dims = ds.dims
        out, _, _ = denoise_bm4dpc(
            ds, NoiseMap(np.full(dims, 0.5)), NoisePsd(np.ones(dims))
        )
        assert out.data.shape == ds.data.shape
        assert np.all(np.isfinite(out.data))


class TestCallerData:
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_input_left_unmodified(self, is_complex):
        rng = np.random.default_rng(5)
        data = 1.0 + rng.standard_normal((4, 8, 8, 6))
        if is_complex:
            data = data * np.exp(1j * rng.uniform(0, 2 * np.pi, data.shape))
        ds = DwiDataset(data, np.array([0.0, 1000.0, 1000.0, 1000.0]))
        before = ds.data.copy()
        dims = ds.dims
        out, _, _ = denoise_bm4dpc(
            ds, NoiseMap(np.full(dims, 0.5)), NoisePsd(np.ones(dims))
        )
        assert np.array_equal(ds.data, before)
        assert not np.shares_memory(out.data, ds.data)


class TestPhaseStabilization:
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_runs_exactly_for_complex_input(self, monkeypatch, is_complex):
        """Every input goes through stabilize_phase once, which changes
        complex input only: real input comes back as the same object."""
        calls = []
        stabilize = pipeline.stabilize_phase

        def spy(dataset):
            out = stabilize(dataset)
            calls.append(out is not dataset)
            return out

        monkeypatch.setattr(pipeline, "stabilize_phase", spy)
        rng = np.random.default_rng(6)
        data = 1.0 + rng.standard_normal((4, 8, 8, 6))
        if is_complex:
            data = data * np.exp(1j * rng.uniform(0, 2 * np.pi, data.shape))
        ds = DwiDataset(data, np.array([0.0, 1000.0, 1000.0, 1000.0]))
        dims = ds.dims
        out, _, _ = denoise_bm4dpc(
            ds, NoiseMap(np.full(dims, 0.5)), NoisePsd(np.ones(dims))
        )
        assert calls == [is_complex]
        assert not out.is_complex


class TestPsdFields:
    def test_built_once_for_both_stages(self, monkeypatch):
        """Both stages share the block geometry, so the driver checks the
        PCs and builds the PSD fields once per run."""
        calls = {"basis_autocorr": 0, "as_float32_stack": 0}

        def counted(name):
            original = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(engine, name, wrapper)

        for name in calls:
            counted(name)
        rng = np.random.default_rng(7)
        ds = DwiDataset(
            1.0 + rng.standard_normal((4, 8, 8, 6)),
            np.array([0.0, 1000.0, 1000.0, 1000.0]),
        )
        denoise_bm4dpc(ds, NoiseMap(np.full(ds.dims, 0.5)), NoisePsd(np.ones(ds.dims)))
        assert calls == {"basis_autocorr": 1, "as_float32_stack": 1}


class TestMemory:
    def test_float64_pcs_dropped_before_stage_1(self, monkeypatch):
        """The PCs are cast to the stages' float32 before filtering and
        the float64 PCs dropped: at stage 1 the pipeline holds half a
        series beyond the caller's, where the float64 PCs next to their
        float32 copy made it 1.5 series."""
        rng = np.random.default_rng(8)
        ds = DwiDataset(1.0 + rng.standard_normal((32, 16, 16, 12)),
                        np.array([0.0] * 4 + [1000.0] * 28))
        noise_map, psd = NoiseMap(np.full(ds.dims, 0.5)), NoisePsd(np.ones(ds.dims))
        # the PSD lag table is PC-independent set-up, made before tracing
        fields = engine.basis_autocorr(psd.data, engine.BLOCK, engine.SEARCH_RADIUS)
        monkeypatch.setattr(engine, "basis_autocorr", lambda *args: fields)
        stage = engine.bm4d_stage
        alive = []

        def recorded(*args, **kwargs):
            alive.append(tracemalloc.get_traced_memory()[0] - start)
            return stage(*args, **kwargs)

        monkeypatch.setattr(engine, "bm4d_stage", recorded)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            denoise_bm4dpc(ds, noise_map, psd)
        finally:
            tracemalloc.stop()
        assert len(alive) == 2
        assert alive[0] < 0.75 * ds.data.nbytes


class TestPipelineValidation:
    @pytest.mark.parametrize("case, match", [
        ("map", "noise map dims must match"),
        ("psd", "PSD dims must match"),
        ("sub_block", "smaller than the block"),
    ], ids=["map", "psd", "sub_block"])
    def test_prior_dims_checked(self, gt_real, case, match):
        """The pipeline checks the given noise map and PSD dims; the
        engine checks the block geometry."""
        dataset = gt_real
        if case == "sub_block":
            dataset = DwiDataset(
                np.random.default_rng(3).random((4, 3, 8, 8)) + 1.0,
                np.array([0.0, 0.0, 1000.0, 1000.0]),
            )
        map_dims = (8, 8, 8) if case == "map" else dataset.dims
        psd_dims = (8, 8, 8) if case == "psd" else dataset.dims
        with pytest.raises(ValueError, match=match):
            denoise_bm4dpc(
                dataset, NoiseMap(np.ones(map_dims)), NoisePsd(np.ones(psd_dims))
            )

    @pytest.mark.parametrize("case", ["map", "psd"])
    def test_given_dims_checked_before_any_layer(self, gt_real, monkeypatch, case):
        """A given map or PSD of other dims is refused before phase
        stabilization, noise estimation or the PCA runs, with the other
        statistic left to the estimator."""
        def refuse(*args, **kwargs):
            raise AssertionError("a layer ran before the dims check")

        for name in ("stabilize_phase", "estimate_noise", "forward_pca"):
            monkeypatch.setattr(pipeline, name, refuse)
        wrong = np.ones((8, 8, 8))
        assert wrong.shape != gt_real.dims
        if case == "map":
            given, match = {"noise_map": NoiseMap(wrong)}, "noise map dims must match"
        else:
            given, match = {"psd": NoisePsd(wrong)}, "PSD dims must match"
        with pytest.raises(ValueError, match=match):
            denoise_bm4dpc(gt_real, **given)

    def test_tiny_volume_rejected(self):
        """With no noise statistics given, the estimator's windows do not
        fit a volume 3 voxels deep."""
        bvals = np.array([0.0] + [1000.0] * 12)
        ds = DwiDataset(np.ones((13, 3, 8, 8)), bvals)
        with pytest.raises(ValueError, match="window larger than the volume"):
            denoise_bm4dpc(ds)
