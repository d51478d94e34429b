"""Phantom, noise synthesis, and the exact-PSD contract."""

import numpy as np
import pytest
from scipy import ndimage

from bm4dpc import (
    DwiDataset,
    NoiseSpec,
    PhantomSpec,
    add_noise,
    fibonacci_directions,
    kernel_to_psd,
    make_colored_kernel,
    make_phantom,
)
from bm4dpc.simulate import Ellipsoid, default_gfactor


def _isotropic_phantom(dims=(16, 16, 8), diffusivity=1.0e-3, s0=0.7,
                       shells=((0.0, 2), (1000.0, 6))):
    tissue = (Ellipsoid((10.0, 10.0, 10.0), diffusivity * np.eye(3), s0),)
    return make_phantom(PhantomSpec(dims=dims, shells=shells, tissue=tissue))


class TestDirections:
    def test_unit_norm(self):
        dirs = fibonacci_directions(30)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        assert np.array_equal(fibonacci_directions(15, seed=3),
                              fibonacci_directions(15, seed=3))
        assert not np.array_equal(fibonacci_directions(15, seed=3),
                                  fibonacci_directions(15, seed=4))

    def test_spread(self):
        # no two of 15 directions should be nearly identical
        dirs = fibonacci_directions(15)
        gram = dirs @ dirs.T
        np.fill_diagonal(gram, -1.0)
        assert gram.max() < 0.99

    def test_count_validated(self):
        with pytest.raises(ValueError):
            fibonacci_directions(0)


class TestEllipsoid:
    def test_rejects_non_spd_tensor(self):
        with pytest.raises(ValueError):
            Ellipsoid((0.5, 0.5, 0.5), np.diag([1.0, 1.0, -1.0]) * 1e-3, 1.0)

    def test_rejects_asymmetric_tensor(self):
        bad = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) * 1e-3
        with pytest.raises(ValueError):
            Ellipsoid((0.5, 0.5, 0.5), bad, 1.0)

    def test_rejects_nonpositive_s0(self):
        with pytest.raises(ValueError):
            Ellipsoid((0.5, 0.5, 0.5), 1e-3 * np.eye(3), 0.0)

    def test_mask_geometry(self):
        ball = Ellipsoid((0.25, 0.25, 0.25), 1e-3 * np.eye(3), 1.0)
        mask = ball.mask((16, 16, 16))
        assert mask[8, 8, 8]
        assert not mask[0, 0, 0]


class TestPhantom:
    def test_default_layout(self, phantom):
        dataset, tensors, support = phantom
        assert dataset.n_volumes == 33
        assert dataset.dims == (32, 32, 16)
        assert dataset.is_complex
        assert tensors.shape == (32, 32, 16, 3, 3)
        # the base compartment fills the field of view, so every voxel
        # carries signal (stable phase estimates everywhere)
        assert support.all()

    def test_b0_magnitude_is_s0_map(self):
        dataset, _, _ = _isotropic_phantom()
        b0 = np.abs(dataset.data[0])
        assert np.allclose(b0, 0.7, atol=1e-12)

    def test_default_b0_magnitudes_take_compartment_values(self, phantom):
        dataset, _, _ = phantom
        values = np.unique(np.round(np.abs(dataset.data[0]), 12))
        assert set(values) <= {0.3, 0.8, 0.7, 1.0}
        assert len(values) == 4

    def test_isotropic_signal_direction_independent(self):
        d, s0, b = 1.0e-3, 0.7, 1000.0
        dataset, _, _ = _isotropic_phantom(diffusivity=d, s0=s0)
        expected = s0 * np.exp(-b * d)
        weighted = np.abs(dataset.data[dataset.bvals > 0])
        assert len(weighted) == 6
        for mag in weighted:
            assert np.allclose(mag, expected, atol=1e-12)

    def test_phase_does_not_change_magnitude(self, phantom):
        dataset, _, _ = phantom
        vol = dataset.data[3]
        # phase is genuinely present
        assert np.abs(vol.imag).max() > 0
        assert np.all(np.abs(vol) > 0)

    def test_seed_reproducibility(self):
        a, _, _ = make_phantom(PhantomSpec())
        b, _, _ = make_phantom(PhantomSpec())
        assert np.array_equal(a.data, b.data)

    def test_requires_b0_shell(self):
        with pytest.raises(ValueError):
            PhantomSpec(shells=((1000.0, 15),))

    def test_rejects_empty_grid_or_tissue(self):
        with pytest.raises(ValueError, match="three positive voxel counts"):
            PhantomSpec(dims=(0, 4, 4))
        with pytest.raises(ValueError, match="at least one tissue"):
            PhantomSpec(tissue=())

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="phantom seed must be nonnegative"):
            PhantomSpec(seed=-1)


class TestColoredKernel:
    def test_unit_l2_norm(self):
        kernel = make_colored_kernel()
        assert abs(np.linalg.norm(kernel) - 1.0) <= 1e-9

    def test_band_pass_sum_near_zero(self):
        kernel = make_colored_kernel()
        assert abs(kernel.sum()) <= 0.2

    def test_depth_one(self):
        kernel = make_colored_kernel()
        assert kernel.shape == (17, 17, 1)  # center (8, 8, 0), the middle voxel
        assert np.unravel_index(np.argmax(kernel), kernel.shape) == (8, 8, 0)


class TestKernelToPsd:
    def test_delta_kernel_gives_flat_psd(self):
        psd = kernel_to_psd(np.ones((1, 1, 1)), (8, 8, 4))
        assert np.allclose(psd.data, 1.0, atol=1e-12)

    def test_parseval_mean(self):
        """|DFT(g)|^2 has grid mean ||g||^2 (Parseval), which the
        unit-mean PSD divides out."""
        rng = np.random.default_rng(0)
        kernel = rng.standard_normal((3, 3, 1))
        dims = (12, 10, 4)
        psd = kernel_to_psd(kernel, dims)
        pad = np.zeros(dims)
        pad[:3, :3, :1] = kernel
        raw = np.abs(np.fft.fftn(pad)) ** 2
        assert raw.mean() == pytest.approx((kernel**2).sum(), rel=1e-12)
        assert np.allclose(psd.data, raw / (kernel**2).sum(), rtol=1e-12, atol=1e-12)

    def test_kernel_must_fit(self):
        kernel = make_colored_kernel()  # 17 x 17 x 1
        with pytest.raises(ValueError):
            kernel_to_psd(kernel, (16, 16, 4))

    @pytest.mark.parametrize("dims", [(8, 8), (8, 8, 8, 8)])
    def test_dims_need_three_entries(self, dims):
        with pytest.raises(ValueError, match="dims must have 3 entries"):
            kernel_to_psd(np.ones((3, 3, 1)) / 3, dims)

    @pytest.mark.parametrize("dims", [(8, -2, 8), (8, 0, 8), (8.0, 8, 8), ("8", 8, 8)])
    def test_dims_need_positive_integers(self, dims):
        """A negative or zero extent is not reported as a kernel that
        does not fit, and a float or string extent is not a TypeError."""
        with pytest.raises(ValueError, match="dims must be positive integers"):
            kernel_to_psd(np.ones((3, 3, 1)) / 3, dims)

    def test_numpy_integer_dims(self):
        dims = tuple(np.array([8, 8, 4]))
        assert kernel_to_psd(np.ones((3, 3, 1)) / 3, dims).dims == (8, 8, 4)

    def test_monte_carlo_psd_oracle(self):
        """Empirical per-frequency variance of spatially convolved draws
        (independent wrap-mode spatial convolution) matches the PSD."""
        dims2d = (24, 24)
        draws = 20000
        kernel = make_colored_kernel()
        plane = kernel[:, :, 0]

        # dense circulant operator built by convolving basis images
        size = dims2d[0] * dims2d[1]
        op = np.empty((size, size))
        basis = np.zeros(dims2d)
        for j in range(size):
            basis.flat[j] = 1.0
            op[:, j] = ndimage.convolve(basis, plane, mode="wrap").ravel()
            basis.flat[j] = 0.0

        rng = np.random.default_rng(11)
        fields = (op @ rng.standard_normal((size, draws))).T.reshape(
            draws, *dims2d
        )
        spectra = np.fft.fft2(fields)
        empirical = (np.abs(spectra) ** 2).mean(axis=0) / size

        predicted = kernel_to_psd(kernel, dims2d + (1,)).data[:, :, 0]
        # zero-sum kernel: true DC power is ~0, so that bin is checked
        # absolutely and the rest relatively
        assert empirical[0, 0] <= 1e-9
        rel = np.abs(empirical - predicted) / predicted
        rel[0, 0] = 0.0
        assert rel.max() <= 0.05


class TestAddNoise:
    def test_level_zero_bitwise_identity(self, phantom):
        dataset, _, _ = phantom
        noisy, sigma, psd = add_noise(dataset, NoiseSpec(level=0.0))
        assert np.array_equal(noisy.data, dataset.data)
        assert np.all(sigma.data == 0.0)
        assert np.allclose(psd.data, 1.0)

    def test_white_noise_channel_variance(self):
        dims = (24, 24, 24)  # > 1e4 voxels
        dataset, _, _ = _isotropic_phantom(dims=dims)
        level = 0.05
        spec = NoiseSpec(level=level, gfactor=np.ones(dims), seed=3)
        noisy, sigma, _ = add_noise(dataset, spec)

        sigma0 = level * 0.7  # level * max |b=0|
        assert np.allclose(sigma.data, sigma0, atol=1e-15)
        noise = noisy.data - dataset.data
        for channel in (noise.real, noise.imag):
            assert channel.var() == pytest.approx(sigma0**2, rel=0.05)

    def test_standard_levels_scale_sigma(self, phantom):
        dataset, _, _ = phantom
        b0_max = np.abs(dataset.data[0]).max()
        for level in (0.01, 0.05, 0.10):
            _, sigma, _ = add_noise(
                dataset, NoiseSpec(level=level, seed=4)
            )
            expected_max = level * b0_max * default_gfactor(dataset.dims).max()
            assert sigma.data.max() == pytest.approx(expected_max, rel=1e-12)

    def test_colored_noise_matches_sigma_map(self, phantom, colored_arm):
        dataset, _, _ = phantom
        noise = colored_arm["noisy"].data - dataset.data
        scaled = noise.real / colored_arm["sigma"].data
        # unit kernel norm keeps the voxel variance at sigma^2
        assert scaled.std() == pytest.approx(1.0, rel=0.05)

    def test_seed_reproducibility(self, phantom):
        dataset, _, _ = phantom
        spec = NoiseSpec(level=0.05, seed=9)
        first, _, _ = add_noise(dataset, spec)
        second, _, _ = add_noise(dataset, spec)
        assert np.array_equal(first.data, second.data)

    def test_volumes_get_independent_noise(self, phantom):
        dataset, _, _ = phantom
        noisy, _, _ = add_noise(dataset, NoiseSpec(level=0.05, seed=5))
        noise = noisy.data - dataset.data
        a = noise[0].real.ravel()
        b = noise[1].real.ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_rejects_real_dataset(self, gt_real):
        with pytest.raises(ValueError):
            add_noise(gt_real, NoiseSpec(level=0.05))

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(level=-0.01)
        for level in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                NoiseSpec(level=level)
        with pytest.raises(ValueError):
            NoiseSpec(level=0.05, gfactor=np.zeros((4, 4, 4)))
        for value in (np.nan, np.inf, -np.inf):
            gfactor = np.ones((4, 4, 4))
            gfactor[1, 2, 3] = value
            with pytest.raises(ValueError, match="gfactor map contains non-finite"):
                NoiseSpec(level=0.05, gfactor=gfactor)
        with pytest.raises(ValueError, match="gfactor map must be real"):
            NoiseSpec(level=0.05, gfactor=np.ones((4, 4, 4), dtype=np.complex128))
        with pytest.raises(ValueError, match="gfactor map must be 3D"):
            NoiseSpec(level=0.05, gfactor=np.ones((4, 4)))
        with pytest.raises(ValueError, match="noise seed must be nonnegative"):
            NoiseSpec(level=0.05, seed=-1)

    def test_needs_a_b0_volume(self, phantom):
        """The noise level is relative to the b=0 signal, so a series
        without a b=0 volume is refused by name."""
        dataset, _, _ = phantom
        no_b0 = dataset.bvals > 0
        weighted = DwiDataset(dataset.data[no_b0], dataset.bvals[no_b0])
        with pytest.raises(ValueError, match="needs a b=0 volume"):
            add_noise(weighted, NoiseSpec(level=0.05))

    def test_b0_shell_labelled_b5(self, phantom):
        """Scanners write b=5 for b=0: the b=0 shell sets the level, so
        such labels give the same noisy series as b=0 labels."""
        dataset, _, _ = phantom
        b5 = DwiDataset(
            dataset.data, np.where(dataset.bvals == 0, 5.0, dataset.bvals),
            dataset.bvecs,
        )
        spec = NoiseSpec(level=0.05, seed=4)
        exact, _, _ = add_noise(dataset, spec)
        relabelled, _, _ = add_noise(b5, spec)
        assert np.array_equal(relabelled.data, exact.data)

    def test_noise_spec_rejects_bad_kernels(self):
        unit = np.ones((3, 3, 1)) / 3.0
        assert np.array_equal(NoiseSpec(level=0.05, kernel=unit).kernel, unit)
        with pytest.raises(ValueError, match="unit l2 norm"):
            NoiseSpec(level=0.05, kernel=2.0 * unit)
        with pytest.raises(ValueError, match="must be real"):
            NoiseSpec(level=0.05, kernel=unit.astype(np.complex128))
        with pytest.raises(ValueError, match="must be 3D"):
            NoiseSpec(level=0.05, kernel=unit[:, :, 0])
        bad = unit.copy()
        bad[1, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            NoiseSpec(level=0.05, kernel=bad)
        with pytest.raises(ValueError, match="non-empty"):
            NoiseSpec(level=0.05, kernel=np.ones((0, 3, 1)))

    def test_kernel_centered_on_middle_voxel(self, phantom):
        """A one-hot kernel at shape // 2 is the identity convolution,
        so it colors nothing: the noise equals the white draws."""
        dataset, _, _ = phantom
        delta = np.zeros((3, 5, 1))
        delta[1, 2, 0] = 1.0
        white, _, _ = add_noise(dataset, NoiseSpec(level=0.05, seed=6))
        colored, _, _ = add_noise(
            dataset, NoiseSpec(level=0.05, kernel=delta, seed=6)
        )
        assert np.allclose(colored.data, white.data, rtol=0, atol=1e-12)

    def test_gfactor_dims_checked(self, phantom):
        dataset, _, _ = phantom
        with pytest.raises(ValueError):
            add_noise(
                dataset,
                NoiseSpec(level=0.05, gfactor=np.ones((4, 4, 4))),
            )
