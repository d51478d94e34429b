"""Phase stabilization: rotation to the real axis, slice by slice."""

import tracemalloc

import numpy as np
from scipy.ndimage import gaussian_filter

from bm4dpc import DwiDataset, stabilize_phase
from bm4dpc.core import _correlate, _gaussian_taps

from _util import pearson


def _positive_field(rng, dims):
    return 1.0 + np.abs(rng.standard_normal(dims))


def _complex_dataset(arrays):
    data = np.stack([np.asarray(a, dtype=complex) for a in arrays])
    return DwiDataset(data, np.zeros(len(data)))


class TestStabilize:
    def test_real_input_returned_unchanged(self):
        rng = np.random.default_rng(0)
        vols = [rng.standard_normal((8, 8, 4)) for _ in range(2)]
        ds = DwiDataset(np.stack(vols), np.zeros(2))
        before = ds.data.copy()
        assert stabilize_phase(ds) is ds
        assert np.array_equal(ds.data, before)

    def test_second_call_is_a_no_op(self):
        rng = np.random.default_rng(0)
        shape = (2, 10, 9, 4)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        once = stabilize_phase(DwiDataset(x, np.zeros(2)))
        twice = stabilize_phase(once)
        assert np.array_equal(twice.data, once.data)

    def test_real_cast_to_complex_is_identity(self):
        rng = np.random.default_rng(1)
        fields = [_positive_field(rng, (12, 12, 4)) for _ in range(2)]
        out = stabilize_phase(_complex_dataset(fields))
        assert not out.is_complex
        for field, vol in zip(fields, out.data):
            assert np.max(np.abs(vol - field)) <= 1e-12

    def test_constant_global_phase_recovers_magnitude(self):
        rng = np.random.default_rng(2)
        mag = _positive_field(rng, (16, 16, 4))
        phased = mag * np.exp(1j * np.pi / 3.0)
        out = stabilize_phase(_complex_dataset([phased, phased]))
        for vol in out.data:
            assert np.max(np.abs(vol - mag)) <= 1e-10

    def test_output_real_dims_and_gradients_preserved(self):
        rng = np.random.default_rng(3)
        vols = [
            _positive_field(rng, (10, 8, 6)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            for _ in range(3)
        ]
        ds = DwiDataset(np.stack(vols), [0.0, 1000.0, 1000.0],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        out = stabilize_phase(ds)
        assert not out.is_complex
        assert out.dims == ds.dims
        assert np.array_equal(out.bvals, ds.bvals)
        assert np.array_equal(out.bvecs, ds.bvecs)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        arrays = [
            _positive_field(rng, (12, 12, 6))
            * np.exp(1j * 0.3 * rng.standard_normal((12, 12, 6)))
            for _ in range(2)
        ]
        base = stabilize_phase(_complex_dataset(arrays))
        rotated = stabilize_phase(
            _complex_dataset([a * np.exp(1j * 0.9) for a in arrays])
        )
        for v0, v1 in zip(base.data, rotated.data):
            assert np.max(np.abs(v0 - v1)) <= 1e-10

    def test_correlation_beats_plain_real_part(self, phantom, colored_arm,
                                               colored_stabilized, gt_real):
        """Smooth phase plus noise: rotation must recover more signal
        than just taking the real part."""
        noisy = colored_arm["noisy"]
        for i in (0, 5, 20):
            truth = gt_real.data[i]
            corr_stab = pearson(colored_stabilized.data[i], truth)
            corr_real = pearson(noisy.data[i].real, truth)
            assert corr_stab > corr_real

    def test_noise_power_roughly_halved(self):
        """Pure complex white noise: the retained real channel carries
        about half the complex noise power (a bit less near DC where
        the low-pass phase estimate locks onto the noise)."""
        rng = np.random.default_rng(5)
        shape = (2, 64, 64, 32)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = stabilize_phase(_complex_dataset(noise)).data
        ratio = out.var() / (noise.real.var() + noise.imag.var())
        assert 0.4 <= ratio <= 0.6

    def test_volumes_and_slices_filtered_separately(self):
        """Changing one slice of one volume changes nothing else: the
        phase low-pass must not smooth across volumes or slices."""
        rng = np.random.default_rng(6)
        shape = (3, 12, 10, 5)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        changed = base.copy()
        changed[1, :, :, 2] *= np.exp(1j * 1.3) * 4.0
        changed[1, 3, 4, 2] += 2.0 - 1.5j
        out0 = stabilize_phase(_complex_dataset(base)).data
        out1 = stabilize_phase(_complex_dataset(changed)).data
        touched = np.zeros(shape, bool)
        touched[1, :, :, 2] = True
        assert not np.array_equal(out0[touched], out1[touched])
        assert np.array_equal(out0[~touched], out1[~touched])

    def test_matches_arctan_rotation(self):
        """Re(x exp(-i arctan2(g_im, g_re))) for the smoothed g, with an
        all-zero slice where g = 0 and arctan2(0, 0) = 0."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 10, 9, 4)) + 1j * rng.standard_normal((3, 10, 9, 4))
        x[1, :, :, 2] = 0
        out = stabilize_phase(DwiDataset(x, np.zeros(3))).data

        sigma = (0, 2.0, 2.0, 0)
        phase = np.arctan2(gaussian_filter(x.imag, sigma, mode="nearest"),
                           gaussian_filter(x.real, sigma, mode="nearest"))
        expected = x.real * np.cos(phase) + x.imag * np.sin(phase)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - expected)) <= 1e-12
        assert np.array_equal(out[1, :, :, 2], np.zeros((10, 9)))

    def test_matches_whole_stack_formula(self):
        """Volume by volume, the output has the bytes of the same
        arithmetic on the whole (N, m, n, o) stack, read as (N, m, n, 2o)
        real samples and smoothed by the same matrices, including the
        g = 0 branch of an all-zero slice and scattered zero voxels."""
        rng = np.random.default_rng(8)
        shape = (4, 11, 9, 5)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x[2, :, :, 1] = 0
        x[rng.random(shape) < 0.1] = 0
        out = stabilize_phase(DwiDataset(x, np.zeros(4))).data

        smooth = _correlate(x.view(np.float64), _gaussian_taps(2.0, 8), True, (1, 2))
        smooth_re, smooth_im = smooth[..., 0::2], smooth[..., 1::2]
        norm = np.abs(smooth.view(np.complex128))
        flat = norm == 0
        assert flat.any()
        smooth_re[flat] = 1.0
        norm[flat] = 1.0
        smooth_re *= x.real
        smooth_im *= x.imag
        smooth_re += smooth_im
        smooth_re /= norm
        assert np.array_equal(out, smooth_re)

    def test_peak_memory_one_volume_at_a_time(self):
        """Besides its float64 output the layer holds one volume's
        temporaries: its peak stays below 1.5x the output, where
        filtering the whole stack at once held about 3.3x."""
        rng = np.random.default_rng(9)
        shape = (16, 24, 24, 8)
        ds = DwiDataset(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                        np.zeros(16))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = stabilize_phase(ds)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.data.nbytes
