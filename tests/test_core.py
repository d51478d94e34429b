"""Domain types and the (N, m, n, o) stack layout."""

import numpy as np
import pytest
from scipy import ndimage

from bm4dpc import DwiDataset, NoiseMap, NoisePsd, Volume3
from bm4dpc.core import _correlate, _correlation_matrix, _gaussian_taps


def _volume(data):
    return Volume3(np.asarray(data, dtype=np.float64))


class TestVolume3:
    def test_real_and_complex_kinds(self):
        real = Volume3(np.zeros((2, 3, 4)))
        assert real.dims == (2, 3, 4)
        assert not real.is_complex
        assert real.data.dtype == np.float64

        cplx = Volume3(np.zeros((2, 3, 4), dtype=np.complex64))
        assert cplx.is_complex
        assert cplx.data.dtype == np.complex128

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            Volume3(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            Volume3(np.zeros((2, 2, 2, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume3(bad)

    def test_immutable(self):
        vol = Volume3(np.zeros((2, 2, 2)))
        with pytest.raises(AttributeError):
            vol.data = np.ones((2, 2, 2))


class TestDwiDataset:
    def test_basic_construction(self):
        data = np.stack([np.full((2, 2, 2), i) for i in range(3)])
        ds = DwiDataset(data, [0.0, 1000.0, 2000.0])
        assert ds.n_volumes == 3
        assert ds.dims == (2, 2, 2)
        assert not ds.is_complex
        assert ds.data.shape == (3, 2, 2, 2)
        assert ds.data.dtype == np.float64

    def test_stack_puts_volumes_first(self):
        rng = np.random.default_rng(1)
        vols = [rng.standard_normal((3, 4, 5)) for _ in range(4)]
        data = DwiDataset(np.stack(vols), np.zeros(4)).data
        assert data.shape == (4, 3, 4, 5)
        assert data.flags.c_contiguous
        for i, vol in enumerate(vols):
            assert np.array_equal(data[i], vol)

    def test_needs_two_volumes(self):
        with pytest.raises(ValueError):
            DwiDataset(np.zeros((1, 2, 2, 2)), [0.0])

    def test_rejects_non_4d_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="4D"):
            DwiDataset(np.zeros((2, 2, 2)), [0.0, 0.0])
        with pytest.raises(ValueError, match="non-empty"):
            DwiDataset(np.zeros((2, 0, 2, 2)), [0.0, 0.0])
        bad = np.zeros((2, 2, 2, 2))
        bad[1, 0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DwiDataset(bad, [0.0, 0.0])

    def test_complex_kind(self):
        ds = DwiDataset(np.ones((2, 2, 2, 2), dtype=np.complex64), [0.0, 0.0])
        assert ds.is_complex
        assert ds.data.dtype == np.complex128

    def test_rejects_negative_bvals(self):
        with pytest.raises(ValueError):
            DwiDataset(np.zeros((2, 2, 2, 2)), [0.0, -1.0])

    def test_bvec_unit_norm_enforced_on_weighted_volumes(self):
        data = np.zeros((2, 2, 2, 2))
        # a zero bvec in the b=0 shell is fine (scanners write b=5 for
        # b=0); a zero one above it, or a non-unit nonzero one, is not
        for b0 in (0.0, 5.0):
            DwiDataset(data, [b0, 1000.0], [[0, 0, 0], [1, 0, 0]])
        for bvals, bvecs in [
            ([0.0, 1000.0], [[0, 0, 0], [2, 0, 0]]),
            ([0.0, 1000.0], [[0, 0, 0], [0, 0, 0]]),
            ([5.0, 1000.0], [[2, 0, 0], [1, 0, 0]]),
        ]:
            with pytest.raises(ValueError, match="unit length"):
                DwiDataset(data, bvals, bvecs)

    def test_rejects_non_finite_bvecs(self):
        data = np.zeros((2, 2, 2, 2))
        with pytest.raises(ValueError, match="finite"):
            DwiDataset(data, [0.0, 1000.0], [[0, 0, 0], [np.nan] * 3])
        with pytest.raises(ValueError, match="finite"):
            DwiDataset(data, [0.0, 1000.0], [[np.inf, 0, 0], [1, 0, 0]])

    def test_with_volumes_keeps_gradients(self):
        ds = DwiDataset(np.zeros((2, 2, 2, 2)), [0.0, 1000.0], [[0, 0, 0], [1, 0, 0]])
        swapped = ds.with_volumes([_volume(np.ones((2, 2, 2)))] * 2)
        assert np.array_equal(swapped.data, np.ones((2, 2, 2, 2)))
        assert np.array_equal(swapped.bvals, ds.bvals)
        assert np.array_equal(swapped.bvecs, ds.bvecs)

    def test_volumes_are_views_of_data(self):
        rng = np.random.default_rng(2)
        ds = DwiDataset(rng.standard_normal((3, 4, 5, 2)), [0.0, 1000.0, 1000.0],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        vols = ds.volumes
        assert len(vols) == 3
        for i, vol in enumerate(vols):
            assert isinstance(vol, Volume3)
            assert np.shares_memory(vol.data, ds.data[i])
        again = ds.with_volumes(vols)
        assert np.array_equal(again.data, ds.data)
        assert np.array_equal(again.bvals, ds.bvals)
        assert np.array_equal(again.bvecs, ds.bvecs)


class TestNoiseTypes:
    def test_noise_map_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseMap(-np.ones((2, 2, 2)))

    def test_psd_unit_variance_mean_enforced(self):
        """Any positive scale is divided out: the stored PSD has grid mean 1."""
        assert np.array_equal(NoisePsd(np.ones((4, 4, 4))).data, np.ones((4, 4, 4)))
        rng = np.random.default_rng(3)
        raw = np.abs(rng.standard_normal((6, 5, 4))) + 0.1
        psi = NoisePsd(raw).data
        assert np.array_equal(psi, raw / raw.mean())
        # a power-of-two scale is exact, so the stored arrays agree bitwise
        assert np.array_equal(NoisePsd(4.0 * raw).data, psi)
        assert np.allclose(NoisePsd(2.5 * raw).data, psi, rtol=1e-13, atol=0)

    def test_psd_rejects_zero_mean(self):
        with pytest.raises(ValueError, match="positive"):
            NoisePsd(np.zeros((4, 4, 4)))

    def test_psd_rejects_negative_entries(self):
        data = np.ones((4, 4, 4))
        data[0, 0, 0] = -0.5
        data[1, 0, 0] = 1.5
        with pytest.raises(ValueError):
            NoisePsd(data)

    @pytest.mark.parametrize("make", [NoiseMap, NoisePsd])
    def test_real_grids_reject_empty_complex_and_non_finite(self, make):
        ones = np.ones((4, 4, 4))
        with pytest.raises(ValueError, match="non-empty"):
            make(np.ones((0, 4, 4)))
        with pytest.raises(ValueError, match="must be real"):
            make(ones.astype(np.complex64))
        with pytest.raises(ValueError, match="must be 3D"):
            make(np.ones((4, 4)))
        bad = ones.copy()
        bad[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            make(bad)



class TestCorrelate:
    """The matrix smoother against scipy.ndimage, on axes shorter than,
    as long as and longer than the window."""

    CASES = {
        "gaussian2_inplane": (
            lambda x: ndimage.gaussian_filter(x, (2.0, 2.0, 0), radius=8, mode="nearest"),
            lambda x: _correlate(x, _gaussian_taps(2.0, 8), True, (0, 1))),
        "gaussian1.5": (
            lambda x: ndimage.gaussian_filter(x, 1.5, radius=3, mode="nearest"),
            lambda x: _correlate(x, _gaussian_taps(1.5, 3), True, (0, 1, 2))),
        "box5": (
            lambda x: ndimage.correlate(x, np.ones((5, 5, 5)), mode="constant", cval=0.0),
            lambda x: _correlate(x, (1.0,) * 5, False, (0, 1, 2))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("length", [1, 3, 5, 17])
    def test_matches_scipy(self, case, length):
        reference, smoother = self.CASES[case]
        rng = np.random.default_rng(length)
        for shape in ((length, 6, 5), (5, length, 6), (6, 5, length)):
            x = rng.standard_normal(shape)
            before = x.copy()
            expected = reference(x)
            got = smoother(x)
            assert got.shape == shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
            assert np.array_equal(x, before)

    def test_matrix_cached_and_read_only(self):
        taps = _gaussian_taps(1.5, 3)
        matrix = _correlation_matrix(9, taps, True)
        assert _correlation_matrix(9, taps, True) is matrix
        assert not matrix.flags.writeable
        # the edge sample's padding keeps a constant signal constant
        assert np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-15)
