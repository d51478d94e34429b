"""Coefficient variances under correlated noise.

The flat-spectrum checks use block-spaced positions on purpose: blocks
that overlap in the volume share noise samples, so their coefficients
covary and the per-coefficient variance after the Haar stage is no
longer one even for white noise.  The Monte-Carlo oracle covers the
correlated, overlapping case.
"""

import tracemalloc

import numpy as np
import pytest

from bm4dpc.bm4d import engine
from bm4dpc.bm4d.engine import BLOCK, SEARCH_RADIUS, bm4d_multichannel
from bm4dpc.bm4d.transforms import dct_matrix, haar_matrix
from bm4dpc.bm4d.variance import (
    _centered_lags, basis_autocorr, fold_psd, variances_from_fields,
)
from bm4dpc.core import NoisePsd
from bm4dpc.simulate import kernel_to_psd, make_colored_kernel

from _util import group_variances


class TestFoldPsd:
    def test_identity_when_dims_match(self):
        rng = np.random.default_rng(0)
        raw = np.abs(rng.standard_normal((24, 24, 8))) + 0.5
        psi = raw / raw.mean()
        out = fold_psd(psi, (24, 24, 8))
        assert np.array_equal(out, psi)

    def test_growth_zero_pads_and_round_trips(self):
        """A 3 x 3 x 3 kernel's autocorrelation spans lags -2..2, so
        growing its spectrum by zero-padding gives the kernel's spectrum
        on the larger grid, and the grown spectrum's autocorrelation
        holds the original's at the original grid's centered lags."""
        kernel = np.random.default_rng(2).random((3, 3, 3))
        psi = np.abs(np.fft.fftn(kernel, (12, 10, 6), axes=(0, 1, 2))) ** 2
        grown = fold_psd(psi, (24, 17, 6))
        full = np.abs(np.fft.fftn(kernel, (24, 17, 6), axes=(0, 1, 2))) ** 2
        assert np.max(np.abs(grown - full)) <= 1e-12
        lags = np.ix_(*(_centered_lags(d, e) for d, e in zip(psi.shape, grown.shape)))
        back = np.fft.ifftn(grown)[lags].real
        assert np.max(np.abs(back - np.fft.ifftn(psi).real)) <= 1e-12

    def test_mixed_axes_and_rank_checked(self):
        """Axes that grow and axes that keep their extent, in one call."""
        psi = np.ones((16, 8, 4))
        out = fold_psd(psi, (16, 12, 4))
        assert out.shape == (16, 12, 4)
        assert np.max(np.abs(out - 1.0)) <= 1e-12


def _signed_lags(fields, radius):
    """Working-grid fields re-indexed at the lags -2r..2r of each axis,
    modulo the grid."""
    work = fields.shape[:3]
    return fields[np.ix_(*(np.arange(-2 * r, 2 * r + 1) % w for r, w in zip(radius, work)))]


def _table(psi):
    """The lag table the engine builds for `psi`: the standard block and
    search radius, on the PSD's own grid."""
    return basis_autocorr(psi, BLOCK, SEARCH_RADIUS)


def one_shot_fields(psi_work, block):
    """The working-grid fields as one einsum over all basis functions
    followed by one ifftn: ifftn(psi * |DFT(basis_p)|^2).real, (w0, w1,
    w2, P)."""
    work = psi_work.shape
    s0, s1, s2 = (np.abs(np.fft.fft(dct_matrix(b), n=w)) ** 2
                  for b, w in zip(block, work))
    spectra = np.einsum("ax,by,cz,xyz->xyzabc", s0, s1, s2, psi_work)
    return np.fft.ifftn(spectra.reshape(work + (-1,)), axes=(0, 1, 2)).real


def padded_basis_autocorr(psi_work, block, radius):
    """basis_autocorr the long way: every 3D basis function zero-padded
    to the working grid, a forward 4D FFT of the (P, w0, w1, w2) stack,
    the inverse FFT of its power spectra times the PSD, and the fields
    read at the signed lags."""
    t0, t1, t2 = (dct_matrix(e) for e in block)
    basis = np.einsum("ai,bj,ck->abcijk", t0, t1, t2)
    basis = basis.reshape((int(np.prod(block)),) + tuple(block))
    pad = np.zeros((len(basis),) + psi_work.shape)
    pad[:, : block[0], : block[1], : block[2]] = basis
    spectra = np.abs(np.fft.fftn(pad, axes=(1, 2, 3))) ** 2
    fields = np.fft.ifftn(spectra * psi_work, axes=(1, 2, 3)).real
    return _signed_lags(np.moveaxis(fields, 0, -1), radius)


def fields_variances(fields, offsets, block):
    """The variances read from working-grid fields at the pairwise
    offsets modulo the grid: the double sum over every member pair (i,
    j) of haar[k, i] * haar[k, j] * field(off_i - off_j), for all Haar
    rows k at once."""
    m = offsets.shape[0]
    work = np.asarray(fields.shape[:3])
    haar = haar_matrix(m)
    var = np.zeros((m, fields.shape[3]))
    for i in range(m):
        for j in range(m):
            lag = tuple((offsets[i] - offsets[j]) % work)
            var += np.outer(haar[:, i] * haar[:, j], fields[lag])
    return np.clip(var, 0.0, None).reshape((m,) + tuple(block))


# (28, 28, 16) has in-plane axes past the 21 signed lags of radius 5 and a
# z axis below them, as the gate's 32x32x16 grid does; on (4, 4, 4) the
# lags wrap several times
WORK_GRIDS = [(28, 28, 16), (17, 19, 9), (4, 4, 4)]


class TestBasisAutocorr:
    @pytest.mark.parametrize("block", [(4, 4, 4), (2, 3, 4)])
    @pytest.mark.parametrize("work", WORK_GRIDS)
    def test_matches_padded_basis_reference(self, block, work):
        """The per-axis correlations of the noise autocorrelation give
        the fields of the padded-basis 4D FFT, in the same p = k0*b1*b2 +
        k1*b2 + k2 order, on even and odd working grids, on axes longer
        and shorter than the signed lags, at radius 5 and 1."""
        psi = np.random.default_rng(5).random(work)
        for radius in ((5, 5, 5), (1, 1, 1)):
            table = basis_autocorr(psi, block, radius)
            edges = tuple(4 * r + 1 for r in radius)
            assert table.shape == edges + (int(np.prod(block)),)
            assert table.flags.c_contiguous
            ref = padded_basis_autocorr(psi, block, radius)
            assert np.max(np.abs(table - ref)) <= 1e-12

    @pytest.mark.parametrize("work", WORK_GRIDS)
    @pytest.mark.parametrize("m", [1, 2, 16, 32])
    def test_variances_match_working_grid_fields(self, work, m):
        """Groups of corners within the search radius of their reference
        get the variances read from the working-grid fields modulo the
        grid by the explicit sum over all M^2 member pairs, within the
        float64 rounding of M^2 terms of at most the fields' largest
        magnitude. The table is those fields' signed-lag rows, so this
        checks the lookup and the half-pair sum."""
        rng = np.random.default_rng(8)
        psi = rng.random(work)
        block = (4, 4, 4)
        fields = one_shot_fields(psi, block)
        table = _signed_lags(fields, (5, 5, 5))
        tol = m * m * np.finfo(np.float64).eps * np.abs(fields).max()
        for _ in range(5):
            offsets = rng.integers(-5, 6, size=(m, 3))
            offsets[0] = 0  # the reference
            expected = fields_variances(fields, offsets, block)
            got = variances_from_fields(table, offsets, block)
            assert np.max(np.abs(got - expected)) <= tol

    @pytest.mark.parametrize("work", WORK_GRIDS)
    def test_table_even_in_the_lag(self, work):
        """T[-d] = T[d] up to rounding, for a random PSD with no symmetry
        of its own: ifftn(psi).real is even for any real psi, and so is
        each DCT row's autocorrelation. `variances_from_fields` sums
        only the pairs i < j on this property."""
        psi = np.random.default_rng(9).random(work) + 0.1
        assert not np.allclose(psi, np.roll(psi[::-1, ::-1, ::-1], 1, axis=(0, 1, 2)))
        table = basis_autocorr(psi, (4, 4, 4), (5, 5, 5))
        flipped = table[::-1, ::-1, ::-1]  # the lag box is symmetric about 0
        tol = 8 * np.finfo(np.float64).eps * np.abs(table).max()
        assert np.max(np.abs(flipped - table)) <= tol

    def test_peak_memory_below_three_fields(self):
        """The build never holds the (28, 28, 16, 64) working-grid fields
        (6.4 MB): it correlates the autocorrelation's 27^3 lag box one
        axis at a time, so it peaks at the table (21^3 * 64 float64, 4.7
        MB) and the product before it (21 * 21 * 27 * 16 float64, 1.5
        MB), about 1.32x the table: below 2x the table, and below 1.25x
        those fields. The same products by np.tensordot copy the windows
        and peak at about 3.1x the table."""
        psi = np.random.default_rng(7).random((28, 28, 16))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = basis_autocorr(psi, (4, 4, 4), (5, 5, 5))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * table.nbytes
        assert peak < 1.25 * psi.nbytes * 64

    def test_flat_psd_zero_lag(self):
        """For unit white noise every orthonormal basis coefficient has
        unit variance, which is exactly the zero-lag autocorrelation."""
        table = basis_autocorr(np.ones((24, 24, 8)), (4, 4, 4), (5, 5, 5))
        assert table.shape == (21, 21, 21, 64)
        assert np.max(np.abs(table[10, 10, 10] - 1.0)) <= 1e-9


class TestEngineTable:
    @pytest.mark.parametrize("dims", [(32, 32, 16), (37, 30, 9)])
    def test_table_is_the_given_psds_autocorrelation(self, monkeypatch, dims):
        """`bm4d_multichannel` builds one lag table per run, from the PSD
        it was given on its full grid: the padded-basis reference of that
        PSD, on grids with in-plane axes longer than 28 = 2 * (2R + b),
        even and odd. The stages are stubbed out, as only the table is
        read."""
        psd = kernel_to_psd(make_colored_kernel(), dims)
        build = engine.basis_autocorr
        tables = []

        def recorded(*args):
            tables.append(build(*args))
            return tables[-1]

        monkeypatch.setattr(engine, "basis_autocorr", recorded)
        monkeypatch.setattr(engine, "bm4d_stage", lambda stack, *args, **kwargs: stack)
        bm4d_multichannel(np.zeros(dims + (1,)), psd)
        assert len(tables) == 1
        ref = padded_basis_autocorr(psd.data, BLOCK, SEARCH_RADIUS)
        assert np.max(np.abs(tables[0] - ref)) <= 1e-12


class TestCoeffVariances:
    def test_flat_psd_unit_variance(self):
        psd = NoisePsd(np.ones((24, 24, 8)))
        positions = np.array(
            [[0, 0, 0], [4, 0, 0], [0, 4, 0], [4, 4, 0]], dtype=np.intp
        )
        var = group_variances(psd, positions)
        assert var.shape == (4, 4, 4, 4)
        assert np.max(np.abs(var - 1.0)) <= 1e-9

    def test_flat_psd_single_block(self):
        psd = NoisePsd(np.ones((24, 24, 8)))
        var = group_variances(psd, np.array([[3, 7, 2]], dtype=np.intp))
        assert np.max(np.abs(var - 1.0)) <= 1e-9

    def test_overlapping_blocks_share_noise(self):
        """Blocks shifted by one voxel reuse most noise samples, so the
        Haar DC coefficient variance exceeds the white-noise value."""
        psd = NoisePsd(np.ones((24, 24, 8)))
        positions = np.array([[4, 4, 2], [5, 4, 2]], dtype=np.intp)
        var = group_variances(psd, positions)
        assert var[0, 0, 0, 0] > 1.5

    def test_scaling_power_of_two(self):
        """The variances are linear in the PSD. NoisePsd divides any
        scale out, so raw arrays go straight to the lag table."""
        rng = np.random.default_rng(2)
        raw = np.abs(rng.standard_normal((24, 24, 8))) + 0.5
        offsets = np.array([[0, 0, 0], [5, 2, 1]], dtype=np.intp)
        base = variances_from_fields(_table(raw), offsets, BLOCK)
        scaled = variances_from_fields(_table(4.0 * raw), offsets, BLOCK)
        assert np.array_equal(scaled, 4.0 * base)

    def test_scaling_general_factor(self):
        rng = np.random.default_rng(3)
        raw = np.abs(rng.standard_normal((24, 24, 8))) + 0.5
        offsets = np.array([[0, 0, 0], [5, 2, 1]], dtype=np.intp)
        base = variances_from_fields(_table(raw), offsets, BLOCK)
        scaled = variances_from_fields(_table(2.5 * raw), offsets, BLOCK)
        assert np.allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_monte_carlo_oracle(self, dog_variance_mc):
        """Predicted variances against an empirical estimate from
        synthesized correlated noise, overlapping two-block group."""
        predicted = dog_variance_mc["predicted"]
        empirical = dog_variance_mc["empirical"]
        assert dog_variance_mc["draws"] >= 10_000
        rel = np.abs(empirical - predicted) / predicted
        assert np.max(rel) <= 0.05

    def test_returns_finite_nonnegative_array(self):
        """The variances come back as a plain float64 array, finite and
        nonnegative, here for an overlapping group on a 32 x 32 x 8 PSD,
        whose in-plane axes are longer than the table's lag box."""
        rng = np.random.default_rng(4)
        raw = np.abs(rng.standard_normal((32, 32, 8))) + 0.5
        positions = np.array(
            [[4, 4, 2], [5, 4, 2], [4, 5, 2], [9, 6, 3]], dtype=np.intp
        )
        psd = NoisePsd(raw / raw.mean())
        var = group_variances(psd, positions)
        assert type(var) is np.ndarray
        assert var.dtype == np.float64 and var.shape == (4, 4, 4, 4)
        assert np.all(np.isfinite(var)) and np.all(var >= 0.0)
