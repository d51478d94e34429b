"""Separable orthonormal group transforms."""

import numpy as np
import pytest
import scipy.fft

from bm4dpc.bm4d.transforms import (
    dct_matrix,
    group_inverse,
    group_transform,
    haar_matrix,
)

SQ2 = np.sqrt(2.0)


def dense_block_dct(block):
    """The 3D block DCT as one dense (P, P) matrix built from dct_matrix.

    Row p = k0*b1*b2 + k1*b2 + k2 is the outer product of the k0-th,
    k1-th and k2-th DCT rows, raveled.
    """
    t0, t1, t2 = (dct_matrix(e) for e in block)
    size = int(np.prod(block))
    return np.einsum("ai,bj,ck->abcijk", t0, t1, t2).reshape(size, size)


class TestDctMatrix:
    def test_orthonormal(self):
        for n in (2, 3, 4, 8):
            mat = dct_matrix(n)
            assert np.max(np.abs(mat @ mat.T - np.eye(n))) <= 1e-12

    def test_matches_scipy_dct(self):
        rng = np.random.default_rng(0)
        for n in (4, 7):
            x = rng.standard_normal(n)
            ours = dct_matrix(n) @ x
            ref = scipy.fft.dct(x, type=2, norm="ortho")
            assert np.allclose(ours, ref, atol=1e-12)

    def test_first_row_is_dc(self):
        mat = dct_matrix(4)
        assert np.allclose(mat[0], 0.5, atol=1e-12)


class TestHaarMatrix:
    def test_known_small_sizes(self):
        assert np.array_equal(haar_matrix(1), np.ones((1, 1)))
        assert np.allclose(
            haar_matrix(2), np.array([[1, 1], [1, -1]]) / SQ2, atol=1e-12
        )
        expected4 = np.array(
            [
                [0.5, 0.5, 0.5, 0.5],
                [0.5, 0.5, -0.5, -0.5],
                [1 / SQ2, -1 / SQ2, 0, 0],
                [0, 0, 1 / SQ2, -1 / SQ2],
            ]
        )
        assert np.allclose(haar_matrix(4), expected4, atol=1e-12)

    def test_orthonormal(self):
        for m in (1, 2, 4, 8, 16, 32):
            mat = haar_matrix(m)
            assert np.max(np.abs(mat @ mat.T - np.eye(m))) <= 1e-12

    def test_row_zero_is_dc(self):
        for m in (2, 8):
            assert np.allclose(haar_matrix(m)[0], 1.0 / np.sqrt(m), atol=1e-12)

    def test_power_of_two_required(self):
        """haar_matrix trusts its size; a group of 3 (or 0) blocks still
        fails in both group transforms."""
        for m in (3, 0):
            with pytest.raises(ValueError):
                group_transform(np.zeros((m, 4, 4, 4, 2)))
            with pytest.raises(ValueError):
                group_inverse(np.zeros((m, 4, 4, 4, 2)))


@pytest.mark.parametrize("matrix, size", [(dct_matrix, 4), (haar_matrix, 16)])
def test_cached_matrix_is_read_only(matrix, size):
    """Every caller shares the cached array, so no caller may write it."""
    with pytest.raises(ValueError, match="read-only"):
        matrix(size)[0, 0] *= 1.0000001


class TestGroupTransform:
    def test_zeros_single_block(self):
        coeffs = group_transform(np.zeros((1, 4, 4, 4)))
        assert np.all(coeffs == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for m in (1, 2, 8, 16):
            group = rng.standard_normal((m, 4, 4, 4))
            back = group_inverse(group_transform(group))
            assert np.max(np.abs(back - group)) <= 1e-10

    def test_float32_group_stays_float32(self):
        """A float32 group is transformed in float32, within float32
        rounding of the float64 transform; the cached matrices stay
        float64."""
        rng = np.random.default_rng(3)
        group = rng.standard_normal((16, 4, 4, 4, 3))
        coeffs = group_transform(group.astype(np.float32))
        back = group_inverse(coeffs)
        assert coeffs.dtype == back.dtype == np.float32
        assert np.max(np.abs(coeffs - group_transform(group))) <= 1e-5
        assert np.max(np.abs(back - group)) <= 1e-5
        assert haar_matrix(16).dtype == dct_matrix(4).dtype == np.float64

    def test_parseval(self):
        rng = np.random.default_rng(2)
        group = rng.standard_normal((8, 4, 4, 4))
        coeffs = group_transform(group)
        assert np.linalg.norm(coeffs) == pytest.approx(
            np.linalg.norm(group), rel=1e-10
        )

    def test_leading_channel_axis(self):
        """Channels trail the group and block axes and are carried
        through: each channel transforms as a group of its own."""
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((4, 4, 4, 4, 3))
        coeffs = group_transform(stack)
        assert coeffs.shape == stack.shape
        for c in range(3):
            assert np.allclose(
                coeffs[..., c], group_transform(stack[..., c]), atol=1e-12
            )
        assert np.max(np.abs(group_inverse(coeffs) - stack)) <= 1e-10

    def test_single_member_group_is_block_transform(self):
        """With M = 1 the Haar factor is the identity, so the 4D
        transform reduces to the separable 3D block transform."""
        rng = np.random.default_rng(4)
        block = rng.standard_normal((4, 4, 4))
        coeffs = group_transform(block[None])[0]
        direct = (dense_block_dct((4, 4, 4)) @ block.ravel()).reshape(4, 4, 4)
        assert np.allclose(coeffs, direct, atol=1e-12)

    def test_matches_per_axis_reference(self):
        """The factored 3D DCT equals per-axis DCT-II passes followed
        by the Haar transform along the group axis, for non-cubic
        blocks and a trailing channel axis."""
        rng = np.random.default_rng(5)
        group = rng.standard_normal((8, 2, 3, 4, 3))
        ref = scipy.fft.dctn(group, type=2, norm="ortho", axes=(1, 2, 3))
        ref = np.tensordot(haar_matrix(8), ref, axes=(1, 0))
        coeffs = group_transform(group)
        assert np.max(np.abs(coeffs - ref)) <= 1e-12
        assert np.max(np.abs(group_inverse(coeffs) - group)) <= 1e-12

    @pytest.mark.parametrize("block", [(4, 4, 4), (2, 3, 4)])
    @pytest.mark.parametrize("m", [1, 2, 16, 32])
    def test_factored_dct_matches_block_basis(self, block, m):
        """The plane-then-axis DCT passes give the coefficients of the
        dense block DCT matrix built from the same 1D DCT rows."""
        rng = np.random.default_rng(15)
        group = rng.standard_normal((m,) + block + (3,))
        size = int(np.prod(block))
        basis = dense_block_dct(block)
        dense = np.einsum("pq,mqc->mpc", basis, group.reshape(m, size, 3))
        ref = (haar_matrix(m) @ dense.reshape(m, -1)).reshape(group.shape)
        coeffs = group_transform(group)
        assert np.max(np.abs(coeffs - ref)) <= 1e-12
        assert np.max(np.abs(group_inverse(ref) - group)) <= 1e-12

    def test_non_power_of_two_group_rejected(self):
        with pytest.raises(ValueError):
            group_transform(np.zeros((3, 4, 4, 4)))

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            group_transform(np.zeros((4, 4, 4)))

