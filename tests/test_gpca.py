"""Global PCA against an independent SVD oracle.

Stacks are (N, ...) arrays, volumes first, and PCs (..., N) arrays,
components last. The oracles draw W x N matrices and hand the PCA
their transpose.
"""

import numpy as np
import pytest

from bm4dpc.gpca import forward_pca, inverse_pca


class TestForwardPca:
    def test_identity_input(self):
        A, _, eigenvalues = forward_pca(np.eye(2))
        assert np.allclose(eigenvalues, [1.0, 1.0], atol=1e-12)
        assert np.allclose(A @ A.T, np.eye(2), atol=1e-12)
        assert np.linalg.norm(A) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_rank_one_input(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(50)
        matrix = np.stack([q, 2.0 * q])
        pcs, _, eigenvalues = forward_pca(matrix)
        assert eigenvalues[1] <= 1e-10 * eigenvalues[0]
        second = pcs[..., 1]
        assert np.linalg.norm(second) <= 1e-6 * np.linalg.norm(matrix)

    def test_svd_oracle(self):
        """Eigenvalues are squared singular values; A = U * S up to
        per-column sign."""
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((100, 8))
        A, _, eigenvalues = forward_pca(matrix.T)

        u, s, _ = np.linalg.svd(matrix, full_matrices=False)
        assert np.allclose(eigenvalues, s**2, rtol=1e-8)

        us = u * s
        for j in range(8):
            sign = np.sign(A[:, j] @ us[:, j])
            assert np.allclose(A[:, j], sign * us[:, j], atol=1e-8 * s[0])

    def test_eigenvalues_sorted_nonnegative(self):
        rng = np.random.default_rng(2)
        _, _, eigenvalues = forward_pca(rng.standard_normal((60, 6)).T)
        assert np.all(np.diff(eigenvalues) <= 0)
        assert np.all(eigenvalues >= 0)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        _, basis, _ = forward_pca(rng.standard_normal((40, 5)).T)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-10

    def test_energy_conserved(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((80, 7))
        pcs, _, _ = forward_pca(matrix.T)
        assert np.linalg.norm(pcs) == pytest.approx(
            np.linalg.norm(matrix), rel=1e-10
        )

    def test_dims_reshape(self):
        rng = np.random.default_rng(6)
        pcs, basis, _ = forward_pca(rng.standard_normal((3, 2, 3, 4)))
        assert pcs.shape == (2, 3, 4, 3)
        assert basis.shape == (3, 3)


class TestInversePca:
    def test_round_trip(self):
        """Exact for a tall stack and for one with fewer voxels than
        volumes, whose trailing eigenvalues are zero."""
        rng = np.random.default_rng(7)
        for matrix in (rng.standard_normal((64, 6)).T,
                       rng.standard_normal((65, 4, 4, 4))):
            pcs, basis, _ = forward_pca(matrix)
            back = inverse_pca(pcs, basis)
            rel = np.linalg.norm(back - matrix) / np.linalg.norm(matrix)
            assert rel <= 1e-8

    def test_identity_basis_passthrough(self):
        rng = np.random.default_rng(8)
        s_hat = rng.standard_normal((30, 4))
        assert np.array_equal(inverse_pca(s_hat, np.eye(4)), s_hat.T)

    def test_zeroed_last_pc_matches_truncated_svd(self):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((50, 6))
        pcs, basis, _ = forward_pca(matrix.T)

        pcs[..., -1] = 0.0
        recon = inverse_pca(pcs, basis)

        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        truncated = (u[:, :5] @ np.diag(s[:5]) @ vh[:5]).T
        rel = np.linalg.norm(recon - truncated) / np.linalg.norm(matrix)
        assert rel <= 1e-8


class TestStackLayout:
    def test_non_cubic_stack_voxelwise(self):
        """PC j is sum_i basis[i, j] * volume i voxel by voxel; distinct
        m, n, o extents catch any mix-up of the spatial axes."""
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((5, 3, 4, 6))
        pcs, basis, _ = forward_pca(stack)
        assert pcs.shape == stack.shape[1:] + (5,)
        for j in range(5):
            expected = sum(basis[i, j] * stack[i] for i in range(5))
            assert np.max(np.abs(pcs[..., j] - expected)) <= 1e-12
        back = inverse_pca(pcs, basis)
        assert back.shape == stack.shape
        assert np.max(np.abs(back - stack)) <= 1e-12

    def test_pcs_c_contiguous_channel_last(self):
        """The PCs are one C-contiguous (m, n, o, N) array, the stack
        that the filtering stages take as it is: flattening its voxels
        copies nothing."""
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((5, 3, 4, 6))
        pcs, basis, _ = forward_pca(stack)
        assert pcs.shape == (3, 4, 6, 5)
        assert pcs.flags.c_contiguous
        flat = pcs.reshape(-1, 5)
        assert np.shares_memory(flat, pcs)
        expected = stack.reshape(5, -1).T @ basis
        assert np.max(np.abs(flat - expected)) <= 1e-12

    def test_inverse_reads_any_layout(self):
        """Non-contiguous channel-last views (components first in
        memory, or every other component of a wider array) give the
        contiguous PCs' volumes, C-contiguous."""
        rng = np.random.default_rng(13)
        pcs, basis, _ = forward_pca(rng.standard_normal((5, 3, 4, 6)))
        back = inverse_pca(pcs, basis)
        assert back.shape == (5, 3, 4, 6)
        assert back.flags.c_contiguous
        channel_first = np.moveaxis(np.moveaxis(pcs, -1, 0).copy(), 0, -1)
        wide = np.zeros((3, 4, 6, 10))
        wide[..., ::2] = pcs
        for view in (channel_first, wide[..., ::2]):
            assert not view.flags.c_contiguous
            got = inverse_pca(view, basis)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - back)) <= 1e-12
