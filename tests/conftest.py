"""Session-scoped fixtures shared by the unit and acceptance tests.

The denoising runs and the Monte-Carlo oracles are expensive, so each
is computed exactly once per session and reused everywhere (acceptance
criteria included).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from bm4dpc import (
    NoiseSpec,
    PhantomSpec,
    add_noise,
    denoise_bm4dpc,
    kernel_to_psd,
    make_colored_kernel,
    make_phantom,
    mppca_denoise,
    stabilize_phase,
)
from bm4dpc.bm4d.transforms import group_transform
from bm4dpc.cli import run_cli

from _util import group_variances, synth_colored_batch

NOISE_LEVEL = 0.05
COLORED_SEED = 1
WHITE_SEED = 2


@pytest.fixture(scope="session")
def phantom():
    """Default noise-free phantom: (complex dataset, tensors, support)."""
    return make_phantom(PhantomSpec())


@pytest.fixture(scope="session")
def gt_real(phantom):
    """Magnitude ground truth, the real-valued denoising target."""
    clean, _, _ = phantom
    return replace(clean, data=np.abs(clean.data))


@pytest.fixture(scope="session")
def support(phantom):
    return phantom[2]


@pytest.fixture(scope="session")
def colored_arm(phantom):
    clean, _, _ = phantom
    spec = NoiseSpec(
        level=NOISE_LEVEL, kernel=make_colored_kernel(), seed=COLORED_SEED
    )
    noisy, sigma_true, psd_true = add_noise(clean, spec)
    return {"noisy": noisy, "sigma": sigma_true, "psd": psd_true}


@pytest.fixture(scope="session")
def white_arm(phantom):
    clean, _, _ = phantom
    noisy, sigma_true, psd_true = add_noise(
        clean, NoiseSpec(level=NOISE_LEVEL, seed=WHITE_SEED)
    )
    return {"noisy": noisy, "sigma": sigma_true, "psd": psd_true}


@pytest.fixture(scope="session")
def colored_stabilized(colored_arm):
    """The noisy comparison arm: phase-stabilized real data."""
    return stabilize_phase(colored_arm["noisy"])


@pytest.fixture(scope="session")
def white_stabilized(white_arm):
    return stabilize_phase(white_arm["noisy"])


@pytest.fixture(scope="session")
def colored_denoised(colored_arm):
    """Full pipeline on the colored arm, single worker, wall time kept."""
    start = time.perf_counter()
    denoised, sigma_est, psd_est = denoise_bm4dpc(colored_arm["noisy"], threads=1)
    elapsed = time.perf_counter() - start
    return {
        "dataset": denoised,
        "sigma": sigma_est,
        "psd": psd_est,
        "seconds": elapsed,
    }


@pytest.fixture(scope="session")
def white_denoised(white_arm):
    denoised, sigma_est, psd_est = denoise_bm4dpc(white_arm["noisy"], threads=4)
    return {"dataset": denoised, "sigma": sigma_est, "psd": psd_est}


@pytest.fixture(scope="session")
def colored_mppca(colored_stabilized):
    return mppca_denoise(colored_stabilized)


@pytest.fixture(scope="session")
def white_mppca(white_stabilized):
    return mppca_denoise(white_stabilized)


@pytest.fixture(scope="session")
def dog_variance_mc():
    """Monte-Carlo oracle for exact coefficient variances.

    Difference-of-Gaussians PSD, a two-block group at offset (1, 0, 0)
    (overlapping, so cross-block covariance matters), 20000 correlated
    draws. Returns the predicted and empirical (M, b0, b1, b2) variance
    arrays.
    """
    dims = (24, 24, 8)
    draws = 20000
    kernel = make_colored_kernel()
    psd = kernel_to_psd(kernel, dims)
    positions = np.array([[4, 4, 2], [5, 4, 2]])
    predicted = group_variances(psd, positions)

    rng = np.random.default_rng(42)
    block = tuple(slice(0, 4) for _ in range(3))
    total = np.zeros_like(predicted)
    total_sq = np.zeros_like(predicted)
    for batch in synth_colored_batch(rng, draws, dims, psd.data):
        # (M, 4, 4, 4, draws): the draws ride along as trailing channels
        groups = np.stack(
            [
                np.moveaxis(
                    batch[(slice(None),) + tuple(slice(p, p + 4) for p in pos)],
                    0, -1,
                )
                for pos in positions
            ]
        )
        coeffs = group_transform(groups)
        total += coeffs.sum(axis=-1)
        total_sq += (coeffs**2).sum(axis=-1)
    empirical = total_sq / draws - (total / draws) ** 2
    return {"predicted": predicted, "empirical": empirical, "draws": draws}


def _run_cli_chain(root, threads):
    """simulate -> denoise -> metrics on CLI defaults; returns file bytes."""
    out = root / f"chain_t{threads}"
    out.mkdir()
    t = str(threads)
    code = run_cli(["--threads", t, "simulate", "--out", str(out)])
    assert code == 0, "simulate failed"
    code = run_cli(
        [
            "--threads", t,
            "denoise",
            "--in", str(out / "noisy.nii"),
            "--bval", str(out / "bvals"),
            "--out", str(out / "denoised.nii"),
            "--save-noise-estimates", str(out),
        ]
    )
    assert code == 0, "denoise failed"
    code = run_cli(
        [
            "--threads", t,
            "metrics",
            "--ref", str(out / "gt.nii"),
            "--test", str(out / "denoised.nii"),
            "--bval", str(out / "bvals"),
            "--out", str(out / "report.json"),
        ]
    )
    assert code == 0, "metrics failed"
    files = {}
    for path in sorted(out.iterdir()):
        files[path.name] = path.read_bytes()
    report = json.loads(files["report.json"].decode())
    return {"files": files, "report": report, "dir": out}


@pytest.fixture(scope="session")
def cli_chains(tmp_path_factory):
    """The full CLI chain run with --threads 1 and --threads 8."""
    root = tmp_path_factory.mktemp("cli_chains")
    return {
        1: _run_cli_chain(root, 1),
        8: _run_cli_chain(root, 8),
    }
