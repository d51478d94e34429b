"""Release gate: ten pass/fail criteria printed one line each.

Each test prints exactly one `CRITERION k: PASS/FAIL - detail` line
before asserting, so a plain pytest run doubles as the sign-off
checklist for the toolkit.
"""

import numpy as np

from bm4dpc.bm4d import engine
from bm4dpc.bm4d.transforms import group_transform
from bm4dpc.core import NoisePsd
from bm4dpc.evaluate import fit_dti, rmse_map
from bm4dpc.gpca import forward_pca, inverse_pca
from bm4dpc.simulate import fibonacci_directions

from _util import (
    group_variances, pearson, radial_profile, rel_rmse, run_stage, shell_mean_psnr,
)


def _report(k, ok, detail):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_colored_noise_gain(gt_real, colored_stabilized,
                                        colored_denoised):
    noisy = shell_mean_psnr(gt_real, colored_stabilized, 1000.0)
    denoised = shell_mean_psnr(gt_real, colored_denoised["dataset"], 1000.0)
    gain = denoised - noisy
    seconds = colored_denoised["seconds"]
    ok = gain >= 10.0 and seconds <= 300.0
    _report(
        1, ok,
        f"b=1000 PSNR {noisy:.2f} -> {denoised:.2f} dB "
        f"(gain {gain:.2f} dB, need >= 10), "
        f"single-worker runtime {seconds:.1f} s (limit 300)",
    )


def test_criterion_2_beats_mppca_colored(gt_real, colored_denoised,
                                         colored_mppca):
    ours = shell_mean_psnr(gt_real, colored_denoised["dataset"], 1000.0)
    baseline = shell_mean_psnr(gt_real, colored_mppca, 1000.0)
    ok = ours >= baseline + 1.0
    _report(
        2, ok,
        f"colored b=1000 PSNR {ours:.2f} vs baseline {baseline:.2f} dB "
        f"(need >= baseline + 1)",
    )


def test_criterion_3_white_noise_parity(gt_real, white_stabilized,
                                        white_denoised, white_mppca):
    noisy = shell_mean_psnr(gt_real, white_stabilized, 1000.0)
    ours = shell_mean_psnr(gt_real, white_denoised["dataset"], 1000.0)
    baseline = shell_mean_psnr(gt_real, white_mppca, 1000.0)
    ok = ours >= baseline - 0.5 and ours >= noisy + 8.0
    _report(
        3, ok,
        f"white b=1000 PSNR {ours:.2f} dB vs baseline {baseline:.2f} "
        f"(need >= baseline - 0.5) and noisy {noisy:.2f} (need >= noisy + 8)",
    )


def test_criterion_4_fa_rmse_halved(gt_real, colored_stabilized,
                                    colored_denoised, support):
    fa_gt, _ = fit_dti(gt_real, support)
    fa_noisy, _ = fit_dti(colored_stabilized, support)
    fa_den, _ = fit_dti(colored_denoised["dataset"], support)
    rmse_noisy = rmse_map(fa_gt, fa_noisy, support)
    rmse_den = rmse_map(fa_gt, fa_den, support)
    ok = rmse_den <= 0.5 * rmse_noisy
    _report(
        4, ok,
        f"FA RMSE {rmse_noisy:.4f} -> {rmse_den:.4f} "
        f"(ratio {rmse_den / rmse_noisy:.3f}, need <= 0.5)",
    )


def test_criterion_5_noise_map_accuracy(colored_denoised, colored_arm,
                                        support):
    err = rel_rmse(
        colored_denoised["sigma"].data, colored_arm["sigma"].data, support
    )
    ok = err <= 0.15
    _report(5, ok, f"sigma map relative RMSE {err:.4f} (need <= 0.15)")


def test_criterion_6_psd_accuracy(colored_denoised, colored_arm):
    est = colored_denoised["psd"].data
    truth = colored_arm["psd"].data
    _, prof_est = radial_profile(est)
    _, prof_true = radial_profile(truth)
    r = pearson(prof_est, prof_true)
    mean = est.mean()
    ok = r >= 0.9 and abs(mean - 1.0) <= 1e-6
    _report(
        6, ok,
        f"radial PSD Pearson r {r:.4f} (need >= 0.9), "
        f"grid mean {mean:.9f} (need 1 +/- 1e-6)",
    )


def test_criterion_7_variance_oracles(dog_variance_mc):
    psd = NoisePsd(np.ones((24, 24, 8)))
    positions = np.array(
        [[0, 0, 0], [4, 0, 0], [0, 4, 0], [4, 4, 0]], dtype=np.intp
    )
    flat_dev = np.max(np.abs(group_variances(psd, positions) - 1.0))

    predicted = dog_variance_mc["predicted"]
    empirical = dog_variance_mc["empirical"]
    draws = dog_variance_mc["draws"]
    mc_rel = np.max(np.abs(empirical - predicted) / predicted)
    ok = flat_dev <= 1e-9 and draws >= 20_000 and mc_rel <= 0.05
    _report(
        7, ok,
        f"flat-spectrum variance deviation {flat_dev:.2e} (need <= 1e-9); "
        f"correlated 2-block Monte-Carlo ({draws} draws) max rel dev "
        f"{mc_rel:.4f} (need <= 0.05)",
    )


def test_criterion_8_transform_and_pca_exactness(monkeypatch):
    rng = np.random.default_rng(80)
    group = rng.standard_normal((8, 4, 4, 4))
    parseval = abs(
        np.linalg.norm(group_transform(group)) - np.linalg.norm(group)
    ) / np.linalg.norm(group)

    matrix = rng.standard_normal((500, 10)).T  # 10 volumes of 500 voxels
    pcs, basis, _ = forward_pca(matrix)
    restored = inverse_pca(pcs, basis)
    round_trip = np.linalg.norm(restored - matrix) / np.linalg.norm(matrix)

    channels = rng.standard_normal((16, 16, 16, 1))
    monkeypatch.setattr(engine, "HT_THRESHOLD", 0.0)
    out = run_stage(channels, NoisePsd(np.ones((16, 16, 16))), stage=1)
    identity = np.max(np.abs(out - channels))

    ok = parseval <= 1e-10 and round_trip <= 1e-8 and identity <= 1e-6
    _report(
        8, ok,
        f"Parseval rel dev {parseval:.2e} (<= 1e-10), "
        f"PCA round trip {round_trip:.2e} (<= 1e-8), "
        f"zero-threshold identity {identity:.2e} (<= 1e-6)",
    )


def test_criterion_9_dti_exactness():
    from bm4dpc.core import DwiDataset

    rng = np.random.default_rng(90)
    dims = (6, 6, 3)
    a = rng.standard_normal(dims + (3, 3))
    tensors = 1e-4 * (a @ a.swapaxes(-1, -2) + 3.0 * np.eye(3))
    s0 = 0.5 + 0.5 * rng.random(dims)
    bvals = np.array([0.0, 0.0] + [1000.0] * 20)
    bvecs = np.vstack([np.zeros((2, 3)), fibonacci_directions(20, seed=9)])

    def synth(tens):
        vols = []
        for b, g in zip(bvals, bvecs):
            expo = np.einsum("...ij,i,j->...", tens, g, g)
            vols.append(s0 * np.exp(-b * expo))
        return DwiDataset(np.stack(vols), bvals, bvecs)

    mask = np.ones(dims, bool)
    fa, md = fit_dti(synth(tensors), mask)
    evals = np.linalg.eigvalsh(tensors)
    md_true = evals.mean(axis=-1)
    dev2 = ((evals - md_true[..., None]) ** 2).sum(axis=-1)
    fa_true = np.sqrt(1.5 * dev2 / (evals * evals).sum(axis=-1))
    fa_err = np.max(np.abs(fa.data - fa_true))
    md_err = np.max(np.abs(md.data - md_true))

    iso = np.broadcast_to(1e-3 * np.eye(3), dims + (3, 3))
    fa_iso, md_iso = fit_dti(synth(iso), mask)
    iso_err = np.max(np.abs(fa_iso.data))
    iso_md_err = np.max(np.abs(md_iso.data - 1e-3))

    stick = np.broadcast_to(np.diag([1.5e-3, 0.0, 0.0]), dims + (3, 3))
    fa_stick, _ = fit_dti(synth(stick), mask)
    stick_err = np.max(np.abs(fa_stick.data - 1.0))

    ok = (
        fa_err <= 1e-6 and md_err <= 1e-6
        and iso_err <= 1e-9 and iso_md_err <= 1e-9
        and stick_err <= 1e-6
    )
    _report(
        9, ok,
        f"random tensors: FA err {fa_err:.2e}, MD err {md_err:.2e} "
        f"(<= 1e-6); isotropic FA {iso_err:.2e} (<= 1e-9); "
        f"stick FA-1 {stick_err:.2e} (<= 1e-6)",
    )


def test_criterion_10_thread_determinism(cli_chains):
    one, eight = cli_chains[1]["files"], cli_chains[8]["files"]
    same_names = set(one) == set(eight)
    diffs = [n for n in one if same_names and one[n] != eight[n]]
    ok = same_names and not diffs
    _report(
        10, ok,
        f"simulate->denoise->metrics with --threads 1 vs 8: "
        f"{len(one)} output files byte-identical"
        + ("" if ok else f" (differs: {diffs})"),
    )
