"""Command-line interface: exit codes, file plumbing, determinism."""

import os
import struct

import numpy as np
import pytest

from bm4dpc import Volume3, __version__, cli
from bm4dpc.cli import build_parser, run_cli
from bm4dpc.dataio import attach_gradients, read_bvals_bvecs, read_nifti, write_nifti
from bm4dpc.evaluate import mppca_denoise, report_metrics
from bm4dpc.phasestab import stabilize_phase


@pytest.fixture(scope="module")
def small_sim(tmp_path_factory):
    """A small simulated acquisition for fast subcommand smokes."""
    out = tmp_path_factory.mktemp("small_sim")
    code = run_cli(
        [
            "--seed", "5",
            "simulate",
            "--out", str(out),
            "--size", "16", "16", "16",
            "--shells", "0:2,1000:8",
            "--noise-type", "white",
        ]
    )
    assert code == 0
    return out


class TestArgHandling:
    def test_unknown_flag(self):
        assert run_cli(["--bogus"]) == 2

    def test_missing_subcommand(self):
        assert run_cli([]) == 2

    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_shells_name_the_flag(self, tmp_path, capsys):
        """A malformed, empty or zero-count --shells entry exits 2 with a
        message that names the flag and the entry, and writes nothing."""
        for shells, entry in [
            ("1000", "'1000'"),
            ("0:1,,1000:7", "''"),
            ("0:1,1000:0", "'1000:0'"),
        ]:
            out = tmp_path / "x"
            code = run_cli(["simulate", "--out", str(out), "--shells", shells])
            assert code == 2
            err = capsys.readouterr().err
            assert f"--shells entry {entry}" in err
            assert not out.exists()

    def test_numerical_failure_exit_code(self, small_sim, tmp_path, capsys,
                                         monkeypatch):
        """A solver failure (`np.linalg.LinAlgError`) exits 4."""
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "fit_dti", fail)
        code = run_cli([
            "dti",
            "--in", str(small_sim / "gt.nii"),
            "--bval", str(small_sim / "bvals"),
            "--bvec", str(small_sim / "bvecs"),
            "--out-fa", str(tmp_path / "fa.nii"),
            "--out-md", str(tmp_path / "md.nii"),
        ])
        assert code == 4
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err
        assert not (tmp_path / "fa.nii").exists()

    def test_nonpositive_threads(self, tmp_path, capsys):
        code = run_cli(
            ["--threads", "0", "simulate", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "--threads must be positive" in capsys.readouterr().err

    def test_thread_default_from_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        assert build_parser().get_default("threads") == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert build_parser().get_default("threads") == 64

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            [
                "denoise",
                "--in", str(tmp_path / "absent.nii"),
                "--bval", str(tmp_path / "absent.bval"),
                "--out", str(tmp_path / "out.nii"),
            ]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, output", [
        ("denoise", "--out"), ("estimate-noise", "--out-map"),
        ("estimate-noise", "--out-psd"), ("metrics", "--out"), ("dti", "--out-fa"),
        ("dti", "--out-md"), ("baseline-mppca", "--out"),
    ])
    def test_bad_output_refused_before_reading(self, tmp_path, monkeypatch, capsys,
                                               command, output):
        """An output in a directory that does not exist, or one that is
        a directory, exits 3 naming that output before any input is
        read."""
        def read(path):
            raise OSError(f"read {path}")

        monkeypatch.setattr(cli, "read_nifti", read)
        flags = {
            "denoise": {"--in": "in.nii", "--bval": "bvals", "--out": "out.nii"},
            "estimate-noise": {"--in": "in.nii", "--bval": "bvals",
                               "--out-map": "map.nii", "--out-psd": "psd.nii"},
            "metrics": {"--ref": "ref.nii", "--test": "test.nii", "--bval": "bvals",
                        "--out": "report.json"},
            "dti": {"--in": "in.nii", "--bval": "bvals", "--bvec": "bvecs",
                    "--out-fa": "fa.nii", "--out-md": "md.nii"},
            "baseline-mppca": {"--in": "in.nii", "--out": "out.nii"},
        }[command]
        for bad in (tmp_path / "no_dir" / "x.nii", tmp_path):
            argv = [command]
            for flag, name in flags.items():
                argv += [flag, str(bad if flag == output else tmp_path / name)]
            assert run_cli(argv) == 3
            err = capsys.readouterr().err
            assert str(bad) in err and "read " not in err, err
        assert not any(tmp_path.iterdir())

    def test_colored_kernel_needs_room(self, tmp_path, capsys):
        # the correlation kernel spans 17 voxels in-plane
        code = run_cli(
            [
                "simulate",
                "--out", str(tmp_path / "x"),
                "--size", "16", "16", "16",
            ]
        )
        assert code == 2
        assert "kernel does not fit" in capsys.readouterr().err

    def test_corrupt_header_is_io_error(self, small_sim, tmp_path, capsys):
        blob = (small_sim / "noisy.nii").read_bytes()
        mutations = [
            ("<5h", 40, (4, 32767, 32767, 32767, 32767), "error:"),  # exabyte dims
            ("<f", 108, (float("nan"),), "error:"),  # vox_offset
            ("<h", 40, (5,), "unsupported dimensionality 5"),  # dim[0]
            ("<h", 42, (0,), "invalid dims"),  # a zero dim[1]
        ]
        for fmt, offset, values, message in mutations:
            bad = bytearray(blob)
            struct.pack_into(fmt, bad, offset, *values)
            path = tmp_path / "bad.nii"
            path.write_bytes(bytes(bad))
            code = run_cli(
                [
                    "denoise",
                    "--in", str(path),
                    "--bval", str(small_sim / "bvals"),
                    "--out", str(tmp_path / "out.nii"),
                ]
            )
            assert code == 3
            assert message in capsys.readouterr().err

    def _denoise(self, small_sim, tmp_path, **paths):
        argv = [
            "denoise",
            "--in", str(paths.get("noisy", small_sim / "noisy.nii")),
            "--bval", str(paths.get("bvals", small_sim / "bvals")),
            "--out", str(tmp_path / "out.nii"),
        ]
        if "noise_map" in paths:
            argv += ["--noise-map", str(paths["noise_map"])]
        if "psd" in paths:
            argv += ["--psd", str(paths["psd"])]
        return run_cli(argv)

    def test_nan_voxel_is_io_error(self, small_sim, tmp_path, capsys):
        blob = bytearray((small_sim / "noisy.nii").read_bytes())
        struct.pack_into("<f", blob, 352 + 8 * 100, float("nan"))
        path = tmp_path / "nan.nii"
        path.write_bytes(bytes(blob))
        assert self._denoise(small_sim, tmp_path, noisy=path) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_nan_bvalue_is_usage_error(self, small_sim, tmp_path, capsys):
        tokens = (small_sim / "bvals").read_text().split()
        tokens[3] = "nan"
        path = tmp_path / "bvals"
        path.write_text(" ".join(tokens) + "\n")
        assert self._denoise(small_sim, tmp_path, bvals=path) == 2
        assert f"{path}: non-finite b-value" in capsys.readouterr().err
        path.write_text("\n")
        assert self._denoise(small_sim, tmp_path, bvals=path) == 2
        assert "empty b-value file" in capsys.readouterr().err

    def test_negative_noise_map_is_usage_error(self, small_sim, tmp_path,
                                               capsys):
        sigma = read_nifti(str(small_sim / "sigma_true.nii"))
        path = tmp_path / "sigma.nii"
        write_nifti(Volume3(-sigma.data), path)
        assert self._denoise(small_sim, tmp_path, noise_map=path) == 2
        assert "noise map must be finite and nonnegative" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag,name", [
        ("noise_map", "sigma_true.nii"), ("psd", "psd_true.nii"),
    ])
    def test_complex_noise_statistics_are_usage_errors(self, small_sim, tmp_path,
                                                       capsys, flag, name):
        real = read_nifti(str(small_sim / name))
        path = tmp_path / f"complex_{name}"
        write_nifti(Volume3(real.data * (1 + 1j)), path)
        assert self._denoise(small_sim, tmp_path, **{flag: path}) == 2
        assert "must be real" in capsys.readouterr().err

    def test_psd_dims_checked(self, small_sim, tmp_path, capsys):
        path = tmp_path / "psd_small.nii"
        write_nifti(Volume3(np.ones((8, 8, 8))), path)
        code = self._denoise(
            small_sim, tmp_path, noise_map=small_sim / "sigma_true.nii", psd=path
        )
        assert code == 2
        assert "PSD dims must match" in capsys.readouterr().err

    def test_noise_estimates_dir_made_before_denoising(self, small_sim, tmp_path,
                                                        monkeypatch, capsys):
        """A --save-noise-estimates path that is a regular file fails with
        exit 3 before the series is read or denoised, and no --out is
        written."""
        def never(*args, **kwargs):
            raise AssertionError("input read before the directory was made")

        monkeypatch.setattr(cli, "denoise_bm4dpc", never)
        monkeypatch.setattr(cli, "read_nifti", never)
        taken = tmp_path / "taken"
        taken.write_text("a regular file\n")
        code = run_cli([
            "denoise",
            "--in", str(small_sim / "noisy.nii"),
            "--bval", str(small_sim / "bvals"),
            "--noise-map", str(small_sim / "sigma_true.nii"),
            "--psd", str(small_sim / "psd_true.nii"),
            "--save-noise-estimates", str(taken),
            "--out", str(tmp_path / "out.nii"),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out.nii").exists()
        assert taken.read_text() == "a regular file\n"

    def test_noise_map_near_zero_is_floored(self, small_sim, tmp_path, capsys):
        """A noise map of 1e-44 would put the components beyond the
        float32 stages' range; the pipeline floors it, so the run exits 0
        with a finite output."""
        tiny = tmp_path / "tiny_map.nii"
        write_nifti(Volume3(np.full((16, 16, 16), 1e-44)), str(tiny))
        code = run_cli([
            "denoise",
            "--in", str(small_sim / "noisy.nii"),
            "--bval", str(small_sim / "bvals"),
            "--noise-map", str(tiny),
            "--psd", str(small_sim / "psd_true.nii"),
            "--out", str(tmp_path / "out.nii"),
        ])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert np.all(np.isfinite(read_nifti(str(tmp_path / "out.nii")).data))

    def test_failed_denoise_leaves_estimates_dirs_as_they_were(self, tmp_path,
                                                                capsys):
        """A denoise run that fails after making its --save-noise-estimates
        directory removes every directory it made, and leaves one that
        already existed with its contents."""
        argv = [
            "denoise",
            "--in", str(tmp_path / "absent.nii"),
            "--bval", str(tmp_path / "absent.bval"),
            "--out", str(tmp_path / "out.nii"),
            "--save-noise-estimates",
        ]
        assert run_cli([*argv, str(tmp_path / "est" / "sub")]) == 3
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "note.txt").write_text("keep")
        assert run_cli([*argv, str(kept / "sub")]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert [p.name for p in kept.iterdir()] == ["note.txt"]

    def test_simulate_beyond_nifti_dims_is_value_error(self, tmp_path, capsys):
        """A 40000-voxel axis does not fit NIfTI-1's int16 dim, and noise
        at 1e39 does not fit its float32 samples: exit 2 with a message,
        not a traceback from the header packer or a file of infinities
        that `read_nifti` refuses, and no output directory is left."""
        cases = [
            (["--size", "40000", "1", "1"], "must not exceed 32767"),
            (["--size", "20", "20", "6", "--shells", "0:1,1000:7",
              "--noise-level", "1e39"], "noisy.nii: samples beyond float32's range"),
        ]
        for argv, message in cases:
            code = run_cli([
                "simulate", "--out", str(tmp_path / "x"), *argv,
                "--noise-type", "white",
            ])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_failed_simulate_leaves_out_dirs_as_they_were(self, tmp_path):
        """A failed run removes every directory it made, and leaves a
        directory that already existed with its contents."""
        argv = ["--size", "40000", "1", "1", "--noise-type", "white"]
        nested = tmp_path / "a" / "b"
        assert run_cli(["simulate", "--out", str(nested), *argv]) == 2
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "note.txt").write_text("keep")
        assert run_cli(["simulate", "--out", str(kept), *argv]) == 2
        assert [p.name for p in kept.iterdir()] == ["note.txt"]
        assert (kept / "note.txt").read_text() == "keep"

    def test_verbose_flag_removed(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(["--verbose", "simulate", "--out", str(out)]) == 2
        assert not out.exists()
        assert not list((tmp_path / "x").glob("*.nii"))

    def test_single_volume_input_rejected(self, small_sim, tmp_path, capsys):
        code = run_cli(
            [
                "denoise",
                "--in", str(small_sim / "sigma_true.nii"),
                "--bval", str(small_sim / "bvals"),
                "--out", str(tmp_path / "out.nii"),
            ]
        )
        assert code == 2
        assert "need a 4D series" in capsys.readouterr().err
        # and the mirror: a 4D series where a single volume is needed
        code = self._denoise(
            small_sim, tmp_path, noise_map=small_sim / "noisy.nii"
        )
        assert code == 2
        assert "need a single volume" in capsys.readouterr().err


    def test_dti_on_singular_direction_set_is_value_error(self, tmp_path, capsys):
        """`simulate --seed 0` draws the b=1000 shell as
        fibonacci_directions(6, seed=1), a numerically singular tensor
        design: `dti` exits 2 with a message, not 4 from the solver."""
        out = tmp_path / "six"
        code = run_cli([
            "--seed", "0", "simulate", "--out", str(out),
            "--size", "16", "16", "8", "--shells", "0:1,1000:6",
            "--noise-type", "white",
        ])
        assert code == 0
        code = run_cli([
            "dti",
            "--in", str(out / "gt.nii"),
            "--bval", str(out / "bvals"),
            "--bvec", str(out / "bvecs"),
            "--out-fa", str(tmp_path / "fa.nii"),
            "--out-md", str(tmp_path / "md.nii"),
        ])
        assert code == 2
        assert "rank-deficient design" in capsys.readouterr().err

    def test_series_too_small_for_estimation_is_usage_error(self, tmp_path,
                                                            capsys):
        """12 x 12 slices cannot hold the 16 x 16 periodogram window, and
        a 3-volume highest shell leaves no volume beside the noise tail."""
        cases = [
            (["--size", "12", "12", "8"], "psd window"),
            (["--size", "16", "16", "8", "--shells", "0:1,1000:7,2000:3"],
             "too few volumes"),
        ]
        for k, (shape, message) in enumerate(cases):
            out = tmp_path / f"small{k}"
            code = run_cli(["simulate", "--out", str(out), "--noise-type", "white"]
                           + shape)
            assert code == 0
            capsys.readouterr()
            code = run_cli([
                "estimate-noise",
                "--in", str(out / "noisy.nii"),
                "--bval", str(out / "bvals"),
                "--out-map", str(tmp_path / "sigma.nii"),
                "--out-psd", str(tmp_path / "psd.nii"),
            ])
            assert code == 2
            assert message in capsys.readouterr().err


class TestSubcommands:
    def test_simulate_outputs(self, small_sim):
        names = {p.name for p in small_sim.iterdir()}
        assert {
            "gt.nii", "noisy.nii", "sigma_true.nii", "psd_true.nii",
            "mask.nii", "bvals", "bvecs",
        } <= names
        noisy = read_nifti(str(small_sim / "noisy.nii"))
        assert noisy.is_complex
        assert noisy.n_volumes == 10

    def test_denoise_with_priors_skips_estimation(self, small_sim, tmp_path,
                                                  capsys):
        code = run_cli(
            [
                "--threads", "2",
                "denoise",
                "--in", str(small_sim / "noisy.nii"),
                "--bval", str(small_sim / "bvals"),
                "--noise-map", str(small_sim / "sigma_true.nii"),
                "--psd", str(small_sim / "psd_true.nii"),
                "--out", str(tmp_path / "denoised.nii"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "noise estimation skipped (map and PSD provided)" in err
        out = read_nifti(str(tmp_path / "denoised.nii"))
        assert not out.is_complex
        assert out.dims == (16, 16, 16)

    def test_estimate_noise_smoke(self, small_sim, tmp_path):
        code = run_cli(
            [
                "estimate-noise",
                "--in", str(small_sim / "noisy.nii"),
                "--bval", str(small_sim / "bvals"),
                "--out-map", str(tmp_path / "sigma.nii"),
                "--out-psd", str(tmp_path / "psd.nii"),
            ]
        )
        assert code == 0
        sigma = read_nifti(str(tmp_path / "sigma.nii"))
        psd = read_nifti(str(tmp_path / "psd.nii"))
        assert np.all(sigma.data >= 0.0)
        assert psd.data.mean() == pytest.approx(1.0, rel=1e-5)

    def test_dti_smoke(self, small_sim, tmp_path):
        code = run_cli(
            [
                "dti",
                "--in", str(small_sim / "gt.nii"),
                "--bval", str(small_sim / "bvals"),
                "--bvec", str(small_sim / "bvecs"),
                "--mask", str(small_sim / "mask.nii"),
                "--out-fa", str(tmp_path / "fa.nii"),
                "--out-md", str(tmp_path / "md.nii"),
            ]
        )
        assert code == 0
        fa = read_nifti(str(tmp_path / "fa.nii"))
        md = read_nifti(str(tmp_path / "md.nii"))
        assert np.all(fa.data >= 0.0)
        assert np.all(fa.data <= 1.0 + 1e-6)
        assert np.all(md.data >= 0.0)

    def test_dti_reads_b5_as_b0(self, small_sim, tmp_path):
        """Scanners write b=5 for a b=0 volume with a zero b-vector: `dti`
        accepts it and writes the same maps as for b=0."""
        text = (small_sim / "bvals").read_text()
        assert text.startswith("0 ")
        (tmp_path / "bvals5").write_text("5" + text[1:])
        for bval, tag in ((small_sim / "bvals", "b0"), (tmp_path / "bvals5", "b5")):
            code = run_cli([
                "dti",
                "--in", str(small_sim / "gt.nii"),
                "--bval", str(bval),
                "--bvec", str(small_sim / "bvecs"),
                "--out-fa", str(tmp_path / f"fa_{tag}.nii"),
                "--out-md", str(tmp_path / f"md_{tag}.nii"),
            ])
            assert code == 0
        for kind in ("fa", "md"):
            assert ((tmp_path / f"{kind}_b0.nii").read_bytes()
                    == (tmp_path / f"{kind}_b5.nii").read_bytes())

    def test_dti_reads_b1005_as_b1000(self, small_sim, tmp_path):
        """A b=1000 shell written as 1005 is still the fitted shell; with
        one weighted shell, b only scales the tensor, so FA is unchanged."""
        text = (small_sim / "bvals").read_text()
        assert " 1000" in text
        (tmp_path / "bvals1005").write_text(text.replace("1000", "1005"))
        fa = {}
        for bval, tag in ((small_sim / "bvals", "b1000"),
                          (tmp_path / "bvals1005", "b1005")):
            code = run_cli([
                "dti",
                "--in", str(small_sim / "gt.nii"),
                "--bval", str(bval),
                "--bvec", str(small_sim / "bvecs"),
                "--out-fa", str(tmp_path / f"fa_{tag}.nii"),
                "--out-md", str(tmp_path / f"md_{tag}.nii"),
            ])
            assert code == 0
            fa[tag] = read_nifti(str(tmp_path / f"fa_{tag}.nii")).data
        assert np.max(np.abs(fa["b1005"] - fa["b1000"])) <= 1e-6

    def test_baseline_mppca_many_volumes(self, tmp_path):
        """130 volumes outnumber the voxels of a 5^3 patch: the patch
        edge grows instead of the run being refused."""
        sim = tmp_path / "sim"
        assert run_cli([
            "simulate", "--out", str(sim), "--size", "12", "12", "8",
            "--shells", "0:2,1000:64,2000:64", "--noise-type", "white",
        ]) == 0
        code = run_cli([
            "baseline-mppca",
            "--in", str(sim / "noisy.nii"),
            "--out", str(tmp_path / "mppca.nii"),
        ])
        assert code == 0
        assert read_nifti(str(tmp_path / "mppca.nii")).n_volumes == 130

    def test_baseline_mppca_smoke(self, small_sim, tmp_path):
        code = run_cli(
            [
                "baseline-mppca",
                "--in", str(small_sim / "noisy.nii"),
                "--out", str(tmp_path / "mppca.nii"),
            ]
        )
        assert code == 0
        out = read_nifti(str(tmp_path / "mppca.nii"))
        assert out.n_volumes == 10

    def test_baseline_mppca_stabilizes_complex_input(self, small_sim, tmp_path):
        """The baseline runs on the phase-stabilized series, as the
        acceptance gate's MPPCA arm does, and writes it as float32."""
        noisy = read_nifti(str(small_sim / "noisy.nii"))
        assert noisy.is_complex
        out_path = tmp_path / "mppca.nii"
        code = run_cli(
            ["baseline-mppca", "--in", str(small_sim / "noisy.nii"),
             "--out", str(out_path)]
        )
        assert code == 0
        out = read_nifti(str(out_path))
        assert not out.is_complex
        expected = mppca_denoise(stabilize_phase(noisy)).data
        assert np.array_equal(out.data, expected.astype(np.float32))

    @pytest.mark.parametrize("command, option", [
        ("metrics", "--mask"),
        ("baseline-mppca", "--kernel"),
        ("baseline-mppca", "--step"),
        ("denoise", "--bvec"),
    ], ids=["metrics-mask", "mppca-kernel", "mppca-step", "denoise-bvec"])
    def test_removed_options_are_usage_errors(self, small_sim, tmp_path,
                                              command, option):
        """The report has no masked quantity, the baseline runs at its
        fixed patch geometry, and the denoiser never reads b-vectors, so
        none of them takes these options."""
        gt = str(small_sim / "gt.nii")
        bvals = str(small_sim / "bvals")
        inputs = {
            "metrics": ["--ref", gt, "--test", gt, "--bval", bvals],
            "baseline-mppca": ["--in", gt],
            "denoise": ["--in", gt, "--bval", bvals],
        }[command]
        out = tmp_path / "out"
        assert run_cli([command, *inputs, "--out", str(out), option, "3"]) == 2
        assert not out.exists()

    def test_metrics_identical_data_is_strict_json(self, small_sim, tmp_path):
        import json

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        gt = str(small_sim / "gt.nii")
        out = tmp_path / "same.json"
        code = run_cli(
            ["metrics", "--ref", gt, "--test", gt,
             "--bval", str(small_sim / "bvals"), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text(), parse_constant=reject)
        for shell in report["shells"].values():
            assert shell["psnr_db"] is None  # infinite: the data agree
            assert shell["ssim"] == pytest.approx(1.0)


class TestDeterminism:
    def test_chain_outputs_exist(self, cli_chains):
        files = cli_chains[1]["files"]
        for name in (
            "gt.nii", "noisy.nii", "denoised.nii", "sigma_est.nii",
            "psd_est.nii", "report.json",
        ):
            assert name in files

    def test_report_structure(self, cli_chains):
        report = cli_chains[1]["report"]
        assert set(report["shells"]) == {"0", "1000", "2000"}
        for shell in report["shells"].values():
            assert np.isfinite(shell["psnr_db"])
            assert -1.0 <= shell["ssim"] <= 1.0
        assert list(report) == ["shells"]

    def test_report_is_the_library_report(self, cli_chains):
        """`bm4dpc metrics` writes report_metrics' dict as it is."""
        out = cli_chains[1]["dir"]
        bvals, _ = read_bvals_bvecs(str(out / "bvals"))
        gt, test = (
            attach_gradients(read_nifti(str(out / name)), bvals)
            for name in ("gt.nii", "denoised.nii")
        )
        assert report_metrics(gt, test) == cli_chains[1]["report"]

    def test_thread_count_does_not_change_bytes(self, cli_chains):
        one, eight = cli_chains[1]["files"], cli_chains[8]["files"]
        assert set(one) == set(eight)
        for name in one:
            assert one[name] == eight[name], f"{name} differs across threads"
