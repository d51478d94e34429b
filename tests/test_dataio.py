"""NIfTI-1 round trips, FSL gradient parsing, shell grouping."""

import re
import struct

import numpy as np
import pytest

from bm4dpc import (
    DwiDataset,
    NiftiError,
    NoiseMap,
    Volume3,
    attach_gradients,
    fibonacci_directions,
    group_shells,
    read_bvals_bvecs,
    read_nifti,
    write_nifti,
)
from bm4dpc.dataio import write_bvals_bvecs

HEADER = 348


def _reference_nifti_bytes(data, scl_slope=1.0, scl_inter=0.0):
    """Independent minimal NIfTI-1 writer used as a cross-check oracle.

    Packs the header field by field straight from the NIfTI-1 standard
    (sizeof_hdr, dim, datatype, bitpix, vox_offset, scaling, magic) and
    appends a float32 x-fastest payload.
    """
    data = np.asarray(data, dtype=np.float32)
    ndim = data.ndim
    dim = [ndim, 1, 1, 1, 1, 1, 1, 1]
    dim[1 : 1 + ndim] = data.shape

    hdr = bytearray(HEADER)
    struct.pack_into("<i", hdr, 0, HEADER)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, 16)  # DT_FLOAT32
    struct.pack_into("<h", hdr, 72, 32)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<f", hdr, 112, scl_slope)
    struct.pack_into("<f", hdr, 116, scl_inter)
    struct.pack_into("<4s", hdr, 344, b"n+1\x00")
    return bytes(hdr) + b"\x00\x00\x00\x00" + data.tobytes(order="F")


def _header_field(blob, fmt, offset):
    return struct.unpack_from(fmt, blob, offset)[0]


class TestNiftiRoundTrip:
    def test_volume_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = Volume3(rng.standard_normal((5, 4, 3)).astype(np.float32))
        path = tmp_path / "vol.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert isinstance(back, Volume3)
        assert np.array_equal(back.data, vol.data)

    def test_dataset_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((3, 4, 4, 2)).astype(np.float32)
        ds = DwiDataset(data, [0.0, 1000.0, 2000.0])
        path = tmp_path / "series.nii"
        write_nifti(ds, path)
        back = read_nifti(path)
        assert isinstance(back, DwiDataset)
        assert back.n_volumes == 3
        assert np.array_equal(back.data, ds.data)
        # gradients are not stored in the file itself
        assert np.array_equal(back.bvals, np.zeros(3))

    def test_complex_round_trip_uses_complex64(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = (
            rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        ).astype(np.complex64)
        path = tmp_path / "cplx.nii"
        write_nifti(Volume3(raw), path)

        blob = path.read_bytes()
        assert _header_field(blob, "<h", 70) == 32  # complex64 datatype code
        assert _header_field(blob, "<h", 72) == 64  # bitpix
        back = read_nifti(path)
        assert back.is_complex
        assert np.array_equal(back.data, raw.astype(np.complex128))

    def test_header_constants(self, tmp_path):
        path = tmp_path / "hdr.nii"
        write_nifti(Volume3(np.zeros((2, 2, 2), dtype=np.float32)), path)
        blob = path.read_bytes()
        assert _header_field(blob, "<i", 0) == 348
        assert struct.unpack_from("<4s", blob, 344)[0] == b"n+1\x00"
        assert _header_field(blob, "<f", 108) == 352.0

    def test_4d_header_dims(self, tmp_path):
        path = tmp_path / "four.nii"
        write_nifti(DwiDataset(np.zeros((6, 3, 4, 5)), np.zeros(6)), path)
        dim = struct.unpack_from("<8h", path.read_bytes(), 40)
        assert dim[0] == 4
        assert dim[1:5] == (3, 4, 5, 6)

    def test_writer_output_parses_independently(self, tmp_path):
        """Decode our writer's files with plain struct/frombuffer calls.

        The 4D case holds distinct values, so any mix-up of the volume
        axis with a spatial one shows, even if the reader made the
        matching mistake.
        """
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 5, 6)).astype(np.float32)
        path = tmp_path / "plain.nii"
        write_nifti(Volume3(data), path)

        blob = path.read_bytes()
        offset = int(_header_field(blob, "<f", 108))
        m, n, o = struct.unpack_from("<3h", blob, 42)
        decoded = np.frombuffer(
            blob, dtype="<f4", count=m * n * o, offset=offset
        ).reshape((m, n, o), order="F")
        assert np.array_equal(decoded, data)

        series = np.arange(3 * 4 * 5 * 6, dtype=np.float32).reshape(3, 4, 5, 6)
        path = tmp_path / "series.nii"
        write_nifti(DwiDataset(np.moveaxis(series, -1, 0), np.zeros(6)), path)

        blob = path.read_bytes()
        offset = int(_header_field(blob, "<f", 108))
        assert struct.unpack_from("<5h", blob, 40) == (4, 3, 4, 5, 6)
        decoded = np.frombuffer(
            blob, dtype="<f4", count=series.size, offset=offset
        ).reshape((3, 4, 5, 6), order="F")
        assert np.array_equal(decoded, series)

    def test_reads_independent_reference_file(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((6, 5, 4)).astype(np.float32)
        path = tmp_path / "ref.nii"
        path.write_bytes(_reference_nifti_bytes(data))
        back = read_nifti(path)
        assert np.array_equal(back.data, data.astype(np.float64))

    def test_scl_slope_inter_applied(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "scaled.nii"
        path.write_bytes(_reference_nifti_bytes(data, scl_slope=2.0, scl_inter=1.0))
        back = read_nifti(path)
        assert np.allclose(back.data, data * 2.0 + 1.0, atol=0, rtol=0)

    def test_scaling_beyond_float32_range_applied_in_float64(self, tmp_path):
        """A float32 sample of 3e38 times a slope of 10 is finite in the
        float64 series the reader returns, and no overflow warning is
        raised (an error in CI)."""
        data = np.array([3e38, -3e38, 1.0, 0.0, 2.0, 3.0, 4.0, 5.0],
                        dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "scaled.nii"
        path.write_bytes(_reference_nifti_bytes(data, scl_slope=10.0, scl_inter=1.0))
        back = read_nifti(path)
        assert np.array_equal(back.data, data.astype(np.float64) * 10.0 + 1.0)
        assert np.isfinite(back.data).all()

    def test_nan_or_zero_scaling_means_unscaled(self, tmp_path):
        """A zero or NaN slope leaves the payload unscaled (nibabel writes
        NaN for unscaled float data); a NaN intercept reads as 0."""
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2) - 3.0
        nan = float("nan")
        cases = [(nan, nan, data), (0.0, 5.0, data), (0.0, nan, data),
                 (2.0, nan, 2.0 * data)]
        for slope, inter, expected in cases:
            path = tmp_path / "unscaled.nii"
            path.write_bytes(
                _reference_nifti_bytes(data, scl_slope=slope, scl_inter=inter)
            )
            assert np.array_equal(read_nifti(path).data, expected)

    def test_noise_map_round_trip(self, tmp_path):
        sigma = NoiseMap(np.abs(np.random.default_rng(5).standard_normal((3, 3, 3))).astype(np.float32))
        path = tmp_path / "sigma.nii"
        write_nifti(sigma, path)
        back = read_nifti(path)
        assert np.array_equal(back.data, sigma.data)


    def test_plain_array_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="ndarray"):
            write_nifti(np.zeros((2, 2, 2)), tmp_path / "x.nii")

    def test_dims_beyond_int16_rejected_before_writing(self, tmp_path):
        """NIfTI-1 stores dim[] as int16: 32767 samples per axis round
        trip, one more on an axis or in the volume count is a ValueError
        raised before the file is opened."""
        edge = np.arange(32767.0).reshape(32767, 1, 1)
        write_nifti(Volume3(edge), tmp_path / "edge.nii")
        assert np.array_equal(read_nifti(tmp_path / "edge.nii").data, edge)
        long_axis = Volume3(np.zeros((1, 32768, 1)))
        many = DwiDataset(np.zeros((32768, 1, 1, 1)), np.zeros(32768))
        for data, shape in ((long_axis, r"\(1, 32768, 1\)"),
                            (many, r"\(1, 1, 1, 32768\)")):
            path = tmp_path / "big.nii"
            with pytest.raises(ValueError, match=f"32767, got {shape}"):
                write_nifti(data, path)
            assert not path.exists()


class TestNiftiErrors:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(NiftiError, match="truncated header"):
            read_nifti(path)

    def test_bad_magic(self, tmp_path):
        blob = bytearray(_reference_nifti_bytes(np.zeros((2, 2, 2), np.float32)))
        struct.pack_into("<4s", blob, 344, b"ni1\x00")
        path = tmp_path / "magic.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="magic"):
            read_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        blob = bytearray(_reference_nifti_bytes(np.zeros((2, 2, 2), np.float32)))
        struct.pack_into("<h", blob, 70, 4)  # int16: not supported
        path = tmp_path / "dtype.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="datatype"):
            read_nifti(path)

    def test_truncated_payload(self, tmp_path):
        blob = _reference_nifti_bytes(np.zeros((4, 4, 4), np.float32))
        path = tmp_path / "cut.nii"
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(NiftiError, match="truncated payload"):
            read_nifti(path)

    def test_payload_beyond_file_rejected_before_reading(self, tmp_path):
        # 32767^4 float32 samples would be exabytes; the file holds 8
        blob = bytearray(_reference_nifti_bytes(np.zeros((2, 2, 2), np.float32)))
        struct.pack_into("<5h", blob, 40, 4, 32767, 32767, 32767, 32767)
        path = tmp_path / "huge.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="truncated payload"):
            read_nifti(path)

    def test_invalid_vox_offset(self, tmp_path):
        for offset in (float("nan"), float("inf"), 100.0):
            blob = bytearray(_reference_nifti_bytes(np.zeros((2, 2, 2), np.float32)))
            struct.pack_into("<f", blob, 108, offset)
            path = tmp_path / "offset.nii"
            path.write_bytes(bytes(blob))
            with pytest.raises(NiftiError, match="vox_offset"):
                read_nifti(path)

    def test_fractional_vox_offset_rejected(self, tmp_path):
        """A vox_offset of 353.5 is no byte offset. Even with the payload
        padded to fit from byte 353, the reader refuses it rather than
        returning samples read one byte off."""
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        blob = bytearray(_reference_nifti_bytes(data)) + b"\x00" * 4
        struct.pack_into("<f", blob, 108, 353.5)
        path = tmp_path / "half.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="vox_offset 353.5"):
            read_nifti(path)

    def test_non_finite_payload(self, tmp_path):
        data = np.zeros((2, 2, 2, 3), np.float32)
        data[1, 0, 1, 2] = np.nan
        path = tmp_path / "nan.nii"
        path.write_bytes(_reference_nifti_bytes(data))
        with pytest.raises(NiftiError, match="non-finite"):
            read_nifti(path)

    def test_big_endian_rejected_distinctly(self, tmp_path):
        blob = bytearray(_reference_nifti_bytes(np.zeros((2, 2, 2), np.float32)))
        struct.pack_into(">i", blob, 0, HEADER)
        path = tmp_path / "be.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError, match="big-endian"):
            read_nifti(path)

    def test_not_nifti(self, tmp_path):
        path = tmp_path / "junk.nii"
        path.write_bytes(b"\x07" * 400)
        with pytest.raises(NiftiError, match="sizeof_hdr"):
            read_nifti(path)


class TestGradients:
    def test_bvals_parsed(self, tmp_path):
        bval = tmp_path / "bvals"
        bval.write_text("0 1000 2000\n")
        bvals, bvecs = read_bvals_bvecs(bval)
        assert np.array_equal(bvals, [0.0, 1000.0, 2000.0])
        assert bvecs is None

    def test_bvec_row_count_enforced(self, tmp_path):
        bval = tmp_path / "bvals"
        bval.write_text("0 1000\n")
        bvec = tmp_path / "bvecs"
        bvec.write_text("0 1\n0 0\n")
        with pytest.raises(ValueError, match="3 rows"):
            read_bvals_bvecs(bval, bvec)
        bvec.write_text("0 1\n0\n1 0\n")
        with pytest.raises(ValueError, match="ragged rows"):
            read_bvals_bvecs(bval, bvec)

    def test_bvec_normalization(self, tmp_path):
        bval = tmp_path / "bvals"
        bval.write_text("1000 1000 0\n")
        bvec = tmp_path / "bvecs"
        bvec.write_text("0.6 1 0\n0.8 1 0\n0 0 0\n")
        _, bvecs = read_bvals_bvecs(bval, bvec)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(bvecs[0], [0.6, 0.8, 0.0], atol=1e-12)
        assert np.allclose(bvecs[1], [s, s, 0.0], atol=1e-6)
        assert np.array_equal(bvecs[2], [0.0, 0.0, 0.0])  # zero row kept

    def test_non_numeric_token(self, tmp_path):
        bval = tmp_path / "bvals"
        bval.write_text("0 oops 2000\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_bvals_bvecs(bval)
        bval.write_text("0 1000\n")
        bvec = tmp_path / "bvecs"
        bvec.write_text("0 1\n0 x\n1 0\n")
        with pytest.raises(ValueError, match="non-numeric token"):
            read_bvals_bvecs(bval, bvec)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_file(self, tmp_path, token):
        """A nan or inf in either file is refused with the file's name:
        in a b=0 column it would read as a zero direction, and in a
        weighted one fail later as a direction not of unit length."""
        bval, bvec = tmp_path / "bvals", tmp_path / "bvecs"
        bval.write_text("0 1000\n")
        for column in (0, 1):
            rows = [["1", "0"], ["0", "1"], ["0", "0"]]
            rows[1][column] = token
            bvec.write_text("".join(" ".join(r) + "\n" for r in rows))
            with pytest.raises(ValueError, match=re.escape(f"{bvec}: non-finite")):
                read_bvals_bvecs(bval, bvec)
        bval.write_text(f"0 {token}\n")
        with pytest.raises(ValueError, match=re.escape(f"{bval}: non-finite")):
            read_bvals_bvecs(bval)

    def test_count_mismatch_at_parse(self, tmp_path):
        bval = tmp_path / "bvals"
        bval.write_text("0 1000 2000\n")
        bvec = tmp_path / "bvecs"
        bvec.write_text("0 1\n0 0\n1 0\n")
        with pytest.raises(ValueError, match="directions"):
            read_bvals_bvecs(bval, bvec)

    def test_write_read_round_trip(self, tmp_path):
        bvals = np.array([0.0, 5.0, 995.0, 1000.0, 1005.0, 1234.567, 2000.0,
                          3000.0])
        bvecs = np.vstack([np.zeros((2, 3)), fibonacci_directions(6, seed=2)])
        bval, bvec = tmp_path / "bvals", tmp_path / "bvecs"
        write_bvals_bvecs(bval, bvec, bvals, bvecs)
        got_bvals, got_bvecs = read_bvals_bvecs(bval, bvec)
        assert np.array_equal(got_bvals, bvals)
        assert np.max(np.abs(got_bvecs - bvecs)) <= 1e-8

    def test_attach_checks_count(self):
        ds = DwiDataset(np.zeros((3, 2, 2, 2)), np.zeros(3))
        out = attach_gradients(ds, [0.0, 1000.0, 2000.0])
        assert np.array_equal(out.bvals, [0.0, 1000.0, 2000.0])
        with pytest.raises(ValueError, match="got 2 b-values for 3 volumes"):
            attach_gradients(ds, [0.0, 1000.0])


class TestShellGrouping:
    def test_rule_application(self):
        table = group_shells([0, 0, 1000, 1010, 2000], 50.0)
        assert table.centers == (0.0, 1005.0, 2000.0)
        assert table.members == ((0, 1), (2, 3), (4,))

    def test_all_equal_is_one_shell(self):
        table = group_shells([500.0] * 5)
        assert table.centers == (500.0,)
        assert table.members == ((0, 1, 2, 3, 4),)

    def test_protocol_highest_shell(self):
        # 7 b=0, 30 b=1000, 30 b=2000: the highest shell is b=2000 x30
        bvals = [0.0] * 7 + [1000.0] * 30 + [2000.0] * 30
        table = group_shells(bvals)
        assert table.centers[-1] == 2000.0
        assert len(table.highest) == 30
        assert table.highest == tuple(range(37, 67))

    def test_permutation_insensitive_membership(self):
        bvals = np.array([2000.0, 0.0, 1000.0, 0.0, 2000.0, 1000.0])
        table = group_shells(bvals)
        assert table.centers == (0.0, 1000.0, 2000.0)
        assert table.members == ((1, 3), (2, 5), (0, 4))

    def test_every_index_in_exactly_one_shell(self):
        rng = np.random.default_rng(6)
        bvals = rng.choice([0.0, 995.0, 1005.0, 1990.0, 2010.0], size=40)
        table = group_shells(bvals)
        seen = sorted(i for shell in table.members for i in shell)
        assert seen == list(range(40))

    @pytest.mark.parametrize("bvals, tolerance, match", [
        ([0.0, 1000.0], -1.0, "tolerance"),
        ([0.0, 1000.0], np.nan, "tolerance"),
        ([0.0, 1000.0], np.inf, "tolerance"),
        ([0.0, np.nan], 50.0, "b-values must be finite"),
        ([0.0, np.inf], 50.0, "b-values must be finite"),
        ([0.0, -5.0, 1000.0], 50.0, "b-values must be finite"),
        ([], 50.0, "non-empty"),
    ], ids=["negative-tolerance", "nan-tolerance", "inf-tolerance", "nan-bval",
            "inf-bval", "negative-bval", "empty"])
    def test_negative_tolerance_rejected(self, bvals, tolerance, match):
        """A bad tolerance or b-value list is refused, not clustered."""
        with pytest.raises(ValueError, match=match):
            group_shells(bvals, tolerance)
