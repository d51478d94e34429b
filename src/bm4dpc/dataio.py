"""File I/O: NIfTI-1 volumes, FSL bval/bvec text files, shell grouping.

Only single-file little-endian NIfTI-1 (.nii) is supported, with
float32 payloads for real data and complex64 for complex data, the
rows of `DTYPES`. Noise maps and PSDs are serialized as plain volumes
in the same format.
"""

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .core import SHELL_TOLERANCE, DwiDataset, NoiseMap, NoisePsd, Volume3

HEADER_SIZE = 348
VOX_OFFSET = 352
DT_FLOAT32 = 16
DT_COMPLEX64 = 32
# payload dtype by datatype code, the one table the reader and writer share
DTYPES = {DT_FLOAT32: np.dtype("<f4"), DT_COMPLEX64: np.dtype("<c8")}
DIM_MAX = 32767  # dim[] is int16


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI file."""


# ---------------------------------------------------------------------------
# NIfTI-1
# ---------------------------------------------------------------------------

def _pack_header(dims, n_volumes, datatype):
    """Build a minimal 348-byte NIfTI-1 header plus the 4-byte extender."""
    dim = [3, dims[0], dims[1], dims[2], 1, 1, 1, 1]
    if n_volumes is not None:
        dim[0] = 4
        dim[4] = n_volumes
    if max(dim[1:5]) > DIM_MAX:
        raise ValueError(f"NIfTI-1 dims and volume counts must not exceed "
                         f"{DIM_MAX}, got {tuple(dim[1:dim[0] + 1])}")
    pixdim = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)          # sizeof_hdr
    struct.pack_into("<c", hdr, 38, b"r")                # regular
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, 8 * DTYPES[datatype].itemsize)  # bitpix
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))  # vox_offset
    struct.pack_into("<f", hdr, 112, 1.0)                # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)                # scl_inter
    descrip = b"bm4dpc"
    struct.pack_into(f"<{len(descrip)}s", hdr, 148, descrip)
    struct.pack_into("<h", hdr, 254, 1)                  # sform_code
    struct.pack_into("<4f", hdr, 280, 1.0, 0.0, 0.0, 0.0)
    struct.pack_into("<4f", hdr, 296, 0.0, 1.0, 0.0, 0.0)
    struct.pack_into("<4f", hdr, 312, 0.0, 0.0, 1.0, 0.0)
    struct.pack_into("<4s", hdr, 344, b"n+1\x00")
    return bytes(hdr) + b"\x00\x00\x00\x00"              # no extensions


def write_nifti(data, path) -> None:
    """Write a volume, dataset, noise map, or PSD as single-file NIfTI-1.

    Real samples are stored as float32, complex samples as complex64;
    one beyond float32's range is a ValueError before any write.
    """
    if isinstance(data, DwiDataset):
        payload = np.moveaxis(data.data, 0, -1)  # NIfTI puts volumes last
        n_volumes = data.n_volumes
    elif isinstance(data, (Volume3, NoiseMap, NoisePsd)):
        payload = data.data
        n_volumes = None
    else:
        raise TypeError(f"cannot write a {type(data).__name__} as NIfTI")

    datatype = DT_COMPLEX64 if np.iscomplexobj(payload) else DT_FLOAT32
    try:
        with np.errstate(over="raise"):  # a cast to inf raises
            raw = np.asarray(payload, dtype=DTYPES[datatype])
    except FloatingPointError:
        raise ValueError(f"{path}: samples beyond float32's range") from None
    header = _pack_header(raw.shape[:3], n_volumes, datatype)
    with open(path, "wb") as fh:
        fh.write(header)
        # NIfTI stores x fastest and the volume index slowest
        fh.write(raw.tobytes(order="F"))


def read_nifti(path):
    """Read a single-file little-endian NIfTI-1 volume or 4D series.

    Returns a Volume3 for 3D files (or 4D files holding a single
    volume) and a DwiDataset for 4D files; the dataset carries zero
    b-values until gradients are attached (`attach_gradients`).
    """
    with open(path, "rb") as fh:
        hdr = fh.read(VOX_OFFSET)
        if len(hdr) < HEADER_SIZE:
            raise NiftiError(f"{path}: truncated header ({len(hdr)} bytes)")
        (sizeof_hdr,) = struct.unpack_from("<i", hdr, 0)
        if sizeof_hdr != HEADER_SIZE:
            if struct.unpack_from(">i", hdr, 0)[0] == HEADER_SIZE:
                raise NiftiError(f"{path}: big-endian NIfTI is not supported")
            raise NiftiError(f"{path}: not a NIfTI-1 file (sizeof_hdr={sizeof_hdr})")
        magic = struct.unpack_from("<4s", hdr, 344)[0]
        if magic[:3] != b"n+1":
            raise NiftiError(f"{path}: bad magic {magic!r} (expected 'n+1')")
        dim = struct.unpack_from("<8h", hdr, 40)
        (datatype,) = struct.unpack_from("<h", hdr, 70)
        (vox_offset,) = struct.unpack_from("<f", hdr, 108)
        (scl_slope,) = struct.unpack_from("<f", hdr, 112)
        (scl_inter,) = struct.unpack_from("<f", hdr, 116)

        ndim = dim[0]
        if ndim not in (3, 4):
            raise NiftiError(f"{path}: unsupported dimensionality {ndim}")
        m, n, o = dim[1], dim[2], dim[3]
        n_volumes = dim[4] if ndim == 4 else 1
        if min(m, n, o, n_volumes) < 1:
            raise NiftiError(f"{path}: invalid dims {dim[1:5]}")

        if datatype not in DTYPES:
            raise NiftiError(f"{path}: unsupported datatype code {datatype}")
        dtype = DTYPES[datatype]

        # a byte offset: NaN, infinities and fractions are all malformed
        if not vox_offset.is_integer() or vox_offset < VOX_OFFSET:
            raise NiftiError(f"{path}: invalid vox_offset {vox_offset}")
        count = m * n * o * n_volumes
        needed = int(vox_offset) + count * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size
        if size < needed:  # checked before reading: dims may be huge
            raise NiftiError(
                f"{path}: truncated payload (file has {size} bytes, "
                f"header needs {needed})"
            )
        fh.seek(int(vox_offset))
        buf = fh.read(count * dtype.itemsize)

    flat = np.frombuffer(buf, dtype=dtype, count=count)
    data = flat.reshape((m, n, o, n_volumes), order="F")
    # a zero or non-finite slope means unscaled (nibabel writes NaN)
    if math.isfinite(scl_slope) and scl_slope != 0.0:
        inter = scl_inter if math.isfinite(scl_inter) else 0.0
        if not (scl_slope == 1.0 and inter == 0.0):
            # in float64: a float32 sample times the slope may pass float32's range
            wide = np.promote_types(dtype, np.float64)  # complex64 -> complex128
            data = data.astype(wide) * scl_slope + inter
    if not np.all(np.isfinite(data)):
        raise NiftiError(f"{path}: payload holds non-finite samples")

    if n_volumes == 1:
        return Volume3(data[..., 0])
    return DwiDataset(np.moveaxis(data, -1, 0), np.zeros(n_volumes))


# ---------------------------------------------------------------------------
# FSL bval/bvec text files
# ---------------------------------------------------------------------------

def read_bvals_bvecs(bval_path, bvec_path=None):
    """Parse FSL-style b-value and direction files.

    The bval file is whitespace-separated b-values; the bvec file has
    three rows of direction components. Directions with norm > 1e-8
    are normalized to unit length, others are left as zero vectors. A
    non-finite value (nan, inf) in either file is a ValueError that
    names the file.

    Returns
    -------
    bvals : array (N,)
    bvecs : array (N, 3) or None
    """
    with open(bval_path) as fh:
        tokens = fh.read().split()
    try:
        bvals = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{bval_path}: non-numeric b-value token: {exc}") from exc
    if bvals.size == 0:
        raise ValueError(f"{bval_path}: empty b-value file")
    if not np.all(np.isfinite(bvals)):
        raise ValueError(f"{bval_path}: non-finite b-value")

    if bvec_path is None:
        return bvals, None

    with open(bvec_path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != 3:
        raise ValueError(f"{bvec_path}: expected 3 rows, got {len(rows)}")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{bvec_path}: ragged rows")
    if len(rows[0]) != bvals.size:
        raise ValueError(
            f"{bvec_path}: {len(rows[0])} directions but {bvals.size} b-values"
        )
    try:
        bvecs = np.array([[float(t) for t in r] for r in rows], dtype=np.float64).T
    except ValueError as exc:
        raise ValueError(f"{bvec_path}: non-numeric token: {exc}") from exc
    if not np.all(np.isfinite(bvecs)):
        raise ValueError(f"{bvec_path}: non-finite direction component")

    norms = np.linalg.norm(bvecs, axis=1)
    keep = norms > 1e-8
    bvecs[keep] /= norms[keep, None]
    bvecs[~keep] = 0.0
    return bvals, bvecs


def write_bvals_bvecs(bval_path, bvec_path, bvals, bvecs) -> None:
    """Write FSL bval and bvec files (shortest exact b-values, 8-decimal
    directions)."""
    with open(bval_path, "w") as fh:
        exact = (np.format_float_positional(b, trim="-") for b in bvals)
        fh.write(" ".join(exact) + "\n")
    with open(bvec_path, "w") as fh:
        for axis in range(3):
            fh.write(" ".join(f"{v:.8f}" for v in bvecs[:, axis]) + "\n")


def attach_gradients(dataset: DwiDataset, bvals, bvecs=None) -> DwiDataset:
    """Return the dataset with b-values (and optionally bvecs) attached."""
    return replace(dataset, bvals=bvals, bvecs=bvecs)


# ---------------------------------------------------------------------------
# Shell grouping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellTable:
    """b-value shells: centers sorted ascending, member volume indices."""

    centers: tuple
    members: tuple

    @property
    def highest(self) -> tuple:
        """Member indices of the highest-b shell."""
        return self.members[-1]


def group_shells(bvals, tolerance: float = SHELL_TOLERANCE) -> ShellTable:
    """Greedy shell clustering of b-values.

    Values are scanned in ascending order; a new shell starts when a
    value exceeds the running shell center (mean of members so far) by
    more than `tolerance`. The b-values must be a non-empty 1D list of
    finite, nonnegative values and the tolerance finite and nonnegative.
    """
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be finite and nonnegative")
    bvals = np.asarray(bvals, dtype=np.float64)
    if bvals.ndim != 1 or bvals.size == 0:
        raise ValueError("need a non-empty 1D list of b-values")
    if not np.all(np.isfinite(bvals)) or np.any(bvals < 0):
        raise ValueError("b-values must be finite and nonnegative")
    order = np.argsort(bvals, kind="stable")

    centers, members = [], []
    cur_sum, cur_idx = 0.0, []
    for i in order:
        b = bvals[i]
        if cur_idx and b - cur_sum / len(cur_idx) > tolerance:
            centers.append(cur_sum / len(cur_idx))
            members.append(tuple(sorted(cur_idx)))
            cur_sum, cur_idx = 0.0, []
        cur_sum += b
        cur_idx.append(int(i))
    if cur_idx:
        centers.append(cur_sum / len(cur_idx))
        members.append(tuple(sorted(cur_idx)))
    return ShellTable(tuple(centers), tuple(members))
