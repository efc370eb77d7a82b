"""Binary tensor interchange files.

Layout: magic b"RNT1", then little-endian uint32 fields version=1, rank,
dims[rank], followed by the payload as row-major little-endian IEEE-754
float32. Internal float64 values are rounded to float32 on write.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"RNT1"
VERSION = 1


def write_tensor(path, array) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float64)
    header = MAGIC + struct.pack(f"<{2 + arr.ndim}I", VERSION, arr.ndim, *arr.shape)
    payload = arr.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor(path) -> np.ndarray:
    """Load a tensor file back as float64 (values carry float32 precision)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, rank = struct.unpack_from("<2I", raw, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if len(raw) < 12 + 4 * rank:
        raise ValueError(f"{path}: truncated dims for rank {rank}")
    dims = struct.unpack_from(f"<{rank}I", raw, 12)
    count = int(np.prod(dims)) if rank else 1
    payload = raw[12 + 4 * rank:]
    if len(payload) != 4 * count:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {4 * count} "
            f"for dims {dims}"
        )
    data = np.frombuffer(payload, dtype="<f4", count=count)
    return data.astype(np.float64).reshape(dims)


def sha256_file(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

