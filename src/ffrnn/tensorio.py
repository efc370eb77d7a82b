"""How every artifact is written and read back.

``write_file`` is the one place a file is opened for writing, ``dump_json``
the one JSON form, and ``config_from`` turns a JSON table back into a config.

Tensor files: magic b"RNT1", then little-endian uint32 fields version=1,
rank, dims[rank], followed by the payload as row-major little-endian
IEEE-754 float32. Internal float64 values are rounded to float32 on write;
the int8 targets of a dataset are exact in float32.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import typing

import numpy as np

MAGIC = b"RNT1"
VERSION = 1


def write_file(path, data) -> None:
    """Replace ``path`` with ``data`` (str, written as UTF-8, or bytes).

    The data goes to ``<path>.tmp<pid>`` first, which ``os.replace`` then
    moves over ``path``; on any error the temporary file is removed and the
    old ``path``, if any, is left as it was.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dump_json(obj) -> str:
    """``obj`` as JSON text: sorted keys, indent 2, and null in place of a
    NaN or infinite float, which JSON cannot carry."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True)


def write_json(path, obj) -> None:
    """``dump_json(obj)`` plus a trailing newline, through ``write_file``."""
    write_file(path, dump_json(obj) + "\n")


# JSON value types each field annotation accepts; a bool is no number here
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,)}


def config_from(cls, mapping, source):
    """``cls(**mapping)`` for a config dataclass read from a file.

    A key that is not a field of ``cls``, a value whose JSON type does not
    fit its field's annotation, or a missing field (the constructor's
    TypeError) raises a ValueError naming ``source`` and the key. A float
    field given a JSON integer takes it as a float, so an integer beyond the
    float range is refused here too, not in the arithmetic that uses it.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{source}: expected a table of {cls.__name__} fields")
    hints = typing.get_type_hints(cls)   # the dataclass fields' types
    unknown = set(mapping) - set(hints)
    if unknown:
        raise ValueError(f"{source}: unknown {cls.__name__} keys {sorted(unknown)}")
    values = dict(mapping)
    for key, value in mapping.items():
        allowed = _JSON_TYPES.get(hints[key])
        if allowed and type(value) not in allowed:
            raise ValueError(f"{source}: {cls.__name__} key {key!r} must be "
                             f"{hints[key].__name__}, got {value!r}")
        if hints[key] is float:
            try:
                values[key] = float(value)
            except OverflowError:
                raise ValueError(f"{source}: {cls.__name__} key {key!r} is beyond "
                                 f"the float range, got {value!r}") from None
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValueError(f"{source}: {exc}") from None


def write_tensor(path, array) -> None:
    """Write ``array`` as a tensor file. An array whose dtype float32 holds
    exactly (int8 targets, say) is cast straight to float32, with no
    float64 copy; anything else goes through float64 first, so that it is
    rounded once, from float64, whatever its dtype. A row-major float32
    array is written as it is, with no copy but the file's bytes."""
    arr = np.asarray(array)
    if not np.can_cast(arr.dtype, np.float32):
        arr = arr.astype(np.float64, copy=False)
    header = MAGIC + struct.pack(f"<{2 + arr.ndim}I", VERSION, arr.ndim, *arr.shape)
    write_file(path, header + np.ascontiguousarray(arr, dtype="<f4").data)


def read_tensor(path, dtype=np.float64) -> np.ndarray:
    """Load a tensor file back as ``dtype``, float64 by default (values
    carry float32 precision)."""
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
    return data.astype(dtype).reshape(dims)


def sha256_file(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
