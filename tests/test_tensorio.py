import struct

import numpy as np
import numpy.testing as npt
import pytest

from ffrnn.linalg import SeededRng
from ffrnn.tensorio import read_tensor, write_file, write_json, write_tensor


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 5, 3)])
def test_round_trip(tmp_path, shape):
    arr = SeededRng(1).gen.normal(size=shape)
    path = tmp_path / "t.rnt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == shape
    npt.assert_array_equal(back, arr.astype(np.float32).astype(np.float64))


def test_header_layout(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "t.rnt"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"RNT1"
    version, rank, d0, d1 = struct.unpack_from("<4I", raw, 4)
    assert (version, rank, d0, d1) == (1, 2, 2, 3)
    payload = np.frombuffer(raw[20:], dtype="<f4")
    npt.assert_array_equal(payload, arr.reshape(-1).astype(np.float32))


def test_write_is_deterministic(tmp_path):
    arr = SeededRng(2).gen.normal(size=(4, 4))
    p1, p2 = tmp_path / "a.rnt", tmp_path / "b.rnt"
    write_tensor(p1, arr)
    write_tensor(p2, arr)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rnt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.rnt"
    path.write_bytes(b"RNT1" + struct.pack("<3I", 9, 1, 0))
    with pytest.raises(ValueError, match="version"):
        read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "bad.rnt"
    good = b"RNT1" + struct.pack("<3I", 1, 1, 4) + b"\x00" * 8
    path.write_bytes(good)
    with pytest.raises(ValueError, match="payload"):
        read_tensor(path)


def test_write_json_form(tmp_path):
    # parent created, keys sorted, indent 2, null for non-finite, final newline
    path = tmp_path / "sub" / "m.json"
    write_json(path, {"b": float("inf"), "a": [1.5, float("nan")]})
    assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": null\n}\n'


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "a.txt"
    write_file(path, "old\n")
    # a lone surrogate cannot be encoded, so the write fails after the
    # temporary file was opened
    with pytest.raises(UnicodeEncodeError):
        write_file(path, "new \ud800")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
