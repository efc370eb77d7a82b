import contextlib
import dataclasses
import json
import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrnn.linalg import SeededRng
from ffrnn.model import ModelConfig
from ffrnn.task import TaskConfig
from ffrnn.tensorio import (
    config_from,
    dump_json,
    read_tensor,
    write_file,
    write_json,
    write_tensor,
)


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


@dataclasses.dataclass(frozen=True)
class Typed:
    count: int = 1
    rate: float = 0.5
    flag: bool = False


@pytest.mark.parametrize("key, value", [
    ("count", True), ("count", 2.0), ("count", "2"), ("rate", False),
    ("rate", None), ("flag", 0), ("flag", "false"),
])
def test_config_from_rejects_wrong_json_type(key, value):
    with pytest.raises(ValueError, match=rf"cfg\.json: Typed key '{key}' must be"):
        config_from(Typed, {key: value}, "cfg.json")


def test_config_from_accepts_json_types():
    assert config_from(Typed, {"count": 3, "rate": 2, "flag": True}, "c") \
        == Typed(3, 2, True)
    assert config_from(Typed, {"rate": 1.0, "flag": False}, "c") == Typed(1, 1.0, False)
    # a float field takes a JSON integer as a float
    rate = config_from(Typed, {"count": 3, "rate": 10 ** 20, "flag": True}, "c").rate
    assert type(rate) is float and rate == 1e20
    with pytest.raises(ValueError, match=r"c: Typed key 'rate' is beyond the float range"):
        config_from(Typed, {"count": 3, "rate": 10 ** 400, "flag": True}, "c")
    # what the program writes itself loads back
    for cfg in (ModelConfig(n_units=4, tau=2.0, dt=0.5, use_bias=True), TaskConfig()):
        mapping = json.loads(dump_json(dataclasses.asdict(cfg)))
        assert config_from(type(cfg), mapping, "c") == cfg


@pytest.fixture(scope="module")
def rnt_path(tmp_path_factory):
    """One file path that every example of a property test overwrites."""
    return tmp_path_factory.mktemp("rnt") / "t.rnt"


@settings(max_examples=200, deadline=None)
@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4,
                                                     min_side=0, max_side=4)))
def test_round_trip_is_float32_rounding(rnt_path, arr):
    with np.errstate(over="ignore"):
        expected = arr.astype(np.float32).astype(np.float64)
        write_tensor(rnt_path, arr)
    back = read_tensor(rnt_path)
    assert back.shape == arr.shape
    npt.assert_array_equal(back, expected)


def rnt_bytes(shape):
    return (b"RNT1" + struct.pack(f"<{2 + len(shape)}I", 1, len(shape), *shape)
            + np.arange(int(np.prod(shape)), dtype="<f4").tobytes())


SHAPES = st.lists(st.integers(0, 3), max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_truncated_tensor_raises_value_error(rnt_path, shape, data):
    raw = rnt_bytes(shape)
    rnt_path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError):
        read_tensor(rnt_path)


@settings(max_examples=500, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_bit_flip_reads_or_raises_value_error(rnt_path, shape, data):
    raw = bytearray(rnt_bytes(shape))
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    rnt_path.write_bytes(bytes(raw))
    with contextlib.suppress(ValueError):
        read_tensor(rnt_path)
