"""Checkpoint container: byte layout, checksum, bit-exact round trips."""

import hashlib
import os
import struct

import numpy as np
import pytest

from dynaprompt.checkpoint import (
    CONFIG_KEY,
    MAGIC,
    VERSION,
    blake2b64,
    load_checkpoint,
    save_checkpoint,
)
from dynaprompt.cli import main as cli_main
from dynaprompt.config import ModelConfig
from dynaprompt.pools import IntegrityError


def _blob(config, tensors, magic=MAGIC, version=VERSION):
    """A checkpoint file built independently of save_checkpoint."""
    raw_config = config.to_json().encode("utf-8")
    entries = dict(tensors)
    entries[CONFIG_KEY] = np.frombuffer(raw_config, np.uint8).astype("<f8")
    parts = [magic, struct.pack("<IQ", version, len(entries))]
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype="<f8")
        raw_name = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw_name)), raw_name,
                  struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.tobytes()]
    body = b"".join(parts)
    return body + _blake2b_trailer(body)


def _blake2b_trailer(body):
    return hashlib.blake2b(body, digest_size=8).digest()


def _assert_state_equal(tensors, expected):
    assert set(tensors) == set(expected)
    for name, arr in expected.items():
        assert tensors[name].shape == arr.shape
        np.testing.assert_array_equal(tensors[name], arr)


@pytest.fixture
def sample_state():
    rng = np.random.default_rng(0)
    return {
        "a.weights": rng.normal(size=(3, 4)),
        "b.bias": rng.normal(size=(7,)),
        "scalar": np.float64(0.07).reshape(()),
        "cube": rng.normal(size=(2, 3, 2)),
    }


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        config = ModelConfig()
        save_checkpoint(path, config, sample_state)
        loaded_config, tensors = load_checkpoint(path)
        assert set(tensors) == set(sample_state)
        for name, arr in sample_state.items():
            assert tensors[name].shape == arr.shape
            np.testing.assert_array_equal(tensors[name], arr)
        assert loaded_config.to_dict() == config.to_dict()

    def test_config_snapshot_round_trips(self, tmp_path):
        path = tmp_path / "x.ckpt"
        config = ModelConfig(d_hidden=32, n_heads=2, seed=99, lambda_=0.55)
        save_checkpoint(path, config, {"t": np.zeros(2)})
        loaded, _ = load_checkpoint(path)
        assert loaded.d_hidden == 32 and loaded.seed == 99
        assert loaded.lambda_ == 0.55

    def test_same_state_gives_identical_bytes(self, tmp_path, sample_state):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        config = ModelConfig()
        save_checkpoint(p1, config, sample_state)
        save_checkpoint(p2, config, sample_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", ModelConfig(),
                            {CONFIG_KEY: np.zeros(1)})


class TestIntegrity:
    def test_header_layout(self, tmp_path, sample_state):
        # a file built from the layout alone equals save_checkpoint's
        blob = _blob(ModelConfig(), sample_state)
        assert blob[:8] == MAGIC
        assert struct.unpack("<I", blob[8:12])[0] == VERSION
        count = struct.unpack("<Q", blob[12:20])[0]
        assert count == len(sample_state) + 1  # + config snapshot
        assert blake2b64(blob[:-8]) == struct.unpack("<Q", blob[-8:])[0]
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        v2 = path.read_bytes()
        assert len(v2) == len(blob)
        assert v2 == blob

    def test_header_layout_v2(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        assert struct.unpack("<I", blob[8:12])[0] == VERSION == 2
        count = struct.unpack("<Q", blob[12:20])[0]
        assert count == len(sample_state) + 1  # + config snapshot
        assert blob[-8:] == _blake2b_trailer(blob[:-8])
        assert blake2b64(blob[:-8]) == struct.unpack("<Q", blob[-8:])[0]

    def test_version_1_rejected(self, tmp_path, sample_state):
        # version 1 (FNV-1a trailer) is no longer read
        path = tmp_path / "x.ckpt"
        path.write_bytes(_blob(ModelConfig(), sample_state, version=1))
        with pytest.raises(IntegrityError,
                           match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_flipped_trailer_detected(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path)

    def test_unknown_version_rejected_before_hashing(self, tmp_path,
                                                      sample_state):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 3)  # trailer left stale on purpose
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="unsupported"):
            load_checkpoint(path)

    def test_corrupted_payload_detected(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        # the checksum is consistent, so the magic check itself fires
        blob = _blob(ModelConfig(), sample_state, magic=b"XDCPCKPT")
        path.write_bytes(blob)
        with pytest.raises(IntegrityError, match="magic"):
            load_checkpoint(path)

    def test_bad_magic_detected_v2(self, tmp_path, sample_state):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        # keep the checksum consistent so the magic check itself fires
        body = bytes(blob[:-8])
        path.write_bytes(body + _blake2b_trailer(body))
        with pytest.raises(IntegrityError, match="magic"):
            load_checkpoint(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.ckpt")


class TestMalformedRecords:
    """The checksum proves no authorship: anyone can seal a file whose
    records do not parse, and loading it must still fail as an integrity
    error, which the command line reports as an i/o error (exit 3)."""

    @pytest.mark.parametrize("old, new", [
        (b"a.weights", b"a.weight\xff"),
        (b"a.weights" + struct.pack("<B2Q", 2, 3, 4),
         b"a.weights" + struct.pack("<B2Q", 2, 2**62, 4)),
        (struct.pack("<d", ord("{")), struct.pack("<d", 0xFF)),
    ], ids=["non_utf8_name", "extents_overflow_int64", "non_utf8_config"])
    def test_resealed_record_exits_three(self, tmp_path, capsys,
                                         sample_state, old, new):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ModelConfig(), sample_state)
        body = path.read_bytes()[:-8]
        assert body.count(old) == 1
        body = body.replace(old, new)
        path.write_bytes(body + _blake2b_trailer(body))
        code = cli_main(["inspect-pool", "--checkpoint", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


class TestCrashSafeWrite:
    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch,
                                                   sample_state, failing):
        path = tmp_path / "x.ckpt"
        config = ModelConfig()
        save_checkpoint(path, config, sample_state)
        first = path.read_bytes()

        def fail(*args):
            raise OSError(f"simulated {failing} failure")

        monkeypatch.setattr(os, failing, fail)
        newer = {name: arr + 1.0 for name, arr in sample_state.items()}
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(path, config, newer)
        monkeypatch.undo()

        assert os.listdir(tmp_path) == ["x.ckpt"]  # no temp file left
        assert path.read_bytes() == first
        _, tensors = load_checkpoint(path)
        _assert_state_equal(tensors, sample_state)
