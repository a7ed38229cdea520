"""Checkpoint binary format: bitwise round trips and integrity checks."""

import hashlib
import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from deskllm import checkpoint
from deskllm.checkpoint import (Checkpoint, CheckpointError, apply_optimizer_state,
                                build_params, inspect_checkpoint, load_checkpoint,
                                load_model, save_checkpoint, save_model_checkpoint)
from deskllm.model import count_params, forward
from deskllm.optim import AdamW, OptimHyper
from deskllm.tensor import no_grad

from modelutil import tiny_model


class TestRoundTrip:
    def test_model_tensors_bitwise(self, tmp_path):
        cfg, params = tiny_model(seed=0)
        path = tmp_path / "model.dkpt"
        save_model_checkpoint(path, params, cfg, extra={"tokens_seen": 123})
        ckpt = load_checkpoint(path)
        assert ckpt.config == cfg
        assert ckpt.extra == {"tokens_seen": 123}
        named = params.named_tensors()
        assert set(ckpt.tensors) == set(named)
        for name, t in named.items():
            assert ckpt.tensors[name].tobytes() == t.data.tobytes()
            assert ckpt.tensors[name].dtype == t.data.dtype

    def test_f32_dtype_preserved(self, tmp_path):
        cfg, params = tiny_model(seed=1, dtype="f32")
        path = tmp_path / "model32.dkpt"
        save_model_checkpoint(path, params, cfg)
        ckpt = load_checkpoint(path)
        for name, t in params.named_tensors().items():
            assert ckpt.tensors[name].dtype == np.float32
            assert ckpt.tensors[name].tobytes() == t.data.tobytes()

    def test_crafted_bit_patterns(self, tmp_path):
        cfg, _ = tiny_model(seed=2)
        crafted = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                            np.nextafter(1.0, 2.0)], dtype=np.float64)
        path = tmp_path / "bits.dkpt"
        save_checkpoint(path, cfg, {"crafted": crafted})
        out = load_checkpoint(path).tensors["crafted"]
        assert out.tobytes() == crafted.tobytes()

    def test_zero_dim_tensor_keeps_its_shape(self, tmp_path):
        cfg, _ = tiny_model(seed=2)
        path = tmp_path / "scalar.dkpt"
        save_checkpoint(path, cfg, {"scalar": np.array(2.5)})
        out = load_checkpoint(path).tensors["scalar"]
        assert out.shape == () and out.dtype == np.float64 and float(out) == 2.5

    def test_save_is_deterministic(self, tmp_path):
        cfg, params = tiny_model(seed=3)
        p1, p2 = tmp_path / "a.dkpt", tmp_path / "b.dkpt"
        save_model_checkpoint(p1, params, cfg)
        save_model_checkpoint(p2, params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_build_params_forward_finite(self, tmp_path):
        cfg, params = tiny_model(seed=4)
        path = tmp_path / "model.dkpt"
        save_model_checkpoint(path, params, cfg)
        cfg2, params2, extra = load_model(path)
        with no_grad():
            logits = forward(params2, np.array([1, 2, 3]), cfg2).data
        assert np.all(np.isfinite(logits))
        with no_grad():
            ref = forward(params, np.array([1, 2, 3]), cfg).data
        assert np.array_equal(logits, ref)

    def test_rejects_unsupported_dtype(self, tmp_path):
        cfg, _ = tiny_model(seed=5)
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "bad.dkpt", cfg,
                            {"ids": np.arange(4, dtype=np.int64)})


class TestOptimizerState:
    def run_steps(self, params, opt, n):
        for _ in range(n):
            for name, t in params.named_tensors().items():
                t.grad = 0.1 * t.data + 0.01
            opt.step(1e-3)
            for t in params.named_tensors().values():
                t.zero_grad()

    def test_moments_round_trip(self, tmp_path):
        cfg, params = tiny_model(seed=6)
        opt = AdamW(params.named_tensors(), OptimHyper())
        self.run_steps(params, opt, 3)
        path = tmp_path / "opt.dkpt"
        save_model_checkpoint(path, params, cfg, optimizer=opt,
                              extra={"tokens_seen": 48})
        ckpt = load_checkpoint(path)
        params2 = build_params(ckpt)
        opt2 = AdamW(params2.named_tensors(), OptimHyper())
        apply_optimizer_state(opt2, ckpt)
        assert opt2.step_count == 3
        assert ckpt.extra["tokens_seen"] == 48
        for name in opt.params:
            assert opt2.m[name].tobytes() == opt.m[name].tobytes()
            assert opt2.v[name].tobytes() == opt.v[name].tobytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg, params = tiny_model(seed=7)
        opt = AdamW(params.named_tensors(), OptimHyper())
        self.run_steps(params, opt, 3)
        path = tmp_path / "mid.dkpt"
        save_model_checkpoint(path, params, cfg, optimizer=opt)
        self.run_steps(params, opt, 2)  # uninterrupted: 5 total

        ckpt = load_checkpoint(path)
        params_r = build_params(ckpt)
        opt_r = AdamW(params_r.named_tensors(), OptimHyper())
        apply_optimizer_state(opt_r, ckpt)
        self.run_steps(params_r, opt_r, 2)  # resumed: 3 + 2

        for name, t in params.named_tensors().items():
            assert t.data.tobytes() == params_r.named_tensors()[name].data.tobytes()
            assert opt.m[name].tobytes() == opt_r.m[name].tobytes()
            assert opt.v[name].tobytes() == opt_r.v[name].tobytes()
        assert opt.step_count == opt_r.step_count == 5

    def test_missing_state_rejected(self, tmp_path):
        cfg, params = tiny_model(seed=8)
        path = tmp_path / "plain.dkpt"
        save_model_checkpoint(path, params, cfg)  # no optimizer section
        ckpt = load_checkpoint(path)
        opt = AdamW(params.named_tensors(), OptimHyper())
        with pytest.raises(CheckpointError):
            apply_optimizer_state(opt, ckpt)


class TestIntegrity:
    def saved(self, tmp_path):
        cfg, params = tiny_model(seed=9)
        path = tmp_path / "model.dkpt"
        save_model_checkpoint(path, params, cfg)
        return path

    def test_payload_corruption_detected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_checksum_corruption_detected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_checksum_checked_before_a_bad_header(self, tmp_path):
        path = self.saved(tmp_path)
        _replace_header(path, b"[]")
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0xFF  # a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_model_tensor_rejected(self, tmp_path):
        cfg, params = tiny_model(seed=10)
        tensors = {n: t.data for n, t in params.named_tensors().items()}
        tensors.pop("final_norm")
        path = tmp_path / "partial.dkpt"
        save_checkpoint(path, cfg, tensors)
        with pytest.raises(CheckpointError, match="final_norm"):
            build_params(load_checkpoint(path))


def _replace_header(path, header_json: bytes) -> None:
    """Put `header_json` in place of the file's header bytes and recompute
    its SHA-256."""
    raw = path.read_bytes()
    hlen = struct.unpack("<Q", raw[8:16])[0]
    payload = raw[16 + hlen:-32]
    path.write_bytes(raw[:8] + struct.pack("<Q", len(header_json)) + header_json + payload
                     + hashlib.sha256(header_json + payload).digest())


def _rewrite_header(path, edit) -> None:
    """Apply `edit` to the parsed header in place and recompute the
    file's SHA-256."""
    raw = path.read_bytes()
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    _replace_header(path, json.dumps(header, sort_keys=True).encode("utf-8"))


def _rewrite_config(path, drop=(), **fields) -> None:
    """Remove the keys `drop` from the header's config and add `fields`."""
    def edit(header):
        for key in drop:
            del header["config"][key]
        header["config"].update(fields)

    _rewrite_header(path, edit)


class TestLegacyHeader:
    """Headers written while the config had tie_embeddings and use_bias."""

    def test_false_flags_load(self, tmp_path):
        cfg, params = tiny_model(seed=12)
        path = tmp_path / "old.dkpt"
        save_model_checkpoint(path, params, cfg)
        _rewrite_config(path, tie_embeddings=False, use_bias=False)
        cfg2, params2, _ = load_model(path)
        assert cfg2 == cfg
        for name, t in params.named_tensors().items():
            assert params2.named_tensors()[name].data.tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("key", ["tie_embeddings", "use_bias"])
    def test_true_flag_rejected(self, tmp_path, key):
        cfg, params = tiny_model(seed=12)
        path = tmp_path / "old.dkpt"
        save_model_checkpoint(path, params, cfg)
        _rewrite_config(path, **{"tie_embeddings": False, "use_bias": False, key: True})
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)


class TestBadHeaderConfig:
    """A header config that ModelConfig rejects is a CheckpointError naming the file."""

    @pytest.mark.parametrize("drop, fields", [
        ((), {"rope_scaling": 1.0}),      # a field this version does not know
        (("hidden_size",), {}),           # a required field missing
        ((), {"n_kv_heads": 3}),          # a value ModelConfig rejects
    ], ids=["unknown", "missing", "bad_value"])
    def test_rejected(self, tmp_path, drop, fields):
        cfg, params = tiny_model(seed=12)
        path = tmp_path / "bad.dkpt"
        save_model_checkpoint(path, params, cfg)
        _rewrite_config(path, drop=drop, **fields)
        with pytest.raises(CheckpointError, match="bad.dkpt"):
            load_checkpoint(path)


class TestBadHeaderShape:
    """A header that is not an object with a tensors list, a config object
    and an optional extra object is a CheckpointError naming the file."""

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("tensors"),
        lambda h: h.update(tensors={e["name"]: e for e in h["tensors"]}),
        lambda h: h.update(tensors=3),
        lambda h: h["tensors"].__setitem__(0, "token_embedding"),
        lambda h: h.update(config=list(h["config"].values())),
        lambda h: h.pop("config"),
        lambda h: h.update(extra=[]),
    ], ids=["no_tensors", "tensors_object", "tensors_number", "entry_not_object",
            "config_list", "no_config", "extra_list"])
    def test_rejected(self, tmp_path, edit):
        cfg, params = tiny_model(seed=14)
        path = tmp_path / "bad.dkpt"
        save_model_checkpoint(path, params, cfg)
        _rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match="bad.dkpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header_json", [b"[]", b"{tensors: []}", b"\xff{}"],
                             ids=["list", "not_json", "not_utf8"])
    def test_raw_header_rejected(self, tmp_path, header_json):
        cfg, params = tiny_model(seed=14)
        path = tmp_path / "bad.dkpt"
        save_model_checkpoint(path, params, cfg)
        _replace_header(path, header_json)
        with pytest.raises(CheckpointError, match="bad.dkpt"):
            load_checkpoint(path)


class TestBadTensorTable:
    """A tensor table entry that does not describe its bytes is a
    CheckpointError naming the file and the tensor."""

    @pytest.mark.parametrize("edit, tensor", [
        (lambda t: t[0].pop("offset"), "token_embedding"),
        (lambda t: t[0].pop("name"), "#0"),
        (lambda t: t[0].update(offset=-8), "token_embedding"),
        (lambda t: t[0].update(offset=1.5), "token_embedding"),
        (lambda t: t[0].update(offset=True), "token_embedding"),
        (lambda t: t[0].update(nbytes=-8), "token_embedding"),
        (lambda t: t[0].update(nbytes=t[0]["nbytes"] - 8), "token_embedding"),
        (lambda t: t[0].update(shape=[1]), "token_embedding"),
        (lambda t: t[0].update(shape=[-1, 4]), "token_embedding"),
        (lambda t: t[0].update(shape="16"), "token_embedding"),
        (lambda t: t[1].update(name=t[0]["name"]), "token_embedding"),
    ], ids=["missing_key", "missing_name", "negative_offset", "float_offset", "bool_offset",
            "negative_nbytes", "nbytes_short_of_shape", "shape_short_of_nbytes",
            "negative_dim", "shape_not_a_list", "repeated_name"])
    def test_rejected(self, tmp_path, edit, tensor):
        cfg, params = tiny_model(seed=13)
        path = tmp_path / "bad.dkpt"
        save_model_checkpoint(path, params, cfg)
        _rewrite_header(path, lambda header: edit(header["tensors"]))
        with pytest.raises(CheckpointError, match=f"bad.dkpt: tensor '{tensor}'"):
            load_checkpoint(path)

    def test_name_not_a_string_rejected(self, tmp_path):
        cfg, params = tiny_model(seed=13)
        path = tmp_path / "bad.dkpt"
        save_model_checkpoint(path, params, cfg)
        _rewrite_header(path, lambda h: h["tensors"][0].update(name=["token_embedding"]))
        with pytest.raises(CheckpointError, match="bad.dkpt: tensor .*name must be a string"):
            load_checkpoint(path)


class TestStreamingLoad:
    """The loader reads each tensor straight into its own array, front to
    back; the table must tile the payload as save_checkpoint writes it."""

    def tensors(self):
        rng = np.random.default_rng(15)
        return {"a": rng.standard_normal((3, 5)), "b": rng.standard_normal(7).astype(np.float32),
                "c": np.array(1.5), "d": np.zeros((0, 4))}

    @pytest.mark.parametrize("edit, fault", [
        (lambda t: t.reverse(), "tensor 'd' starts at"),          # offsets out of order
        (lambda t: t.pop(1), "tensor 'c' starts at"),             # a gap in the payload
        (lambda t: t.append(dict(t[0], name="a_again")),
         "tensor 'a_again' starts at"),                           # two entries share bytes
        (lambda t: t.append(dict(t[0], name="a_tail", shape=[2, 5], nbytes=80,
                                 offset=t[0]["offset"] + 40)),
         "tensor 'a_tail' starts at"),                            # entries overlap in part
        (lambda t: t.__delitem__(slice(2, None)), "the tensors end at"),       # bytes left over
        (lambda t: t[3].update(shape=[1, 4], nbytes=32), "the tensors end at"),  # runs past the end
    ], ids=["out_of_order", "gap", "shared", "overlap", "short", "past_end"])
    def test_untiled_table_rejected(self, tmp_path, edit, fault):
        cfg, _ = tiny_model(seed=15)
        path = tmp_path / "layout.dkpt"
        save_checkpoint(path, cfg, self.tensors())
        _rewrite_header(path, lambda header: edit(header["tensors"]))
        with pytest.raises(CheckpointError, match=f"layout.dkpt: {fault}"):
            load_checkpoint(path)

    def test_huge_entry_rejected_before_allocation(self, tmp_path):
        cfg, _ = tiny_model(seed=15)
        path = tmp_path / "huge.dkpt"
        save_checkpoint(path, cfg, self.tensors())
        _rewrite_header(path, lambda h: h["tensors"][3].update(shape=[1 << 37], nbytes=1 << 40))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="huge.dkpt: the tensors end at"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_untiled_table_checksummed_first(self, tmp_path):
        """A bad table is the one case whose payload is hashed through
        scratch spans; the spans past the first count too."""
        cfg, _ = tiny_model(seed=15)
        path = tmp_path / "untiled.dkpt"
        save_checkpoint(path, cfg, {"a": np.arange(5 << 16, dtype=np.float64),  # 2.5 MiB
                                    "b": np.ones(3)})
        _rewrite_header(path, lambda h: h["tensors"].pop(0))
        with pytest.raises(CheckpointError, match="untiled.dkpt: tensor 'b' starts at"):
            load_checkpoint(path)
        raw = bytearray(path.read_bytes())
        hlen = struct.unpack("<Q", raw[8:16])[0]
        raw[16 + hlen + (1 << 20) + 8] ^= 0xFF  # a payload byte in the second span
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_peak_memory_holds_the_tensors_once(self, tmp_path):
        cfg, _ = tiny_model(seed=16)
        big = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        path = tmp_path / "big.dkpt"
        save_checkpoint(path, cfg, {"big": big})
        tracemalloc.start()
        try:
            out = load_checkpoint(path).tensors["big"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.tobytes() == big.tobytes()
        assert peak < 1.25 * big.nbytes


class TestHashThread:
    """The SHA-256 runs on a helper thread beside the file I/O."""

    def test_digest_is_sha256_of_header_and_payload(self, tmp_path):
        cfg, params = tiny_model(seed=17)
        opt = AdamW(params.named_tensors(), OptimHyper())
        TestOptimizerState().run_steps(params, opt, 2)
        path = tmp_path / "model.dkpt"
        save_model_checkpoint(path, params, cfg, optimizer=opt)
        raw = path.read_bytes()
        assert raw[-32:] == hashlib.sha256(raw[16:-32]).digest()

    def test_spans_past_one_mib_load(self, tmp_path):
        cfg, _ = tiny_model(seed=18)
        rng = np.random.default_rng(18)
        tensors = {"big": rng.standard_normal(5 << 16),    # 2.5 MiB: three spans
                   "small": rng.standard_normal(3)}
        path = tmp_path / "spans.dkpt"
        save_checkpoint(path, cfg, tensors)
        loaded = load_checkpoint(path).tensors
        assert list(loaded) == ["big", "small"]
        for name, arr in loaded.items():
            assert arr.tobytes() == tensors[name].tobytes()

    def test_save_peak_memory_copies_no_tensor(self, tmp_path):
        cfg, _ = tiny_model(seed=16)
        big = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        path = tmp_path / "big.dkpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, cfg, {"big": big})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_checkpoint(path).tensors["big"].tobytes() == big.tobytes()
        assert peak < 0.25 * big.nbytes

    def test_helper_joined_on_each_failure(self, tmp_path, monkeypatch):
        threads = threading.active_count()
        cfg, _ = tiny_model(seed=19)
        tensors = {"big": np.arange(1 << 19, dtype=np.float64)}  # 4 MiB: four spans
        path = tmp_path / "model.dkpt"
        save_checkpoint(path, cfg, tensors)

        with pytest.raises(FileNotFoundError):
            save_checkpoint(tmp_path / "missing" / "model.dkpt", cfg, tensors)
        assert threading.active_count() == threads

        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        corrupt = tmp_path / "corrupt.dkpt"
        corrupt.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(corrupt)
        assert threading.active_count() == threads

        fill, spans = checkpoint._fill, []

        def failing_fill(f, view):
            if len(view) == 1 << 20:
                spans.append(view)
                if len(spans) == 2:
                    raise CheckpointError(f"{f.name}: file shrank while it was read")
            fill(f, view)

        monkeypatch.setattr(checkpoint, "_fill", failing_fill)
        with pytest.raises(CheckpointError, match="file shrank"):
            load_checkpoint(path)  # while the first span of the tensor is hashed
        assert len(spans) == 2
        assert threading.active_count() == threads

        spans.clear()
        _replace_header(path, b"[]")
        with pytest.raises(CheckpointError, match="file shrank"):
            load_checkpoint(path)  # on the second scratch span of a bad header
        assert len(spans) == 2
        assert threading.active_count() == threads


class TestInspect:
    def test_counts_match_config(self, tmp_path):
        cfg, params = tiny_model(seed=11)
        opt = AdamW(params.named_tensors(), OptimHyper())
        path = tmp_path / "model.dkpt"
        save_model_checkpoint(path, params, cfg, optimizer=opt)
        info = inspect_checkpoint(path)
        assert info["n_model_params"] == count_params(cfg)
        assert info["config_params"] == count_params(cfg)
        names = {row["name"] for row in info["tensors"]}
        assert "token_embedding" in names
        assert any(n.startswith("optim.m.") for n in names)
        assert info["extra"]["optim.step"] == 0
        assert info["config"]["hidden_size"] == cfg.hidden_size
