"""Bit-exact binary checkpoints.

Layout, all integers little-endian:

    bytes 0-3    magic b"DKPT"
    bytes 4-7    format version, uint32
    bytes 8-15   header length H, uint64
    bytes 16-    header: UTF-8 JSON with
                   config:  the model configuration fields
                   tensors: [{name, dtype, shape, offset, nbytes}, ...]
                   extra:   scalar metadata (step counts, token counts)
    ...          payload: each tensor's bytes, back to back in table order
    last 32      SHA-256 of header JSON + payload

Optimizer moments are stored beside the weights as "optim.m.<name>" and
"optim.v.<name>"; the step count rides in extra. Round-tripping is
bitwise: load(save(x)) reproduces every tensor byte for byte. Both ways
stream: save writes one tensor at a time, and load reads each tensor
straight into its own array, so neither holds the file's bytes beside the
tensors. The SHA-256 runs on one helper thread beside the writes or reads,
over the same bytes in the same order, so the format and the bytes of a
file are what a hash in line would give.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
import numpy as np

from .errors import ConfigError
from .model import ModelConfig, ModelParams, count_params
from .optim import AdamW
from .tensor import Tensor

MAGIC = b"DKPT"
VERSION = 1
_ALLOWED_DTYPES = ("<f4", "<f8")
# Config fields that older headers carry; they load only while false.
_LEGACY_FALSE_KEYS = ("tie_embeddings", "use_bias")
_ENTRY_KEYS = ("name", "dtype", "shape", "offset", "nbytes")
_CHUNK = 1 << 20  # load reads and hashes the payload in spans of at most this


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    version: int
    config: ModelConfig
    tensors: dict[str, np.ndarray]
    extra: dict


def save_checkpoint(path, config: ModelConfig, tensors: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    """Write the header, then each tensor's bytes, while a helper thread
    hashes the same bytes; the digest goes last."""
    entries = []
    arrays = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr, order="C")  # keeps 0-d arrays 0-d
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        if le.dtype.str not in _ALLOWED_DTYPES:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        entries.append({"name": name, "dtype": le.dtype.str, "shape": list(arr.shape),
                        "offset": offset, "nbytes": le.nbytes})
        arrays.append(le)
        offset += le.nbytes
    header = {"config": asdict(config), "tensors": entries, "extra": dict(extra or {})}
    header_json = json.dumps(header, sort_keys=True).encode("utf-8")
    with _Sha256() as sha:
        for span in (header_json, *arrays):  # hashing starts before open() truncates
            sha.update(span)
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(header_json)))
            f.write(header_json)
            for le in arrays:
                f.write(le)
            f.write(sha.digest())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, streaming each tensor into its own array.

    The tensor table must tile the payload as save_checkpoint writes it,
    each entry starting where the one before ends; that is checked before
    any tensor array is allocated. Every byte is hashed on a helper thread
    once it is read. A file whose digest does not match raises "checksum
    mismatch" first, even when its header is bad too; a bad header raises
    only once the digest matched.
    """
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        preamble = _read_exact(f, 16) if size >= 16 + 32 else b""
        if preamble[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic or truncated)")
        version = struct.unpack("<I", preamble[4:8])[0]
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        hlen = struct.unpack("<Q", preamble[8:16])[0]
        if 16 + hlen + 32 > size:
            raise CheckpointError(f"{path}: truncated header")
        header_json = _read_exact(f, hlen)
        payload_len = size - 48 - hlen
        try:
            header, entries = _parse_header(path, header_json, payload_len)
        except CheckpointError as e:
            header_error, entries = e, []
        else:
            header_error = None
        with _Sha256() as sha:
            sha.update(header_json)
            tensors = _read_payload(f, sha, payload_len, entries)
            if _read_exact(f, 32) != sha.digest():
                raise CheckpointError(f"{path}: checksum mismatch")
    if header_error is not None:
        raise header_error
    fields = header["config"]
    for key in _LEGACY_FALSE_KEYS:
        if fields.pop(key, False) is not False:
            raise CheckpointError(f"{path}: config.{key} is not supported")
    try:
        config = ModelConfig(**fields)
    except (TypeError, ConfigError) as e:  # unknown or missing field, or a bad value
        raise CheckpointError(f"{path}: unusable model config: {e}") from e
    return Checkpoint(version, config, tensors, header.get("extra", {}))


def _read_exact(f, n: int) -> bytes:
    out = bytearray(n)
    _fill(f, memoryview(out))
    return bytes(out)


def _fill(f, view: memoryview) -> None:
    """readinto `view` until it is full; the file was sized before reading."""
    done = 0
    while done < len(view):
        got = f.readinto(view[done:])
        if not got:
            raise CheckpointError(f"{f.name}: file shrank while it was read")
        done += got


def _parse_header(path, header_json: bytes, payload_len: int) -> tuple[dict, list]:
    """The header and its (name, dtype, shape) entries, checked to tile a
    payload of `payload_len` bytes in table order."""
    try:
        header = json.loads(header_json)
    except ValueError as e:  # not UTF-8 or not JSON
        raise CheckpointError(f"{path}: header is not JSON: {e}") from e
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("config"), dict) and isinstance(header.get("extra", {}), dict)):
        raise CheckpointError(f"{path}: header needs a tensors list, a config object "
                              "and, if any, an extra object")
    entries, names, end = [], set(), 0
    for i, e in enumerate(header["tensors"]):
        if not isinstance(e, dict):
            raise CheckpointError(f"{path}: tensor #{i} is not an object")
        where = f"{path}: tensor {e.get('name', f'#{i}')!r}"
        missing = [key for key in _ENTRY_KEYS if key not in e]
        if missing:
            raise CheckpointError(f"{where} has no {', '.join(missing)}")
        name, dtype, shape, offset, nbytes = (e[key] for key in _ENTRY_KEYS)
        if not isinstance(name, str):
            raise CheckpointError(f"{where}: name must be a string")
        if dtype not in _ALLOWED_DTYPES:
            raise CheckpointError(f"{where} has unsupported dtype")
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in [*shape, offset, nbytes])):
            raise CheckpointError(f"{where}: shape, offset and nbytes must hold ints >= 0")
        if nbytes != math.prod(shape) * np.dtype(dtype).itemsize:
            raise CheckpointError(f"{where}: nbytes {nbytes} does not fit shape {shape}")
        if offset != end:
            raise CheckpointError(f"{where} starts at byte {offset}, not at {end}")
        if name in names:
            raise CheckpointError(f"{where} is listed twice")
        names.add(name)
        entries.append((name, dtype, shape))
        end += nbytes
    if end != payload_len:
        raise CheckpointError(f"{path}: the tensors end at byte {end}, the payload at {payload_len}")
    return header, entries


def _read_payload(f, sha: _Sha256, payload_len: int, entries) -> dict[str, np.ndarray]:
    """Read the payload front to back, each entry's bytes straight into a
    new array in spans of at most _CHUNK, and hand every span to the hash.
    With no entries (a bad header) the bytes pass through one scratch
    span, refilled only once its hash is done."""
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in entries:
        arr = np.empty(shape, dtype=np.dtype(dtype))
        raw = memoryview(arr.reshape(-1).view(np.uint8))
        for i in range(0, len(raw), _CHUNK):
            chunk = raw[i:i + _CHUNK]
            _fill(f, chunk)
            sha.update(chunk)
        arrays[name] = arr
    if not entries:
        scratch = memoryview(bytearray(min(payload_len, _CHUNK)))
        for pos in range(0, payload_len, _CHUNK):
            chunk = scratch[:payload_len - pos]
            _fill(f, chunk)
            sha.update(chunk).result()
    return arrays


class _Sha256:
    """SHA-256 computed on one helper thread, over spans in the order they
    are handed in. A span must not change until its future is done; the
    helper is joined when the `with` block exits, skipping the spans not
    yet hashed when it exits on an error."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="deskllm-sha256")
        self._pending: list[Future] = []

    def __enter__(self) -> _Sha256:
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def update(self, span) -> Future:
        done = self._pool.submit(self._sha.update, span)
        self._pending.append(done)
        return done

    def digest(self) -> bytes:
        """The digest of every span handed in, once all are hashed."""
        for done in self._pending:
            done.result()
        self._pending.clear()
        return self._sha.digest()


# ---------------------------------------------------------------------------
# model and optimizer conveniences

def save_model_checkpoint(path, params: ModelParams, config: ModelConfig, *,
                          optimizer: AdamW | None = None,
                          extra: dict | None = None) -> None:
    tensors = {name: t.data for name, t in params.named_tensors().items()}
    merged = dict(extra or {})
    if optimizer is not None:
        for name in optimizer.params:
            tensors[f"optim.m.{name}"] = optimizer.m[name]
            tensors[f"optim.v.{name}"] = optimizer.v[name]
        merged["optim.step"] = optimizer.step_count
    save_checkpoint(path, config, tensors, merged)


def build_params(ckpt: Checkpoint) -> ModelParams:
    """Trainable parameters that take over the checkpoint's arrays, uncopied
    (load_checkpoint made them), so training them changes `ckpt.tensors`."""

    def grab(name: str) -> Tensor:
        if name not in ckpt.tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        return Tensor(ckpt.tensors[name], requires_grad=True)

    return ModelParams.build(ckpt.config.n_layers, grab)


def load_model(path) -> tuple[ModelConfig, ModelParams, dict]:
    ckpt = load_checkpoint(path)
    return ckpt.config, build_params(ckpt), ckpt.extra


def apply_optimizer_state(optimizer: AdamW, ckpt: Checkpoint) -> None:
    """Restore moments and step count saved by save_model_checkpoint."""
    for name in optimizer.params:
        for kind, store in (("m", optimizer.m), ("v", optimizer.v)):
            key = f"optim.{kind}.{name}"
            if key not in ckpt.tensors:
                raise CheckpointError(f"checkpoint has no optimizer state {key!r}")
            arr = ckpt.tensors[key]
            if arr.shape != store[name].shape:
                raise CheckpointError(f"optimizer state {key!r} shape mismatch")
            store[name][...] = arr
    if "optim.step" not in ckpt.extra:
        raise CheckpointError("checkpoint has no optimizer step count")
    optimizer.step_count = int(ckpt.extra["optim.step"])


def inspect_checkpoint(path) -> dict:
    """Summary for display: config, tensor table, parameter totals."""
    ckpt = load_checkpoint(path)
    table = [{"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape),
              "size": int(arr.size)}
             for name, arr in ckpt.tensors.items()]
    n_model = sum(arr.size for name, arr in ckpt.tensors.items()
                  if not name.startswith("optim."))
    return {"version": ckpt.version, "config": asdict(ckpt.config), "tensors": table,
            "n_model_params": int(n_model),
            "config_params": count_params(ckpt.config), "extra": ckpt.extra}
