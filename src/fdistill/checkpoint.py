"""Binary checkpoint format for train states.

Layout (all integers little-endian):

    magic            4 bytes  b"FDST"
    version          u32      2
    config echo      u32 length + UTF-8 JSON of the run config
    iteration        u64
    network count    u32
    per network:
        name         u32 length + UTF-8
        widths       u32 count + u32 each
        param count  u64
        params       f64[param count]
        adam state   u64 step; f64 lr, beta1, beta2, eps, 0.0;
                     f64[param count] m; f64[param count] v
    checksum         u64 over every preceding byte: CRC-32 (zlib.crc32,
                     zero-extended)

The fifth Adam float is the weight-decay slot of earlier writers; it is
always written as 0.0. Round trips are bitwise lossless; loads reject bad
magic, any version but 2 (version 1, checksummed with FNV-1a, included),
truncation, checksum mismatches, text fields that are not UTF-8, a config
echo that is not a JSON object and a non-zero weight decay, each with
`CheckpointError`. A save writes a hidden temporary file in the target
directory and renames it over the target, so a reader never sees a partial
checkpoint.
"""

import contextlib
import json
import os
import struct
import uuid
import zlib

import numpy as np

from .errors import CheckpointError
from .nets import AdamState

__all__ = ["MAGIC", "VERSION", "NetworkPayload", "save_checkpoint", "load_checkpoint"]

MAGIC = b"FDST"
VERSION = 2


class NetworkPayload:
    """Name, layer widths, flat parameters, and optimizer state of one net."""

    def __init__(self, name: str, widths, params: np.ndarray, adam: AdamState):
        self.name = name
        self.widths = tuple(int(w) for w in widths)
        self.params = np.asarray(params, dtype="<f8")
        self.adam = adam


def _pack_array(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def save_checkpoint(path, config_dict: dict, iteration: int, networks) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    config_bytes = json.dumps(config_dict, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(config_bytes)))
    parts.append(config_bytes)
    parts.append(struct.pack("<Q", int(iteration)))
    parts.append(struct.pack("<I", len(networks)))
    for net in networks:
        name_bytes = net.name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", len(net.widths)))
        parts.append(struct.pack(f"<{len(net.widths)}I", *net.widths))
        parts.append(struct.pack("<Q", net.params.size))
        parts.append(_pack_array(net.params))
        a = net.adam
        parts.append(struct.pack("<Q", a.step))
        parts.append(struct.pack("<5d", a.lr, a.beta1, a.beta2, a.eps, 0.0))
        parts.append(_pack_array(a.m))
        parts.append(_pack_array(a.v))
    body = b"".join(parts)
    path = os.fspath(path)
    # hidden name in the same directory: never matches checkpoint_*.fdst
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp"
    )
    try:
        with open(tmp, "xb") as fh:
            fh.write(body)
            fh.write(struct.pack("<Q", zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64s(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").astype(float)

    def text(self, what: str) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{what} is not UTF-8 ({exc.reason} at byte {exc.start})"
            ) from exc


def load_checkpoint(path):
    """Returns (config_dict, iteration, [NetworkPayload...])."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4 + 8:
        raise CheckpointError("truncated checkpoint file")
    body, checksum_bytes = data[:-8], data[-8:]
    reader = _Reader(body)
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (reader supports {VERSION})"
        )
    expected = struct.unpack("<Q", checksum_bytes)[0]
    if zlib.crc32(body) != expected:
        raise CheckpointError("checksum mismatch: checkpoint is corrupt")
    try:
        config_dict = json.loads(reader.text("config echo"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"config echo is not JSON ({exc})") from exc
    if not isinstance(config_dict, dict):
        raise CheckpointError("config echo is not a JSON object")
    iteration = reader.u64()
    networks = []
    for _ in range(reader.u32()):
        name = reader.text("network name")
        widths = tuple(reader.u32() for _ in range(reader.u32()))
        n_params = reader.u64()
        params = reader.f64s(n_params)
        step = reader.u64()
        lr, beta1, beta2, eps, decay = struct.unpack("<5d", reader.take(40))
        if decay != 0.0:
            raise CheckpointError(f"network {name!r} has Adam weight decay {decay!r}; "
                                  "only 0.0 is supported")
        m = reader.f64s(n_params)
        v = reader.f64s(n_params)
        adam = AdamState(m=m, v=v, step=step, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        networks.append(NetworkPayload(name, widths, params, adam))
    if reader.pos != len(body):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return config_dict, iteration, networks
