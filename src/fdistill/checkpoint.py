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

beta1, beta2 and eps are the constants `nets.ADAM_BETA1`, `ADAM_BETA2` and
`ADAM_EPS`, and the fifth Adam float is the weight-decay slot of earlier
writers, always 0.0. Round trips are bitwise lossless; loads reject bad
magic, any version but 2 (version 1, checksummed with FNV-1a, included),
truncation, checksum mismatches, text fields that are not UTF-8, a config
echo that is not a JSON object and Adam slots other than 0.9 / 0.999 / 1e-8 /
0.0, each with `CheckpointError`. A save writes a hidden temporary file in
the target directory and renames it over the target, so a reader never sees a
partial checkpoint.
"""

import contextlib
import json
import os
import struct
import uuid
import zlib

import numpy as np

from .errors import CheckpointError
from .nets import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, NetworkPayload

__all__ = ["MAGIC", "VERSION", "NetworkPayload", "save_checkpoint", "load_checkpoint"]

MAGIC = b"FDST"
VERSION = 2
# The four Adam slots after the learning rate, each (name, the one value
# written and accepted).
_FIXED_ADAM_SLOTS = (("Adam beta1", ADAM_BETA1), ("Adam beta2", ADAM_BETA2),
                     ("Adam eps", ADAM_EPS), ("Adam weight decay", 0.0))


def _header_and_arrays(config_dict: dict, iteration: int, networks):
    """The file's parts before the checksum, in order: packed header bytes
    and the little-endian float64 arrays themselves (no copies)."""
    config_bytes = json.dumps(config_dict, sort_keys=True).encode("utf-8")
    yield MAGIC + struct.pack("<II", VERSION, len(config_bytes))
    yield config_bytes
    yield struct.pack("<QI", int(iteration), len(networks))
    for net in networks:
        name_bytes = net.name.encode("utf-8")
        yield struct.pack("<I", len(name_bytes)) + name_bytes
        yield struct.pack(f"<I{len(net.widths)}I", len(net.widths), *net.widths)
        yield struct.pack("<Q", net.params.size)
        yield np.ascontiguousarray(net.params, dtype="<f8")
        a = net.adam
        yield struct.pack("<Q5d", a.step, a.lr, *(value for _, value in _FIXED_ADAM_SLOTS))
        yield np.ascontiguousarray(a.m, dtype="<f8")
        yield np.ascontiguousarray(a.v, dtype="<f8")


def save_checkpoint(path, config_dict: dict, iteration: int, networks) -> None:
    path = os.fspath(path)
    # hidden name in the same directory: never matches checkpoint_*.fdst
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp"
    )
    try:
        with open(tmp, "xb") as fh:
            # each part is written and checksummed in turn, never joined
            crc = 0
            for part in _header_and_arrays(config_dict, iteration, networks):
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(struct.pack("<Q", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Reader:
    """Reads fields off a memoryview of the file: slices are views, and
    `f64s` copies each array once."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
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
            return str(raw, "utf-8")
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
    body = memoryview(data)[:-8]
    reader = _Reader(body)
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (reader supports {VERSION})"
        )
    expected = struct.unpack("<Q", data[-8:])[0]
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
        lr, *slots = struct.unpack("<5d", reader.take(40))
        for (what, fixed), value in zip(_FIXED_ADAM_SLOTS, slots):
            if value != fixed:
                raise CheckpointError(f"network {name!r} has {what} {value!r}; "
                                      f"only {fixed!r} is supported")
        adam = Adam(m=reader.f64s(n_params), v=reader.f64s(n_params), step=step, lr=lr)
        networks.append(NetworkPayload(name, widths, params, adam))
    if reader.pos != len(body):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return config_dict, iteration, networks
