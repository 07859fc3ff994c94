"""Binary multi-channel frame container.

A container holds one or more frames of float32 image data with named
channels. On-disk layout, all integers little-endian:

    bytes 0-3    magic b"TIRF"
    bytes 4-5    format version, u16 (currently 1)
    bytes 6-21   width, height, channels, frame_count as u32
    next         channel name table: per channel a u16 byte length
                 followed by that many bytes of UTF-8
    rest         payload: float32 little-endian, laid out row-major and
                 channel-interleaved, index order [frame][row][col][channel]

The payload length must equal width * height * channels * frame_count * 4
bytes and channel names must be unique. Byte order is little-endian
regardless of host; big-endian readers must swap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ContainerFormatError

MAGIC = b"TIRF"
VERSION = 1

_HEADER = struct.Struct("<4sHIIII")
_NAME_LEN = struct.Struct("<H")


@dataclass(frozen=True)
class FrameContainer:
    """In-memory image stack matching the on-disk container layout."""

    channel_names: tuple[str, ...]
    data: np.ndarray  # (frames, height, width, channels), float32

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype="<f4")
        if data.ndim != 4:
            raise ContainerFormatError(f"data must have 4 axes, got shape {data.shape}")
        if min(data.shape) == 0:
            raise ContainerFormatError(f"all dimensions must be positive, got shape {data.shape}")
        names = tuple(str(n) for n in self.channel_names)
        if len(names) != data.shape[3]:
            raise ContainerFormatError(
                f"{len(names)} channel names for {data.shape[3]} data channels"
            )
        if len(set(names)) != len(names):
            raise ContainerFormatError(f"channel names must be unique: {names}")
        object.__setattr__(self, "channel_names", names)
        object.__setattr__(self, "data", data)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    def channel(self, name: str, frame: int = 0) -> np.ndarray:
        """One (height, width) channel plane of one frame."""
        try:
            index = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"no channel {name!r}, have {self.channel_names}") from None
        return self.data[frame, :, :, index]

    @classmethod
    def single_frame(cls, channels: Mapping[str, np.ndarray]) -> "FrameContainer":
        """Build a one-frame container from named (height, width) planes."""
        return cls.stack([channels])

    @classmethod
    def stack(cls, frames: Sequence[Mapping[str, np.ndarray]]) -> "FrameContainer":
        """Build a container from per-frame mappings of name -> (H, W) plane.

        All frames must share the same channel names in the same order.
        """
        if not frames:
            raise ContainerFormatError("at least one frame required")
        names = tuple(frames[0])
        planes = []
        for i, frame in enumerate(frames):
            if tuple(frame) != names:
                raise ContainerFormatError(f"frame {i} channels {tuple(frame)} != {names}")
            planes.append(np.stack([np.asarray(frame[n]) for n in names], axis=-1))
        return cls(names, np.stack(planes, axis=0))

    def to_bytes(self) -> bytes:
        parts = [
            _HEADER.pack(MAGIC, VERSION, self.width, self.height, self.channels, self.frames)
        ]
        for name in self.channel_names:
            raw = name.encode("utf-8")
            parts.append(_NAME_LEN.pack(len(raw)))
            parts.append(raw)
        parts.append(self.data.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FrameContainer":
        if len(blob) < _HEADER.size:
            raise ContainerFormatError(f"blob too short for header ({len(blob)} bytes)")
        magic, version, width, height, channels, frames = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise ContainerFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ContainerFormatError(f"unsupported version {version}")
        offset = _HEADER.size
        names = []
        for _ in range(channels):
            if offset + _NAME_LEN.size > len(blob):
                raise ContainerFormatError("truncated channel name table")
            (length,) = _NAME_LEN.unpack_from(blob, offset)
            offset += _NAME_LEN.size
            if offset + length > len(blob):
                raise ContainerFormatError("truncated channel name table")
            try:
                names.append(blob[offset : offset + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ContainerFormatError(f"channel name is not UTF-8: {exc}") from None
            offset += length
        expected = width * height * channels * frames * 4
        payload = blob[offset:]
        if len(payload) != expected:
            raise ContainerFormatError(
                f"payload is {len(payload)} bytes, header implies {expected}"
            )
        data = np.frombuffer(payload, dtype="<f4").reshape(frames, height, width, channels)
        return cls(tuple(names), data)

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def read(cls, path: str | Path) -> "FrameContainer":
        return cls.from_bytes(Path(path).read_bytes())
