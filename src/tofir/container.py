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
regardless of host; big-endian readers must swap. Each record type declares
its channel layout once, as a :class:`ChannelSchema` beside its class.

Every write goes through one :class:`FrameWriter`, opened by
:func:`frame_writer`: it appends a frame at a time to a temporary file and
renames it onto the target only after the last one, so a container file
appears whole or not at all. :meth:`FrameContainer.write` is a loop over it.
"""

from __future__ import annotations

import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Collection, Iterable, Iterator, Mapping

import numpy as np

from .errors import ContainerFormatError, DimensionMismatchError

MAGIC = b"TIRF"
VERSION = 1

_HEADER = struct.Struct("<4sHIIII")
_NAME_LEN = struct.Struct("<H")
_U32_MAX = 2**32 - 1


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
        """One (height, width) channel plane of frame ``frame``, checked as in :meth:`frame`."""
        try:
            index = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"no channel {name!r}, have {self.channel_names}") from None
        return self.frame(frame).data[0, :, :, index]

    def frame(self, k: int) -> "FrameContainer":
        """Frame ``k`` alone: a one-frame container that is a view of ``data``."""
        if not 0 <= k < self.frames:
            raise IndexError(f"frame {k} out of range for {self.frames} frames")
        return FrameContainer(self.channel_names, self.data[k : k + 1])

    @classmethod
    def stack(cls, frames: Collection[Mapping[str, np.ndarray]]) -> "FrameContainer":
        """Build a container from per-frame mappings of name -> (H, W) plane.

        ``frames`` is iterated once, a frame at a time, so it may make each
        mapping as it is asked for; its ``len()`` sizes the float32 stack and
        must equal the number of frames it yields. All frames must share the
        same channel names in the same order and every plane the shape of
        the first one; planes are written straight into the stack.
        """
        count = len(frames)
        if count == 0:
            raise ContainerFormatError("at least one frame required")
        data = None
        made = 0
        for i, frame in enumerate(frames):
            if i == count:
                raise ContainerFormatError(f"more frames than the {count} announced")
            if data is None:
                names = tuple(frame)
                if not names:
                    raise ContainerFormatError("at least one channel required")
                shape = np.shape(frame[names[0]])
                if len(shape) != 2:
                    raise ContainerFormatError(
                        f"planes must be 2-d (height, width), got shape {shape}"
                    )
                data = np.empty((count,) + shape + (len(names),), dtype="<f4")
            if tuple(frame) != names:
                raise ContainerFormatError(f"frame {i} channels {tuple(frame)} != {names}")
            for c, name in enumerate(names):
                plane = np.asarray(frame[name])
                if plane.shape != shape:
                    raise ContainerFormatError(
                        f"frame {i} channel {name!r} has shape {plane.shape}, expected {shape}"
                    )
                data[i, :, :, c] = plane
            made = i + 1
        if made != count:
            # the rows past ``made`` were never written
            raise ContainerFormatError(f"{made} frames, {count} announced")
        return cls(names, data)

    def to_bytes(self) -> bytes:
        head = _head(self.channel_names, self.width, self.height, self.frames)
        return head + self.data.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FrameContainer":
        blob = bytes(blob)  # a no-op for bytes; the data must not alias a mutable buffer
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
        payload = memoryview(blob)[offset:]  # no copy of the payload
        if len(payload) != expected:
            raise ContainerFormatError(
                f"payload is {len(payload)} bytes, header implies {expected}"
            )
        data = np.frombuffer(payload, dtype="<f4").reshape(frames, height, width, channels)
        return cls(tuple(names), data)

    def write(self, path: str | Path) -> None:
        """Write the container to ``path``, whole or not at all: its frames
        appended in turn to one :func:`frame_writer`."""
        with frame_writer(path, self.frames) as writer:
            for k in range(self.frames):
                writer.append(self.frame(k))

    @classmethod
    def read(cls, path: str | Path) -> "FrameContainer":
        return cls.from_bytes(Path(path).read_bytes())


def _head(names: tuple[str, ...], width: int, height: int, frames: int) -> bytes:
    """Header and channel name table: everything before the payload.
    Raises ``ContainerFormatError`` for a field the header cannot hold."""
    for what, value in (("width", width), ("height", height), ("channel count", len(names)),
                        ("frame count", frames)):
        if value > _U32_MAX:
            raise ContainerFormatError(f"{what} {value} is above the header's {_U32_MAX}")
    parts = [_HEADER.pack(MAGIC, VERSION, width, height, len(names), frames)]
    for name in names:
        try:
            raw = name.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise ContainerFormatError(f"channel name {name!r} is not UTF-8: {exc}") from None
        if len(raw) > 0xFFFF:
            raise ContainerFormatError(
                f"channel name of {len(raw)} UTF-8 bytes is above the header's 65535")
        parts.append(_NAME_LEN.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


class FrameWriter:
    """Appends one-frame containers to an open container file of ``count``
    frames; made by :func:`frame_writer`.

    The first frame fixes the channel names, width and height, and writes
    the header; every later frame must match them. No frame is kept: each
    payload goes to the file as it is appended.
    """

    def __init__(self, file: IO[bytes], count: int):
        self._file = file
        self.count = count
        self.made = 0
        self._layout = None

    def append(self, frame: FrameContainer) -> None:
        if self.made == self.count:
            raise ContainerFormatError(f"more frames than the {self.count} announced")
        layout = (frame.channel_names, frame.width, frame.height)
        if self.made == 0:
            self._layout = layout
            self._file.write(_head(*layout, self.count))
        if frame.frames != 1 or layout != self._layout:
            raise ContainerFormatError(
                f"frame {self.made}: {frame.frames} frame(s) of {frame.channel_names} at "
                f"{frame.width}x{frame.height}, expected one like frame 0"
            )
        # the payload goes straight from the array, without a bytes copy
        self._file.write(frame.data.data)
        self.made += 1


def check_frame_count(count: int) -> None:
    """Raise ``ContainerFormatError`` unless a container header can announce
    ``count`` frames: at least one and at most the largest u32."""
    if count < 1:
        raise ContainerFormatError("at least one frame required")
    if count > _U32_MAX:
        raise ContainerFormatError(f"frame count {count} is above the header's {_U32_MAX}")


@contextmanager
def frame_writer(path: str | Path, count: int) -> Iterator[FrameWriter]:
    """A :class:`FrameWriter` of ``count`` frames that replaces ``path`` when
    the ``with`` block ends without an error.

    The frames go to a temporary file beside ``path`` (see :func:`replacing`).
    A frame unlike the first, or a block that ends with another number of
    frames than ``count``, raises ``ContainerFormatError``; on that or any
    other error the temporary file is deleted and ``path`` is left as it was.
    A ``count`` the header cannot hold raises before the file is opened.
    """
    check_frame_count(count)
    with replacing(path) as fh:
        writer = FrameWriter(fh, count)
        yield writer
        if writer.made != count:
            raise ContainerFormatError(f"{writer.made} frames, {count} announced")


@contextmanager
def replacing(path: str | Path, text: bool = False) -> Iterator[IO]:
    """An open file, binary or UTF-8 text, that replaces ``path`` when the
    ``with`` block ends without an error.

    The file is a temporary one beside ``path``; on any error it is deleted
    and ``path`` is left as it was, so the file appears whole or not at all.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    # created here ("x"), so only this call deletes it
    fh = open(temporary, "x", encoding="utf-8") if text else open(temporary, "xb")
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class Counted:
    """``count`` items made one at a time by ``items``, for a consumer that
    reads a length before it iterates, such as :meth:`FrameContainer.stack`.

    Iterating it iterates ``items``; a one-shot iterator can be iterated once.
    """

    items: Iterable
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.items)


@dataclass(frozen=True)
class ChannelSchema:
    """How one record type is stored: one container frame per record.

    ``fields`` maps the record's stored attributes, in file order, to their
    channel names: one name for an (H, W) plane, n names for an (H, W, n)
    stack. ``dtypes`` maps an attribute to its dtype in the record, float64
    where it names none. ``integral`` maps an attribute to the closed range
    of whole numbers its channels may hold; :meth:`unpack` rejects any other
    value. Unpacked attributes are float32 views of the container.

    A record's constructor calls :meth:`coerce`, which casts every field to
    its dtype and checks that all of them share one non-empty grid.
    """

    record: type
    fields: Mapping[str, tuple[str, ...]]
    integral: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    dtypes: Mapping[str, type] = field(default_factory=dict)
    # (attribute, dtype, trailing shape) per field, built once per schema
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_layout", tuple(
            (attr, np.dtype(self.dtypes.get(attr, np.float64)),
             () if len(names) == 1 else (len(names),))
            for attr, names in self.fields.items()))

    def coerce(self, record) -> None:
        """Cast each field of ``record`` in place with ``np.asarray``, which
        keeps an array of the field's dtype as it is, read-only or not.
        Raises ``ValueError`` naming the field unless every field lies on one
        non-empty (H, W) grid with its declared number of channels."""
        values = record.__dict__  # written directly, as a frozen record allows no setattr
        grid = None
        for attr, dtype, depth in self._layout:
            value = values[attr] = np.asarray(values[attr], dtype=dtype)
            if grid is None:
                grid = value.shape[:2]
            if value.shape != grid + depth or len(grid) != 2 or 0 in grid:
                want = ", ".join(["height", "width"] + [str(n) for n in depth])
                raise ValueError(f"{type(record).__name__}.{attr} has shape {value.shape}: "
                                 f"every field must be ({want}) on one non-empty grid")

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(name for names in self.fields.values() for name in names)

    def pack(self, records: Collection) -> FrameContainer:
        """One container frame per record, each record read as it is iterated."""
        return FrameContainer.stack(Counted(map(self._planes, records), len(records)))

    def _planes(self, record) -> dict:
        planes = {}
        for attr, names in self.fields.items():
            value = getattr(record, attr)
            if len(names) == 1:
                planes[names[0]] = value
            else:
                planes.update((name, value[:, :, k]) for k, name in enumerate(names))
        return planes

    def unpack(self, cont: FrameContainer) -> list:
        if cont.channel_names != self.channel_names:
            raise DimensionMismatchError(
                f"expected channels {self.channel_names}, got {cont.channel_names}"
            )
        records = []
        for k in range(cont.frames):
            values = {}
            start = 0
            for attr, names in self.fields.items():
                stop = start + len(names)
                view = cont.data[k, :, :, start:stop]
                if len(names) == 1:
                    view = view[:, :, 0]
                if attr in self.integral:
                    low, high = self.integral[attr]
                    # NaN fails every comparison
                    if not np.all((view >= low) & (view <= high) & (np.floor(view) == view)):
                        raise ContainerFormatError(
                            f"frame {k} channels {names} must hold whole numbers "
                            f"in [{low}, {high}]"
                        )
                values[attr] = view
                start = stop
            records.append(self.record(**values))
        return records
