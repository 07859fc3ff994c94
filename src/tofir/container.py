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
from typing import IO, Iterator, Mapping, Sequence

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
    def stack(cls, frames: Sequence[Mapping[str, np.ndarray]]) -> "FrameContainer":
        """Build a container from per-frame mappings of name -> (H, W) plane.

        All frames must share the same channel names in the same order and
        every plane the shape of the first one; planes are written straight
        into the float32 stack.
        """
        if len(frames) == 0:
            raise ContainerFormatError("at least one frame required")
        names = tuple(frames[0])
        if not names:
            raise ContainerFormatError("at least one channel required")
        shape = np.shape(frames[0][names[0]])
        if len(shape) != 2:
            raise ContainerFormatError(f"planes must be 2-d (height, width), got shape {shape}")
        data = np.empty((len(frames),) + shape + (len(names),), dtype="<f4")
        for i, frame in enumerate(frames):
            if tuple(frame) != names:
                raise ContainerFormatError(f"frame {i} channels {tuple(frame)} != {names}")
            for c, name in enumerate(names):
                plane = np.asarray(frame[name])
                if plane.shape != shape:
                    raise ContainerFormatError(
                        f"frame {i} channel {name!r} has shape {plane.shape}, expected {shape}"
                    )
                data[i, :, :, c] = plane
        return cls(names, data)

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

    def pack(self, records: Sequence) -> FrameContainer:
        """One container frame per record."""
        return FrameContainer.stack([self._planes(record) for record in records])

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


# --- %.9g text tables -------------------------------------------------------------

# Per decimal exponent e of -5..7, index e + 5: the exact power of ten that
# scales a value to 9 integer digits, and the one that then scales those
# digits to the value times 10**12. The ends are NaN, so no value there
# takes the vectorized path
_SCALE = np.array([np.nan] + [10.0**k for k in range(12, 1, -1)] + [np.nan])
_SHIFT = np.array([0] + [10**k for k in range(11)] + [0], dtype=np.uint64)
_BYTES = 0x0101010101010101  # 1 in each byte of a uint64 word
_ASCII = np.uint64(0x30 * _BYTES)  # "0" in each byte


def _g9(value: float) -> str:
    """One value the vectorized path cannot prove it formats as ``%`` does."""
    return "%.9g" % value


def _digits8(words: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 below 10**8, most significant
    first from the word's lowest byte: 4 digits in each 32-bit half, then 2
    in each 16-bit quarter, then 1 in each byte. Each step divides every
    lane at once by a multiply and a shift, exact for lanes this small."""
    high = words // np.uint64(10000)
    words = high | (words - high * np.uint64(10000)) << np.uint64(32)
    for divisor, multiplier, shift, width, mask in ((100, 5243, 19, 16, 0x7F0000007F),
                                                     (10, 103, 10, 8, 0xF000F000F000F)):
        quotient = (words * np.uint64(multiplier)) >> np.uint64(shift) & np.uint64(mask)
        words = quotient | (words - quotient * np.uint64(divisor)) << np.uint64(width)
    return words


def _kept(words: np.ndarray, upward: bool) -> np.ndarray:
    """0xFF in each byte of a word of digits from its lowest nonzero byte
    up (``upward``), or up to its highest nonzero byte; 0 in the others."""
    flags = (words + np.uint64(0x7F * _BYTES)) & np.uint64(0x80 * _BYTES)
    for shift in (8, 16, 32):
        flags |= flags << np.uint64(shift) if upward else flags >> np.uint64(shift)
    return (flags >> np.uint64(7)) * np.uint64(0xFF)


def format_rows(table: np.ndarray) -> str:
    """The rows of the 2-d ``table``, each value as ``"%.9g" % value``, one
    space between values and a newline after each row: the text of
    ``np.savetxt(fmt="%.9g")``.

    A value is formatted without ``%`` when its ``%.9g`` form is fixed
    notation with at most 7 integer digits, and its rounding to 9
    significant digits provably matches the correctly rounded one of ``%``:
    with ``e`` its decimal exponent, ``s = |value| * 10**(8-e)`` lies in
    [1e8, 1e9) and is more than 1e-6 from a half-integer, while the product
    itself is off by at most 6e-8 (half an ulp). The rounded value times
    10**12 is a uint64 whose 19 digits turn into ASCII 8 at a time; zero
    bytes stand for leading integer zeros, trailing fraction zeros and a
    bare point, and are dropped at the end. Zeros are written ``0`` or
    ``-0``. Every other value (exponent notation, ``|value| >= 1e7``, NaN,
    infinities, subnormals, near-ties) goes through ``%``.
    """
    values = np.asarray(table, dtype=np.float64)
    rows, cols = values.shape
    flat = values.ravel()
    magnitude = np.abs(flat)
    # a signalling NaN, and inf times NaN, raise the invalid flag: such
    # values go through %
    with np.errstate(invalid="ignore"):
        # the decimal exponent, clamped to -4..7 (-5 if log10 falls short)
        index = np.floor(np.log10(np.fmin(np.fmax(magnitude, 1e-4), 1e7))).astype(np.intp) + 5
        scaled = magnitude * _SCALE[index]
        rounded = np.rint(scaled)
        # rounded below 1e9, the integer part leaves byte 0 free for the sign
        fast = (scaled >= 1e8) & (rounded < 1e9) & (np.abs(scaled - rounded) < 0.5 - 1e-6)
        np.copyto(rounded, 0.0, where=~fast)
        fixed = rounded.astype(np.uint64) * _SHIFT[index]  # the value times 10**12
        fast |= magnitude == 0.0
    # 7 integer digits, 7 fraction digits and 5 more as 8 digits each
    whole = fixed // np.uint64(10**12)
    fraction = fixed - whole * np.uint64(10**12)
    high = fraction // np.uint64(10**5)
    low = (fraction - high * np.uint64(10**5)) * np.uint64(1000)
    whole, high, low = _digits8(np.concatenate([whole, high, low])).reshape(3, -1)

    # one 24-byte slot per value, 3 words: the sign in byte 0, where the
    # integer's top digit is always 0, then a point in byte 0 of the next
    # word, and the separator in the last byte
    text = np.empty((flat.size, 3), dtype="<u8")
    # the units digit always stays, and a nonzero digit in low keeps every
    # digit of high and the point
    text[:, 0] = ((whole | _ASCII) & _kept(whole | np.uint64(1 << 56), upward=True)
                  | np.signbit(flat) * np.uint64(ord("-")))
    text[:, 1] = ((high | (_ASCII ^ np.uint64(0x30 ^ ord("."))))
                  & _kept(high | (low != 0) * np.uint64(1 << 56), upward=False))
    separators = np.full(cols, ord(" ") << 56, dtype=np.uint64)
    separators[-1] = ord("\n") << 56
    text.reshape(rows, cols, 3)[:, :, 2] = (
        ((low | _ASCII) & _kept(low, upward=False)).reshape(rows, cols) | separators)

    slow = np.flatnonzero(~fast)
    if len(slow):
        formatted = np.array([_g9(value) for value in flat[slow].tolist()], dtype="S23")
        text.view(np.uint8)[slow, :23] = formatted.view(np.uint8).reshape(-1, 23)
    return text.tobytes().translate(None, b"\0").decode("ascii")
