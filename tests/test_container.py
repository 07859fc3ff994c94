import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tofir import ContainerFormatError, DimensionMismatchError, FrameContainer, container
from tofir.container import frame_writer
from tofir.fusion import THERMOGRAM_SCHEMA, thermograms_from_container
from tofir.segmentation import BACKGROUND_SCHEMA, MASK_SCHEMA
from tofir.simulator import TRUTH_SCHEMA
from tofir.thermal import THERMAL_SCHEMA
from tofir.tof import RAW_SCHEMA


def _sample_container() -> FrameContainer:
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2, 5, 7, 3)).astype(np.float32)
    return FrameContainer(("alpha", "beta", "gamma"), data)


def _blob(cont: FrameContainer) -> bytes:
    """The bytes of the file ``cont.write`` makes."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "blob.tirf"
        cont.write(path)
        return path.read_bytes()


def test_round_trip_bytes_are_identical():
    cont = _sample_container()
    blob = _blob(cont)
    again = _blob(FrameContainer.from_bytes(blob))
    assert blob == again


def test_file_round_trip(tmp_path):
    cont = _sample_container()
    path = tmp_path / "frames.tirf"
    cont.write(path)
    loaded = FrameContainer.read(path)
    assert loaded.channel_names == cont.channel_names
    assert np.array_equal(loaded.data, cont.data)
    loaded.write(tmp_path / "again.tirf")
    assert path.read_bytes() == (tmp_path / "again.tirf").read_bytes()


def test_header_layout():
    cont = _sample_container()
    blob = _blob(cont)
    assert blob[:4] == b"TIRF"
    assert int.from_bytes(blob[4:6], "little") == 1
    assert int.from_bytes(blob[6:10], "little") == 7  # width
    assert int.from_bytes(blob[10:14], "little") == 5  # height
    assert int.from_bytes(blob[14:18], "little") == 3  # channels
    assert int.from_bytes(blob[18:22], "little") == 2  # frames


def test_payload_is_little_endian_float32_interleaved():
    data = np.arange(2 * 2 * 2, dtype=np.float32).reshape(1, 2, 2, 2)
    cont = FrameContainer(("a", "b"), data)
    blob = _blob(cont)
    name_table = len("a") + len("b") + 2 * 2
    payload = np.frombuffer(blob[22 + name_table :], dtype="<f4")
    assert np.array_equal(payload, np.arange(8, dtype=np.float32))


def test_nan_and_inf_survive_bit_exactly():
    data = np.array([[[[np.nan, np.inf, -np.inf, -0.0]]]], dtype=np.float32)
    cont = FrameContainer(("a", "b", "c", "d"), data)
    loaded = FrameContainer.from_bytes(_blob(cont))
    assert loaded.data.tobytes() == data.tobytes()


def test_unicode_channel_names():
    cont = FrameContainer(("température",), np.zeros((1, 2, 2, 1), np.float32))
    loaded = FrameContainer.from_bytes(_blob(cont))
    assert loaded.channel_names == ("température",)


def test_non_utf8_channel_name_rejected():
    blob = bytearray(_blob(_sample_container()))
    blob[24] = 0xFF  # first byte of the first channel name
    with pytest.raises(ContainerFormatError, match="UTF-8"):
        FrameContainer.from_bytes(bytes(blob))


def test_a_channel_name_utf8_cannot_hold_is_rejected_on_write(tmp_path):
    cont = FrameContainer(("a", "\ud800"), np.zeros((1, 2, 2, 2), np.float32))  # lone surrogate
    with pytest.raises(ContainerFormatError, match="UTF-8"):
        cont.write(tmp_path / "whole.tirf")
    with pytest.raises(ContainerFormatError, match="UTF-8"):
        with frame_writer(tmp_path / "out.tirf", 1) as writer:
            writer.append(cont)
    assert list(tmp_path.iterdir()) == []


_VALID_BLOB = _blob(_sample_container())


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=6
    ),  # header, name table and the start of the payload
    length=st.integers(0, len(_VALID_BLOB)),
)
@settings(max_examples=300, deadline=None)
def test_mutated_or_truncated_blob_raises_only_format_errors(edits, length):
    blob = bytearray(_VALID_BLOB)
    for position, value in edits:
        blob[position] = value
    try:
        FrameContainer.from_bytes(bytes(blob[:length]))
    except ContainerFormatError:
        pass


def test_channel_accessor():
    cont = _sample_container()
    assert np.array_equal(cont.channel("beta", 1), cont.data[1, :, :, 1])
    with pytest.raises(KeyError):
        cont.channel("missing")


@pytest.mark.parametrize("frame", [-1, -2, 2])
def test_channel_of_a_frame_out_of_range_raises_like_frame(frame):
    cont = _sample_container()  # 2 frames
    with pytest.raises(IndexError, match=f"frame {frame} out of range"):
        cont.channel("beta", frame)
    with pytest.raises(IndexError, match=f"frame {frame} out of range"):
        cont.frame(frame)


def test_stack_and_single_frame_helpers():
    a = np.ones((3, 4))
    b = np.full((3, 4), 2.0)
    cont = FrameContainer.stack([{"a": a, "b": b}])
    assert cont.frames == 1 and cont.channel_names == ("a", "b")
    assert np.array_equal(cont.channel("b"), b.astype(np.float32))
    with pytest.raises(ContainerFormatError):
        FrameContainer.stack([{"a": a}, {"b": b}])


def test_frame_is_a_one_frame_view():
    cont = _sample_container()
    for k in range(cont.frames):
        one = cont.frame(k)
        assert one.frames == 1 and one.channel_names == cont.channel_names
        assert np.shares_memory(one.data, cont.data)
        assert np.array_equal(one.data[0], cont.data[k])
    for k in (-1, cont.frames):
        with pytest.raises(IndexError):
            cont.frame(k)


# --- stacking ---------------------------------------------------------------------

def _planes(count):
    return [{"a": np.full((3, 4), float(k)), "b": np.full((3, 4), -float(k))}
            for k in range(count)]


def test_stack_still_rejects_no_frames_no_channels_and_mismatched_planes():
    for frames in ([], [{}], [{"a": np.zeros((3, 4))}, {"a": np.zeros((3, 5))}]):
        with pytest.raises(ContainerFormatError):
            FrameContainer.stack(frames)


# --- writing a frame at a time ---------------------------------------------------------

def _one_frame_containers(count):
    return [FrameContainer.stack([planes]) for planes in _planes(count)]


def _write_frames(path, frames, count) -> None:
    """Append each of ``frames`` to one ``frame_writer`` of ``count`` frames
    as it is made."""
    with frame_writer(path, count) as writer:
        for frame in frames:
            writer.append(frame)


def test_write_frames_matches_pack_then_write(tmp_path):
    made = []

    def frames():
        for k, one in enumerate(_one_frame_containers(3)):
            made.append(k)
            yield one

    _write_frames(tmp_path / "streamed.tirf", frames(), 3)
    FrameContainer.stack(_planes(3)).write(tmp_path / "packed.tirf")
    assert made == [0, 1, 2]
    packed = (tmp_path / "packed.tirf").read_bytes()
    assert (tmp_path / "streamed.tirf").read_bytes() == packed
    loaded = FrameContainer.from_bytes(packed)
    assert loaded.channel_names == ("a", "b")
    assert loaded.data.tobytes() == FrameContainer.stack(_planes(3)).data.tobytes()
    (record,) = THERMOGRAM_SCHEMA.unpack(_schema_container(THERMOGRAM_SCHEMA, validity=2.0))
    records = [record] * 2
    _write_frames(tmp_path / "schema.tirf", [THERMOGRAM_SCHEMA.pack([r]) for r in records], 2)
    THERMOGRAM_SCHEMA.pack(records).write(tmp_path / "schema_packed.tirf")
    assert ((tmp_path / "schema.tirf").read_bytes()
            == (tmp_path / "schema_packed.tirf").read_bytes())


def _failed_write(directory, frames, count) -> None:
    """``frames`` appended to a ``frame_writer`` of ``count`` frames in
    ``directory`` raise a format error and leave the directory as it was."""
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    with pytest.raises(ContainerFormatError):
        _write_frames(directory / "out.tirf", frames, count)
    assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


@pytest.mark.parametrize("yielded, announced", [(2, 3), (0, 1), (4, 3), (1, 0)])
def test_write_frames_rejects_a_frame_count_other_than_announced(tmp_path, yielded, announced):
    _failed_write(tmp_path, _one_frame_containers(yielded), announced)
    assert list(tmp_path.iterdir()) == []  # no artifact, no temporary file
    FrameContainer.stack(_planes(1)).write(tmp_path / "out.tirf")  # an earlier artifact
    _failed_write(tmp_path, _one_frame_containers(yielded), announced)


def test_write_frames_rejects_frames_unlike_the_first(tmp_path):
    first = FrameContainer.stack(_planes(1))
    for other in (
        FrameContainer.stack([{"a": np.zeros((3, 4)), "c": np.zeros((3, 4))}]),
        FrameContainer.stack([{"a": np.zeros((3, 5)), "b": np.zeros((3, 5))}]),
        FrameContainer.stack([{"a": np.zeros((4, 4)), "b": np.zeros((4, 4))}]),
        FrameContainer.stack(_planes(2)),  # two frames where one is due
    ):
        _failed_write(tmp_path, [first, other], 2)
    assert list(tmp_path.iterdir()) == []


def test_write_leaves_the_old_file_when_a_frame_fails(tmp_path):
    FrameContainer.stack(_planes(2)).write(tmp_path / "out.tirf")

    def frames():
        yield from _one_frame_containers(1)
        raise RuntimeError("frame 1 failed")

    before = (tmp_path / "out.tirf").read_bytes()
    with pytest.raises(RuntimeError):
        _write_frames(tmp_path / "out.tirf", frames(), 2)
    assert [p.name for p in tmp_path.iterdir()] == ["out.tirf"]
    assert (tmp_path / "out.tirf").read_bytes() == before


def test_container_write_leaves_no_temporary_when_the_rename_fails(tmp_path):
    (tmp_path / "out.tirf").mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        FrameContainer.stack(_planes(3)).write(tmp_path / "out.tirf")
    assert [p.name for p in tmp_path.iterdir()] == ["out.tirf"]
    assert list((tmp_path / "out.tirf").iterdir()) == []


def test_two_writers_appended_in_turn_match_write_frames_and_write(tmp_path):
    """Frames made once and appended in turn to two open writers, as
    ``tofir simulate`` writes raw.tirf and raw.truth.tirf, give the bytes
    of each file written alone, frame by frame or whole."""
    other = [FrameContainer.stack([{"c": np.full((2, 5), k + 0.5)}]) for k in range(3)]
    with frame_writer(tmp_path / "a.tirf", 3) as a, frame_writer(tmp_path / "c.tirf", 3) as c:
        for one, two in zip(_one_frame_containers(3), other):
            a.append(one)
            c.append(two)
        # nothing is renamed into place before the block ends
        assert not (tmp_path / "a.tirf").exists() and not (tmp_path / "c.tirf").exists()
    _write_frames(tmp_path / "a_frames.tirf", _one_frame_containers(3), 3)
    FrameContainer.stack(_planes(3)).write(tmp_path / "a_write.tirf")
    _write_frames(tmp_path / "c_frames.tirf", other, 3)
    FrameContainer(("c",), np.concatenate([o.data for o in other])).write(
        tmp_path / "c_write.tirf")
    for name in ("a", "c"):
        streamed = (tmp_path / f"{name}.tirf").read_bytes()
        assert streamed == (tmp_path / f"{name}_frames.tirf").read_bytes()
        assert streamed == (tmp_path / f"{name}_write.tirf").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}{kind}.tirf" for name in "ac" for kind in ("", "_frames", "_write"))


def _past_the_count(writer):
    for one in _one_frame_containers(3):
        writer.append(one)


def _short(writer):
    writer.append(_one_frame_containers(1)[0])


def _unlike_the_first(writer):
    writer.append(_one_frame_containers(1)[0])
    writer.append(FrameContainer.stack([{"a": np.zeros((3, 4)), "c": np.zeros((3, 4))}]))


@pytest.mark.parametrize("fill", [_past_the_count, _short, _unlike_the_first])
@pytest.mark.parametrize("earlier", [False, True])
def test_writer_rejects_a_wrong_count_or_layout_and_leaves_no_temporary(tmp_path, fill, earlier):
    if earlier:
        FrameContainer.stack(_planes(1)).write(tmp_path / "out.tirf")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ContainerFormatError):
        with frame_writer(tmp_path / "out.tirf", 2) as writer:
            fill(writer)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("count", [0, -1])
def test_writer_needs_a_frame(tmp_path, count):
    with pytest.raises(ContainerFormatError):
        with frame_writer(tmp_path / "out.tirf", count):
            pass
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", [2**32, 2**64])
def test_writer_rejects_a_count_the_header_cannot_hold(tmp_path, count):
    with pytest.raises(ContainerFormatError, match="frame count"):
        with frame_writer(tmp_path / "out.tirf", count):
            pytest.fail("the block ran")
    assert list(tmp_path.iterdir()) == []


class _Names(tuple):
    """Channel names that claim a count the header cannot hold."""

    def __len__(self):
        return 2**32


@pytest.mark.parametrize("names, width, height, frames, field", [
    (("a",), 2**32, 1, 1, "width"),
    (("a",), 1, 2**32, 1, "height"),
    (_Names(("a",)), 1, 1, 1, "channel count"),
    (("a",), 1, 1, 2**32, "frame count"),
])
def test_head_rejects_a_field_above_u32(names, width, height, frames, field):
    with pytest.raises(ContainerFormatError, match=field):
        container._head(names, width, height, frames)
    assert container._head(("a",), 2**32 - 1, 2**32 - 1, 2**32 - 1)[6:22] == (
        b"\xff\xff\xff\xff" * 2 + (1).to_bytes(4, "little") + b"\xff\xff\xff\xff")


@pytest.mark.parametrize("longest, too_long", [
    ("x" * 65535, "x" * 65536),
    ("é" * 32767 + "x", "é" * 32768),  # two UTF-8 bytes a character
])
def test_a_channel_name_over_65535_utf8_bytes_is_rejected(tmp_path, longest, too_long):
    cont = FrameContainer(("a", longest), np.zeros((1, 2, 3, 2), np.float32))
    assert FrameContainer.from_bytes(_blob(cont)).channel_names == ("a", longest)
    cont = FrameContainer(("a", too_long), np.zeros((1, 2, 3, 2), np.float32))
    with pytest.raises(ContainerFormatError, match="65535"):
        cont.write(tmp_path / "out.tirf")
    assert list(tmp_path.iterdir()) == []


def test_bad_magic_rejected():
    blob = bytearray(_blob(_sample_container()))
    blob[:4] = b"JUNK"
    with pytest.raises(ContainerFormatError, match="magic"):
        FrameContainer.from_bytes(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(_blob(_sample_container()))
    blob[4:6] = (9).to_bytes(2, "little")
    with pytest.raises(ContainerFormatError, match="version"):
        FrameContainer.from_bytes(bytes(blob))


def test_truncated_payload_rejected():
    blob = _blob(_sample_container())
    with pytest.raises(ContainerFormatError, match="payload"):
        FrameContainer.from_bytes(blob[:-4])


def test_duplicate_channel_names_rejected():
    with pytest.raises(ContainerFormatError, match="unique"):
        FrameContainer(("a", "a"), np.zeros((1, 2, 2, 2), np.float32))


def test_name_count_must_match_channels():
    with pytest.raises(ContainerFormatError):
        FrameContainer(("a",), np.zeros((1, 2, 2, 2), np.float32))


# --- record schemas -----------------------------------------------------------------------

_SCHEMAS = [RAW_SCHEMA, THERMAL_SCHEMA, THERMOGRAM_SCHEMA, BACKGROUND_SCHEMA, MASK_SCHEMA,
            TRUTH_SCHEMA]


def _schema_container(schema, frames=1, **channels) -> FrameContainer:
    """A container in the schema's layout: ones, except the channels given."""
    names = schema.channel_names
    data = np.ones((frames, 3, 4, len(names)), np.float32)
    for name, value in channels.items():
        data[..., names.index(name)] = value
    return FrameContainer(names, data)


@pytest.mark.parametrize("schema", _SCHEMAS, ids=lambda s: s.record.__name__)
def test_schema_round_trip_and_wrong_channel_names(schema):
    cont = _schema_container(schema)
    (record,) = schema.unpack(cont)
    assert _blob(schema.pack([record])) == _blob(cont)
    names = cont.channel_names
    for wrong in (names[:-1] + ("other",), names[::-1]):
        if wrong == names:
            continue
        with pytest.raises(DimensionMismatchError):
            schema.unpack(FrameContainer(wrong, cont.data))
    with pytest.raises(DimensionMismatchError):
        schema.unpack(FrameContainer(names + ("extra",), np.ones((1, 3, 4, len(names) + 1))))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 300.0, -1.0, 4.0, 0.5, 2.5])
def test_thermogram_validity_must_be_a_reason_code(value):
    cont = _schema_container(THERMOGRAM_SCHEMA, validity=0.0)
    cont.data[0, 1, 2, -1] = value
    with pytest.raises(ContainerFormatError):
        thermograms_from_container(cont)


def test_thermogram_validity_accepts_every_reason_code():
    codes = np.array([[0.0, 1.0, 2.0, 3.0]] * 3, np.float32)
    (tg,) = thermograms_from_container(_schema_container(THERMOGRAM_SCHEMA, validity=codes))
    assert tg.reason.dtype == np.uint8
    assert np.array_equal(tg.reason, codes.astype(np.uint8))


@pytest.mark.parametrize("value", [np.nan, np.inf, -3.0, -0.5, 0.5, 2.0**25])
def test_background_count_must_be_a_whole_non_negative_number(value):
    cont = _schema_container(BACKGROUND_SCHEMA, count=2.0)
    cont.data[0, 2, 3, -1] = value
    with pytest.raises(ContainerFormatError):
        BACKGROUND_SCHEMA.unpack(cont)


def test_background_count_accepts_zero_and_the_largest_exact_count():
    counts = np.zeros((3, 4), np.float32)
    counts[1, 1] = 2.0**24
    (model,) = BACKGROUND_SCHEMA.unpack(_schema_container(BACKGROUND_SCHEMA, count=counts))
    assert model.count.dtype == np.int64
    assert model.count[1, 1] == 2**24 and model.count.sum() == 2**24


@pytest.mark.parametrize("schema, channel", [
    (MASK_SCHEMA, "foreground"), (MASK_SCHEMA, "valid"), (TRUTH_SCHEMA, "outlier"),
])
@pytest.mark.parametrize("value", [np.nan, 2.0, -1.0, 0.5])
def test_flag_channels_must_hold_zero_or_one(schema, channel, value):
    cont = _schema_container(schema, frames=2)
    cont.data[1, 0, 0, schema.channel_names.index(channel)] = value
    with pytest.raises(ContainerFormatError):
        schema.unpack(cont)


# --- the record rule: every field on one non-empty grid, with its channel count ------------


def _record_fields(schema, grid=(3, 4), **shapes) -> dict:
    """Ones for every field of the schema's record in its dtype, on ``grid``,
    except the fields given a shape of their own."""
    values = {}
    for attr, names in schema.fields.items():
        shape = shapes.get(attr, grid + (() if len(names) == 1 else (len(names),)))
        values[attr] = np.ones(shape, schema.dtypes.get(attr, np.float64))
    return values


def _broken_records():
    """(schema, the field named in the error, fields) for every way a record
    can break the rule."""
    for schema in _SCHEMAS:
        attrs = list(schema.fields)
        depths = {attr: len(names) for attr, names in schema.fields.items()}
        name = schema.record.__name__
        if len(attrs) > 1:  # the last field on another grid
            last = attrs[-1]
            shape = (3, 5) + ((depths[last],) if depths[last] > 1 else ())
            yield pytest.param(schema, last, _record_fields(schema, **{last: shape}),
                               id=f"{name}-other-grid")
        # the widest field one channel too deep: a plane given as (H, W, 2)
        wide = max(attrs, key=depths.get)
        yield pytest.param(schema, wide, _record_fields(schema, **{wide: (3, 4, depths[wide] + 1)}),
                           id=f"{name}-wrong-depth")
        yield pytest.param(schema, attrs[0], _record_fields(schema, grid=(0, 4)),
                           id=f"{name}-empty-grid")


@pytest.mark.parametrize("schema, attr, fields", _broken_records())
def test_a_record_off_one_grid_raises_naming_the_field(schema, attr, fields):
    with pytest.raises(ValueError, match=fr"{schema.record.__name__}\.{attr} has shape"):
        schema.record(**fields)


@pytest.mark.parametrize("schema", _SCHEMAS, ids=lambda s: s.record.__name__)
def test_a_record_stores_arrays_of_its_dtypes_without_a_copy(schema):
    fields = _record_fields(schema)
    for value in fields.values():
        value.flags.writeable = False
    record = schema.record(**fields)
    for attr, value in fields.items():
        assert getattr(record, attr) is value
        assert not getattr(record, attr).flags.writeable
