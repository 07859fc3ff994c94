import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tofir import ContainerFormatError, FrameContainer


def _sample_container() -> FrameContainer:
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2, 5, 7, 3)).astype(np.float32)
    return FrameContainer(("alpha", "beta", "gamma"), data)


def test_round_trip_bytes_are_identical():
    cont = _sample_container()
    blob = cont.to_bytes()
    again = FrameContainer.from_bytes(blob).to_bytes()
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
    blob = cont.to_bytes()
    assert blob[:4] == b"TIRF"
    assert int.from_bytes(blob[4:6], "little") == 1
    assert int.from_bytes(blob[6:10], "little") == 7  # width
    assert int.from_bytes(blob[10:14], "little") == 5  # height
    assert int.from_bytes(blob[14:18], "little") == 3  # channels
    assert int.from_bytes(blob[18:22], "little") == 2  # frames


def test_payload_is_little_endian_float32_interleaved():
    data = np.arange(2 * 2 * 2, dtype=np.float32).reshape(1, 2, 2, 2)
    cont = FrameContainer(("a", "b"), data)
    blob = cont.to_bytes()
    name_table = len("a") + len("b") + 2 * 2
    payload = np.frombuffer(blob[22 + name_table :], dtype="<f4")
    assert np.array_equal(payload, np.arange(8, dtype=np.float32))


def test_nan_and_inf_survive_bit_exactly():
    data = np.array([[[[np.nan, np.inf, -np.inf, -0.0]]]], dtype=np.float32)
    cont = FrameContainer(("a", "b", "c", "d"), data)
    loaded = FrameContainer.from_bytes(cont.to_bytes())
    assert loaded.data.tobytes() == data.tobytes()


def test_unicode_channel_names():
    cont = FrameContainer(("température",), np.zeros((1, 2, 2, 1), np.float32))
    loaded = FrameContainer.from_bytes(cont.to_bytes())
    assert loaded.channel_names == ("température",)


def test_non_utf8_channel_name_rejected():
    blob = bytearray(_sample_container().to_bytes())
    blob[24] = 0xFF  # first byte of the first channel name
    with pytest.raises(ContainerFormatError, match="UTF-8"):
        FrameContainer.from_bytes(bytes(blob))


_VALID_BLOB = _sample_container().to_bytes()


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


def test_stack_and_single_frame_helpers():
    a = np.ones((3, 4))
    b = np.full((3, 4), 2.0)
    cont = FrameContainer.single_frame({"a": a, "b": b})
    assert cont.frames == 1 and cont.channels == 2
    assert np.array_equal(cont.channel("b"), b.astype(np.float32))
    with pytest.raises(ContainerFormatError):
        FrameContainer.stack([{"a": a}, {"b": b}])


def test_bad_magic_rejected():
    blob = bytearray(_sample_container().to_bytes())
    blob[:4] = b"JUNK"
    with pytest.raises(ContainerFormatError, match="magic"):
        FrameContainer.from_bytes(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(_sample_container().to_bytes())
    blob[4:6] = (9).to_bytes(2, "little")
    with pytest.raises(ContainerFormatError, match="version"):
        FrameContainer.from_bytes(bytes(blob))


def test_truncated_payload_rejected():
    blob = _sample_container().to_bytes()
    with pytest.raises(ContainerFormatError, match="payload"):
        FrameContainer.from_bytes(blob[:-4])


def test_duplicate_channel_names_rejected():
    with pytest.raises(ContainerFormatError, match="unique"):
        FrameContainer(("a", "a"), np.zeros((1, 2, 2, 2), np.float32))


def test_name_count_must_match_channels():
    with pytest.raises(ContainerFormatError):
        FrameContainer(("a",), np.zeros((1, 2, 2, 2), np.float32))
