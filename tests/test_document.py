import math

import pytest

from tofir.document import flag, number, read, whole


@pytest.mark.parametrize("value", [0, 4, 4.0, -3.0, 2**62 - 1, 2**80])
def test_whole_keeps_whole_numbers_exactly(value):
    number = whole(value)
    assert type(number) is int and number == value


@pytest.mark.parametrize("value", [4.5, True, "4", None, math.inf, math.nan, [4]])
def test_whole_rejects_everything_else(value):
    with pytest.raises(ValueError, match="whole number"):
        whole(value)


@pytest.mark.parametrize("value", [0, -3, 2.5, 1e-300, -1.7976931348623157e308, 2**62])
def test_number_reads_finite_numbers_as_floats(value):
    converted = number(value)
    assert type(converted) is float and converted == value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, True, "3.0",
                                   "nan", None, [1.0]])
def test_number_rejects_everything_else(value):
    with pytest.raises(ValueError, match="finite number"):
        number(value)


@pytest.mark.parametrize("value", [True, False])
def test_flag_accepts_json_booleans(value):
    assert flag(value) is value


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_flag_rejects_everything_else(value):
    with pytest.raises(ValueError, match="true or false"):
        flag(value)


def test_read_converts_only_named_keys_that_are_present():
    doc = {"a": 2.0, "b": "x", "unnamed": 1}
    assert read(doc, "doc", a=whole, c=float) == {"a": 2}


@pytest.mark.parametrize("doc", [[1, 2], 5, "text", None])
def test_read_rejects_a_non_object(doc):
    with pytest.raises(ValueError, match="limits must be a JSON object"):
        read(doc, "limits", a_min=float)


def test_read_error_names_document_and_key():
    with pytest.raises(ValueError, match="noise field 'seed': expected a whole number"):
        read({"seed": 1.5}, "noise", seed=whole)
    with pytest.raises(ValueError, match="limits field 'a_min'"):
        read({"a_min": [1]}, "limits", a_min=float)
