"""The artifact JSON writer gives the bytes of the standard library's indented
encoder, the settings reader from_json checks each value's declared type, and
the array reader json_array takes only finite JSON numbers of the shape asked."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlypd.errors import ConfigError
from earlypd.jsontext import from_json, json_array, json_text, write_json

SCALARS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.integers()
           | st.integers(min_value=-(10**400), max_value=10**400)
           | st.booleans()
           | st.none()
           | st.text())

# nested dicts, lists and tuples, empty ones at any depth among them
VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(st.text(max_size=8), children, max_size=6)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_json_text_matches_indented_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_text_lists_of_scalars_at_depth():
    obj = {"é": [1.5, -0.0, float("inf"), float("-inf"), float("nan"), 10**30, True,
                 None, "☃\n"],
           "a": [[], {}, (), [[1]], {"b": [{}]}]}
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Objects whose file write_json must give json_text's bytes for
WRITTEN = {
    "empty dict": {},
    "empty list": [],
    "nested lists of scalars": [[1, -2, "a"], [[0.5, None, True]], [], {"k": [False]}],
    "non-ASCII": {"é": "☃ naïve", "名前": ["Ωmega", "\u2028"], "a": {"ü": {}}},
    "floats": {"tiny": 1e-310, "minus zero": -0.0, "large": 1e21, "list": [1e-310, -0.0, 1e21]},
}


@pytest.mark.parametrize("case", WRITTEN)
def test_write_json_writes_the_json_text_bytes(case, tmp_path):
    path = tmp_path / "out.json"
    write_json(path, WRITTEN[case])
    assert path.read_bytes() == json_text(WRITTEN[case]).encode()


@dataclass(frozen=True)
class Pair:
    a: str
    rho: float = 0.0


@dataclass(frozen=True)
class Settings:
    pairs: tuple[Pair, ...] = ()
    named: dict[str, Pair] = field(default_factory=dict)
    scale: float = 1.0
    cap: float | None = None


def test_from_json_reads_a_tuple_of_dataclasses():
    got = from_json(Settings, {"pairs": [{"a": "x", "rho": 0.5}, {"a": "y"}]})
    assert got.pairs == (Pair("x", 0.5), Pair("y"))
    assert from_json(Settings, {"pairs": []}).pairs == ()
    for bad, message in (({"a": "x", "b": 1}, r"unknown config key 'pairs\[1\]\.b'"),
                         (["x", 0.5], r"config key 'pairs\[1\]' must hold a JSON object"),
                         ({"a": "x", "rho": "0.5"}, r"'pairs\[1\]\.rho' must be float")):
        with pytest.raises(ConfigError, match=message):
            from_json(Settings, {"pairs": [{"a": "w"}, bad]})
    with pytest.raises(ConfigError, match="'pairs' must be tuple"):
        from_json(Settings, {"pairs": {"a": "x"}})


def test_from_json_reads_a_dict_of_dataclasses():
    got = from_json(Settings, {"named": {"p": {"a": "x"}, "q": {"a": "y", "rho": -1}}})
    assert got.named == {"p": Pair("x"), "q": Pair("y", -1)}
    assert from_json(Settings, {"named": {}}).named == {}
    with pytest.raises(ConfigError, match="'named.q.rho' must be float"):
        from_json(Settings, {"named": {"p": {"a": "x"}, "q": {"a": "y", "rho": None}}})
    with pytest.raises(ConfigError, match="'named' must be dict"):
        from_json(Settings, {"named": [{"a": "x"}]})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, True, "1.0"],
                         ids=["inf", "-inf", "nan", "10**400", "true", "string"])
def test_from_json_takes_only_finite_numbers_as_floats(value):
    for key in ("scale", "cap"):
        with pytest.raises(ConfigError, match=f"'{key}' must be float"):
            from_json(Settings, {key: value})
    with pytest.raises(ConfigError, match=r"'pairs\[0\]\.rho' must be float"):
        from_json(Settings, {"pairs": [{"a": "x", "rho": value}]})


def test_from_json_floats_take_ints_and_the_doubles_edge():
    got = from_json(Settings, {"scale": 3, "cap": -1e308})
    assert (got.scale, got.cap) == (3, -1e308) and type(got.scale) is float
    assert from_json(Settings, {"cap": None}).cap is None


def test_json_array_reads_finite_numbers_to_a_shape():
    got = json_array([1, 2.5, -0.0, 1e308, -1e308, 6], "w", (2, 3))
    assert got.dtype == np.float64 and got.shape == (2, 3)
    assert got.tolist() == [[1.0, 2.5, -0.0], [1e308, -1e308, 6.0]]
    counts = json_array([0, 3, 2**62, -1], "counts", (2, 2), np.int64)
    assert counts.dtype == np.int64 and counts.tolist() == [[0, 3], [2**62, -1]]
    assert json_array([], "cuts").shape == (0,)


@pytest.mark.parametrize("shape, n", [((-1,), 5), ((5,), 5), ((-1, 2), 6), ((3, -1), 6)])
def test_json_array_minus_one_takes_the_rest(shape, n):
    got = json_array(list(range(n)), "w", shape)
    assert got.size == n and got.ndim == len(shape)
    assert all(want in (-1, have) for want, have in zip(shape, got.shape))


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("values", [[True], [1, False], ["0.5"], [None], [[1]], [{"a": 1}],
                                    [math.nan], [math.inf], [1, -math.inf], "1",
                                    {"a": 1}, None, 3, (1, 2)],
                         ids=["true", "false", "string", "null", "list", "object", "nan",
                              "inf", "-inf", "a string", "an object", "null list",
                              "an int", "a tuple"])
def test_json_array_refuses_what_is_not_a_list_of_finite_numbers(values, dtype):
    with pytest.raises(ValueError, match="^the w column must be a list of finite"):
        json_array(values, "the w column", dtype=dtype)


def test_json_array_int64_takes_only_ints():
    for values in ([1.0], [1, 2.5], [0.0, 1]):
        with pytest.raises(ValueError, match="^left must be a list of finite int64 values"):
            json_array(values, "left", dtype=np.int64)


def test_json_array_ints_beyond_the_dtype_overflow():
    # read_json turns the OverflowError into a ConfigError naming the file
    with pytest.raises(OverflowError):
        json_array([1.0, 10**400], "w")
    with pytest.raises(OverflowError):
        json_array([2**63], "left", dtype=np.int64)


@pytest.mark.parametrize("values, shape", [([1, 2, 3], (2,)), ([1, 2, 3], (4,)),
                                           ([1, 2, 3], (-1, 2)), ([], (1,)),
                                           ([1, 2, 3, 4], (3, 2))])
def test_json_array_count_must_fill_the_shape(values, shape):
    with pytest.raises(ValueError, match=rf"^node 3's CPT has {len(values)} values, not the "
                                         rf"shape \({shape[0]},"):
        json_array(values, "node 3's CPT", shape)
