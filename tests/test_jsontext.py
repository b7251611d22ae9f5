"""The artifact JSON writer gives the bytes of the standard library's indented
encoder, and the settings reader from_json checks each value's declared type."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlypd.errors import ConfigError
from earlypd.jsontext import from_json, json_text

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
    assert (got.scale, got.cap) == (3, -1e308)
    assert from_json(Settings, {"cap": None}).cap is None
