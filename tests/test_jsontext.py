"""The artifact JSON writer gives the bytes of the standard library's indented
encoder."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from earlypd.jsontext import json_text

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
