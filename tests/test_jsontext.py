"""``jsontext.dumps`` writes what ``json.dumps(doc, sort_keys=True, indent=2)``
writes, byte for byte, and refuses what it refuses."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scca import jsontext

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e-300,
               float("nan"), float("inf"), float("-inf"), 0.1, 1e16, 123456789.0]

FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.booleans(),
    st.none(),
    st.text(),
)
# lists of one exact type take the joined path; mixed ones, np.float64 and
# bools among ints take the item-by-item one
LISTS = st.one_of(st.lists(FLOATS), st.lists(FLOATS.map(np.float64)),
                  st.lists(st.booleans()), st.lists(st.text()),
                  st.lists(st.one_of(st.booleans(), st.integers())),
                  st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70)))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    )


DOCS = st.recursive(st.one_of(SCALARS, LISTS), _containers, max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=DOCS)
def test_dumps_writes_the_standard_encoders_bytes(doc):
    assert jsontext.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_on_empty_and_nested_empty_containers():
    doc = {"a": [], "b": {}, "c": [[], {}, [[]], [{}]], "d": ({},), "": [[[]]]}
    assert jsontext.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    for value in ([], {}, (), "", 0, None):
        assert jsontext.dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_dumps_on_keys_of_every_kind_json_takes():
    doc = {1.5: "f", True: "t", None: "n", 7: "i", "s": "s"}
    for key in doc:
        one = {key: [key, float("nan")]}
        assert jsontext.dumps(one) == json.dumps(one, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [{"x": np.int64(3)}, [np.bool_(True)], {"s": {1, 2}},
                                 {(1, 2): 0}, [1, object()]])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        jsontext.dumps(doc)
