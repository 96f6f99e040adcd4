"""Property tests: the JSON parsers raise only ParseError on structured random input."""

import json

import pytest

from lucascert import ParseError, catalog_from_json, diffop_from_json
from lucascert.catalog import KINDS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
    | st.sampled_from(["1", "-2", "1/0", "1/3", "0x1", "nan", "inf", "1e400", ""])
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
int_lists = st.lists(st.integers(-5, 5), max_size=4) | st.lists(scalars, max_size=3)
# near-valid shapes with odd values, so that most examples reach the deeper checks
coeff = st.fixed_dictionaries({"num": int_lists}, optional={"den": int_lists}) | values
operator = st.fixed_dictionaries(
    {"basis": st.sampled_from(["d", "delta"]), "coeffs": st.lists(coeff, min_size=1, max_size=4)}
) | st.fixed_dictionaries({}, optional={"basis": values, "coeffs": st.lists(coeff, max_size=3) | values})
entry = st.fixed_dictionaries(
    {"name": st.text(max_size=4), "kind": st.sampled_from(KINDS)},
    optional={
        "r": st.integers(-2, 4) | values,
        "initial": st.lists(scalars, max_size=3) | values,
        "operator": operator | values,
    },
) | st.fixed_dictionaries({}, optional={"name": values, "kind": values, "r": values})


def _as_text_or_object(draw, data):
    return json.dumps(data) if draw(st.booleans()) else data


def _parses_or_parse_error(parse, data):
    try:
        parse(data)
    except ParseError:
        pass


@FUZZ
@hypothesis.given(st.data())
def test_diffop_from_json_raises_only_parse_error(data):
    op = data.draw(operator | values)
    _parses_or_parse_error(diffop_from_json, _as_text_or_object(data.draw, op))


@FUZZ
@hypothesis.given(st.data())
def test_catalog_from_json_raises_only_parse_error(data):
    cat = data.draw(st.lists(entry | values, max_size=3) | values)
    _parses_or_parse_error(catalog_from_json, _as_text_or_object(data.draw, cat))


@pytest.mark.parametrize("parse", [diffop_from_json, catalog_from_json])
def test_deeply_nested_json_is_parse_error(parse):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("[" * 100000)
