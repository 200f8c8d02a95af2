"""Fuzzing the input parsers in-process: whatever the weight file, a weight
value or the --chi text holds, a parser returns its value or raises
InputError, the error the CLI turns into exit 3.  Parsed chi values are
never built into matrices here: a large chi is unbounded work."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tcla import InputError, Root, WeightFunctional, algebra
from tcla.cli import _load_weight, _parse_chi

SL2 = algebra("sl2")
VIR = algebra("virasoro")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["1/2", "-3", "0", "4/0", "0.5", "1e3", " 7 ", "+2/3"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
names = st.sampled_from(["h1", "L0", "c", "d", "zz", ""]) | st.text(max_size=4)
levels = st.lists(st.dictionaries(names, scalars, max_size=3), max_size=4)
# Arbitrary documents, and ones shaped like a weight file so that the level
# and value checks are reached too.
documents = json_values | st.builds(lambda ls: {"levels": ls}, levels)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lambda.json"


def _check_load(path, data: bytes) -> None:
    path.write_bytes(data)
    for base, nilp in ((SL2, 1), (VIR, 2)):
        try:
            weight = _load_weight(str(path), base, nilp)
        except InputError:
            continue
        assert isinstance(weight, WeightFunctional)
        assert weight.nilp == nilp and weight.cartan_rank == base.cartan_rank


@settings(max_examples=300, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_load_weight_on_json_documents(path, doc):
    _check_load(path, json.dumps(doc).encode("utf-8"))


@settings(max_examples=300, derandomize=True)
@given(st.binary(max_size=64) | st.builds(lambda d, b: json.dumps(d).encode() + b, documents, st.binary(max_size=4)))
def test_load_weight_on_arbitrary_bytes(path, data):
    _check_load(path, data)


@settings(max_examples=300, derandomize=True)
@given(scalars)
def test_weight_values_are_exact_or_refused(value):
    try:
        weight = WeightFunctional([[value]])
    except InputError:
        return
    assert value is not None and not isinstance(value, (bool, float))
    assert weight.levels == ((Fraction(value.strip() if isinstance(value, str) else value),),)


@settings(max_examples=300, derandomize=True)
@given(st.text(max_size=16) | st.lists(st.integers(-3, 10**6), max_size=4).map(lambda cs: ",".join(map(str, cs))))
@example("0")
@example("0,0")
@example("0,5")
@example("7,0")
def test_parse_chi_on_arbitrary_text(text):
    # Comma-separated ASCII digits of the right arity are always a chi.
    well_formed = re.fullmatch(r"[0-9]+(,[0-9]+)*", text)
    for base in (SL2, algebra("sl3"), VIR):
        try:
            chi = _parse_chi(text, base)
        except InputError:
            assert not (well_formed and text.count(",") + 1 == base.simple_generator_count)
            continue
        assert chi == Root(tuple(int(p) for p in text.split(",")))
        assert len(chi.coords) == base.simple_generator_count
        assert all(c >= 0 for c in chi.coords)
