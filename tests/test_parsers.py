"""Fuzzing of the three text parsers: every input either parses to an object
that survives a serialize/parse round trip, or raises InputError.

Inputs are valid documents with up to two random edits (a line dropped or
repeated, a token replaced) plus free text over the formats' alphabet.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import (
    DensityFunction,
    InputError,
    KGraph,
    PartitionFamily,
    RegularityInstance,
    family_from_text,
    family_to_text,
    instance_from_text,
    instance_to_text,
    kgraph_from_text,
    kgraph_to_text,
)
from hyperreg.addresses import address_space

TOKENS = ["0", "1", "2", "3", "-1", "7", "x", "1/0", "1/2", ":", ",", ";", "1,2",
          "1,2;1", "relaxed", "9999"]


@st.composite
def kgraph_docs(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    slots = list(itertools.combinations(range(n), k))
    edges = draw(st.sets(st.sampled_from(slots), max_size=8)) if slots else set()
    return kgraph_to_text(KGraph(k, n, frozenset(edges)))


@st.composite
def family_docs(draw):
    a = draw(st.sampled_from([(2,), (3,), (3, 2), (4, 2)]))
    k, n = len(a) + 1, draw(st.integers(0, 8))
    owner = [draw(st.integers(0, a[0] - 1)) for _ in range(n)]
    classes = [frozenset(v for v in range(n) if owner[v] == i) for i in range(a[0])]
    level = {}
    if k == 3:
        for x in draw(st.lists(st.sampled_from(address_space(2, 1, a)), max_size=3)):
            b = draw(st.integers(1, a[1]))
            pairs = list(itertools.combinations(range(n), 2))
            level[(x, b)] = draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
    F = PartitionFamily(k, n, a, classes, {2: level}, relaxed=draw(st.booleans()))
    return family_to_text(F)


@st.composite
def instance_docs(draw):
    a = draw(st.sampled_from([(2,), (3,), (3, 2), (4, 1)]))
    space = address_space(len(a) + 1, len(a), a)
    d = {x: Fraction(draw(st.integers(0, 4)), 4) for x in space}
    R = RegularityInstance(Fraction(draw(st.integers(1, 10)), 10), a, DensityFunction(a, d))
    return instance_to_text(R)


@st.composite
def edited(draw, docs):
    lines = draw(docs).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "token"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def inputs(docs):
    return st.one_of(edited(docs), st.text(alphabet="0123 ,;:/-x\n", max_size=40))


def round_trips_or_rejects(parse, dump, text):
    try:
        obj = parse(text)
    except InputError:
        return
    assert parse(dump(obj)) == obj


@given(inputs(kgraph_docs()))
@settings(max_examples=300, deadline=None)
def test_kgraph_parser(text):
    round_trips_or_rejects(kgraph_from_text, kgraph_to_text, text)


@given(inputs(family_docs()))
@settings(max_examples=300, deadline=None)
def test_family_parser(text):
    round_trips_or_rejects(family_from_text, family_to_text, text)


@given(inputs(instance_docs()))
@settings(max_examples=300, deadline=None)
def test_instance_parser(text):
    round_trips_or_rejects(instance_from_text, instance_to_text, text)
