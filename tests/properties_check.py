"""The truncation, emptiness, set, transport, germ, sigma, invariance and
pair map properties of test_properties.py and its word, set-expression
and graph JSON roundtrips at a deeper profile.

    PYTHONPATH=src python -m pytest tests/properties_check.py

Hypothesis draws the seed of random_graph(Random(seed), 4,
allow_infinite=True), so graphs have up to four vertices, and each
property checks 400 examples, derandomized like the default profile.
The truncation, emptiness, set, transport, invariance, pair map and
roundtrip laws run on infinite_graph_of(seed, 4), which always has an
infinite edge family.  The file name keeps it out of the default test
collection: it takes about 100 s on 2 cores with Python 3.11.7.
"""
import random

from hypothesis import given, settings

from gforge import corpus
from test_properties import (
    emptiness_laws,
    germ_laws,
    graph_json_roundtrip_laws,
    infinite_graph_of,
    invariance_laws,
    pair_map_laws,
    seeds,
    set_expr_roundtrip_laws,
    set_laws,
    sigma_laws,
    transport_laws,
    truncation_laws,
    word_roundtrip_laws,
)

EXAMPLES = 400
DEEP = settings(derandomize=True, deadline=None, database=None,
                max_examples=EXAMPLES)


def graph_of(seed):
    return corpus.random_graph(random.Random(seed), 4, allow_infinite=True)


@DEEP
@given(seeds)
def test_germ_laws_deep(seed):
    germ_laws(graph_of(seed))


@DEEP
@given(seeds)
def test_sigma_laws_deep(seed):
    sigma_laws(graph_of(seed))


@DEEP
@given(seeds)
def test_truncation_laws_deep(seed):
    truncation_laws(infinite_graph_of(seed, 4))


@DEEP
@given(seeds)
def test_set_laws_deep(seed):
    set_laws(infinite_graph_of(seed, 4), seed)


@DEEP
@given(seeds)
def test_emptiness_laws_deep(seed):
    emptiness_laws(infinite_graph_of(seed, 4), seed)


@DEEP
@given(seeds)
def test_transport_laws_deep(seed):
    transport_laws(infinite_graph_of(seed, 4))


@DEEP
@given(seeds)
def test_word_roundtrip_deep(seed):
    word_roundtrip_laws(infinite_graph_of(seed, 4))


@DEEP
@given(seeds)
def test_set_expr_roundtrip_deep(seed):
    set_expr_roundtrip_laws(infinite_graph_of(seed, 4), seed)


@DEEP
@given(seeds)
def test_graph_json_roundtrip_deep(seed):
    graph_json_roundtrip_laws(infinite_graph_of(seed, 4))


@DEEP
@given(seeds)
def test_invariance_laws_deep(seed):
    invariance_laws(infinite_graph_of(seed, 4))


@DEEP
@given(seeds)
def test_pair_map_laws_deep(seed):
    pair_map_laws(infinite_graph_of(seed, 4))
