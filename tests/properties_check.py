"""The properties of test_properties.py at a deeper profile: truncation,
emptiness, set, transport, germ, sigma, invariance, pair map,
shift/prepend, canonical act_point, isotropy, orbit, homeo apply,
cylinder table, word kernel, path kernel, graph table and witness
certificate, and the word, set-expression, graph JSON and point text
roundtrips.

    PYTHONPATH=src python -m pytest tests/properties_check.py

Hypothesis draws the seed of random_graph(Random(seed), 4,
allow_infinite=True), so graphs have up to four vertices, and each
property checks 400 examples, derandomized like the default profile.
The truncation, emptiness, set, transport, invariance, pair map and
word, set-expression and graph JSON roundtrip laws run on
infinite_graph_of(seed, 4), which always has an infinite edge family.
The point text, shift/prepend, act_point and isotropy laws probe every
point of probe_points(g, 3), which grows fast with the graph, so they
keep the three-vertex graphs of the default profile and gain only
examples; the act_point law runs on infinite_graph_of(seed, 3), so
each of its graphs has an infinite edge family.  The orbit law runs on
swap_graph_of(seed, 3): its cocycles have a piece per path of length
1 + R + 2, and the linear references it compares the certificates with
evaluate every point of reference_points at the locality depth, two per
maximal stem of four or five letters, so it too keeps three vertices, as does
the apply law on the same graphs, which compares every point of
probe_points(g, 4).  The cylinder table law compares the cylinder-table
helpers with the old scans on random tables over graph_of(seed) and
infinite_graph_of(seed, 4), grown by cylinders on the heads of a spread
of 200 probe points of up to four letters.  The word kernel law runs on the
four-vertex graphs of graph_of and compares spread samples of words,
paths and points, and _absorb on heads of up to 600 letters.  The path
kernel law, make_path against the two-pass reference on walks of up to
600 instances with every kind of fault, runs on infinite_graph_of(seed,
4).  The graph table law, the per-graph tables against their uncached
references, runs on graph_of(seed, 5), graphs of up to five vertices, as
does the witness certificate law, verify_witness against the
union-growing reference on found, expanded and mutated witnesses.  The
file name keeps it out of the default test collection.  On 2 cores with
Python 3.11.7 it took 160 s: orbit 44 s, act_point 26 s, germ 14 s,
cylinder table 9 s, set 8 s, pair map 8 s, word kernel 8 s, apply 8 s,
sigma 7 s, and 4 s or less for each of the rest.  Its previous version,
with the probe-point orbit checks, took 163 s in the same hour: act_point
31 s, germ 19 s, orbit 18 s, cylinder table 15 s, apply 13 s.  The
certificate's references evaluate two points of every locality cylinder
where the old law compared reports at depth 2, and the PointIndex and
apply_on halves of the cylinder table and apply laws are gone.  The
host's speed drifts by tens of percent over an hour, so compare runs
only side by side.
"""
import random

from hypothesis import given, settings

from gforge import corpus
from test_graph import graph_table_laws, path_kernel_laws
from test_paradox import verify_witness_laws
from test_properties import (
    act_point_canonical_laws,
    apply_laws,
    cylinder_table_laws,
    emptiness_laws,
    germ_laws,
    graph_json_roundtrip_laws,
    infinite_graph_of,
    invariance_laws,
    isotropy_laws,
    orbit_laws,
    pair_map_laws,
    point_str_roundtrip_laws,
    seeds,
    set_expr_roundtrip_laws,
    set_laws,
    shift_prepend_laws,
    sigma_laws,
    swap_graph_of,
    transport_laws,
    truncation_laws,
    word_kernel_laws,
    word_roundtrip_laws,
)

EXAMPLES = 400
DEEP = settings(derandomize=True, deadline=None, database=None,
                max_examples=EXAMPLES)


def graph_of(seed, max_vertices=4):
    return corpus.random_graph(random.Random(seed), max_vertices, allow_infinite=True)


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
def test_word_kernel_laws_deep(seed):
    word_kernel_laws(graph_of(seed))


@DEEP
@given(seeds)
def test_path_kernel_laws_deep(seed):
    path_kernel_laws(infinite_graph_of(seed, 4), seed)


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


@DEEP
@given(seeds)
def test_point_str_roundtrip_deep(seed):
    point_str_roundtrip_laws(graph_of(seed, 3))


@DEEP
@given(seeds)
def test_shift_prepend_laws_deep(seed):
    shift_prepend_laws(graph_of(seed, 3))


@DEEP
@given(seeds)
def test_act_point_canonical_laws_deep(seed):
    act_point_canonical_laws(infinite_graph_of(seed, 3), seed)


@DEEP
@given(seeds)
def test_isotropy_laws_deep(seed):
    isotropy_laws(graph_of(seed, 3))


@DEEP
@given(seeds)
def test_orbit_laws_deep(seed):
    orbit_laws(*swap_graph_of(seed, 3))


@DEEP
@given(seeds)
def test_apply_laws_deep(seed):
    apply_laws(*swap_graph_of(seed, 3))


@DEEP
@given(seeds)
def test_cylinder_table_laws_deep(seed):
    cylinder_table_laws(graph_of(seed), seed)
    cylinder_table_laws(infinite_graph_of(seed, 4), seed)


@DEEP
@given(seeds)
def test_graph_table_laws_deep(seed):
    graph_table_laws(graph_of(seed, 5))


@DEEP
@given(seeds)
def test_verify_witness_laws_deep(seed):
    verify_witness_laws(graph_of(seed, 5), seed)
