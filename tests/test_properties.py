"""Hypothesis properties of boundary points, cylinder algebra, germs, sigma,
paradox witnesses and parse/print roundtrips on seeded random graphs.

Hypothesis draws the seed; corpus.random_graph turns it into a graph of at
most three vertices, infinite edge families allowed (infinite_graph_of
insists on one).  The profile is derandomized and deadline-free, so every
run checks the same examples.  tests/properties_check.py reruns
truncation_laws, emptiness_laws, set_laws, transport_laws, germ_laws,
sigma_laws, invariance_laws, pair_map_laws, shift_prepend_laws,
act_point_canonical_laws, isotropy_laws and the four roundtrip laws on
larger graphs.
"""
import json
import random

from hypothesis import assume, given, settings, strategies as st

from gforge import corpus
from gforge.boundary import (
    CompactOpen,
    Cylinder,
    PartialWord,
    admissible_words,
    cyl_difference,
    cyl_intersect,
    cyl_is_empty,
    isotropy_words,
    parse_point,
    point_str,
    probe_points,
    reduced_words,
    sample_point,
    set_str,
    verify_partial_action,
)
from gforge.cli import parse_set_expr
from gforge.graph import INFINITE, EdgeInstance, Graph
from gforge.groupoid import PTGElement, to_dr, to_ptg
from gforge.invsgp import (
    TruncatedSemilattice,
    check_boundary_invariance,
    sigma,
    verify_partial_hom,
)
from gforge.paradox import expand_witness, find_witness, verify_witness
from gforge.words import ReducedWord, parse_word
from test_boundary import assert_validated, random_compact_open, reference_partial_action
from test_groupoid import assert_germ, inverse
from test_invsgp import reference_partial_hom

PROFILE = settings(derandomize=True, deadline=None, database=None, max_examples=20)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def graph_of(seed):
    return corpus.random_graph(random.Random(seed), 3, allow_infinite=True)


def infinite_graph_of(seed, max_vertices=3):
    """The first graph random_graph draws from Random(seed) with an infinite
    edge family, so some vertex has infinitely many receivers."""
    rng = random.Random(seed)
    while True:
        g = corpus.random_graph(rng, max_vertices, allow_infinite=True)
        if any(e.multiplicity == INFINITE for e in g.edges.values()):
            return g


def edge_instances(g):
    """Instances the checkers enumerate: two per infinite family."""
    return sum(2 if e.multiplicity == INFINITE else e.multiplicity
               for e in g.edges.values())


def infinite_copies(g, instances):
    """The copies of each infinite family among the given edge instances."""
    used = {}
    for inst in instances:
        if g.edges[inst.edge].multiplicity == INFINITE:
            used.setdefault(inst.edge, set()).add(inst.copy)
    return used


def truncation_laws(g):
    """Every bounded enumeration takes copies 0 and 1 of an infinite family,
    no more and no fewer.  The enumerations that hold all paths of length
    one show every family; a probe point may miss a family whose source
    lies too far from a cycle or a singular vertex."""
    both = {eid: {0, 1} for eid, e in g.edges.items() if e.multiplicity == INFINITE}
    enumerations = {
        "paths_up_to": [i for mu in g.paths_up_to(2) for i in mu.instances],
        "reduced_words": [i for w in reduced_words(g, 2) for i, _ in w.letters],
        "admissible_words": [i for w in admissible_words(g, 2) for i, _ in w.letters],
        "semilattice": [i for mu in TruncatedSemilattice(g, 2).paths for i in mu.instances],
    }
    for name, instances in enumerations.items():
        assert infinite_copies(g, instances) == both, name
    points = [i for x in probe_points(g, 3) for i in x.prefix + (x.cycle or ())]
    assert all(both[eid] == c for eid, c in infinite_copies(g, points).items())
    assert len(g.paths_up_to(1)) - len(g.vertices) == edge_instances(g)


@PROFILE
@given(seeds)
def test_enumerations_take_two_copies_of_each_infinite_family(seed):
    truncation_laws(infinite_graph_of(seed))


def point_str_roundtrip_laws(g):
    """Every probe point reads back from its text."""
    for x in probe_points(g, 3):
        assert parse_point(g, point_str(x)) == x


def shift_prepend_laws(g):
    """Shifting a probe point and prepending the cut head gives it back, and
    every shift and every one-step prepend is in canonical form."""
    short = g.paths_up_to(1)
    for x in probe_points(g, 3):
        for k in range(len(x) + 1 if x.is_finite else 5):
            y = x.shift(k)
            assert_validated(y)
            assert y.prepend(x.head(k)) == x
            for alpha in short:
                if alpha.source_vertex == y.range_vertex:
                    assert_validated(y.prepend(alpha))


def act_point_canonical_laws(g):
    """act_point of every admissible word up to length 2 gives a canonical
    point wherever it is defined on a probe point."""
    # [1:] drops the empty word, which sorts first and has no beta
    maps = [PartialWord.from_word(g, w) for w in admissible_words(g, 2)[1:]]
    for x in probe_points(g, 3):
        for pw in maps:
            if x.startswith(pw.beta):
                assert_validated(pw.act_point(x))


@PROFILE
@given(seeds)
def test_point_str_roundtrips(seed):
    point_str_roundtrip_laws(graph_of(seed))


@PROFILE
@given(seeds)
def test_shift_then_prepend_restores_and_stays_canonical(seed):
    shift_prepend_laws(graph_of(seed))


@PROFILE
@given(seeds)
def test_act_point_results_are_canonical(seed):
    act_point_canonical_laws(graph_of(seed))


@PROFILE
@given(seeds)
def test_partial_action_report_matches_reference(seed):
    g = graph_of(seed)
    # the reference rebuilds every pair, so keep the word count small
    assume(edge_instances(g) <= 4)
    rep = verify_partial_action(g, 2)
    assert rep == reference_partial_action(g, 2)
    assert rep["failures"] == []


def reference_cyl_is_empty(g, c):
    """The receiver loop cyl_is_empty replaced: empty iff the stem's source
    is regular and every one of its instances is excluded."""
    v = c.stem.source_vertex
    if g.is_singular(v):
        return False
    return all(EdgeInstance(e.eid, k) in c.excl
               for e in g.receivers(v) for k in range(e.multiplicity))


def assert_receiver_counts(g):
    for v in g.vertices:
        n = sum(e.multiplicity for e in g.receivers(v))
        assert g.receiver_count(v) == n
        assert g.is_regular(v) == (0 < n < INFINITE)
        assert g.is_singular(v) == (not 0 < n < INFINITE)


def emptiness_laws(g, seed):
    """Receiver counts are the summed multiplicities, and every cylinder
    cyl_difference and cyl_intersect make from random cylinders keeps the
    exclusion invariant and gets the receiver loop's emptiness verdict."""
    assert_receiver_counts(g)
    rng = random.Random(seed)
    cyls = [c for _ in range(6) for c in random_compact_open(g, rng).parts]
    made = list(cyls)
    for a in cyls:
        for b in cyls:
            made.extend(cyl_difference(g, a, b))
            ab = cyl_intersect(a, b)
            if ab is not None:
                made.append(ab)
    for c in made:
        assert all(g.r_of(i) == c.stem.source_vertex for i in c.excl)
        assert cyl_is_empty(g, c) == reference_cyl_is_empty(g, c), c


@PROFILE
@given(seeds)
def test_cyl_is_empty_matches_receiver_loop(seed):
    emptiness_laws(graph_of(seed), seed)
    emptiness_laws(infinite_graph_of(seed), seed)


def set_laws(g, seed, rounds=8):
    """Union, intersection and difference of random compact opens agree
    with membership on probe_points."""
    rng = random.Random(seed)
    pts = probe_points(g, 3)
    for _ in range(rounds):
        A = random_compact_open(g, rng)
        B = random_compact_open(g, rng)
        U, I, D = A.union(B), A.intersect(B), A.difference(B)
        for x in pts:
            in_a, in_b = x in A, x in B
            assert (x in U) == (in_a or in_b)
            assert (x in I) == (in_a and in_b)
            assert (x in D) == (in_a and not in_b)


@PROFILE
@given(seeds)
def test_set_operations_match_membership_with_infinite_receivers(seed):
    set_laws(infinite_graph_of(seed), seed)


def word_roundtrip_laws(g):
    """Every reduced word of length <= 2 parses back from its printed form."""
    for w in reduced_words(g, 2):
        assert parse_word(str(w)) == w


def set_expr_roundtrip_laws(g, seed):
    """Nonempty compact opens with exclusions, and their differences and
    intersections, parse back from set_str; empty sets print as {}, which
    is not a set expression."""
    rng = random.Random(seed)
    for _ in range(8):
        A = random_compact_open(g, rng)
        B = random_compact_open(g, rng)
        for U in (A, A.difference(B), A.intersect(B)):
            if not U.is_empty:
                assert parse_set_expr(g, set_str(U)) == U, set_str(U)


def graph_json_roundtrip_laws(g):
    """Graph JSON loads back to the same vertices and edges."""
    h = Graph.loads(json.dumps(g.to_json()))
    assert h.vertices == g.vertices
    assert h.edges == g.edges


@PROFILE
@given(seeds)
def test_words_roundtrip_through_text(seed):
    word_roundtrip_laws(infinite_graph_of(seed))


@PROFILE
@given(seeds)
def test_set_expressions_roundtrip_through_text(seed):
    set_expr_roundtrip_laws(infinite_graph_of(seed), seed)


@PROFILE
@given(seeds)
def test_graph_json_roundtrips(seed):
    graph_json_roundtrip_laws(infinite_graph_of(seed))


def assert_maps_match_words(g, m):
    """Each stored piece map acts as the map rebuilt from its word."""
    pts = probe_points(g, 3)
    for (U, w), pw in zip(m.pieces, m.maps):
        ref = PartialWord.from_word(g, w)
        assert pw.is_empty_map == ref.is_empty_map
        assert pw.domain() == ref.domain()
        assert pw.act_set(U) == ref.act_set(U)
        for x in pts:
            if x in U and x in ref.domain():
                assert pw.act_point(x) == ref.act_point(x)


@PROFILE
@given(seeds, st.lists(seeds, min_size=1, max_size=3))
def test_found_witnesses_verify_on_unions_of_stems(seed, picks):
    """Stems may overlap; every pair the search returns must still verify,
    and its stored piece maps, also after composing, act as their words."""
    g = graph_of(seed)
    stems = g.paths_up_to(2)
    chosen = [stems[i % len(stems)] for i in picks]
    U = CompactOpen(g, [Cylinder(mu, frozenset()) for mu in chosen])
    pair = find_witness(g, U)
    if pair is not None:
        assert verify_witness(g, U, list(pair))["ok"]
        for m in expand_witness(g, pair, 3):
            assert_maps_match_words(g, m)


def transport_laws(g):
    """Z(mu) is Z(s(mu)) carried by mu: the search on Z(mu) refuses exactly
    when it refuses on Z(s(mu)), and otherwise returns the vertex pair with
    each piece's stems prefixed by mu (exclusions kept) and each word
    conjugated by mu; certification agrees."""
    witnesses = {v: find_witness(g, CompactOpen.cylinder(g, g.vertex_path(v)))
                 for v in g.vertices}
    for mu in g.paths_up_to(2):
        U = CompactOpen.cylinder(g, mu)
        pair = find_witness(g, U)
        base = witnesses[mu.source_vertex]
        assert (pair is None) == (base is None), g.path_str(mu)
        if pair is None:
            continue
        t = ReducedWord.from_path(mu)
        for m, b in zip(pair, base):
            carried = [([Cylinder(g.concat(mu, c.stem), c.excl) for c in D.parts],
                        t * w * t.inverse()) for D, w in b.pieces]
            assert [(list(D.parts), w) for D, w in m.pieces] == carried, g.path_str(mu)
        V = CompactOpen.cylinder(g, g.vertex_path(mu.source_vertex))
        assert (verify_witness(g, U, list(pair))["ok"]
                == verify_witness(g, V, list(base))["ok"])


@PROFILE
@given(seeds)
def test_witnesses_are_carried_from_the_source_vertex(seed):
    transport_laws(infinite_graph_of(seed))


def reference_isotropy_words(g, x, bound):
    """The head-pair search isotropy_words replaced: every pair of heads
    whose pair length fits the bound, tried through act_point."""
    max_i = len(x.prefix) if x.is_finite else bound
    heads = [x.head(i) for i in range(min(bound, max_i) + 1)]
    found = set()
    for j, beta in enumerate(heads):
        for i, alpha in enumerate(heads):
            if i == j or i + j > bound or alpha.source_vertex != beta.source_vertex:
                continue
            pw = PartialWord(g, alpha, beta)
            if pw.act_point(x) == x:
                found.add(pw.word())
    return sorted(found, key=ReducedWord.sort_key)


def isotropy_laws(g):
    """isotropy_words agrees with the head-pair search at bounds 0-6."""
    for x in probe_points(g, 3):
        for bound in range(7):
            assert isotropy_words(x, bound) == reference_isotropy_words(g, x, bound)


@PROFILE
@given(seeds)
def test_isotropy_words_match_head_pair_search(seed):
    isotropy_laws(graph_of(seed))


def germ_laws(g):
    """to_dr and inverse give certified germs that roundtrip through words."""
    points = probe_points(g, 2)
    for w in admissible_words(g, 2):
        pw = PartialWord.from_word(g, w)
        for x in points:
            if not (pw.is_identity or x.startswith(pw.beta)):
                continue
            d = to_dr(PTGElement(g, w, x))
            for germ in (d, inverse(d)):
                assert_germ(germ)
                assert to_dr(to_ptg(g, germ)) == germ


@PROFILE
@given(seeds)
def test_to_dr_merge_depth_is_least_and_roundtrips(seed):
    germ_laws(graph_of(seed))


def sigma_laws(g):
    """verify_partial_hom agrees with the per-pair reference and finds no
    failure, at depth 1 and, while the truncation stays small, depth 2."""
    depths = [1]
    if len(TruncatedSemilattice(g, 2).elements()) <= 120:
        depths.append(2)
    for depth in depths:
        rep = verify_partial_hom(g, depth)
        assert rep == reference_partial_hom(g, depth)
        assert rep["failures"] == [] and rep["idempotent_pure_failures"] == []


@PROFILE
@given(seeds)
def test_sigma_is_a_partial_hom(seed):
    sigma_laws(graph_of(seed))


def invariance_laws(g):
    """The character action of the truncated semilattice agrees with the
    boundary action of sigma at depths 1 and 2, and some pair is compared:
    the vertex idempotents keep every maximal stem in depth."""
    for depth in (1, 2):
        rep = check_boundary_invariance(g, depth)
        assert rep["violations"] == [], depth
        assert rep["checked"] > rep["escapes"]


@PROFILE
@given(seeds)
def test_invariance_laws(seed):
    invariance_laws(infinite_graph_of(seed))


def pair_map_laws(g):
    """check_boundary_invariance builds the map of a pair s = (mu, nu) as
    the trusted PartialWord(g, mu, nu).  On Z(nu) it must act as the
    validated partial word of sigma(s) does at the sample point of every
    maximal stem in Z(nu), the points the check pushes, at depths 1 and 2."""
    for depth in (1, 2):
        ts = TruncatedSemilattice(g, depth)
        points = [sample_point(g, Cylinder(rho, frozenset()))
                  for rho in g.maximal_stems(depth)]
        under = {nu: [x for x in points if x.startswith(nu)] for nu in ts.paths}
        for s in ts.elements():
            trusted = PartialWord(g, s.mu, s.nu)
            oracle = PartialWord.from_word(g, sigma(s))
            for x in under[s.nu]:
                assert trusted.act_point(x) == oracle.act_point(x), (s, x)


@PROFILE
@given(seeds)
def test_pair_map_laws(seed):
    pair_map_laws(infinite_graph_of(seed))
