"""Hypothesis properties of boundary points, cylinder algebra, germs, sigma,
paradox witnesses and parse/print roundtrips on seeded random graphs.

Hypothesis draws the seed; corpus.random_graph turns it into a graph of at
most three vertices, infinite edge families allowed (infinite_graph_of
insists on one).  The profile is derandomized and deadline-free, so every
run checks the same examples.  tests/properties_check.py reruns
truncation_laws, emptiness_laws, set_laws, transport_laws, germ_laws,
sigma_laws, invariance_laws, pair_map_laws, shift_prepend_laws,
act_point_canonical_laws, isotropy_laws, orbit_laws, apply_laws,
cylinder_table_laws, word_kernel_laws, path_kernel_laws, graph_table_laws,
verify_witness_laws and the four roundtrip laws on larger graphs.
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
    cyl_inside,
    cyl_intersect,
    cyl_is_empty,
    cyl_meets,
    isotropy_words,
    parse_point,
    point_str,
    probe_points,
    reduced_words,
    sample_point,
    set_str,
    verify_partial_action,
)
from gforge.boundary import _absorb
from gforge.cli import parse_set_expr
from gforge.graph import INFINITE, EdgeInstance, Graph
from gforge.groupoid import PTGElement, to_dr, to_ptg
from gforge.invsgp import (
    _pairs,
    check_boundary_invariance,
    sigma,
    verify_partial_hom,
)
from gforge.orbit import (
    Cocycle,
    OEData,
    PrefixHomeo,
    cocycles_agree,
    coe_check,
    coe_to_oe,
    identity_cocycle,
    oe_agree,
    oe_check,
    oe_to_coe,
    swap_homeo,
)
from gforge.paradox import expand_witness, find_witness, verify_witness
from gforge.words import ReducedWord, parse_word
from test_boundary import (
    assert_probe_points_match_reference,
    assert_validated,
    from_pair_laws,
    random_compact_open,
    reference_absorb,
    reference_admissible_words,
    reference_partial_action,
)
from test_graph import graph_table_laws, path_kernel_laws
from test_groupoid import assert_germ, assert_trusted_ptg, inverse
from test_invsgp import assert_products_match_reference, reference_partial_hom
from test_orbit import (
    assert_agreement_matches_reference,
    assert_certificate_matches_reference,
    assert_check_matches_reference,
    faulty_rows,
    inverse_homeo,
    mutated_cocycles,
    mutated_data,
    reference_coe_check,
    reference_contains,
    reference_instance_at,
    reference_apply,
    reference_oe_check,
    reference_prepend,
    reference_union,
    swap_oe_data,
)
from test_paradox import verify_witness_laws
from test_words import reference_sort_key

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
        "semilattice": [i for s in _pairs(g.paths_up_to(2)) for i in s.nu.instances],
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
            assert reference_prepend(y, x.head(k)) == x
            for alpha in short:
                if alpha.source_vertex == y.range_vertex:
                    assert_validated(reference_prepend(y, alpha))


def reference_startswith(x, mu):
    """startswith as first written: unroll x to mu's length and compare."""
    return mu.range_vertex == x.range_vertex \
        and (not x.is_finite or len(mu) <= len(x)) and x.head(len(mu)) == mu


def reference_act_set(pw, U):
    """act_set as first written: strip beta off each stem, then concat alpha."""
    g, out = pw.graph, []
    for stem, F in U.parts:
        if stem.startswith(pw.beta):
            out.append(Cylinder(g.concat(pw.alpha, g.strip_prefix(stem, len(pw.beta))), F))
        elif pw.beta.startswith(stem) and len(pw.beta) > len(stem):
            if pw.beta.instances[len(stem)] not in F:
                out.append(Cylinder(pw.alpha, frozenset()))
    return CompactOpen(g, out)


def long_stems(g, x):
    """A finite x's whole path and its one-letter extensions; for a periodic
    x, its head past the prefix and two turns of the cycle, its heads that
    reach at most one turn past the prefix, and the long head with one
    instance past the prefix swapped for another received at the same
    vertex (cut after the swap when the sources differ).  So startswith
    meets parts past the prefix both no longer and longer than the cycle,
    matching and not."""
    if x.is_finite:
        mu = x.head(len(x))
        return [mu] + [g.trusted_path(mu.instances + (e,))
                       for e in g.continuations(mu.source_vertex, copies=2)]
    p, c = len(x.prefix), len(x.cycle)
    mu = x.head(p + 2 * c + 1)
    stems = [mu] + [x.head(k) for k in range(p + 1, p + c + 1)]
    for i in range(p, p + 2 * c + 1):
        old = mu.instances[i]
        for e in g.continuations(g.r_of(old), copies=2):
            if e != old:
                rest = mu.instances[i + 1:] if g.s_of(e) == g.s_of(old) else ()
                stems.append(g.trusted_path(mu.instances[:i] + (e,) + rest))
    return stems


def act_point_canonical_laws(g, seed):
    """act_point of every admissible word up to length 2 gives a canonical
    point wherever it is defined on a probe point.  It equals the old
    composite, a shift by len(beta) and then reference_prepend(alpha),
    there, and also for every beta = head(k) that covers x's prefix: a
    finite x's whole path with a one-step alpha, or a periodic x's head
    with an alpha that is empty or ends in the cycle's last instance,
    which _absorb then takes back.
    startswith agrees with the unrolled head, head with the cycle indexed
    letter by letter, and act_set with strip_prefix then concat on random
    compact opens."""
    # [1:] drops the empty word, which sorts first and has no beta
    maps = [PartialWord.from_word(g, w) for w in admissible_words(g, 2)[1:]]
    betas = list(dict.fromkeys(pw.beta for pw in maps))
    short = g.paths_up_to(1)
    for x in probe_points(g, 3):
        stems = long_stems(g, x)
        inside = {mu: x.startswith(mu) for mu in stems + betas}
        for mu, got in inside.items():
            assert got == reference_startswith(x, mu), (x, mu)
        for i in range(len(stems[0])):
            assert reference_instance_at(x, i) == x.head(i + 1).instances[i]
        for pw in maps:
            if inside[pw.beta]:
                z = pw.act_point(x)
                assert_validated(z)
                assert z == reference_prepend(x.shift(len(pw.beta)), pw.alpha), (x, pw)
        for k in range(len(x.prefix), len(stems[0]) + 1):
            y, beta = x.shift(k), x.head(k)
            if x.is_finite:
                alphas = [a for a in short if a.source_vertex == y.range_vertex]
            else:
                alphas = [g.vertex_path(y.range_vertex), g.trusted_path(y.cycle[-1:]),
                          g.trusted_path(y.cycle)]
            for a in alphas:
                assert PartialWord(g, a, beta).act_point(x) == reference_prepend(y, a), \
                    (x, a, beta)
    rng = random.Random(seed)
    for _ in range(3):
        U = random_compact_open(g, rng)
        for pw in maps:
            got, want = pw.act_set(U), reference_act_set(pw, U)
            assert got.parts == want.parts, (pw, U)
            assert [c.stem.source_vertex for c in got.parts] \
                == [c.stem.source_vertex for c in want.parts]


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
    act_point_canonical_laws(infinite_graph_of(seed), seed)


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
def test_graph_tables_match_reference_random(seed):
    graph_table_laws(corpus.random_graph(random.Random(seed), 5, allow_infinite=True))


@PROFILE
@given(seeds)
def test_cyl_is_empty_matches_receiver_loop(seed):
    emptiness_laws(graph_of(seed), seed)
    emptiness_laws(infinite_graph_of(seed), seed)


def set_laws(g, seed, rounds=8):
    """Intersection and difference of random compact opens, and their
    union through the normalising constructor, agree with membership on
    probe_points."""
    rng = random.Random(seed)
    pts = probe_points(g, 3)
    for _ in range(rounds):
        A = random_compact_open(g, rng)
        B = random_compact_open(g, rng)
        U, I, D = reference_union(A, B), A.intersect(B), A.difference(B)
        for x in pts:
            in_a, in_b = reference_contains(A, x), reference_contains(B, x)
            assert reference_contains(U, x) == (in_a or in_b)
            assert reference_contains(I, x) == (in_a and in_b)
            assert reference_contains(D, x) == (in_a and not in_b)


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


def spread(items, n):
    """At most about n of the items, evenly spaced, the first included."""
    return items[::max(1, len(items) // n)]


# tail lengths next to each power of two up to 512: the doubling steps of
# _absorb's galloping search, and the letter loop's last letters before it
LONG_TAILS = frozenset(2 ** i + d for i in range(10) for d in (-1, 0, 1))


def word_kernel_laws(g):
    """The seam-only word kernels give what full reduction gave.

    __mul__ on spread pairs of reduced words of length <= 2 and on their
    fifth powers, each also against its own inverse, equals ReducedWord
    of the concatenated letters, and so does from_pair on spread pairs of
    paths of length <= 3 with a common source, some sharing a last
    instance, each pair also with five turns of a cycle at that source
    appended to both halves.  admissible_words equals the all-pairs loop
    at bound 3, or 2 where paths_up_to(3) is large.  _absorb equals the
    one-letter loop on the heads of spread periodic probe points read
    against the cycle of the shifted point, with and without a short path
    in front, and takes each bare head past the prefix back to the point's
    own canonical pair.  So does each long head, up to 600 letters: the
    prefix and then 0-40 whole periods, or a number of cycle letters next
    to a power of two (LONG_TAILS), so that the first letter that does
    not read the cycle falls on every step of _absorb's galloping search;
    with a path in front, it gives what the one-letter loop gives on that
    path, the prefix and the cycle, the same point.
    sort_key orders words as the per-letter key did."""
    short = spread(reduced_words(g, 2), 20)
    long = [ReducedWord(u.letters * 5) for u in short]
    for u in short + long:
        for v in short + long[::4] + [u.inverse()]:
            assert (u * v).letters == ReducedWord(u.letters + v.letters).letters, (u, v)
    paths = g.paths_up_to(3)
    cycles = {}
    for x in probe_points(g, 3):
        if not x.is_finite and not x.prefix:
            cycles.setdefault(x.range_vertex, x.cycle)
    for mu in spread(paths, 30):
        turns = cycles.get(mu.source_vertex, ()) * 5
        peers = [nu for nu in paths if nu.source_vertex == mu.source_vertex]
        tails = [nu for nu in peers if nu.instances[-1:] == mu.instances[-1:]]
        for nu in spread(peers, 10) + spread(tails, 10):
            for a, b in ((mu, nu), (g.trusted_path(mu.instances + turns, mu.range_vertex),
                                    g.trusted_path(nu.instances + turns, nu.range_vertex))):
                want = ReducedWord([(i, 1) for i in a.instances]
                                   + [(i, -1) for i in reversed(b.instances)])
                assert ReducedWord.from_pair(a, b).letters == want.letters, (a, b)
    bound = 3 if len(paths) <= 150 else 2
    words = admissible_words(g, bound)
    assert words == reference_admissible_words(g, bound)
    short_paths = g.paths_up_to(2)
    for x in spread([x for x in probe_points(g, 3) if not x.is_finite], 20):
        fronts = [()] + [a.instances for a in spread(short_paths, 30)
                         if a.source_vertex == x.range_vertex]
        for n in range(len(x.prefix), len(x.prefix) + 3 * len(x.cycle) + 1):
            pre, cyc = x.head(n).instances, x.shift(n).cycle
            assert _absorb(pre, cyc) == (x.prefix, x.cycle)
            for front in fronts:
                assert _absorb(front + pre, cyc) == reference_absorb(front + pre, cyc)
    for x in spread([x for x in probe_points(g, 3) if not x.is_finite], 6):
        p, c = len(x.prefix), len(x.cycle)
        front = next((a.instances for a in short_paths
                      if a.instances and a.source_vertex == x.range_vertex), ())
        for k in sorted({q * c + r for q in range(41) for r in (0, c - 1)} | LONG_TAILS):
            if p + k > 600:
                break
            pre, cyc = x.head(p + k).instances, x.shift(p + k).cycle
            assert _absorb(pre, cyc) == (x.prefix, x.cycle), (x, k)
            want = reference_absorb(front + x.prefix, x.cycle)
            assert _absorb(front + pre, cyc) == want, (x, k)
    mixed = list(reversed(words)) + short + long
    assert sorted(mixed, key=ReducedWord.sort_key) == sorted(mixed, key=reference_sort_key)


@PROFILE
@given(seeds)
def test_word_kernels_match_full_reduction(seed):
    word_kernel_laws(graph_of(seed))


@PROFILE
@given(seeds)
def test_make_path_matches_two_pass_reference(seed):
    path_kernel_laws(infinite_graph_of(seed), seed)


def assert_maps_match_words(g, m):
    """Each stored piece map acts as the map rebuilt from its word."""
    pts = probe_points(g, 3)
    for U, pw in m.parts:
        ref = PartialWord.from_word(g, pw.word())
        assert pw.is_empty_map == ref.is_empty_map
        assert pw.domain() == ref.domain()
        assert pw.act_set(U) == ref.act_set(U)
        for x in pts:
            if reference_contains(U, x) and reference_contains(ref.domain(), x):
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


@PROFILE
@given(seeds)
def test_verify_witness_matches_reference(seed):
    g = corpus.random_graph(random.Random(seed), 5, allow_infinite=True)
    verify_witness_laws(g, seed)


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
    whose pair length fits the bound, tried through act_point.  Each
    fixing word maps to its least pair length, so that one search at the
    largest bound serves every smaller one."""
    max_i = len(x.prefix) if x.is_finite else bound
    heads = [x.head(i) for i in range(min(bound, max_i) + 1)]
    least = {}
    for j, beta in enumerate(heads):
        for i, alpha in enumerate(heads):
            if i == j or i + j > bound or alpha.source_vertex != beta.source_vertex:
                continue
            pw = PartialWord(g, alpha, beta)
            if pw.act_point(x) == x:
                w = pw.word()
                least[w] = min(i + j, least.get(w, i + j))
    return least


def isotropy_laws(g):
    """isotropy_words agrees with the head-pair search at bounds 0-6."""
    for x in probe_points(g, 3):
        least = reference_isotropy_words(g, x, 6)
        for bound in range(7):
            found = [w for w, n in least.items() if n <= bound]
            assert isotropy_words(x, bound) == sorted(found, key=ReducedWord.sort_key)


@PROFILE
@given(seeds)
def test_isotropy_words_match_head_pair_search(seed):
    isotropy_laws(graph_of(seed))


def probe_points_laws(g):
    """probe_points, building canonical pairs only, gives the list of the
    former all-pairs enumeration, order included, at depths 0-4."""
    assert_probe_points_match_reference(g, range(5))


@PROFILE
@given(seeds)
def test_probe_points_match_reference_on_random_graphs(seed):
    probe_points_laws(infinite_graph_of(seed))
    probe_points_laws(graph_of(seed))


def swap_graph_of(seed, max_vertices=3):
    """(g, a, b) for the first graph random_graph draws from Random(seed),
    all multiplicities finite, with a parallel pair a, b of single edges
    into a vertex that is the source of some edge, so that some stem of
    length 2 has a or b as its second letter."""
    rng = random.Random(seed)
    while True:
        g = corpus.random_graph(rng, max_vertices)
        singles = [e for e in g.edges.values() if e.multiplicity == 1]
        for i, a in enumerate(singles):
            for b in singles[i + 1:]:
                if (a.range_vertex, a.source_vertex) == (b.range_vertex, b.source_vertex) \
                        and any(e.source_vertex == a.range_vertex for e in g.edges.values()):
                    return g, a.eid, b.eid


def orbit_laws(g, a, b):
    """The first-letter swap of a and b against its closed-form shift data:
    oe_check certifies it clean, the data survives a coe -> oe -> coe round,
    and turning one (1, 2) piece into (0, 1) fails oe_check.  At depth 0,
    oe_check on the data and the mutant, coe_check on a bad identity row,
    and oe_agree and cocycles_agree on the round's shift data, the mutant,
    and the data and cocycle with a piece dropped, repeated or a value
    swapped give their references' verdicts at reference points past every
    locality cylinder (assert_check_matches_reference,
    assert_agreement_matches_reference), the cocycles on the rows the
    mutant changes.  The shift data with a piece dropped or repeated gets
    reference_partition_faults' certificate."""
    oe = swap_oe_data(g, a, b)
    rep = assert_check_matches_reference(oe_check, reference_oe_check, oe, 0)
    assert rep["failures"] == [] and rep["checked"] > 0
    coc = oe_to_coe(oe)
    assert coe_check(coc, 0)["failures"] == []
    again = coe_to_oe(coc)
    i = next(i for i, (_, k, l) in enumerate(oe.pieces) if (k, l) == (1, 2))
    mutant = list(oe.pieces)
    mutant[i] = (mutant[i][0], 0, 1)
    mutant = OEData(oe.homeo, mutant)
    assert assert_check_matches_reference(oe_check, reference_oe_check, mutant, 0)["failures"]
    pieces = [c for c, _, _ in oe.pieces]
    assert_certificate_matches_reference(g, pieces[1:])
    assert_certificate_matches_reference(g, pieces + pieces[:1])
    ident = identity_cocycle(g)
    gen = ident.generators()[-1]
    bad = Cocycle(ident.homeo, {**ident.table, gen: faulty_rows(ident, gen)[0]})
    assert assert_check_matches_reference(coe_check, reference_coe_check, bad, 0)["failures"]
    pairs = [(again, oe), (oe, mutant)] + [(oe, o) for o in mutated_data(oe)]
    for c in mutated_cocycles(coc):
        # two cocycles agree when each generator's rows do, so the round's
        # cocycle and a mutant are compared on the rows the mutant changes
        gens = [gen for gen, row in coc.table.items() if c.table[gen] != row]
        pairs.append(tuple(Cocycle(t.homeo, {gen: t.table[gen] for gen in gens})
                           for t in (coc, c)))
    assert assert_agreement_matches_reference(pairs, 0)[0] is True


@PROFILE
@given(seeds)
def test_orbit_laws(seed):
    orbit_laws(*swap_graph_of(seed))


def random_table(g, rng):
    """A table of cylinders to certify or look up: the vertex cylinders, cut by
    random splits, then with pieces added, dropped or emptied and shuffled.

    A split takes some children G out of Z(s - F), giving Z(s - F - G) and
    each Z(s.a) for a in G, or cuts Z(s - F) into its enumerated children,
    which leaves a gap where s ends at a singular vertex (its finite point,
    and on an infinite family every copy past the third).  The extra
    pieces have nested and overlapping stems with random exclusions, and
    an emptied piece excludes every receiver of a regular source.
    """
    parts = [Cylinder(g.vertex_path(v), frozenset()) for v in sorted(g.vertices)]
    for _ in range(rng.randint(0, 8)):
        k = rng.randrange(len(parts))
        stem, excl = parts[k]
        conts = [a for a in g.continuations(stem.source_vertex, 3) if a not in excl]
        if not conts or len(stem) >= 3:
            continue
        kids = [Cylinder(g.trusted_path(stem.instances + (a,), stem.range_vertex),
                         frozenset()) for a in conts]
        if rng.random() < 0.6:
            taken = [i for i in range(len(conts)) if rng.random() < 0.5] or [0]
            parts[k:k + 1] = [Cylinder(stem, excl | {conts[i] for i in taken})] \
                + [kids[i] for i in taken]
        else:
            parts[k:k + 1] = kids
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3 and len(parts) > 1:
            del parts[rng.randrange(len(parts))]
        elif roll < 0.7:
            parts += random_compact_open(g, rng, 1).parts
        else:
            regular = [mu for mu in g.paths_up_to(2) if g.is_regular(mu.source_vertex)]
            if regular:
                mu = rng.choice(regular)
                parts.append(Cylinder(mu, frozenset(g.continuations(mu.source_vertex))))
    rng.shuffle(parts)
    return parts


def deep_cylinders(g, rng, pts):
    """Cylinders on the heads of five or six letters of the periodic points
    among pts, with no exclusions, one received instance excluded, or every
    one at a regular source."""
    out = []
    for x in pts:
        if x.cycle is None or rng.random() < 0.8:
            continue
        stem = x.head(rng.randint(5, 6))
        conts = g.continuations(stem.source_vertex, 2)
        excl = rng.choice([(), conts[:1], conts[1:2],
                           conts if g.is_regular(stem.source_vertex) else ()])
        out.append(Cylinder(stem, frozenset(excl)))
    return out


def cylinder_table_laws(g, seed, rounds=3):
    """The cylinder-table helpers against the old scans on random tables.
    cyl_overlaps and the whole space's cyl_inside against
    reference_partition_faults for the whole space, on the table and on the
    table grown by a random set and deeper cylinders (deep_cylinders, on
    the heads of a spread of probe points up to four letters); cyl_meets on
    each pair of the table against a CompactOpen intersection, and
    cyl_inside of each cylinder against the exact CompactOpen difference."""
    rng = random.Random(seed)
    pts = spread(probe_points(g, 4), 200)
    for _ in range(rounds):
        cyls = random_table(g, rng)
        union = CompactOpen(g, cyls)
        assert_certificate_matches_reference(g, cyls)
        sets = [CompactOpen(g, [c]) for c in cyls]
        for a, A in zip(cyls, sets):
            for b, B in zip(cyls, sets):
                assert cyl_meets(g, [a], [b]) == (not A.intersect(B).is_empty), (a, b)
        for c in cyls + list(random_compact_open(g, rng).parts):
            assert cyl_inside(g, [c], union) \
                == CompactOpen(g, [c]).difference(union).is_empty, c
        table = cyls + list(random_compact_open(g, rng).parts) + deep_cylinders(g, rng, pts)
        assert_certificate_matches_reference(g, table)


@PROFILE
@given(seeds)
def test_cylinder_tables_match_the_old_scans(seed):
    cylinder_table_laws(graph_of(seed), seed)
    cylinder_table_laws(infinite_graph_of(seed), seed)


def refined_homeo(h):
    """h with each rule at an odd place cut one letter deeper, into a rule
    (mu.c, nu.c) for each receiver c at the end of its stems, where there is
    one: rule stems of two lengths, the longest one letter longer.  The
    graphs' multiplicities must be finite, so the cut rule's Z(mu) is the
    union of its children's."""
    gs, gt = h.source_graph, h.target_graph
    rules = []
    for i, (mu, nu) in enumerate(h.rules):
        conts = gs.continuations(mu.source_vertex) if i % 2 else ()
        rules += [(gs.trusted_path(mu.instances + (c,), mu.range_vertex),
                   gt.trusted_path(nu.instances + (c,), nu.range_vertex))
                  for c in conts] or [(mu, nu)]
    return PrefixHomeo(gs, gt, rules)


def apply_laws(g, a, b):
    """PrefixHomeo.apply against a linear scan of the rule stems, for the
    identity, the first-letter swap of a and b both ways, and each of those
    refined one letter deeper (refined_homeo).

    apply, one act_point, equals the former shift-then-prepend of the rule
    whose stem x starts with (reference_apply) on every point of
    probe_points(g, 4), finite points and periodic prefixes shorter than
    the longest rule stem R included.  A rule-free homeo on the graph with
    no vertices builds, with R = 0, and its checks evaluate nothing."""
    swap = swap_homeo(g, a, b)
    points = probe_points(g, 4)
    for h in (PrefixHomeo.identity(g), swap, inverse_homeo(swap)):
        for h in (h, refined_homeo(h)):
            for x in points:
                fx = h.apply(x)
                assert fx == reference_apply(h, x) and fx.graph is h.target_graph, x
    empty = Graph([], [])
    ident = identity_cocycle(empty)
    assert ident.homeo.rules == ()
    assert coe_check(ident)["checked"] == oe_check(coe_to_oe(ident))["checked"] == 0
    assert cocycles_agree(ident, ident) and oe_agree(coe_to_oe(ident), coe_to_oe(ident))


@PROFILE
@given(seeds)
def test_apply_matches_reference(seed):
    apply_laws(*swap_graph_of(seed))


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
                assert_trusted_ptg(g, germ)
                assert to_dr(to_ptg(g, germ)) == germ


@PROFILE
@given(seeds)
def test_to_dr_merge_depth_is_least_and_roundtrips(seed):
    germ_laws(graph_of(seed))


def sigma_laws(g):
    """verify_partial_hom agrees with the per-pair reference and finds no
    failure, and sgp_mul's one-step products equal reference_sgp_mul's on
    every pair, at depth 1 and, while the truncation stays small, depth 2."""
    depths = [1]
    if len(_pairs(g.paths_up_to(2))) <= 120:
        depths.append(2)
    for depth in depths:
        assert_products_match_reference(g, _pairs(g.paths_up_to(depth)))
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
        paths = g.paths_up_to(depth)
        points = [sample_point(g, Cylinder(rho, frozenset()))
                  for rho in g.maximal_stems(depth)]
        under = {nu: [x for x in points if x.startswith(nu)] for nu in paths}
        for s in _pairs(paths):
            trusted = PartialWord(g, s.mu, s.nu)
            oracle = PartialWord.from_word(g, sigma(s))
            for x in under[s.nu]:
                assert trusted.act_point(x) == oracle.act_point(x), (s, x)


@PROFILE
@given(seeds)
def test_pair_map_laws(seed):
    """pair_map_laws, and PartialWord.from_pair on every pair up to depth 3
    (from_pair_laws) on the same graphs."""
    g = infinite_graph_of(seed)
    pair_map_laws(g)
    from_pair_laws(g)
