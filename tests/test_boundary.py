import random
import sys
import tracemalloc

import pytest

from gforge import corpus
from gforge.boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    DomainError,
    PartialWord,
    admissible_words,
    cyl_difference,
    cyl_intersect,
    cyl_is_empty,
    isotropy_words,
    make_cylinder,
    parse_point,
    parse_stem,
    point_str,
    probe_points,
    reduced_words,
    sample_point,
    topological_freeness_report,
    verify_partial_action,
)
from gforge import boundary
from gforge.boundary import _absorb
from gforge.graph import (INFINITE, Edge, EdgeInstance, Graph, GraphError, condition_l,
                          first_return_profile)
from gforge.orbit import PrefixHomeo, swap_homeo
from gforge.paradox import find_witness, infinite_loops
from gforge.words import ReducedWord, parse_word
from test_orbit import (
    inverse_homeo,
    reference_contains,
    reference_cyl_contains,
    reference_instance_at,
    reference_prepend,
    reference_union,
    two_level_homeo,
)


# ---------------------------------------------------------------- points

def test_point_canonical_absorbs_prefix_into_rotation():
    g = corpus.g2()
    x = BoundaryPoint.periodic(g, g.path_of("a"), g.path_of("b", "a"))
    # a.(b.a)^inf spells a,b,a,b,... which is (a.b)^inf
    assert point_str(x) == "(a.b)^inf"
    y = BoundaryPoint.periodic(g, g.vertex_path("v"), g.path_of("a", "b"))
    assert x == y


def test_point_canonical_primitive_root():
    g = corpus.g2()
    x = BoundaryPoint.periodic(g, g.vertex_path("v"), g.path_of("a", "a"))
    assert point_str(x) == "(a)^inf"
    assert x == BoundaryPoint.periodic(g, g.path_of("a"), g.path_of("a"))


def test_point_canonical_keeps_honest_prefix():
    g = corpus.g2()
    x = BoundaryPoint.periodic(g, g.path_of("b"), g.path_of("a"))
    assert point_str(x) == "b.(a)^inf"
    assert x != BoundaryPoint.periodic(g, g.vertex_path("v"), g.path_of("a"))


def test_finite_point_needs_singular_source():
    g3 = corpus.g3()
    assert point_str(BoundaryPoint.finite(g3, g3.vertex_path("w"))) == "w"
    assert point_str(BoundaryPoint.finite(g3, g3.path_of("e"))) == "e"
    with pytest.raises(BoundaryError):
        BoundaryPoint.finite(g3, g3.vertex_path("u"))  # u receives e
    g5 = corpus.g5()
    x = BoundaryPoint.finite(g5, g5.path_of(("f", 3)))
    assert point_str(x) == "f[3]"


def test_periodic_point_validation():
    g = corpus.g4()
    with pytest.raises(BoundaryError):
        BoundaryPoint.periodic(g, g.vertex_path("v"), g.path_of("c"))  # not a loop
    with pytest.raises(BoundaryError):
        BoundaryPoint.periodic(g, g.path_of("c"), g.path_of("a"))  # c ends at w


def test_instance_stream_and_heads():
    g = corpus.g2()
    x = BoundaryPoint.periodic(g, g.path_of("b"), g.path_of("a", "b"))
    want = ["b", "a", "b", "a", "b"]
    got = [reference_instance_at(x, i).edge for i in range(5)]
    assert got == want
    assert g.path_str(x.head(3)) == "b.a.b"
    assert x.head(0) == g.vertex_path("v")
    with pytest.raises(BoundaryError):
        x.head(-1)
    with pytest.raises(BoundaryError):
        BoundaryPoint.finite(corpus.g3(), corpus.g3().path_of("e")).head(2)
    for x, k in probed_heads():
        assert x.head(k).instances == (x.prefix + (x.cycle or ()) * k)[:k]
        assert x.startswith(x.head(k))


def test_startswith_reads_long_stems_on_short_cycles():
    """startswith indexes into the cycle instead of unrolling it: a
    250-letter stem on a cycle of length 1 is two slice comparisons."""
    g1, g2, g4 = corpus.g1(), corpus.g2(), corpus.g4()
    x = parse_point(g1, "(a)^inf")
    assert x.startswith(g1.path_of(*["a"] * 250))
    assert not parse_point(g2, "(a)^inf").startswith(g2.path_of(*["a"] * 249, "b"))
    assert not parse_point(g4, "a.c").startswith(g4.path_of("a", "a", "a"))


def probed_heads():
    """(x, k) for every probe_points(g, 5) point x of g2, g4, g5 and p3 and
    every k <= 7 within x."""
    for name in ("g2", "g4", "g5", "p3"):
        for x in probe_points(corpus.by_name(name), 5):
            for k in range(min(7, len(x)) + 1 if x.is_finite else 8):
                yield x, k


def test_startswith():
    g = corpus.g2()
    x = BoundaryPoint.periodic(g, g.path_of("b"), g.path_of("a"))
    assert x.startswith(g.vertex_path("v"))
    assert x.startswith(g.path_of("b", "a", "a"))
    assert not x.startswith(g.path_of("a"))
    f = BoundaryPoint.finite(corpus.g3(), corpus.g3().path_of("e"))
    assert f.startswith(corpus.g3().path_of("e"))
    assert not f.startswith(corpus.g3().vertex_path("w"))
    # only a vertex path compares range vertices
    g4 = corpus.g4()
    assert parse_point(g4, "c").startswith(g4.vertex_path("v"))
    assert not parse_point(g4, "c").startswith(g4.vertex_path("w"))
    assert not BoundaryPoint.finite(g4, g4.vertex_path("w")).startswith(g4.vertex_path("v"))
    assert not parse_point(g4, "(a)^inf").startswith(g4.vertex_path("w"))
    # a periodic point with an empty prefix, at its own vertex and past it
    y = parse_point(g, "(a.b)^inf")
    assert y.prefix == () and y.startswith(g.vertex_path("v"))
    assert y.startswith(g.path_of("a", "b", "a"))
    assert not y.startswith(g.path_of("b"))
    # cycles longer than the part of mu past the prefix, with and without
    # a prefix, and one longer than all of mu
    z = parse_point(g, "(a.a.b)^inf")
    w = parse_point(g, "b.(a.a.b.b)^inf")
    for p in (z, w):
        n = len(p.prefix)
        for k in range(n + 1, n + len(p.cycle) + 1):
            assert p.startswith(p.head(k))
            for j in range(k):
                other = list(p.head(k).instances)
                other[j] = g.instance("b" if g.instance_str(other[j]) == "a" else "a")
                assert not p.startswith(g.make_path(other))
    assert z.startswith(g.path_of("a", "a")) and not z.startswith(g.path_of("a", "b"))
    assert w.startswith(g.path_of("b", "a", "a")) and not w.startswith(g.path_of("b", "b"))


def test_startswith_copies_the_tail_at_most_twice():
    """b.a^(10**6) against b.(a)^inf: the slices startswith compares peak
    below 2.5 times the stem's own tuple; copying the tail itself as well
    peaked at 3 times."""
    g = corpus.g2()
    x = BoundaryPoint.periodic(g, g.path_of("b"), g.path_of("a"))
    b, a = g.instance("b"), g.instance("a")
    mu = g.make_path((b,) + (a,) * 10 ** 6)
    tracemalloc.start()
    try:
        assert x.startswith(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sys.getsizeof(mu.instances)


def test_shift_prepend_roundtrip():
    g = corpus.g2()
    pts = [
        BoundaryPoint.periodic(g, g.path_of("b"), g.path_of("a")),
        BoundaryPoint.periodic(g, g.vertex_path("v"), g.path_of("a", "b")),
        BoundaryPoint.periodic(g, g.path_of("a", "b", "b"), g.path_of("b", "a")),
    ]
    for x in pts:
        for k in range(6):
            assert reference_prepend(x.shift(k), x.head(k)) == x
    for x, k in probed_heads():
        assert reference_prepend(x.shift(k), x.head(k)) == x
    g3 = corpus.g3()
    f = BoundaryPoint.finite(g3, g3.path_of("e"))
    assert f.shift(1) == BoundaryPoint.finite(g3, g3.vertex_path("w"))
    assert reference_prepend(f.shift(1), g3.path_of("e")) == f
    # negative shifts and shifts past a finite end are refused on both kinds
    for x, k in [(parse_point(g, "a.b.(a)^inf"), -1), (parse_point(g3, "e"), -1),
                 (parse_point(g3, "e"), 2)]:
        with pytest.raises(BoundaryError):
            x.shift(k)


def test_point_str_parse_roundtrip():
    g = corpus.g2()
    for text in ["(a)^inf", "(a.b)^inf", "b.(a)^inf", "b.(b.a)^inf"]:
        assert point_str(parse_point(g, text)) == text
    # non-canonical spellings parse to the canonical form
    assert point_str(parse_point(g, "b.b.(a.b)^inf")) == "b.(b.a)^inf"
    assert point_str(parse_point(g, "a.(a)^inf")) == "(a)^inf"
    g5 = corpus.g5()
    for text in ["f[3]", "(f)^inf", "f[1].(f)^inf"]:
        assert point_str(parse_point(g5, text)) == text
    g3 = corpus.g3()
    assert point_str(parse_point(g3, "w")) == "w"


def test_bare_names_read_alike_in_stems_and_points():
    # vertex a is also the name of the loop at v: neither reading is taken
    g = Graph(["v", "a"], [Edge("a", "v", "v", 1)])
    for parse in (parse_stem, parse_point):
        with pytest.raises(BoundaryError, match="'a' names both a vertex and an edge"):
            parse(g, "a")
        with pytest.raises(BoundaryError, match="unknown vertex or edge 'w'"):
            parse(g, "w")
    assert parse_stem(g, "v") == g.vertex_path("v")
    assert parse_stem(g, "a.a") == g.path_of("a", "a")
    assert point_str(parse_point(g, "(a)^inf")) == "(a)^inf"
    with pytest.raises(GraphError, match="unknown edge 'q'"):
        parse_stem(g, "a.q")  # a token inside a path names an edge


# ---------------------------------------------------------------- cylinders

def test_cylinder_validation():
    g = corpus.g2()
    make_cylinder(g, g.path_of("a"), [EdgeInstance("b", 0)])
    with pytest.raises(GraphError):
        make_cylinder(g, g.path_of("a"), [EdgeInstance("zz", 0)])
    g4 = corpus.g4()
    with pytest.raises(BoundaryError):
        # w receives nothing, so nothing can be excluded under stem c
        make_cylinder(g4, g4.path_of("c"), [EdgeInstance("a", 0)])


def test_cyl_is_empty():
    g2 = corpus.g2()
    assert cyl_is_empty(g2, make_cylinder(g2, g2.vertex_path("v"),
                                          [EdgeInstance("a", 0), EdgeInstance("b", 0)]))
    assert not cyl_is_empty(g2, make_cylinder(g2, g2.vertex_path("v"),
                                              [EdgeInstance("a", 0)]))
    g3 = corpus.g3()
    assert cyl_is_empty(g3, make_cylinder(g3, g3.vertex_path("u"), [EdgeInstance("e", 0)]))
    assert not cyl_is_empty(g3, make_cylinder(g3, g3.vertex_path("w")))
    g5 = corpus.g5()
    many = [EdgeInstance("f", k) for k in range(50)]
    assert not cyl_is_empty(g5, make_cylinder(g5, g5.vertex_path("v"), many))


def test_endpoint_always_inside():
    g3 = corpus.g3()
    c = make_cylinder(g3, g3.path_of("e"))
    assert reference_cyl_contains(c, BoundaryPoint.finite(g3, g3.path_of("e")))
    g5 = corpus.g5()
    c5 = make_cylinder(g5, g5.vertex_path("v"), [EdgeInstance("f", 0)])
    assert reference_cyl_contains(c5, BoundaryPoint.finite(g5, g5.vertex_path("v")))
    x = parse_point(g5, "(f)^inf")
    assert not reference_cyl_contains(c5, x)      # first instance f[0] is excluded
    assert reference_cyl_contains(c5, parse_point(g5, "f[1].(f)^inf"))


# ------------------------------------------------- set algebra vs point oracle

def battery(g, depth=3):
    """A spread of boundary points to probe set operations with."""
    pts = []
    for mu in g.paths_up_to(depth):
        if g.is_singular(mu.source_vertex):
            pts.append(BoundaryPoint.finite(g, mu))
        for k in range(1, depth + 1):
            for cyc in g.paths_up_to(k):
                if len(cyc) == k and cyc.range_vertex == cyc.source_vertex \
                        and cyc.instances and cyc.range_vertex == mu.source_vertex:
                    pts.append(BoundaryPoint.periodic(g, mu, cyc))
    uniq = []
    for x in pts:
        if x not in uniq:
            uniq.append(x)
    return uniq


def random_compact_open(g, rng, max_parts=3):
    parts = []
    paths = g.paths_up_to(2)
    for _ in range(rng.randint(1, max_parts)):
        stem = rng.choice(paths)
        conts = g.continuations(stem.source_vertex, copies=2)
        excl = frozenset(i for i in conts if rng.random() < 0.35)
        parts.append(Cylinder(stem, excl))
    return CompactOpen(g, parts)


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5", "g7", "p2", "p3"])
def test_set_operations_match_membership(name):
    g = corpus.by_name(name)
    pts = battery(g)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(25):
        A = random_compact_open(g, rng)
        B = random_compact_open(g, rng)
        U = reference_union(A, B)   # the normalising constructor
        I = A.intersect(B)
        D = A.difference(B)
        for x in pts:
            in_a, in_b = reference_contains(A, x), reference_contains(B, x)
            assert reference_contains(U, x) == (in_a or in_b)
            assert reference_contains(I, x) == (in_a and in_b)
            assert reference_contains(D, x) == (in_a and not in_b)


def reference_intersect(A, B):
    """intersect as first written."""
    out = []
    for a in A.parts:
        for b in B.parts:
            ab = cyl_intersect(a, b)
            if ab is not None:
                out.append(ab)
    return CompactOpen(A.graph, out)


def reference_difference(A, B):
    """difference as first written."""
    g, parts = A.graph, A.parts
    for r in B.parts:
        parts = [p for c in parts for p in cyl_difference(g, c, r)
                 if not cyl_is_empty(g, p)]
    return CompactOpen(g, parts)


def reference_act_set(pw, U):
    """act_set as first written, its image through the normalising
    constructor."""
    g, alpha, beta = pw.graph, pw.alpha, pw.beta
    if beta is None:
        return U if pw.is_identity else CompactOpen(g, ())
    k = len(beta.instances)
    out = []
    for stem, F in U.parts:
        if stem.startswith(beta):
            out.append(Cylinder(g.trusted_path(alpha.instances + stem.instances[k:],
                                               alpha.range_vertex), F))
        elif beta.startswith(stem) and k > len(stem.instances):
            if beta.instances[len(stem.instances)] not in F:
                out.append(Cylinder(alpha, frozenset()))
    return CompactOpen(g, out)


def assert_normal_as(r, ref):
    """r is in normal form (sorted by Cylinder.key, distinct, empty-free)
    and has the parts of the reference result."""
    assert r.parts == CompactOpen(r.graph, r.parts).parts, r
    assert r.parts == ref.parts, (r, ref)


def set_normal_form_laws(g, seed, rounds=10):
    """Every set the algebra builds, with or without the normalising
    constructor, is in normal form and equals the always-normalising
    result: the builders, intersect and difference of random sets
    (the empty and whole sets among them), act_set of every admissible
    word, and the pieces of a whole-space witness."""
    rng = random.Random(seed)
    empty, whole = CompactOpen.empty(g), CompactOpen.whole(g)
    assert_normal_as(empty, CompactOpen(g, ()))
    assert_normal_as(whole, CompactOpen(g, [Cylinder(g.vertex_path(v), frozenset())
                                            for v in g.vertices]))
    for mu in g.paths_up_to(2):
        assert_normal_as(CompactOpen.cylinder(g, mu),
                         CompactOpen(g, [Cylinder(mu, frozenset())]))
    sets = [empty, whole] + [random_compact_open(g, rng) for _ in range(rounds)]
    for A in sets:
        for B in sets:
            assert_normal_as(A.intersect(B), reference_intersect(A, B))
            assert_normal_as(A.difference(B), reference_difference(A, B))
    for w in admissible_words(g, 2):
        pw = PartialWord.from_word(g, w)
        for U in sets:
            assert_normal_as(pw.act_set(U), reference_act_set(pw, U))
    pair = find_witness(g, whole)
    for m in pair or ():
        for D, _ in m.pieces:
            assert_normal_as(D, CompactOpen(g, D.parts))


def test_set_results_are_in_normal_form(corpus_graph):
    name, g = corpus_graph
    set_normal_form_laws(g, sum(map(ord, name)))


@pytest.mark.parametrize("seed", range(30))
def test_set_results_are_in_normal_form_random(seed):
    g = corpus.random_graph(random.Random(seed), 4, allow_infinite=True)
    set_normal_form_laws(g, seed)


def test_difference_parts_stay_disjoint():
    g = corpus.g2()
    c = make_cylinder(g, g.vertex_path("v"))
    r = make_cylinder(g, g.path_of("a", "b"), [EdgeInstance("a", 0)])
    parts = cyl_difference(g, c, r)
    pts = battery(g)
    for x in pts:
        hits = sum(1 for p in parts if reference_cyl_contains(p, x))
        assert hits <= 1
        want = reference_cyl_contains(c, x) and not reference_cyl_contains(r, x)
        assert (hits == 1) == want


def test_whole_space_identities():
    g = corpus.g2()
    X = CompactOpen.whole(g)
    za = CompactOpen.cylinder(g, g.path_of("a"))
    assert X.intersect(za) == za
    ab = reference_union(CompactOpen.cylinder(g, g.path_of("a")),
                         CompactOpen.cylinder(g, g.path_of("b")))
    assert ab == X                     # v is regular with receivers a, b
    assert X.difference(ab).is_empty
    g3 = corpus.g3()
    X3 = CompactOpen.whole(g3)
    zu = reference_union(CompactOpen.cylinder(g3, g3.path_of("e")),
                         CompactOpen.cylinder(g3, g3.vertex_path("w")))
    assert zu == X3                    # Z(u) = Z(e), and w is its own point


def test_sample_point_lands_inside():
    rng = random.Random(99)
    for name in ["g1", "g2", "g3", "g4", "g5", "g7", "p3"]:
        g = corpus.by_name(name)
        for _ in range(20):
            U = random_compact_open(g, rng)
            for part in U.parts:
                x = sample_point(g, part)
                assert x is not None and reference_cyl_contains(part, x)
        for x in sample_points(g, CompactOpen.whole(g)):
            assert reference_contains(CompactOpen.whole(g), x)


def reference_probe_points(g, depth=3):
    """The former probe_points, kept as an oracle: every prefix with every
    cycle that fits, each made canonical by periodic, repeats dropped."""
    paths = g.paths_up_to(depth)
    cycles = [c for c in paths
              if c.instances and c.range_vertex == c.source_vertex]
    pts = []
    for mu in paths:
        if g.is_singular(mu.source_vertex):
            pts.append(BoundaryPoint.finite(g, mu))
        for cyc in cycles:
            if len(mu) + len(cyc) <= depth \
                    and cyc.range_vertex == mu.source_vertex:
                pts.append(BoundaryPoint.periodic(g, mu, cyc))
    return list(dict.fromkeys(pts))


def assert_probe_points_match_reference(g, depths):
    for depth in depths:
        pts = probe_points(g, depth)
        assert pts == reference_probe_points(g, depth), depth
        # equal points may still differ in shape; these are built unchecked
        for y in pts:
            assert_validated(y)


def test_probe_points_match_reference(corpus_graph):
    _, g = corpus_graph
    assert_probe_points_match_reference(g, range(7))


def assert_validated(y):
    """y equals finite/periodic rebuilt from its own prefix and cycle,
    both made into paths by make_path."""
    g = y.graph
    pre = g.make_path(y.prefix) if y.prefix else g.vertex_path(y.range_vertex)
    z = (BoundaryPoint.finite(g, pre) if y.is_finite
         else BoundaryPoint.periodic(g, pre, g.make_path(y.cycle)))
    assert y == z, y


def test_internal_paths_match_validated_paths(corpus_graph):
    """Paths and points built without checks equal what make_path and
    finite/periodic build from the same instances, source vertex included
    (Path equality ignores it): every point that shift, reference_prepend,
    act_point and PrefixHomeo.apply make from probe_points."""
    name, g = corpus_graph
    points = []
    paths = []
    short = g.paths_up_to(2)
    homeos = [PrefixHomeo.identity(g)]
    if name == "g2":
        deep = two_level_homeo(g)
        homeos += [swap_homeo(g), inverse_homeo(swap_homeo(g)), deep,
                   inverse_homeo(deep)]
    # [1:] drops the empty word, which sorts first and has no beta
    maps = [PartialWord.from_word(g, w) for w in admissible_words(g, 2)[1:]]
    for x in probe_points(g, 4):
        points += [h.apply(x) for h in homeos]
        points += [pw.act_point(x) for pw in maps if x.startswith(pw.beta)]
        for k in range(min(6, len(x)) + 1 if x.is_finite else 7):
            paths.append(x.head(k))
            y = x.shift(k)
            points += [y, reference_prepend(y, x.head(k))]
            points += [reference_prepend(y, mu) for mu in short
                       if mu.source_vertex == y.range_vertex]
    cyls = [Cylinder(mu, frozenset()) for mu in short]
    points += [sample_point(g, c) for c in CompactOpen.whole(g).parts + tuple(cyls)]
    for y in points:
        assert_validated(y)
        paths.append(y.head(len(y.prefix) + len(y.cycle or ())))
    for mu in g.paths_up_to(3):
        for k in range(len(mu) + 1):
            paths += [g.prefix(mu, k), g.strip_prefix(mu, k)]
            assert g.concat(paths[-2], paths[-1]) == mu
    holds, loop = condition_l(g)
    if not holds:
        paths.append(loop)
    for v in g.vertices:
        loops = first_return_profile(g, v) + infinite_loops(g, v)
        assert all(mu.range_vertex == mu.source_vertex == v for mu in loops)
        paths += loops
    for mu in paths:
        if mu.instances:
            checked = g.make_path(mu.instances)
            assert mu == checked and mu.source_vertex == checked.source_vertex
        else:
            assert mu.range_vertex == mu.source_vertex and mu.range_vertex in g.vertices


# ---------------------------------------------------------------- partial words

def test_partial_word_shapes():
    g = corpus.g2()
    pw = PartialWord.from_word(g, parse_word("a.b^-1"))
    assert not pw.is_empty_map
    assert g.path_str(pw.alpha) == "a" and g.path_str(pw.beta) == "b"
    assert PartialWord.from_word(g, parse_word("a^-1.b")).is_empty_map
    assert PartialWord.from_word(g, parse_word("1")).is_identity
    g4 = corpus.g4()
    assert PartialWord.from_word(g4, parse_word("a.c^-1")).is_empty_map  # sources v, w
    assert PartialWord.from_word(g4, parse_word("c.a")).is_empty_map    # c.a not a path
    assert PartialWord.from_word(g4, parse_word("a[1]")).is_empty_map   # a has one copy


def test_partial_word_domains():
    g = corpus.g2()
    pw = PartialWord.from_word(g, parse_word("a.b^-1"))
    assert pw.domain() == CompactOpen.cylinder(g, g.path_of("b"))
    assert pw.inverse().domain() == CompactOpen.cylinder(g, g.path_of("a"))
    only_neg = PartialWord.from_word(g, parse_word("a^-1"))
    assert only_neg.domain() == CompactOpen.cylinder(g, g.path_of("a"))
    assert only_neg.inverse().domain() == CompactOpen.whole(g)
    assert PartialWord.identity(g).domain() == CompactOpen.whole(g)


def from_pair_laws(g, depth=3):
    """PartialWord.from_pair on every pair of paths with a common source up
    to depth builds what from_word builds from ReducedWord.from_pair's word:
    the same alpha and beta, source vertices included, and the same word.
    Returns how many pairs cancel one side whole."""
    by_source = {}
    for mu in g.paths_up_to(depth):
        by_source.setdefault(mu.source_vertex, []).append(mu)
    whole = 0
    for paths in by_source.values():
        for alpha in paths:
            for beta in paths:
                got = PartialWord.from_pair(g, alpha, beta)
                ref = PartialWord.from_word(g, ReducedWord.from_pair(alpha, beta))
                for a, b in ((got.alpha, ref.alpha), (got.beta, ref.beta)):
                    assert (a is None) == (b is None), (alpha, beta)
                    if a is not None:
                        assert (a, a.source_vertex) == (b, b.source_vertex), (alpha, beta)
                assert got.word() == ref.word()
                whole += got.beta is not None and any(
                    side.instances and not kept.instances
                    for side, kept in ((alpha, got.alpha), (beta, got.beta)))
    return whole


def test_from_pair_builds_what_from_word_builds(corpus_graph):
    name, g = corpus_graph
    whole = from_pair_laws(g)
    if name in ("g7", "p3"):
        assert whole, name


def test_act_point_hand_cases():
    g = corpus.g2()
    swap = PartialWord.from_word(g, parse_word("a.b^-1"))
    x = parse_point(g, "b.(a)^inf")
    assert point_str(swap.act_point(x)) == "(a)^inf"
    with pytest.raises(DomainError):
        swap.act_point(parse_point(g, "(a)^inf"))
    g3 = corpus.g3()
    st = PartialWord.from_word(g3, parse_word("e^-1"))
    assert point_str(st.act_point(parse_point(g3, "e"))) == "w"


def test_act_set_hand_cases():
    g = corpus.g2()
    swap = PartialWord.from_word(g, parse_word("a.b^-1"))
    zba = CompactOpen.cylinder(g, g.path_of("b", "a"))
    assert swap.act_set(zba) == CompactOpen.cylinder(g, g.path_of("a", "a"))
    # acting on the whole space restricts to the domain first
    assert swap.act_set(CompactOpen.whole(g)) == CompactOpen.cylinder(g, g.path_of("a"))
    # a set meeting the domain only partially
    mix = reference_union(zba, CompactOpen.cylinder(g, g.path_of("a")))
    assert swap.act_set(mix) == CompactOpen.cylinder(g, g.path_of("a", "a"))


def test_act_set_agrees_with_points():
    rng = random.Random(4242)
    for name in ["g1", "g2", "g4", "g5", "g7"]:
        g = corpus.by_name(name)
        pts = battery(g)
        for w in admissible_words(g, 3)[:40]:
            pw = PartialWord.from_word(g, w)
            dom = pw.domain()
            for _ in range(8):
                U = random_compact_open(g, rng)
                img = pw.act_set(U)
                for x in pts:
                    if reference_contains(U, x) and reference_contains(dom, x):
                        assert reference_contains(img, pw.act_point(x))
                for y in pts:
                    if reference_contains(img, y):
                        back = pw.inverse().act_point(y)
                        assert reference_contains(U, back) and reference_contains(dom, back)


def test_admissible_words_frozen_g1():
    g = corpus.g1()
    ws = admissible_words(g, 2)
    assert [str(w) for w in ws] == ["1", "a^-1", "a", "a^-1.a^-1", "a.a"]


def test_admissible_words_count_g2():
    ws = admissible_words(corpus.g2(), 2)
    assert len(ws) == 15
    assert len(set(map(str, ws))) == 15


def reference_admissible_words(g, bound):
    """admissible_words as first written: every pair of paths_up_to(bound),
    each word built by full reduction."""
    paths = g.paths_up_to(bound)
    words = {ReducedWord()}
    for alpha in paths:
        for beta in paths:
            if len(alpha) + len(beta) > bound:
                continue
            if alpha.source_vertex != beta.source_vertex:
                continue
            if alpha.instances and beta.instances \
                    and alpha.instances[-1] == beta.instances[-1]:
                continue
            words.add(ReducedWord([(i, 1) for i in alpha.instances]
                                  + [(i, -1) for i in reversed(beta.instances)]))
    return sorted(words, key=ReducedWord.sort_key)


@pytest.mark.parametrize("name, bound, count", [("g1", 250, 501), ("g2", 6, 511),
                                                ("g3", 3, 3), ("g4", 40, 161)])
def test_admissible_words_match_all_pairs_at_germ_bounds(name, bound, count):
    # the four graphs and word bounds of the germ checks of criterion 1
    g = corpus.by_name(name)
    ws = admissible_words(g, bound)
    assert len(ws) == count
    assert ws == reference_admissible_words(g, bound)


def reference_absorb(pre, cyc):
    """_absorb as first written: one letter at a time."""
    while pre and pre[-1] == cyc[-1]:
        pre = pre[:-1]
        cyc = cyc[-1:] + cyc[:-1]
    return pre, cyc


@pytest.mark.parametrize("pre, cyc, want", [
    # several full periods and two letters more: the cycle turns by 8 mod 3
    (tuple("qyzxyzxyz"), tuple("xyz"), (tuple("q"), tuple("yzx"))),
    # an exact whole number of periods: the cycle does not turn
    (tuple("qxyzxyzxyz"), tuple("xyz"), (tuple("q"), tuple("xyz"))),
    # the whole prefix is absorbed
    (tuple("yzxyz"), tuple("xyz"), ((), tuple("yzx"))),
    # a cycle of length 1
    (("q",) + ("a",) * 250, ("a",), (("q",), ("a",))),
    (("a",) * 250, ("a",), ((), ("a",))),
    # nothing to absorb
    (tuple("xyzq"), tuple("xyz"), (tuple("xyzq"), tuple("xyz"))),
    ((), tuple("xyz"), ((), tuple("xyz"))),
])
def test_absorb_counts_the_letters_once(pre, cyc, want):
    assert _absorb(pre, cyc) == want == reference_absorb(pre, cyc)


@pytest.mark.parametrize("name, point, k, alpha, want", [
    # k = 0: alpha goes in front, absorbed when it ends like the cycle
    ("g2", "(a.b)^inf", 0, ("a",), "a.(a.b)^inf"),
    ("g2", "(a.b)^inf", 0, ("b",), "(b.a)^inf"),
    # k inside the prefix: one slice, no absorb possible
    ("g2", "b.b.(a)^inf", 1, ("a",), "a.b.(a)^inf"),
    # k = len(prefix): the new prefix is alpha, absorbed when it ends in a
    ("g2", "b.(a)^inf", 1, ("a",), "(a)^inf"),
    ("g2", "b.(a)^inf", 1, ("b",), "b.(a)^inf"),
    ("g2", "b.(a)^inf", 1, ("v",), "(a)^inf"),
    # k inside the cycle: it turns by k - len(prefix), not by k
    ("g2", "a.(a.b.b)^inf", 3, ("v",), "(b.a.b)^inf"),
    ("g2", "a.(a.b.b)^inf", 3, ("b",), "(b.b.a)^inf"),
    # k past the prefix by an exact number of periods: no turn
    ("g2", "a.(a.b.b)^inf", 7, ("v",), "(a.b.b)^inf"),
    ("g2", "a.(a.b.b)^inf", 7, ("b",), "(b.a.b)^inf"),
    # finite points
    ("g3", "e", 1, ("w",), "w"),
    ("g3", "w", 0, ("e",), "e"),
    ("g4", "a.c", 1, ("a", "a"), "a.a.c"),
    ("g4", "a.c", 2, ("c",), "c"),
])
def test_rehead_hand_cases(name, point, k, alpha, want):
    """act_point, the one re-heading kernel, on a map whose beta is the
    point's own head of k letters."""
    g = corpus.by_name(name)
    x, alpha = parse_point(g, point), g.path_of(*alpha)
    y = PartialWord(g, alpha, x.head(k)).act_point(x)
    assert point_str(y) == want
    assert y == reference_prepend(x.shift(k), alpha)
    assert_validated(y)


def test_long_word_acts_on_a_one_letter_cycle():
    g = corpus.g1()
    x = parse_point(g, "(a)^inf")
    a250 = parse_word(".".join(["a"] * 250))
    for word in (a250, a250.inverse()):
        assert PartialWord.from_word(g, word).act_point(x) == x


# lengths of alpha: every one up to 20, then next to each power of two up
# to 256, where _absorb's galloping search steps
LONG_ALPHAS = sorted(set(range(1, 21)) | {2 ** i + d for i in range(5, 9) for d in (-1, 0, 1)}
                     | {300})


@pytest.mark.parametrize("name, point", [
    ("g2", "(a.b)^inf"), ("g2", "(a.a.b)^inf"), ("g2", "b.(a.a.b.b)^inf"),
    ("g2", "(a.b.a.b.b)^inf"), ("p3", "c.(p1.p2)^inf"), ("p3", "(p1.p1.p2)^inf"),
    ("p3", "d.(q1.q2.q2.q1.q2)^inf"),
])
def test_long_words_act_on_short_cycles(name, point):
    """alpha.beta^-1 on x = beta.y, y periodic with no prefix, where alpha is
    up to 300 letters of turns of y's cycle, so that alpha.y absorbs all of
    alpha, or all but one letter that does not read the cycle."""
    g = corpus.by_name(name)
    x = parse_point(g, point)
    for kb in range(len(x.prefix), len(x.prefix) + len(x.cycle) + 1):
        beta, y = x.head(kb), x.shift(kb)
        c = len(y.cycle)
        for length in LONG_ALPHAS:
            j = -length % c
            turned = y.cycle[j:] + y.cycle[:j]
            turns = (turned * (length // c + 1))[:length]
            stops = [EdgeInstance(e.eid, 0) for e in sorted(g.edges.values())
                     if e.source_vertex == g.r_of(turns[0]) and e.eid != turned[-1].edge]
            for front in [()] + [(i,) for i in stops[:1]]:
                alpha = g.make_path(front + turns)
                got = PartialWord.from_word(g, ReducedWord.from_pair(alpha, beta)).act_point(x)
                assert got == reference_prepend(y, alpha), (kb, length, front)
                assert (got.prefix, got.cycle) == reference_absorb(alpha.instances, y.cycle)
                assert (got.prefix, got.cycle) == (front, turned)
                assert_validated(got)


# ---------------------------------------------------------------- isotropy

def test_isotropy_of_pure_cycle():
    g = corpus.g2()
    x = parse_point(g, "(a)^inf")
    got = isotropy_words(x, 2)
    assert {str(w) for w in got} == {"a", "a^-1", "a.a", "a^-1.a^-1"}
    assert len(isotropy_words(x, 4)[0]) == 1


def test_isotropy_shifted_cycle_needs_conjugation_length():
    g = corpus.g2()
    x = parse_point(g, "b.(a)^inf")
    assert isotropy_words(x, 2) == []
    got = isotropy_words(x, 3)
    assert {str(w) for w in got} == {"b.a.b^-1", "b.a^-1.b^-1"}
    assert len(isotropy_words(x, 6)[0]) == 3


def test_isotropy_matches_canonical_length_formula():
    g = corpus.g2()
    cases = [
        ("(a)^inf", 1),
        ("(a.b)^inf", 2),
        ("b.(a)^inf", 3),
        ("a.b.(a.b)^inf", 2),          # collapses to (a.b)^inf
        ("b.b.(a)^inf", 5),
    ]
    for text, ln in cases:
        x = parse_point(g, text)
        p, c = x.prefix, x.cycle
        expect = len(c) if not p else 2 * len(p) + len(c)
        assert expect == ln
        assert len(isotropy_words(x, ln + 2)[0]) == ln
        assert isotropy_words(x, ln - 1) == []


def test_finite_points_have_no_isotropy():
    g3 = corpus.g3()
    for text in ["w", "e"]:
        assert isotropy_words(parse_point(g3, text), 8) == []
    g5 = corpus.g5()
    assert isotropy_words(parse_point(g5, "f[2]"), 8) == []


def test_isotropy_brute_force_agreement():
    # every admissible word is tried directly against the prefix-pruned search
    g = corpus.g2()
    for text in ["(a)^inf", "b.(a)^inf", "(a.b)^inf"]:
        x = parse_point(g, text)
        brute = set()
        for w in admissible_words(g, 4):
            if w.is_identity:
                continue
            pw = PartialWord.from_word(g, w)
            if pw.is_empty_map or not x.startswith(pw.beta):
                continue
            if pw.act_point(x) == x:
                brute.add(w)
        assert brute == set(isotropy_words(x, 4))


def reference_isotropy_scan(x, bound):
    """isotropy_words as the quadratic scan first wrote it: every pair (i, j)
    with i + j <= bound, both at least len(prefix), kept when the cycle
    length divides j - i."""
    if x.is_finite:
        return []
    start, period = len(x.prefix), len(x.cycle)
    found = {ReducedWord.from_pair(x.head(i), x.head(j))
             for i in range(start, bound + 1)
             for j in range(start, bound - i + 1)
             if i != j and (j - i) % period == 0}
    return sorted(found, key=ReducedWord.sort_key)


def test_isotropy_words_match_the_quadratic_scan():
    """Stepping j by the cycle length gives the quadratic scan's list on the
    probe points of the corpus and of random graphs with infinite families,
    at bounds 0-10."""
    rng = random.Random(5)
    graphs = [corpus.by_name(n) for n in sorted(corpus.BUILDERS)]
    while len(graphs) < 20:
        g = corpus.random_graph(rng, 3, allow_infinite=True)
        if any(e.multiplicity == INFINITE for e in g.edges.values()):
            graphs.append(g)
    cases = 0
    for g in graphs:
        for x in probe_points(g, 2):
            for bound in range(11):
                assert isotropy_words(x, bound) == reference_isotropy_scan(x, bound), (
                    point_str(x), bound)
                cases += 1
    assert cases > 5000


# ------------------------------------------------------- partial action axioms

@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4"])
def test_partial_action_axioms_small(name):
    rep = verify_partial_action(corpus.by_name(name), word_len=2)
    assert rep["failures"] == []
    assert rep["pairs"] > 0


def test_partial_action_axioms_with_copies():
    rep = verify_partial_action(corpus.g5(), word_len=2)
    assert rep["failures"] == []


def sample_points(g, U):
    """A sample point of each part of U, repeats dropped, in order."""
    out = []
    for part in U.parts:
        x = sample_point(g, part)
        if x is not None and x not in out:
            out.append(x)
    return out


def reference_partial_action(g, word_len=3):
    """verify_partial_action as first written: every map, domain, image and
    product word rebuilt for each of the N^2 pairs, empty D included."""
    words = reduced_words(g, word_len)
    maps = {w: PartialWord.from_word(g, w) for w in words}

    report = {"words": len(words), "pairs": 0, "failures": []}
    ident = maps[ReducedWord()]
    if not ident.is_identity or ident.domain() != CompactOpen.whole(g):
        report["failures"].append(("identity", ReducedWord()))
    for w, pw in maps.items():
        dom = pw.domain()
        back = pw.inverse().act_set(pw.act_set(dom))
        if back != dom:
            report["failures"].append(("inverse", w))
    for u in words:
        for w in words:
            pu, pw = maps[u], maps[w]
            im_w = pw.act_set(pw.domain())
            mid = im_w.intersect(pu.domain())
            D = pw.inverse().act_set(mid)
            puw = PartialWord.from_word(g, u * w)
            report["pairs"] += 1
            if not D.difference(puw.domain()).is_empty:
                report["failures"].append(("domain", u, w))
                continue
            left = pu.act_set(pw.act_set(D))
            right = puw.act_set(D)
            if left != right:
                report["failures"].append(("composition", u, w))
                continue
            for x in sample_points(g, D):
                if pu.act_point(pw.act_point(x)) != puw.act_point(x):
                    report["failures"].append(("pointwise", u, w, x))
    return report


@pytest.mark.parametrize("name,word_len", [
    *[(n, 3) for n in ("g1", "g2", "g3", "g4")],
    *[(n, 2) for n in sorted(corpus.BUILDERS) if n != "p3"],  # p3 alone takes ~1 s
])
def test_partial_action_report_matches_reference(name, word_len):
    g = corpus.by_name(name)
    assert verify_partial_action(g, word_len) == reference_partial_action(g, word_len)


def test_partial_action_report_matches_reference_random():
    """The partner rows visit every pair whose meet is non-empty, in the
    order of the full product, on the first ten random graphs with 5 to 101
    words (the reference builds all N^2 pairs), three of them with an
    infinite family."""
    checked = infinite = 0
    for seed in range(20):
        g = corpus.random_graph(random.Random(seed), 3, allow_infinite=True)
        if checked == 10 or not 5 <= len(reduced_words(g, 2)) <= 101:
            continue
        checked += 1
        infinite += any(e.multiplicity == INFINITE for e in g.edges.values())
        assert verify_partial_action(g, 2) == reference_partial_action(g, 2), seed
    assert (checked, infinite) == (10, 3)


@pytest.mark.parametrize("method,spoil,kinds", [
    # act_set loses the first cylinder of a nonempty result
    ("act_set", lambda U: CompactOpen(U.graph, U.parts[1:]), {"domain", "composition"}),
    # act_point keeps three instances, deep enough to stay in every domain
    # a word of length 2 has, then runs round a.b instead
    ("act_point", lambda y: BoundaryPoint.periodic(
        y.graph, y.head(3), y.graph.path_of("a", "b")), {"pointwise"}),
])
def test_partial_action_reports_a_broken_map(monkeypatch, method, spoil, kinds):
    g = corpus.g2()
    target = parse_word("a.b^-1")
    real = getattr(PartialWord, method)

    def broken(self, arg):  # spoil the results of target's maps only
        out = real(self, arg)
        return spoil(out) if self.word() == target else out

    monkeypatch.setattr(PartialWord, method, broken)
    rep = verify_partial_action(g, word_len=2)
    assert {f[0] for f in rep["failures"]} & kinds, rep["failures"]
    assert rep == reference_partial_action(g, word_len=2)


def test_partial_action_reports_points_leaving_a_domain(monkeypatch):
    """A point map that leaves the domain of the next map is a pointwise
    failure; no DomainError escapes the check."""
    g = corpus.g2()
    targets = {parse_word("a.b^-1"), parse_word("b.a^-1")}
    real = PartialWord.act_point

    def broken(self, x):
        y = real(self, x)
        return y.shift(1) if self.word() in targets else y

    monkeypatch.setattr(PartialWord, "act_point", broken)
    rep = verify_partial_action(g, word_len=2)
    assert rep["failures"] and {f[0] for f in rep["failures"]} == {"pointwise"}


# ------------------------------------------------------- topological freeness

def test_tf_report_entryless_loop():
    g = corpus.g1()
    rep = topological_freeness_report(g)
    assert rep["free"] is False
    assert str(rep["fixed_word"]) == "a"
    assert point_str(rep["fixed_point"]) == "(a)^inf"
    assert rep["fixed_open_stem"] == g.vertex_path("v")


def test_tf_report_free_cases():
    for name in ["g2", "g3", "g4", "g5", "g7", "p3"]:
        g = corpus.by_name(name)
        rep = topological_freeness_report(g, word_bound=6, stem_depth=2)
        assert rep["free"] is True, name
        assert rep["verified"] is True, name
        for wit in rep["witnesses"]:
            assert wit["point"].startswith(wit["stem"])
            assert wit["isotropy_words_up_to_bound"] == []


def test_tf_report_at_word_bound_20000():
    """Each witness cycle is pumped past the bound, so isotropy_words takes
    one step per i: g2 at word bound 20,000 verifies at once (the quadratic
    scan did not end within 20 s)."""
    rep = topological_freeness_report(corpus.g2(), word_bound=20000)
    assert rep["verified"] is True and rep["word_bound"] == 20000
    assert all(len(w["point"].cycle) > 20000 for w in rep["witnesses"])


def reference_freeness_report(g, word_bound=8, stem_depth=2):
    """topological_freeness_report as first written: every stem searches
    for its own tail, with a shortest_path call each."""
    l_holds, cyc = condition_l(g)
    if not l_holds:
        base = cyc.range_vertex
        x = BoundaryPoint.periodic(g, g.vertex_path(base), cyc)
        word = ReducedWord.from_path(cyc)
        pw = PartialWord.from_word(g, word)
        if (any(g.receiver_count(g.r_of(inst)) != 1 for inst in cyc.instances)
                or pw.act_point(x) != x):
            raise GraphError(f"the entry-less loop at {base} does not fix its point")
        return {
            "free": False,
            "entryless_loop": cyc,
            "fixed_word": word,
            "fixed_open_stem": g.vertex_path(base),
            "fixed_point": x,
        }
    witnesses = []
    for stem in g.paths_up_to(stem_depth):
        v = stem.source_vertex
        down = sorted(g.downstream(v))
        x = None
        for w in down:
            if g.is_singular(w):
                rho = g.shortest_path(v, w)
                x = BoundaryPoint.finite(g, g.concat(stem, rho))
                break
        if x is None:
            for y in down:
                loops = first_return_profile(g, y)
                if len(loops) == 2:
                    la, lb = loops
                    m = word_bound // len(la) + 1
                    c = g.trusted_path(la.instances * m + lb.instances)
                    rho = g.shortest_path(v, y)
                    x = BoundaryPoint.periodic(g, g.concat(stem, rho), c)
                    break
        if x is None:
            raise GraphError(
                f"no aperiodic point reachable from {v} although every loop has an entry")
        witnesses.append({
            "stem": stem,
            "point": x,
            "isotropy_words_up_to_bound": isotropy_words(x, word_bound),
        })
    return {
        "free": True,
        "verified": all(not w["isotropy_words_up_to_bound"] for w in witnesses),
        "word_bound": word_bound,
        "witnesses": witnesses,
    }


def freeness_outcomes(g, *bounds):
    """The report and the reference report, each a dict or the type and
    message of the GraphError it raised."""
    out = []
    for report in (topological_freeness_report, reference_freeness_report):
        try:
            out.append(report(g, *bounds))
        except GraphError as e:
            out.append((type(e), str(e)))
    return out


def test_tf_report_matches_reference(corpus_graph):
    _, g = corpus_graph
    for bounds in ((), (6, 2), (5, 3)):
        new, ref = freeness_outcomes(g, *bounds)
        assert new == ref, bounds


@pytest.mark.parametrize("seed", range(60))
def test_tf_report_matches_reference_random(seed):
    g = corpus.random_graph(random.Random(seed), 5, allow_infinite=True)
    new, ref = freeness_outcomes(g, 6, 2)
    assert new == ref


def test_condition_l_gives_every_vertex_an_aperiodic_tail():
    """_aperiodic_tail's claim, checked on its own terms: where every loop
    has an entry, every vertex has downstream a singular vertex or a vertex
    with two first-return loops, so the tail search never comes back empty."""
    held = 0
    for seed in range(300):
        g = corpus.random_graph(random.Random(seed), 5, allow_infinite=True)
        if not condition_l(g)[0]:
            continue
        held += 1
        for v in g.vertices:
            assert any(g.is_singular(w) or len(first_return_profile(g, w)) == 2
                       for w in g.downstream(v)), (seed, v)
            rho, _ = boundary._aperiodic_tail(g, v, 6)
            assert rho.range_vertex == v
    assert held > 100


def test_tf_report_matches_condition_l_random():
    from gforge.graph import condition_l
    rng = random.Random(606)
    for _ in range(12):
        g = corpus.random_graph(rng, max_vertices=4, allow_infinite=True)
        rep = topological_freeness_report(g, word_bound=5, stem_depth=1)
        assert rep["free"] == condition_l(g)[0]
        if rep["free"]:
            assert rep["verified"]
