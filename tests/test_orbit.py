import random

import pytest

from gforge import corpus
from gforge.boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    DomainError,
    PartialWord,
    StemIndex,
    parse_point,
    point_str,
    probe_points,
    sample_point,
    set_str,
)
from gforge.boundary import _absorb
from gforge.graph import CompositionError, GraphError, Path
from gforge.orbit import (
    Cocycle,
    OEData,
    OrbitError,
    PrefixHomeo,
    cocycles_agree,
    coe_check,
    coe_to_oe,
    identity_cocycle,
    oe_agree,
    oe_check,
    oe_to_coe,
    swap_cocycle_parallel_pair,
    swap_cocycle_two_loops,
    swap_homeo,
)
from gforge.orbit import _extensions
from gforge.words import ReducedWord, parse_word


def inverse_homeo(h):
    """The prefix substitution with every rule (mu, nu) turned round."""
    return PrefixHomeo(h.target_graph, h.source_graph,
                       [(nu, mu) for mu, nu in h.rules])


def reference_prepend(x, alpha):
    """alpha.x, as BoundaryPoint.prepend first built it: alpha goes in front
    of the prefix, and a prefix that then ends in the cycle's last instance
    is absorbed into a rotation of the cycle.  With shift it is the oracle
    for act_point."""
    if alpha.source_vertex != x.range_vertex:
        raise CompositionError(
            f"cannot append path with range {x.range_vertex} "
            f"at source {alpha.source_vertex}")
    pre, cyc = alpha.instances + x.prefix, x.cycle
    if cyc is not None:
        pre, cyc = _absorb(pre, cyc)
    return BoundaryPoint(x.graph, alpha.range_vertex, pre, cyc)


def reference_instance_at(x, i):
    """Instance i of x, read from the prefix or indexed into the cycle (the
    former BoundaryPoint.instance_at)."""
    pre, cyc = x.prefix, x.cycle
    if 0 <= i < len(pre):
        return pre[i]
    if i < 0 or cyc is None:
        raise BoundaryError(f"{point_str(x)} has no first {i + 1} instances")
    return cyc[(i - len(pre)) % len(cyc)]


def reference_cyl_contains(c, x):
    """x lies in the cylinder c (the former boundary.cyl_contains)."""
    if not x.startswith(c.stem):
        return False
    n = len(c.stem.instances)
    if x.cycle is None and len(x.prefix) == n:
        return True
    return reference_instance_at(x, n) not in c.excl


def reference_contains(U, x):
    """x lies in the compact open U (the former CompactOpen.__contains__)."""
    return any(reference_cyl_contains(p, x) for p in U.parts)


def reference_union(A, B):
    """The union of two compact opens (the former CompactOpen.union, as
    first written: every result through the normalising constructor)."""
    return CompactOpen(A.graph, A.parts + B.parts)


def reference_apply(h, x):
    """PrefixHomeo.apply as first written: shift x past the rule's mu, read
    the tail as a point of the target graph, prepend nu."""
    for mu, nu in h.rules:
        if x.startswith(mu):
            tail = x.shift(len(mu))
            return reference_prepend(BoundaryPoint(h.target_graph, nu.source_vertex,
                                                   tail.prefix, tail.cycle), nu)
    raise OrbitError(f"{point_str(x)} escapes the rule partition")


def assert_apply_matches_reference(h, points):
    for x in points:
        y = h.apply(x)
        assert y == reference_apply(h, x) and y.graph is h.target_graph, x


def two_level_homeo(g2):
    """A homeo of g2 whose rule stems have lengths 1 and 2."""
    aa, ab, b = g2.path_of("a", "a"), g2.path_of("a", "b"), g2.path_of("b")
    return PrefixHomeo(g2, g2, [(aa, b), (ab, aa), (b, ab)])


def test_apply_matches_reference(corpus_graph):
    name, g = corpus_graph
    homeos = [PrefixHomeo.identity(g)]
    if name == "g2":
        deep = two_level_homeo(g)
        homeos += [swap_homeo(g), deep, inverse_homeo(deep)]
    if name == "p2":
        homeos.append(swap_homeo(g, "f", "g"))
    for h in homeos:
        assert_apply_matches_reference(h, probe_points(g, 4))


def test_identity_homeo_fixes_points():
    for name in ["g2", "g3", "g4", "g5"]:
        g = corpus.by_name(name)
        h = PrefixHomeo.identity(g)
        for x in probe_points(g, 3):
            assert h.apply(x) == x


def test_swap_homeo_hand_values():
    g = corpus.g2()
    h = swap_homeo(g)
    assert point_str(h.apply(parse_point(g, "(a)^inf"))) == "b.(a)^inf"
    assert point_str(h.apply(parse_point(g, "b.(a)^inf"))) == "(a)^inf"
    assert point_str(h.apply(parse_point(g, "(b.a)^inf"))) == "a.(a.b)^inf"
    hh = inverse_homeo(h)
    for x in probe_points(g, 3):
        assert hh.apply(h.apply(x)) == x


def test_homeo_rejects_bad_partitions():
    g = corpus.g2()
    with pytest.raises(OrbitError):
        # covers Z(a) twice, misses Z(b)
        PrefixHomeo(g, g, [(g.path_of("a"), g.path_of("a")),
                           (g.path_of("a"), g.path_of("b"))])
    with pytest.raises(OrbitError):
        PrefixHomeo(g, g, [(g.path_of("a"), g.path_of("a"))])
    g4 = corpus.g4()
    with pytest.raises(OrbitError):
        # tails at v and w look different: v has receivers, w has none
        PrefixHomeo(g4, g4, [(g4.vertex_path("v"), g4.path_of("c")),
                             (g4.path_of("c"), g4.vertex_path("v"))])


def test_swap_homeo_on_parallel_pair():
    g = corpus.p2()
    h = swap_homeo(g, "f", "g")
    assert point_str(h.apply(parse_point(g, "f"))) == "g"
    assert point_str(h.apply(parse_point(g, "g"))) == "f"
    assert point_str(h.apply(parse_point(g, "w"))) == "w"


def test_identity_cocycle_checks_clean():
    for name in ["g2", "g3", "g4", "p2", "p3"]:
        g = corpus.by_name(name)
        coc = identity_cocycle(g)
        rep = coe_check(coc, depth=3)
        assert rep["failures"] == [], name
        assert rep["checked"] > 0 or name == "g3"


def test_coe_check_reports_piece_outside_domain():
    # a^-1 acts on Z(a) only; a piece on all of Z(v) must be reported,
    # and its points outside Z(a) must not be pushed through a^-1
    g = corpus.g2()
    coc = identity_cocycle(g)
    gen = parse_word("a^-1")
    row = [(Cylinder(g.vertex_path("v"), frozenset()), gen)]
    with pytest.raises(TypeError):
        coc.table[gen] = row        # the rows, and so their indices, are fixed
    with pytest.raises(TypeError):
        coc.index[gen] = coc.index[parse_word("a")]
    coc = Cocycle(coc.homeo, {**coc.table, gen: row})
    rep = coe_check(coc, depth=2)
    assert rep["failures"] == [("a^-1", "piece outside domain"),
                               ("a^-1", "pieces do not cover domain")]
    assert rep["checked"] == coe_check(identity_cocycle(g), depth=2)["checked"]


def test_identity_cocycle_refuses_infinite_multiplicity():
    with pytest.raises(GraphError):
        identity_cocycle(corpus.g5())


def test_swap_cocycle_two_loops_checks_clean():
    g = corpus.g2()
    coc = swap_cocycle_two_loops(g)
    rep = coe_check(coc, depth=3)
    assert rep["failures"] == []
    assert rep["generators"] == 4 and rep["pieces"] == 8
    assert rep["checked"] > 50


def test_swap_cocycle_value_spot_check():
    g = corpus.g2()
    coc = swap_cocycle_two_loops(g)
    gen = parse_word("a^-1")
    table = dict((c.stem, v) for c, v in coc.table[gen])
    assert str(table[g.path_of("a", "a")]) == "b.a^-1.b^-1"
    assert str(table[g.path_of("a", "b")]) == "a.b^-1.b^-1"


def test_swap_cocycle_parallel_pair_checks_clean():
    rep = coe_check(swap_cocycle_parallel_pair(corpus.p2()), depth=3)
    assert rep["failures"] == []


def test_identity_oe_data():
    g = corpus.g2()
    oe = coe_to_oe(identity_cocycle(g))
    assert sorted((point_str_cyl(g, c), k, l) for c, k, l in oe.pieces) == [
        ("Z(a)", 0, 1), ("Z(b)", 0, 1)]
    rep = oe_check(oe, depth=3)
    assert rep["failures"] == [] and rep["checked"] > 0


def point_str_cyl(g, c):
    return set_str(CompactOpen(g, [c]))


def test_swap_oe_data_two_loops():
    g = corpus.g2()
    oe = coe_to_oe(swap_cocycle_two_loops(g))
    ks = {(point_str_cyl(g, c), k, l) for c, k, l in oe.pieces}
    assert ks == {("Z(a.a)", 1, 2), ("Z(a.b)", 1, 2),
                  ("Z(b.a)", 1, 2), ("Z(b.b)", 1, 2)}
    assert oe_check(oe, depth=3)["failures"] == []


def test_parallel_pair_oe_has_sink_piece():
    g = corpus.p2()
    oe = coe_to_oe(swap_cocycle_parallel_pair(g))
    ks = {(point_str_cyl(g, c), k, l) for c, k, l in oe.pieces}
    assert ks == {("Z(f)", 0, 1), ("Z(g)", 0, 1), ("Z(w)", 0, 0)}
    rep = oe_check(oe, depth=3)
    assert rep["failures"] == []
    assert rep["skips"] > 0          # the sink point has no shift


def test_oe_lookup_escape():
    g = corpus.g2()
    oe = OEData(PrefixHomeo.identity(g),
                [(Cylinder(g.path_of("a"), frozenset()), 0, 1)])
    x = parse_point(g, "(b)^inf")
    with pytest.raises(OrbitError, match="escapes the piece partition"):
        reference_lookup(oe, x)
    # oe_agree reads each point's first piece and refuses a point with none
    with pytest.raises(OrbitError, match=r"^\(b\)\^inf escapes the piece partition$"):
        oe_agree(oe, oe, 1)
    assert any(f == ("partition", point_str(x)) for f in oe_check(oe, 2)["failures"])


OE_EXAMPLES = [
    lambda: identity_cocycle(corpus.g2()),
    lambda: swap_cocycle_two_loops(corpus.g2()),
    lambda: swap_cocycle_parallel_pair(corpus.p2()),
]


@pytest.mark.parametrize("make", OE_EXAMPLES)
def test_coe_oe_roundtrip(make):
    coc = make()
    oe = coe_to_oe(coc)
    back = oe_to_coe(oe)
    assert coe_check(back, depth=3)["failures"] == []
    assert cocycles_agree(coc, back, depth=3)
    oe2 = coe_to_oe(back)
    assert oe_check(oe2, depth=3)["failures"] == []
    assert oe_agree(oe, oe2, depth=3)


def test_rebuilt_cocycle_values_match_on_pieces():
    g = corpus.g2()
    back = oe_to_coe(coe_to_oe(swap_cocycle_two_loops(g)))
    gen = parse_word("a^-1")
    for piece, value in back.table[gen]:
        assert piece.stem.instances[0] == g.path_of("a").instances[0]
        # every refined piece under Z(a.a) carries the same value word
        if piece.stem.startswith(g.path_of("a", "a")):
            assert str(value) == "b.a^-1.b^-1"


def test_cocycles_agree_detects_difference():
    g = corpus.g2()
    assert not cocycles_agree(identity_cocycle(g),
                              swap_cocycle_two_loops(g), depth=2)


def test_cocycle_value_takes_the_first_piece_that_holds_the_point():
    g = corpus.g2()
    homeo = PrefixHomeo.identity(g)
    a, b = parse_word("a"), parse_word("b")
    za = Cylinder(g.path_of("a"), frozenset())
    zaa = Cylinder(g.path_of("a", "a"), frozenset())
    x = parse_point(g, "a.a.(b)^inf")
    # the row's pieces overlap on Z(a.a), so the order decides
    first_a = Cocycle(homeo, {a: [(za, a), (zaa, b)]})
    first_b = Cocycle(homeo, {a: [(zaa, b), (za, a)]})
    assert reference_value(first_a, a, x) == a
    assert reference_value(first_b, a, x) == b
    coc = Cocycle(homeo, {a: [(zaa, b)]})
    assert reference_value(coc, a, parse_point(g, "a.(b)^inf")) is None  # off the row
    assert reference_value(coc, b, x) is None                            # no row at all
    # cocycles_agree reads the same first pieces: a and b act apart on Z(a.a),
    # and a row that misses a point only agrees with one that misses it too
    only_a = Cocycle(homeo, {a: [(za, a)]})
    for c1, c2, agree in ((first_a, only_a, True), (first_b, only_a, False),
                          (coc, only_a, False), (coc, coc, True)):
        for depth in range(4):     # depth 0 probes no point of g2
            assert cocycles_agree(c1, c2, depth) == (agree or depth == 0), (c1.table, depth)
            assert reference_cocycles_agree(c1, c2, depth) == (agree or depth == 0)


def test_cocycles_agree_verdicts_on_the_oe_examples():
    g = corpus.g2()
    swap = swap_cocycle_two_loops(g)
    rows = dict(swap.table)
    (za, va), (zb, vb) = rows[parse_word("a")]
    rows[parse_word("a")] = [(za, vb), (zb, va)]
    crossed = Cocycle(swap.homeo, rows)
    examples = [identity_cocycle(g), swap, swap_cocycle_parallel_pair(corpus.p2())]
    for depth in range(5):
        for coc in examples:
            back = oe_to_coe(coe_to_oe(coc))
            assert cocycles_agree(coc, back, depth)
            assert cocycles_agree(back, coc, depth)
            assert cocycles_agree(coc, coc, depth)
        # depth 0 probes no point of g2, so nothing can disagree there
        assert cocycles_agree(examples[0], swap, depth) == (depth == 0)
        assert cocycles_agree(swap, crossed, depth) == (depth == 0)
        assert cocycles_agree(crossed, swap, depth) == (depth == 0)


# ------------------------------------------- per-piece refinement and oracles

def global_oe_to_coe(oe):
    """The former oe_to_coe, kept as an oracle: every stem refined to one
    depth computed from all the data, 2R + (longest piece stem) + (largest
    shift) + 2, each refined stem's value read at its sample point."""
    homeo = oe.homeo
    gs = homeo.source_graph
    rule_len = max(len(mu) for mu, _ in homeo.rules)
    piece_len = max(len(c.stem) for c, _, _ in oe.pieces)
    step = max(max(k, l) for _, k, l in oe.pieces)
    table = {}
    for stem in gs.maximal_stems(2 * rule_len + piece_len + step + 2):
        if not stem.instances:
            continue
        x = sample_point(gs, Cylinder(stem, frozenset()))
        k, l = reference_lookup(oe, x)
        value = ReducedWord.from_pair(homeo.apply(x.shift(1)).head(k),
                                      homeo.apply(x).head(l))
        neg = ReducedWord(((stem.instances[0], 1),)).inverse()
        table.setdefault(neg, []).append((Cylinder(stem, frozenset()), value))
        table.setdefault(neg.inverse(), []).append(
            (Cylinder(gs.strip_prefix(stem, 1), frozenset()), value.inverse()))
    return Cocycle(homeo, table)


def reference_extensions(g, cyl, depth):
    """The former orbit._extensions, kept as an oracle: its own level by
    level search from the stem's source, the exclusions barring the first
    step only."""
    stem, excl = cyl
    if len(stem) >= depth:
        return [cyl]
    done, level = [], [stem]
    for _ in range(depth - len(stem)):
        nxt = []
        for mu in level:
            conts = g.continuations(mu.source_vertex)
            if not conts:
                done.append(mu)
            nxt += [Path(mu.range_vertex, g.s_of(inst), mu.instances + (inst,))
                    for inst in conts if inst not in excl]
        level, excl = nxt, ()
    return [Cylinder(mu, frozenset()) for mu in done + level]


def test_extensions_match_the_level_search():
    """_extensions, read off maximal_stems, gives the level search's list,
    order and source vertices included, on random finite graphs, for stems
    of length 0 and 1 with no exclusion or one, at depths 0-4."""
    rng = random.Random(3)
    cases = 0
    for _ in range(30):
        g = corpus.random_graph(rng, 4)
        for stem in g.paths_up_to(1):
            conts = g.continuations(stem.source_vertex)
            for excl in [()] + ([(rng.choice(conts),)] if conts else []):
                cyl = Cylinder(stem, frozenset(excl))
                for depth in range(5):
                    got, want = (_extensions(g, cyl, depth),
                                 reference_extensions(g, cyl, depth))
                    assert [(c, c.stem.source_vertex) for c in got] == [
                        (c, c.stem.source_vertex) for c in want], (cyl, depth)
                    cases += 1
    assert cases > 1000


def swap_oe_data(g, a, b):
    """The first-letter swap of the parallel single edges a and b, with
    closed-form shift data on the maximal stems of depth 2.

    Swapping the first letter of x and of x.shift(1) differs past the head
    only when the second letter of x is a or b: then one shift step on the
    image of x.shift(1) meets two on the image of x, (k, l) = (1, 2).
    Elsewhere (0, 1), and a vertex with no receivers, which no shift
    reaches, gets (0, 0).
    """
    swapped = {g.instance(a), g.instance(b)}
    pieces = []
    for stem in g.maximal_stems(2):
        if not stem.instances:
            kl = (0, 0)
        elif len(stem) == 2 and stem.instances[1] in swapped:
            kl = (1, 2)
        else:
            kl = (0, 1)
        pieces.append((Cylinder(stem, frozenset()), *kl))
    return OEData(swap_homeo(g, a, b), pieces)


def row_sizes(coc):
    return sum(len(row) for row in coc.table.values())


def test_per_piece_refinement_agrees_with_global_refinement():
    for make in OE_EXAMPLES:
        oe = coe_to_oe(make())
        new, old = oe_to_coe(oe), global_oe_to_coe(oe)
        assert row_sizes(new) <= row_sizes(old)
        for depth in range(5):
            assert cocycles_agree(new, old, depth)
            assert cocycles_agree(old, new, depth)


def round_trip_sizes(oe, rounds):
    """Piece counts along oe -> coe -> oe -> ..., and the last cocycle."""
    sizes = [len(oe.pieces)]
    for _ in range(rounds):
        coc = oe_to_coe(oe)
        oe = coe_to_oe(coc)
        sizes += [row_sizes(coc), len(oe.pieces)]
    return sizes, coc


def test_swap_g2_round_trip_reaches_a_fixed_piece_set():
    # the global refinement went 4 -> 512 -> 256 -> 32,768
    sizes, coc = round_trip_sizes(coe_to_oe(swap_cocycle_two_loops(corpus.g2())), 3)
    assert sizes == [4, 32, 16, 32, 16, 32, 16]
    assert coe_check(coc, 3)["failures"] == []


def test_random_graph_swap_round_trip_reaches_a_fixed_piece_set():
    # v3 receives the parallel pair e8, e9 from v2 and the loop e10; the
    # global refinement gave 14,248 pieces and did not finish a second round
    g = corpus.random_graph(random.Random(0), 4)
    oe = swap_oe_data(g, "e8", "e9")
    sizes, coc = round_trip_sizes(oe, 2)
    assert sizes == [len(g.maximal_stems(2)), 200, 100, 200, 100]
    rep = coe_check(coc, 3)
    assert rep["failures"] == [] and rep["checked"] > 0
    assert oe_agree(coe_to_oe(coc), oe, 4)


def test_refinement_keeps_exclusions_on_the_first_step():
    # the identity's rules have stems of length R = 0, so each piece needs
    # 1 + R + max(k, l) = 2 letters: Z(a.a.a - {a}) stays whole, exclusion
    # and all, Z(a - {a}) becomes Z(a.b), and Z(b) is cut into Z(b.a) and
    # Z(b.b)
    g = corpus.g2()
    a = g.instance("a")

    def z(*ids, excl=()):
        return Cylinder(g.path_of(*ids), frozenset(excl))
    pieces = [(z("a", "a", "a", excl=[a]), 0, 1), (z("a", "a", "a", "a"), 0, 1),
              (z("a", "a", "b"), 0, 1), (z("a", excl=[a]), 0, 1), (z("b"), 0, 1)]
    coc = oe_to_coe(OEData(PrefixHomeo.identity(g), pieces))
    a_inv, b_inv = parse_word("a^-1"), parse_word("b^-1")
    assert coc.table[a_inv] == (
        (z("a", "a", "a", excl=[a]), a_inv), (z("a", "a", "a", "a"), a_inv),
        (z("a", "a", "b"), a_inv), (z("a", "b"), a_inv))
    assert coc.table[b_inv] == ((z("b", "a"), b_inv), (z("b", "b"), b_inv))
    assert coe_check(coc, 4)["failures"] == []
    assert cocycles_agree(coc, identity_cocycle(g), 4)


def test_refinement_under_rule_stems_of_two_lengths():
    # on g2, a.a -> a, a.b -> b.a and b -> b.b: R = 2, and the shift data
    # was worked out by hand on the stems below
    g = corpus.g2()
    p = g.path_of
    homeo = PrefixHomeo(g, g, [(p("a", "a"), p("a")), (p("a", "b"), p("b", "a")),
                               (p("b"), p("b", "b"))])

    def z(*ids):
        return Cylinder(p(*ids), frozenset())
    oe = OEData(homeo, [(z("a", "a", "a"), 0, 1), (z("a", "a", "b"), 2, 2),
                        (z("a", "b"), 2, 2), (z("b", "a", "a"), 0, 3),
                        (z("b", "a", "b"), 2, 4), (z("b", "b"), 0, 1)])
    rep = oe_check(oe, 6)
    assert rep["failures"] == [] and rep["checked"] == 306
    sizes, coc = round_trip_sizes(oe, 2)
    assert sizes == [6, 84, 42, 84, 42]     # the global refinement: 16,384
    assert coe_check(coc, 4)["failures"] == []
    assert oe_agree(coe_to_oe(coc), oe, 5)


def test_oe_agree_compares_cocycle_values_not_shift_pairs():
    # the homeo and data of test_refinement_under_rule_stems_of_two_lengths,
    # with (1, 4) on Z(b.a.a) where that test has (0, 3): valid too, since
    # (k + 1, l + 1) holds wherever (k, l) does, but a round reads (0, 3)
    # back off the reduced value word
    g = corpus.g2()
    p = g.path_of
    homeo = PrefixHomeo(g, g, [(p("a", "a"), p("a")), (p("a", "b"), p("b", "a")),
                               (p("b"), p("b", "b"))])

    def z(*ids):
        return Cylinder(p(*ids), frozenset())

    def data(k, l):
        return OEData(homeo, [(z("a", "a", "a"), 0, 1), (z("a", "a", "b"), 2, 2),
                              (z("a", "b"), 2, 2), (z("b", "a", "a"), k, l),
                              (z("b", "a", "b"), 2, 4), (z("b", "b"), 0, 1)])
    oe = data(1, 4)
    rep = oe_check(oe, 6)
    assert rep["failures"] == [] and rep["checked"] == 306
    again = coe_to_oe(oe_to_coe(oe))
    x = sample_point(g, z("b", "a", "a"))
    assert reference_lookup(again, x) == (0, 3) != reference_lookup(oe, x)
    assert oe_agree(again, oe, 5) and oe_agree(oe, data(0, 3), 5)
    # a different value on the piece still disagrees
    assert not oe_agree(oe, data(1, 3), 5)


def test_oe_to_coe_refuses_overlapping_pieces():
    g = corpus.g2()
    oe = coe_to_oe(identity_cocycle(g))
    extra = (Cylinder(g.path_of("a", "b"), frozenset()), 0, 1)
    with pytest.raises(OrbitError, match="overlap"):
        oe_to_coe(OEData(oe.homeo, oe.pieces + (extra,)))
    assert oe_check(OEData(oe.homeo, oe.pieces + (extra,)), 2)["failures"][0] \
        == ("partition", "pieces overlap")


def test_oe_to_coe_refuses_a_gap():
    g = corpus.g2()
    oe = OEData(PrefixHomeo.identity(g),
                [(Cylinder(g.path_of("a"), frozenset()), 0, 1),
                 (Cylinder(g.path_of("b", "a"), frozenset()), 0, 1)])
    with pytest.raises(OrbitError, match="do not cover"):
        oe_to_coe(oe)


def test_coe_check_reports_overlap_in_place():
    # the overlap entry comes right after the overlapping piece's own
    # outside-domain entry, and the cover entry, for a union that is not
    # the domain, closes the row
    g = corpus.g2()
    coc = identity_cocycle(g)
    gen = parse_word("a^-1")
    za = Cylinder(g.path_of("a"), frozenset())
    zv = Cylinder(g.vertex_path("v"), frozenset())
    coc = Cocycle(coc.homeo, {**coc.table, gen: [(za, gen), (zv, gen)]})
    assert coe_check(coc, depth=2)["failures"] == [
        ("a^-1", "piece outside domain"), ("a^-1", "pieces overlap"),
        ("a^-1", "pieces do not cover domain")]


# ---------------------------------------- the stem index against the old scans

def reference_partition_faults(g, cylinders, whole):
    """How the cylinders fail to partition `whole`, as orbit.partition_faults
    first did it: the indices of those that meet an earlier one, in order,
    found by growing one CompactOpen piece by piece, and whether together
    they equal whole.  The oracle for StemIndex.overlaps and tiles."""
    covered = CompactOpen.empty(g)
    overlaps = []
    for i, c in enumerate(cylinders):
        pc = CompactOpen(g, [c])
        if not pc.intersect(covered).is_empty:
            overlaps.append(i)
        covered = reference_union(covered, pc)
    return overlaps, covered == whole


def reference_value(coc, gen, x):
    """The former Cocycle.value, as a linear scan of gen's row: the value of
    the first piece that holds x, or None."""
    for piece, value in coc.table.get(gen, ()):
        if reference_cyl_contains(piece, x):
            return value
    return None


def reference_lookup(oe, x):
    """The former OEData.lookup, as a linear scan of the pieces: the shift
    counts of the first piece that holds x."""
    for c, k, l in oe.pieces:
        if reference_cyl_contains(c, x):
            return k, l
    raise OrbitError(f"{point_str(x)} escapes the piece partition")


def outcome(f, *args):
    """f's result, or the message of the OrbitError it raises."""
    try:
        return f(*args)
    except OrbitError as exc:
        return str(exc)


def reference_cocycles_agree(c1, c2, depth=3):
    """cocycles_agree as it was before the probe index: each probe point
    scans each row on its own (reference_value) and finds its image by the
    rule scan (reference_apply)."""
    h1, h2 = c1.homeo, c2.homeo
    gs, gt = h1.source_graph, h1.target_graph
    pts = probe_points(gs, depth)
    images = [reference_apply(h1, x) for x in pts]
    if h2 is not h1 and any(reference_apply(h2, x) != fx for x, fx in zip(pts, images)):
        return False
    for gen in set(c1.table) | set(c2.table):
        if PartialWord.from_word(gs, gen).is_empty_map:
            return False
        for x, fx in zip(pts, images):
            v0, v1 = reference_value(c1, gen, x), reference_value(c2, gen, x)
            if (v0 is None) != (v1 is None):
                return False
            if v0 is None or v0 == v1:
                continue
            try:
                y0 = PartialWord.from_word(gt, v0).act_point(fx)
                y1 = PartialWord.from_word(gt, v1).act_point(fx)
            except DomainError:
                return False
            if y0 != y1:
                return False
    return True


def reference_oe_agree(o1, o2, depth=3):
    """oe_agree as it was before the probe index: each probe point scans
    each table on its own (reference_lookup, which raises for a point no
    piece holds) and finds its images by the rule scan (reference_apply)."""
    h1, h2 = o1.homeo, o2.homeo
    for x in probe_points(h1.source_graph, depth):
        if h2 is not h1 and reference_apply(h1, x) != reference_apply(h2, x):
            return False
        if x.is_finite and len(x) == 0:
            continue
        (k1, l1), (k2, l2) = reference_lookup(o1, x), reference_lookup(o2, x)
        if l1 - k1 != l2 - k2:
            return False
    return True


def assert_agreement_matches_reference(pairs, depth):
    """cocycles_agree or oe_agree on each pair gives the old verdict, or
    raises the same OrbitError; returns the verdicts."""
    verdicts = []
    for a, b in pairs:
        new, old = ((oe_agree, reference_oe_agree) if isinstance(a, OEData)
                    else (cocycles_agree, reference_cocycles_agree))
        verdict = outcome(new, a, b, depth)
        assert verdict == outcome(old, a, b, depth), (a, b, depth)
        verdicts.append(verdict)
    return verdicts


def reference_coe_check(coc, depth=3):
    """coe_check as first written: per piece, CompactOpen differences and
    a scan of every in-domain probe point, the homeo applied by the rule
    scan."""
    homeo = coc.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    rep = {"generators": 0, "pieces": 0, "checked": 0, "failures": []}
    pts = probe_points(gs, depth)
    for gen in coc.generators():
        rep["generators"] += 1
        pw = PartialWord.from_word(gs, gen)
        dom = pw.domain()
        in_dom = [x for x in pts if reference_contains(dom, x)]
        row = coc.table[gen]
        overlaps, covers = reference_partition_faults(
            gs, [piece for piece, _ in row], dom)
        for i, (piece, value) in enumerate(row):
            rep["pieces"] += 1
            pc = probed = CompactOpen(gs, [piece])
            if not pc.difference(dom).is_empty:
                rep["failures"].append((str(gen), "piece outside domain"))
                probed = pc.intersect(dom)
            if i in overlaps:
                rep["failures"].append((str(gen), "pieces overlap"))
            vw = PartialWord.from_word(gt, value)
            for x in in_dom:
                if not reference_contains(probed, x):
                    continue
                moved = reference_apply(homeo, pw.act_point(x))
                try:
                    matched = vw.act_point(reference_apply(homeo, x))
                except DomainError:
                    rep["failures"].append(
                        (str(gen), f"value undefined at {point_str(x)}"))
                    continue
                rep["checked"] += 1
                if moved != matched:
                    rep["failures"].append((str(gen), f"mismatch at {point_str(x)}"))
        if not covers:
            rep["failures"].append((str(gen), "pieces do not cover domain"))
    return rep


def reference_oe_check(oe, depth=3):
    """oe_check as first written, on reference_partition_faults,
    reference_lookup and the rule scan."""
    homeo = oe.homeo
    gs = homeo.source_graph
    rep = {"pieces": len(oe.pieces), "checked": 0, "skips": 0, "failures": []}
    overlaps, covers = reference_partition_faults(
        gs, [c for c, _, _ in oe.pieces], CompactOpen.whole(gs))
    rep["failures"] += [("partition", "pieces overlap")] * len(overlaps)
    if not covers:
        rep["failures"].append(("partition", "pieces do not cover"))
    for x in probe_points(gs, depth):
        try:
            k, l = reference_lookup(oe, x)
        except OrbitError:
            rep["failures"].append(("partition", point_str(x)))
            continue
        try:
            left = reference_apply(homeo, x.shift(1)).shift(k)
            right = reference_apply(homeo, x).shift(l)
        except BoundaryError:
            rep["skips"] += 1
            continue
        rep["checked"] += 1
        if left != right:
            rep["failures"].append((point_str(x), f"k={k} l={l}"))
    return rep


def assert_certificate_matches_reference(g, cylinders):
    """StemIndex's overlaps and tiles give reference_partition_faults'
    certificate for the whole space."""
    index = StemIndex(g, cylinders)
    assert (index.overlaps, index.tiles()) \
        == reference_partition_faults(g, cylinders, CompactOpen.whole(g)), cylinders


def faulty_rows(coc, gen):
    """gen's row with an outside piece put first, with a piece repeated, and
    with its last piece dropped: each a fault coe_check must place."""
    g = coc.homeo.source_graph
    row = coc.table[gen]
    top = Cylinder(g.vertex_path(row[0][0].stem.range_vertex), frozenset())
    return [((top, row[0][1]),) + row, row + row[:1], row[:-1]]


def assert_checks_match_reference(coc, depth):
    """coe_check and oe_check give the old checkers' reports, failures in
    the same order, on the cocycle, on its shift data and on faulty rows
    and pieces; oe_to_coe reads the same certificate as the oracle."""
    assert coe_check(coc, depth) == reference_coe_check(coc, depth)
    oe = coe_to_oe(coc)
    g = oe.homeo.source_graph
    pieces = list(oe.pieces)
    for faulty in (pieces, pieces + pieces[:1], pieces[1:], pieces[::-1]):
        data = OEData(oe.homeo, faulty)
        assert oe_check(data, depth) == reference_oe_check(data, depth)
        assert_certificate_matches_reference(g, [c for c, _, _ in faulty])
    gen = coc.generators()[-1]
    for row in faulty_rows(coc, gen):
        bad = Cocycle(coc.homeo, {**coc.table, gen: row})
        assert coe_check(bad, depth) == reference_coe_check(bad, depth)
        assert coe_check(bad, depth)["failures"]


@pytest.mark.parametrize("make", OE_EXAMPLES)
def test_checks_match_reference_on_the_oe_examples(make):
    coc = make()
    for depth in (2, 4):
        assert_checks_match_reference(coc, depth)
        assert_checks_match_reference(oe_to_coe(coe_to_oe(coc)), depth)


def mutated_cocycles(coc):
    """coc with, in its last generator's row, the first piece dropped, the
    first piece repeated at the end, and the first and last values
    swapped; a row of one piece swaps its value with the first
    generator's row."""
    gens = coc.generators()
    gen, other = gens[-1], gens[0]
    row = coc.table[gen]
    (p0, v0), (p1, v1) = row[0], row[-1]
    if len(row) > 1:
        swapped = {gen: ((p0, v1),) + row[1:-1] + ((p1, v0),)}
    else:
        (q, w), *rest = coc.table[other]
        swapped = {gen: ((p0, w),), other: ((q, v0), *rest)}
    return [Cocycle(coc.homeo, {**coc.table, **rows})
            for rows in ({gen: row[1:]}, {gen: row + row[:1]}, swapped)]


def mutated_data(oe):
    """oe with its first piece dropped, with it repeated at the end, and
    with its counts swapped with those of the last piece whose l - k
    differs, when one does."""
    pieces = list(oe.pieces)
    out = [pieces[1:], pieces + pieces[:1]]
    (c0, k0, l0) = pieces[0]
    for i in range(len(pieces) - 1, 0, -1):
        c, k, l = pieces[i]
        if l - k != l0 - k0:
            out.append([(c0, k, l)] + pieces[1:i] + [(c, k0, l0)] + pieces[i + 1:])
            break
    return [OEData(oe.homeo, p) for p in out]


@pytest.mark.parametrize("make", OE_EXAMPLES)
def test_agreement_matches_reference_on_the_oe_examples(make):
    coc = make()
    oe = coe_to_oe(coc)
    back = oe_to_coe(oe)
    again = coe_to_oe(back)
    pairs = [(coc, back), (back, coc), (oe, again), (again, oe)]
    pairs += [(coc, bad) for bad in mutated_cocycles(coc)]
    pairs += [(bad, back) for bad in mutated_cocycles(back)]
    pairs += [(oe, bad) for bad in mutated_data(oe)]
    pairs += [(bad, again) for bad in mutated_data(again)]
    for depth in (0, 1, 3, 6):
        verdicts = assert_agreement_matches_reference(pairs, depth)
        assert verdicts[:4] == [True] * 4
    # at depth 6 some mutant disagrees and some dropped piece leaves a gap
    assert False in verdicts and any(isinstance(v, str) for v in verdicts)


def test_checks_match_reference_where_no_rule_stem_heads_a_piece():
    # rule stems a.a, a.b and b under pieces Z(a), Z(b): the shift of a
    # point of Z(a) lies under no one rule stem, nor does a point moved by
    # a^-1, so the checks find each moved point's rule through apply
    g = corpus.g2()
    ident = identity_cocycle(g)
    for homeo in (two_level_homeo(g), inverse_homeo(two_level_homeo(g))):
        coc = Cocycle(homeo, ident.table)
        oe = OEData(homeo, coe_to_oe(ident).pieces)
        for depth in (2, 4):
            rep = coe_check(coc, depth)
            assert rep == reference_coe_check(coc, depth)
            assert rep["checked"] and rep["failures"]
            rep = oe_check(oe, depth)
            assert rep == reference_oe_check(oe, depth) and rep["checked"]
        assert assert_agreement_matches_reference(
            [(coc, ident), (coc, coc), (oe, coe_to_oe(ident)), (oe, oe)], 3) \
            == [False, True, False, True]


def test_checks_make_no_walk_for_a_probe_point(monkeypatch):
    # each check asks every cylinder for its probe points once, and every
    # stem a point is moved under has a rule stem heading it, so no probe
    # point looks up its own rule through PrefixHomeo.apply
    coc = swap_cocycle_two_loops(corpus.g2())
    oe = coe_to_oe(coc)
    back = oe_to_coe(oe)
    again = coe_to_oe(back)
    calls = []
    apply = PrefixHomeo.apply
    monkeypatch.setattr(PrefixHomeo, "apply",
                        lambda homeo, x: calls.append(x) or apply(homeo, x))
    rep = coe_check(coc, 6)
    assert rep["failures"] == [] and rep["checked"] == 918
    rep = oe_check(oe, 6)
    assert rep["failures"] == [] and rep["checked"] == 306
    assert cocycles_agree(coc, back, 6) and oe_agree(oe, again, 6)
    assert calls == []
    oe_check(OEData(oe.homeo, oe.pieces[1:]), 6)   # a gap costs no lookup either
    assert calls == []
    coc.homeo.apply(parse_point(corpus.g2(), "(a)^inf"))
    assert len(calls) == 1      # the wrapper counts


def test_stem_index_infinite_family_is_covered_only_at_its_node():
    # g5's v receives the infinite family f: Z(v) is covered by Z(v - {f})
    # and Z(f), never by the enumerated children Z(f), Z(f[1]) alone
    g = corpus.g5()
    f0, f1 = g.instance("f", 0), g.instance("f", 1)
    v = g.vertex_path("v")
    whole = CompactOpen.whole(g)
    kids = [Cylinder(g.path_of(f0), frozenset()), Cylinder(g.path_of(f1), frozenset())]
    pieces = [Cylinder(v, frozenset({f0, f1}))] + kids
    rest = [Cylinder(g.vertex_path(u), frozenset()) for u in g.vertices if u != "v"]
    assert StemIndex(g, pieces + rest).tiles()
    assert not StemIndex(g, kids + rest).tiles()
    for table in (pieces + rest, kids + rest):
        assert_certificate_matches_reference(g, table)


def test_shift_counts_must_be_integers_at_least_zero():
    g = corpus.g2()
    za = Cylinder(g.path_of("a"), frozenset())
    zb = Cylinder(g.path_of("b"), frozenset())
    homeo = PrefixHomeo.identity(g)
    for bad in (1.5, True, "1", -1, None):
        with pytest.raises(OrbitError, match="shift count"):
            OEData(homeo, [(za, 0, bad), (zb, 0, 1)])
        with pytest.raises(OrbitError, match="shift count"):
            OEData(homeo, [(za, 0, 1), (zb, bad, 1)])
    assert reference_lookup(OEData(homeo, [(za, 0, 1), (zb, 0, 1)]),
                            parse_point(g, "(b)^inf")) == (0, 1)
