import pytest

from gforge import corpus
from gforge.boundary import Cylinder, parse_point, point_str, probe_points
from gforge.graph import GraphError
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
from gforge.words import parse_word


def inverse_homeo(h):
    """The prefix substitution with every rule (mu, nu) turned round."""
    return PrefixHomeo(h.target_graph, h.source_graph,
                       [(nu, mu) for mu, nu in h.rules])


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
    coc.table[gen] = ((Cylinder(g.vertex_path("v"), frozenset()), gen),)
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
    from gforge.boundary import set_str
    from gforge.boundary import CompactOpen
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
    with pytest.raises(OrbitError):
        oe.lookup(parse_point(g, "(b)^inf"))
    assert any(f[0] == "partition" for f in oe_check(oe, 2)["failures"])


@pytest.mark.parametrize("make", [
    lambda: identity_cocycle(corpus.g2()),
    lambda: swap_cocycle_two_loops(corpus.g2()),
    lambda: swap_cocycle_parallel_pair(corpus.p2()),
])
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
    assert Cocycle(homeo, {a: [(za, a), (zaa, b)]}).value(a, x) == a
    assert Cocycle(homeo, {a: [(zaa, b), (za, a)]}).value(a, x) == b
    coc = Cocycle(homeo, {a: [(zaa, b)]})
    assert coc.value(a, parse_point(g, "a.(b)^inf")) is None    # off the row
    assert coc.value(b, x) is None                              # no row at all


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
