import random

import pytest

from gforge import corpus
from gforge.boundary import CompactOpen, Cylinder, parse_point, probe_points
from gforge.graph import INFINITE, Edge, EdgeInstance, Graph, condition_pi
from gforge.paradox import (
    PiecewiseWord,
    expand_witness,
    find_witness,
    infinite_loops,
    paradox_report,
    verify_witness,
)
from gforge.words import ReducedWord, parse_word


def test_infinite_loops_single_vertex_family():
    g = corpus.g5()
    loops = infinite_loops(g, "v")
    assert [g.path_str(p) for p in loops] == ["f[0]", "f[1]"]
    held_back = infinite_loops(g, "v", forbidden_first={EdgeInstance("f", 0)})
    assert [g.path_str(p) for p in held_back] == ["f[1]", "f[2]"]


def test_infinite_loops_with_return_path():
    g = corpus.g7()
    loops = infinite_loops(g, "v")
    assert [g.path_str(p) for p in loops] == ["f[0].t", "f[1].t"]
    for p in loops:
        assert p.range_vertex == p.source_vertex == "v"


def test_infinite_loops_without_infinite_families():
    assert infinite_loops(corpus.g2(), "v") == []
    g6 = corpus.g6()
    # the infinite family at v never returns, so no loops come from it
    assert infinite_loops(g6, "v") == []


def test_find_witness_two_loop_vertex():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    pair = find_witness(g, U)
    assert pair is not None
    a, b = pair
    assert verify_witness(g, U, [a, b])["ok"]
    assert a.image() == CompactOpen.cylinder(g, g.path_of("a"))
    assert b.image() == CompactOpen.cylinder(g, g.path_of("b"))


def test_find_witness_splits_past_exclusions():
    g = corpus.g2()
    U = CompactOpen(g, [Cylinder(g.path_of("a"), frozenset([EdgeInstance("a", 0)]))])
    pair = find_witness(g, U)
    assert pair is not None
    rep = verify_witness(g, U, list(pair))
    assert rep["ok"], rep["failures"]
    # the surviving continuation is b, so pieces sit below a.b
    for D, _ in pair[0].pieces:
        for cyl in D.parts:
            assert cyl.stem.startswith(g.path_of("a", "b"))


def test_find_witness_on_infinite_receiver():
    g = corpus.g5()
    U = CompactOpen.whole(g)
    pair = find_witness(g, U)
    assert pair is not None and verify_witness(g, U, list(pair))["ok"]
    g7 = corpus.g7()
    for stem in ["v", "t", ("f", 1)]:
        U7 = CompactOpen.cylinder(g7, g7.path_of(stem))
        pair7 = find_witness(g7, U7)
        assert pair7 is not None
        assert verify_witness(g7, U7, list(pair7))["ok"]


def test_find_witness_needs_split_at_loopless_vertex():
    g = corpus.p3()
    U = CompactOpen.cylinder(g, g.vertex_path("v"))
    pair = find_witness(g, U)
    assert pair is not None
    assert verify_witness(g, U, list(pair))["ok"]
    # v itself has no loops: every piece lives below c or d
    stems = {cyl.stem.instances[0].edge
             for m in pair for D, _ in m.pieces for cyl in D.parts}
    assert stems == {"c", "d"}


@pytest.mark.parametrize("name,stem", [
    ("g1", "v"), ("g3", "u"), ("g3", "w"), ("g4", "v"), ("g6", "u"),
])
def test_find_witness_refusals(name, stem):
    g = corpus.by_name(name)
    U = CompactOpen.cylinder(g, g.path_of(stem))
    assert find_witness(g, U) is None


def test_find_witness_refuses_infinite_receiver_without_return():
    # every word fixes the point v, so Z(v) has no pair; w has two loops,
    # but finitely many cylinders of the family f cannot cover Z(v)
    g = Graph(["v", "w"], [Edge("f", "v", "w", INFINITE),
                           Edge("a", "w", "w", 1), Edge("b", "w", "w", 1)])
    assert find_witness(g, CompactOpen.cylinder(g, g.vertex_path("v"))) is None


def test_witness_words_move_points():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    a, b = find_witness(g, U)
    x = parse_point(g, "(b.a)^inf")
    for m in (a, b):
        img = m.image()
        for y in probe_points(g, 2):
            V = CompactOpen.cylinder(g, y.head(2))
            moved = PiecewiseWord(g, [(V.intersect(P), w) for P, w in m.pieces]).image()
            assert moved.difference(img).is_empty
    assert x in U


def test_verify_witness_rejects_overlap():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m = PiecewiseWord(g, [(U, parse_word("a"))])
    rep = verify_witness(g, U, [m, m])
    assert not rep["ok"]
    assert any("meet" in f for f in rep["failures"])


def test_verify_witness_rejects_partial_cover():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m1 = PiecewiseWord(g, [(CompactOpen.cylinder(g, g.path_of("a")),
                            parse_word("a.a.a^-1"))])
    m2 = PiecewiseWord(g, [(U, parse_word("b"))])
    rep = verify_witness(g, U, [m1, m2])
    assert not rep["ok"]
    assert any("tile" in f for f in rep["failures"])


def test_verify_witness_rejects_no_maps():
    g = corpus.g2()
    rep = verify_witness(g, CompactOpen.whole(g), [])
    assert not rep["ok"]
    assert rep["failures"] == ["a paradoxical witness needs at least 2 maps"]


def test_verify_witness_rejects_a_single_map():
    g = corpus.g2()
    U = CompactOpen.cylinder(g, g.vertex_path("v"))
    rep = verify_witness(g, U, [PiecewiseWord(g, [(U, ReducedWord())])])
    assert not rep["ok"]
    assert rep["failures"] == ["a paradoxical witness needs at least 2 maps"]


def test_verify_witness_rejects_the_empty_set():
    g = corpus.g2()
    U = CompactOpen.empty(g)
    rep = verify_witness(g, U, [PiecewiseWord(g, []), PiecewiseWord(g, [])])
    assert not rep["ok"]
    assert rep["failures"] == ["the set is empty: nothing to duplicate"]


def test_expand_witness_many_copies():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    pair = find_witness(g, U)
    for count in (2, 3, 5):
        maps = expand_witness(g, pair, count)
        assert len(maps) == count
        rep = verify_witness(g, U, maps)
        assert rep["ok"], rep["failures"]


def test_expand_witness_piecewise_base():
    g = corpus.p3()
    U = CompactOpen.cylinder(g, g.vertex_path("v"))
    maps = expand_witness(g, find_witness(g, U), 3)
    rep = verify_witness(g, U, maps)
    assert rep["ok"], rep["failures"]


def test_paradox_report_positive_graphs():
    for name in ["g2", "g5", "g7", "p3"]:
        g = corpus.by_name(name)
        rep = paradox_report(g, stem_depth=2)
        assert rep["holds"], (name, rep)
        assert rep["verified"] == rep["stems"] > 0
        assert rep["searched"] == len(g.vertices)
        assert rep["refusals"] == [] and rep["failures"] == []


def test_paradox_report_negative_graphs():
    for name, bad_stem in [("g1", "v"), ("g3", "w"), ("g4", "c"), ("g6", "u")]:
        g = corpus.by_name(name)
        rep = paradox_report(g, stem_depth=2)
        assert not rep["holds"], name
        assert rep["searched"] == len(g.vertices)
        assert any(s.startswith(bad_stem) or s == bad_stem
                   for s in rep["refusals"]), (name, rep)


def reference_paradox_report(g, stem_depth):
    """The per-stem loop paradox_report replaced: a fresh search and
    certification on every cylinder stem."""
    rep = {"holds": True, "stems": 0, "verified": 0,
           "refusals": [], "failures": []}
    for mu in g.paths_up_to(stem_depth):
        rep["stems"] += 1
        U = CompactOpen.cylinder(g, mu)
        pair = find_witness(g, U)
        if pair is None:
            rep["holds"] = False
            rep["refusals"].append(g.path_str(mu))
            continue
        check = verify_witness(g, U, list(pair))
        if check["ok"]:
            rep["verified"] += 1
        else:
            rep["holds"] = False
            rep["failures"].append((g.path_str(mu), check["failures"]))
    return rep


def assert_matches_reference(g, stem_depth):
    rep = paradox_report(g, stem_depth)
    assert rep.pop("searched") == len(g.vertices)
    assert rep == reference_paradox_report(g, stem_depth)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_paradox_report_matches_per_stem_search_on_corpus(name):
    g = corpus.by_name(name)
    for stem_depth in range(4):
        assert_matches_reference(g, stem_depth)


def test_paradox_report_matches_per_stem_search_on_random_graphs():
    for seed in range(40):
        g = corpus.random_graph(random.Random(seed), 5, allow_infinite=True)
        for stem_depth in range(3):
            assert_matches_reference(g, stem_depth)


def test_report_agrees_with_structural_conditions():
    for name in sorted(corpus.BUILDERS):
        g = corpus.by_name(name)
        rep = paradox_report(g, stem_depth=2)
        assert rep["holds"] == condition_pi(g).holds, name


@pytest.mark.parametrize("seed", [23, 80, 132, 180, 216, 1032, 1146, 2056])
def test_loopless_infinite_receiver_breaks_condition_pi(seed):
    # census graphs where an infinite receiver on no loop forms its own
    # tail only under the regular-receiver clause of a maximal tail
    g = corpus.random_graph(random.Random(seed), 5, allow_infinite=True)
    rep = condition_pi(g)
    assert not rep.holds
    assert not rep.breaking and rep.k_witness is None
    T, v = rep.tail_witness
    assert g.receiver_count(v) == INFINITE and T == g.upstream(v)
    assert rep.holds == paradox_report(g, stem_depth=2)["holds"]
