import random

import pytest

from gforge import corpus
from gforge.boundary import (
    CompactOpen,
    Cylinder,
    PartialWord,
    parse_point,
    probe_points,
    reduced_words,
    set_str,
)
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
from test_orbit import reference_contains, reference_union


def image(m):
    """The union of a piecewise word's piece images, normalised: the
    PiecewiseWord.image that verify_witness used before it compared
    images part by part."""
    return CompactOpen(m.graph, [part for U, pw in m.parts
                                 for part in pw.act_set(U).parts])


def word_map(g, pieces):
    """The piecewise word that moves each piece U of (U, word) by its word,
    each map built by PartialWord.from_word."""
    return PiecewiseWord(g, [(U, PartialWord.from_word(g, w)) for U, w in pieces])


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
    assert image(a) == CompactOpen.cylinder(g, g.path_of("a"))
    assert image(b) == CompactOpen.cylinder(g, g.path_of("b"))


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
        img = image(m)
        for y in probe_points(g, 2):
            V = CompactOpen.cylinder(g, y.head(2))
            moved = image(word_map(g, [(V.intersect(P), w) for P, w in m.pieces]))
            assert moved.difference(img).is_empty
    assert reference_contains(U, x)


def test_verify_witness_rejects_overlap():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m = word_map(g, [(U, parse_word("a"))])
    rep = verify_witness(g, U, [m, m])
    assert not rep["ok"]
    assert any("meet" in f for f in rep["failures"])


def test_verify_witness_rejects_partial_cover():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m1 = word_map(g, [(CompactOpen.cylinder(g, g.path_of("a")),
                       parse_word("a.a.a^-1"))])
    m2 = word_map(g, [(U, parse_word("b"))])
    rep = verify_witness(g, U, [m1, m2])
    assert not rep["ok"]
    assert any("tile" in f for f in rep["failures"])


def reference_verify_witness(g, U, maps):
    """The certificate verify_witness replaced: a union of the pieces grown
    and normalised piece by piece, and whole images compared as sets."""
    rep = {"maps": len(maps), "pieces": 0, "ok": True, "failures": []}

    def fail(msg):
        rep["ok"] = False
        rep["failures"].append(msg)

    if len(maps) < 2:
        fail("a paradoxical witness needs at least 2 maps")
    if U.is_empty:
        fail("the set is empty: nothing to duplicate")

    images = []
    for i, m in enumerate(maps):
        rep["pieces"] += len(m.parts)
        covered = CompactOpen.empty(g)
        for D, pw in m.parts:
            w = pw.word()
            if pw.is_empty_map:
                fail(f"map {i}: word {w} does not act")
                continue
            if not D.difference(pw.domain()).is_empty:
                fail(f"map {i}: piece {set_str(D)} leaves the domain of {w}")
            if not D.intersect(covered).is_empty:
                fail(f"map {i}: pieces overlap at {set_str(D)}")
            covered = reference_union(covered, D)
        if covered != U:
            fail(f"map {i}: pieces do not tile the set")
        img = image(m)
        if not img.difference(U).is_empty:
            fail(f"map {i}: image escapes the set")
        images.append(img)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if not images[i].intersect(images[j]).is_empty:
                fail(f"images {i} and {j} meet")
    return rep


def reference_expand_witness(g, pair, count):
    """expand_witness as it was, with the last composition of b's chain
    made and dropped."""
    a, b = pair
    maps = []
    lead = b
    for _ in range(count - 1):
        maps.append(lead)
        lead = a.compose(lead)
    power = a
    for _ in range(count - 2):
        power = a.compose(power)
    maps.append(power)
    return maps


def assert_maps_from_word(g, maps, words=None):
    """Every PartialWord in maps is the one from_word builds from its word:
    the same alpha and beta, source vertices included, and the same word.
    Where words is given, the i-th map's word is also words[i], a word
    computed on its own."""
    if words is not None:
        assert [pw.word() for pw in maps] == list(words)
    for pw in maps:
        w = pw.word()
        ref = PartialWord.from_word(g, w)
        for got, want in ((pw.alpha, ref.alpha), (pw.beta, ref.beta)):
            assert (got is None) == (want is None), w
            if got is not None:
                assert (got, got.source_vertex) == (want, want.source_vertex), w
        assert ref.word() == w


def composite_words(outer, inner, comp):
    """The word each part of comp = outer.compose(inner) must carry, found
    by ReducedWord multiplication: the word of the outer part that holds
    the piece's image times the word of the inner part that holds the
    piece."""
    words = []
    for D, _ in comp.parts:
        found = [wo.word() * wi.word()
                 for P, wi in inner.parts if D.difference(P).is_empty
                 for Q, wo in outer.parts if wi.act_set(D).difference(Q).is_empty]
        assert len(found) == 1, D
        words.append(found[0])
    return words


def piece_maps(*ms):
    """The maps of the piecewise words' parts, in order."""
    return [pw for m in ms for _, pw in m.parts]


def mutations(g, m):
    """Piecewise words one edit away from m: a dropped, a duplicated and a
    shuffled piece list, and every word inverted or made the identity."""
    pieces = list(m.pieces)
    out = [word_map(g, pieces[1:]), word_map(g, pieces + pieces[:1]),
           word_map(g, pieces[::-1] if len(pieces) > 1 else pieces),
           word_map(g, [(D, w.inverse()) for D, w in pieces]),
           word_map(g, [(D, ReducedWord()) for D, _ in pieces])]
    rng = random.Random(len(pieces))
    shuffled = pieces[:]
    rng.shuffle(shuffled)
    out.append(word_map(g, shuffled))
    return out


def witness_sets(g, rng):
    """The whole space, each vertex cylinder, unions whose parts overlap,
    one below another, with exclusions, and the empty set."""
    sets = [CompactOpen.whole(g)]
    sets += [CompactOpen.cylinder(g, g.vertex_path(v)) for v in g.vertices]
    paths = g.paths_up_to(2)
    for _ in range(2):
        mu = rng.choice(paths)
        conts = g.continuations(mu.source_vertex, copies=2)
        parts = [Cylinder(mu, frozenset(i for i in conts if rng.random() < 0.35))]
        below = [nu for nu in paths if nu.startswith(mu) and nu != mu]
        if below:
            nu = rng.choice(below)
            conts = g.continuations(nu.source_vertex, copies=2)
            parts.append(Cylinder(nu, frozenset(i for i in conts if rng.random() < 0.5)))
        parts.append(Cylinder(rng.choice(paths), frozenset()))
        sets.append(CompactOpen(g, parts))
    return sets + [CompactOpen.empty(g)]


def verify_witness_laws(g, seed):
    """verify_witness returns the reference's report, failures and their
    order included, on found pairs, their expansion to 3 maps, mutations
    of them and maps of single words; and every map the search and
    compose build is the one from_word builds from its word."""
    rng = random.Random(seed)
    words = reduced_words(g, 2)
    for U in witness_sets(g, rng):
        candidates = [[word_map(g, [(U, rng.choice(words))]) for _ in range(2)]]
        pair = find_witness(g, U)
        if pair is not None:
            a, b = pair
            expanded = expand_witness(g, pair, 3)
            assert_maps_from_word(g, piece_maps(*expanded))
            for outer, inner in ((a, a), (b, a)):
                comp = outer.compose(inner)
                assert_maps_from_word(g, piece_maps(comp),
                                      composite_words(outer, inner, comp))
            candidates += [[a, b], [a, a], [b, a], expanded]
            candidates += [[x, b] for x in mutations(g, a)]
            candidates += [[a, x] for x in mutations(g, b)]
        for maps in candidates:
            assert verify_witness(g, U, maps) == reference_verify_witness(g, U, maps)


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_verify_witness_matches_reference_on_corpus(name):
    verify_witness_laws(corpus.by_name(name), 0)


def test_found_maps_are_built_as_from_word_builds_them():
    graphs = [corpus.by_name(n) for n in sorted(corpus.BUILDERS)]
    graphs += [corpus.random_graph(random.Random(seed), 5, allow_infinite=True)
               for seed in range(40)]
    for g in graphs:
        for U in witness_sets(g, random.Random(len(g.edges))):
            pair = find_witness(g, U)
            if pair is None:
                continue
            assert_maps_from_word(g, piece_maps(*pair, *expand_witness(g, pair, 4)))


def test_compose_builds_every_product_as_from_word():
    # identity, empty, inverse and incomparable factors, on g2 and p3
    for g, texts in [
        (corpus.g2(), ["1", "a^-1.b", "a", "a^-1", "a.b^-1", "b.a^-1",
                       "a.b.a^-1", "b.b", "a.b^-1.a^-1"]),
        (corpus.p3(), ["1", "c", "c^-1", "c.p1.c^-1", "c.p1^-1", "p1.p2^-1",
                       "d.q2", "c.d^-1", "p1^-1.p2"]),
    ]:
        U = CompactOpen.whole(g)
        for t_outer in texts:
            for t_inner in texts:
                outer, inner = (word_map(g, [(U, parse_word(t))])
                                for t in (t_outer, t_inner))
                comp = outer.compose(inner)
                assert len(comp.parts) <= 1
                want = parse_word(t_outer) * parse_word(t_inner)
                assert_maps_from_word(g, piece_maps(comp), [want] * len(comp.parts))


def test_expand_witness_skips_the_unused_composition(monkeypatch):
    calls = []
    compose = PiecewiseWord.compose

    def counted(self, inner):
        calls.append(1)
        return compose(self, inner)

    monkeypatch.setattr(PiecewiseWord, "compose", counted)
    for name, v in [("g2", None), ("p3", "v"), ("g7", "u")]:
        g = corpus.by_name(name)
        U = CompactOpen.whole(g) if v is None else CompactOpen.cylinder(g, g.vertex_path(v))
        pair = find_witness(g, U)
        for count in (2, 3, 4, 5):
            calls.clear()
            maps = expand_witness(g, pair, count)
            assert len(calls) == 2 * count - 4
            calls.clear()
            want = reference_expand_witness(g, pair, count)
            assert len(calls) == 2 * count - 3
            assert [[(D.parts, w) for D, w in m.pieces] for m in maps] == \
                   [[(D.parts, w) for D, w in m.pieces] for m in want]
            for m, r in zip(maps, want):
                assert [(pw.alpha, pw.beta, pw.word()) for pw in piece_maps(m)] == \
                       [(pw.alpha, pw.beta, pw.word()) for pw in piece_maps(r)]
            assert verify_witness(g, U, maps)["ok"]


def z(g, stem, *excl):
    """Z(stem minus excl) on a corpus graph, stem and exclusions by edge id."""
    return CompactOpen(g, [Cylinder(g.path_of(*stem), frozenset(
        EdgeInstance(e, 0) for e in excl))])


def test_verify_witness_names_a_word_that_does_not_act():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m0 = word_map(g, [(U, parse_word("a^-1.b"))])
    m1 = word_map(g, [(U, parse_word("a"))])
    assert verify_witness(g, U, [m0, m1])["failures"] == [
        "map 0: word a^-1.b does not act",
        "map 0: pieces do not tile the set",
    ]


def test_verify_witness_names_a_piece_outside_the_domain():
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m0 = word_map(g, [(U, parse_word("a.b^-1"))])
    m1 = word_map(g, [(U, parse_word("b.b"))])
    assert verify_witness(g, U, [m0, m1])["failures"] == [
        "map 0: piece Z(v) leaves the domain of a.b^-1",
    ]


def test_verify_witness_names_overlapping_pieces():
    # Z(v - {a}) and Z(v - {b}) share only Z(v - {a, b}), which is empty at
    # v, so only the third piece overlaps
    g = corpus.g2()
    U = CompactOpen.whole(g)
    m0 = word_map(g, [(z(g, ["v"], "a"), parse_word("a.a.b^-1")),
                      (z(g, ["v"], "b"), parse_word("a.b.a^-1")),
                      (z(g, ["a"]), parse_word("a.b.a^-1"))])
    m1 = word_map(g, [(U, parse_word("b"))])
    assert verify_witness(g, U, [m0, m1])["failures"] == [
        "map 0: pieces overlap at Z(a)",
    ]


def test_verify_witness_names_an_image_that_escapes():
    # U is Z(v - {a}); the image Z(a - {a}) starts with U's stem v but
    # passes through the excluded a
    g = corpus.g2()
    U = z(g, ["v"], "a")
    m0 = word_map(g, [(U, parse_word("b"))])
    m1 = word_map(g, [(U, parse_word("a"))])
    assert verify_witness(g, U, [m0, m1])["failures"] == [
        "map 1: image escapes the set",
    ]


def test_verify_witness_certifies_pieces_cut_by_exclusions():
    # the pieces meet only in the empty Z(v - {a, b}), and they sit in their
    # domains Z(b) and Z(a) only once the exclusions are counted
    g = corpus.g2()
    U = CompactOpen.whole(g)
    maps = [word_map(g, [(z(g, ["v"], "a"), parse_word(f"{x}.a.b^-1")),
                         (z(g, ["v"], "b"), parse_word(f"{x}.b.a^-1"))])
            for x in ("a", "b")]
    rep = verify_witness(g, U, maps)
    assert rep["ok"] and rep["failures"] == []
    assert rep == reference_verify_witness(g, U, maps)


def test_verify_witness_on_p3_cylinders():
    g = corpus.p3()
    U = CompactOpen.cylinder(g, g.vertex_path("v"))
    a, b = find_witness(g, U)
    assert verify_witness(g, U, [a, b])["failures"] == []
    # a map whose pieces sit below c only tiles Z(c), not Z(v)
    below_c = word_map(g, [(D, w) for D, w in a.pieces
                           if D.parts[0].stem.instances[0].edge == "c"])
    assert verify_witness(g, U, [below_c, b])["failures"] == [
        "map 0: pieces do not tile the set",
    ]


def test_verify_witness_rejects_no_maps():
    g = corpus.g2()
    rep = verify_witness(g, CompactOpen.whole(g), [])
    assert not rep["ok"]
    assert rep["failures"] == ["a paradoxical witness needs at least 2 maps"]


def test_verify_witness_rejects_a_single_map():
    g = corpus.g2()
    U = CompactOpen.cylinder(g, g.vertex_path("v"))
    rep = verify_witness(g, U, [word_map(g, [(U, ReducedWord())])])
    assert not rep["ok"]
    assert rep["failures"] == ["a paradoxical witness needs at least 2 maps"]


def test_verify_witness_rejects_the_empty_set():
    g = corpus.g2()
    U = CompactOpen.empty(g)
    rep = verify_witness(g, U, [word_map(g, []), word_map(g, [])])
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
