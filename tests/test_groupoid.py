import random

import pytest

from gforge import corpus
from gforge.boundary import PartialWord, admissible_words, parse_point, sample_point
from gforge.graph import CompositionError
from gforge.groupoid import DRElement, GroupoidError, PTGElement, compose, to_dr, to_ptg
from gforge.words import parse_word
from test_paradox import assert_maps_from_word


def germs(g, word_bound):
    out = []
    for w in admissible_words(g, word_bound):
        pw = PartialWord.from_word(g, w)
        for part in pw.domain().parts:
            x = sample_point(g, part)
            if x is not None:
                out.append(PTGElement(g, w, x))
    return out


def inverse(d):
    """The inverse germ.  k - offset is the least witness on the flipped
    side: anything smaller would shift back to beat the original minimality."""
    return DRElement(d.source, -d.offset, d.target, d.merge_depth - d.offset)


def assert_germ(d):
    """What DRElement.make certifies: the tails merge at merge_depth, and
    at no smaller depth of at least max(offset, 0)."""
    low = max(d.offset, 0)
    assert d.merge_depth >= low
    assert d.target.shift(d.merge_depth) == d.source.shift(d.merge_depth - d.offset)
    least = next(k for k in range(low, d.merge_depth + 1)
                 if d.target.shift(k) == d.source.shift(k - d.offset))
    assert d.merge_depth == least


def is_unit(d):
    return d.offset == 0 and d.merge_depth == 0 and d.source == d.target


def isotropy_elements(elements):
    return [d for d in elements if d.source == d.target and not is_unit(d)]


def ptg_equal(s, t):
    """Same germ: same source point and matching normal forms."""
    return s.point == t.point and to_dr(s) == to_dr(t)


def test_element_validation():
    g = corpus.g2()
    x = parse_point(g, "(a)^inf")
    PTGElement(g, parse_word("a"), x)
    with pytest.raises(GroupoidError):
        PTGElement(g, parse_word("b^-1"), x)       # x not in Z(b)
    with pytest.raises(GroupoidError):
        DRElement.make(x, 1, x, 0)                 # depth below offset
    with pytest.raises(GroupoidError):
        DRElement.make(x, 0, parse_point(g, "b.(a)^inf"), 0)  # tails differ at 0


def test_to_dr_hand_values():
    g = corpus.g2()
    x = parse_point(g, "(a)^inf")
    d = to_dr(PTGElement(g, parse_word("a"), x))
    assert (d.target, d.offset, d.source, d.merge_depth) == (x, 1, x, 1)

    y = parse_point(g, "b.(a)^inf")
    d2 = to_dr(PTGElement(g, parse_word("a"), y))
    assert d2.target == parse_point(g, "a.b.(a)^inf")
    assert (d2.offset, d2.source, d2.merge_depth) == (1, y, 1)

    swap = to_dr(PTGElement(g, parse_word("a.b^-1"), y))
    assert swap.target == x and swap.offset == 0 and swap.source == y
    assert swap.merge_depth == 1


def test_merge_depth_is_minimal():
    g = corpus.g2()
    x = parse_point(g, "(a.b)^inf")
    # a.b acts as the identity near x but with a 2-step presentation
    d = to_dr(PTGElement(g, parse_word("a.b"), x))
    assert d == DRElement.unit(x).__class__(x, 2, x, 2)
    # units recompute to depth zero no matter how they are presented
    u = to_dr(PTGElement(g, parse_word("1"), x))
    assert is_unit(u) and u.merge_depth == 0
    bigger = DRElement.make(x, 0, x, search_cap=7)
    assert bigger.merge_depth == 0


def test_roundtrip_is_germ_identity():
    for name in ["g1", "g2", "g3", "g4", "g5", "g7", "p3"]:
        g = corpus.by_name(name)
        for s in germs(g, 3):
            d = to_dr(s)
            s2 = to_ptg(g, d)
            assert s2.point == s.point
            assert ptg_equal(s, s2)
            assert to_dr(s2) == d


def assert_trusted_ptg(g, d):
    """to_ptg's unchecked build is what PTGElement validates: the word
    lam.mu^-1 with nothing cancelled, and the map from_word gives, source
    vertices included."""
    s = to_ptg(g, d)
    checked = PTGElement(g, s.word, d.source)
    assert s == checked and len(s.word) == 2 * d.merge_depth - d.offset
    pw, ref = s._pw, checked._pw
    assert (pw.is_identity, pw.is_empty_map) == (ref.is_identity, ref.is_empty_map)
    if not pw.is_identity:
        for got, want in ((pw.alpha, ref.alpha), (pw.beta, ref.beta)):
            assert got == want and got.source_vertex == want.source_vertex
    assert s.image() == checked.image() == d.target


def test_to_ptg_builds_what_ptg_element_checks():
    """Over the germs to_dr gives, their inverses and their products."""
    for name in ["g1", "g2", "g3", "g4", "g5", "g7", "p2", "p3"]:
        g = corpus.by_name(name)
        ds = [to_dr(s) for s in germs(g, 3)]
        ds += [inverse(d) for d in ds]
        by_source = {}
        for d in ds:
            by_source.setdefault(d.source, []).append(d)
        products = [compose(d2, d1) for d1 in ds
                    for d2 in by_source.get(d1.target, [])[:4]]
        assert products
        for d in ds + products:
            assert_trusted_ptg(g, d)


def test_to_ptg_maps_are_built_as_from_word_builds_them():
    """On the germs of the groupoid roundtrip, at its graphs and word bounds."""
    for name, bound in (("g1", 250), ("g2", 6), ("g3", 3), ("g4", 40)):
        g = corpus.by_name(name)
        maps = [to_ptg(g, to_dr(s))._pw for s in germs(g, bound)]
        assert maps, name
        assert_maps_from_word(g, maps)


def test_roundtrip_may_shorten_the_word():
    g = corpus.g2()
    x = parse_point(g, "(a.b)^inf")
    s = PTGElement(g, parse_word("a.b"), x)
    s2 = to_ptg(g, to_dr(s))
    assert len(s2.word) == 2 and ptg_equal(s, s2)
    # a presentation with a removable shared tail collapses
    t = PTGElement(g, parse_word("a.b.b^-1"), parse_point(g, "b.(a)^inf"))
    t2 = to_ptg(g, to_dr(t))
    assert ptg_equal(t, t2)


def test_inverse_laws():
    for name in ["g2", "g3", "g4", "g5"]:
        g = corpus.by_name(name)
        for s in germs(g, 3):
            d = to_dr(s)
            di = inverse(d)
            units = [DRElement.unit(d.source), DRElement.unit(d.target)]
            products = [compose(di, d), compose(d, di),
                        compose(d, units[0]), compose(units[1], d)]
            for germ in [d, di, inverse(di), *units, *products]:
                assert_germ(germ)
            assert inverse(di) == d
            assert di.merge_depth == d.merge_depth - d.offset
            assert products == [units[0], units[1], d, d]


def test_compose_matches_word_product():
    rng = random.Random(17)
    for name in ["g2", "g4", "g7"]:
        g = corpus.by_name(name)
        pool = germs(g, 2)
        for _ in range(200):
            s1 = rng.choice(pool)
            s2 = rng.choice(pool)
            d1, d2 = to_dr(s1), to_dr(s2)
            assert_germ(d1)
            assert_germ(d2)
            if d1.target != d2.source:
                with pytest.raises(CompositionError):
                    compose(d2, d1)
                continue
            prod = compose(d2, d1)
            # the product word acts at least where the two-step route does
            w = s2.word * s1.word
            direct = to_dr(PTGElement(g, w, s1.point))
            assert_germ(prod)
            assert_germ(direct)
            assert direct == prod


def single_edge_germs(word_bound):
    """Every germ of g3, whose boundary is the two points w and e: to_dr at
    each point in the domain of each admissible word."""
    g = corpus.g3()
    out = set()
    for word in admissible_words(g, word_bound):
        pw = PartialWord.from_word(g, word)
        for x in (parse_point(g, "w"), parse_point(g, "e")):
            if pw.is_identity or x.startswith(pw.beta):
                out.add(to_dr(PTGElement(g, word, x)))
    return out


def test_compose_associative_when_defined():
    els = single_edge_germs(4)
    for a in els:
        for b in els:
            if b.target != a.source:
                continue
            for c in els:
                if c.target != b.source:
                    continue
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_to_dr_normal_forms_of_single_edge_graph():
    g = corpus.g3()
    w = parse_point(g, "w")
    e = parse_point(g, "e")
    els = single_edge_germs(4)
    assert {(d.target, d.offset, d.source) for d in els} == {
        (w, 0, w), (e, 0, e), (e, 1, w), (w, -1, e),
    }
    for d in els:
        assert_germ(d)
    assert isotropy_elements(els) == []
    # the normal forms are stable under a larger word bound
    assert single_edge_germs(6) == els
    assert sum(1 for d in els if is_unit(d)) == 2


def test_isotropy_elements_on_loop_graph():
    g = corpus.g1()
    x = parse_point(g, "(a)^inf")
    ds = [to_dr(PTGElement(g, w, x))
          for w in admissible_words(g, 6) if not w.is_identity]
    iso = isotropy_elements(ds)
    assert len(iso) == len(ds)                 # every nontrivial word fixes x
    assert sorted(d.offset for d in iso) == sorted(
        k for k in range(-6, 7) if k != 0)
