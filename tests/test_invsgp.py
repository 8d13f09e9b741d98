import json
from itertools import product
from random import Random

import pytest

from gforge import corpus, invsgp
from gforge.boundary import Cylinder, PartialWord, sample_point
from gforge.cli import main
from gforge.invsgp import (
    DomainError,
    SgpElement,
    ZERO,
    _character_image,
    _pairs,
    check_boundary_invariance,
    sgp_mul,
    sigma,
    verify_partial_hom,
)
from gforge.graph import CompositionError
from gforge.words import ReducedWord, parse_word


def els(g, depth):
    return _pairs(g.paths_up_to(depth))


def sgp_star(x):
    return ZERO if x is ZERO else SgpElement(x.nu, x.mu)


def slat_meet(g, mu, nu):
    """Meet of the idempotents at mu and nu: the longer of a comparable pair."""
    if mu.startswith(nu):
        return mu
    if nu.startswith(mu):
        return nu
    return None


def reference_sgp_mul(g, x, y):
    """sgp_mul as first written: strip C off B (or B off C), concat the rest
    onto D (or A), and build the element with its common-source check."""
    if x is ZERO or y is ZERO:
        return ZERO
    A, B, C, D = x.mu, x.nu, y.mu, y.nu
    if B.startswith(C):
        return SgpElement(A, g.concat(D, g.strip_prefix(B, len(C))))
    if C.startswith(B):
        return SgpElement(g.concat(A, g.strip_prefix(C, len(B))), D)
    return ZERO


def assert_products_match_reference(g, els):
    """sgp_mul equals reference_sgp_mul on every pair, ZERO included, and a
    nonzero product has the reference's source vertices (Path equality
    ignores them), which are common to mu and nu."""
    for s, t in product(els, repeat=2):
        st, want = sgp_mul(g, s, t), reference_sgp_mul(g, s, t)
        assert st == want, (s, t)
        if st is not ZERO:
            v = st.mu.source_vertex
            assert v == st.nu.source_vertex == want.mu.source_vertex, (s, t)


def reference_character_image(g, s, rho):
    """The character image as first built: strip_prefix, then concat."""
    return g.concat(s.mu, g.strip_prefix(rho, len(s.nu)))


def reference_partial_hom(g, depth):
    """The per-pair form of verify_partial_hom, recomputing sigma(s) and
    sigma(t) for every pair, with the products of reference_sgp_mul: the
    reference for its table of sigmas and its partner rows.  Its pairs are
    built with SgpElement's common-source check."""
    els = [SgpElement(mu, nu) for mu, nu in product(g.paths_up_to(depth), repeat=2)
           if mu.source_vertex == nu.source_vertex]
    failures = []
    pure_failures = []
    pairs = 0
    for s, t in product(els, repeat=2):
        st = reference_sgp_mul(g, s, t)
        if st is ZERO:
            continue
        pairs += 1
        if sigma(s) * sigma(t) != sigma(st):
            failures.append((s, t))
    for s in els:
        if sigma(s).is_identity and not s.is_idempotent:
            pure_failures.append(s)
    return {
        "elements": len(els),
        "pairs_checked": pairs,
        "failures": failures,
        "idempotent_pure_failures": pure_failures,
    }


def reference_boundary_invariance(g, depth):
    """check_boundary_invariance as first written: every stem under s.nu is
    visited, and an escape is found by its length, one stem at a time.
    The image comes from invsgp._character_image, so a patched image
    reaches both this loop and the check."""
    paths = g.paths_up_to(depth)
    stems = [(rho, sample_point(g, Cylinder(rho, frozenset())))
             for rho in g.maximal_stems(depth)]
    under = {nu: [(rho, x) for rho, x in stems if rho.startswith(nu)]
             for nu in paths}
    checked = skips = escapes = 0
    violations = []
    for s in _pairs(paths):
        if not under[s.nu]:
            continue
        pw = PartialWord(g, s.mu, s.nu)
        for rho, x in under[s.nu]:
            checked += 1
            if len(s.mu) + len(rho) - len(s.nu) > depth:
                escapes += 1
                continue
            img = invsgp._character_image(s, rho)
            dead_end = not g.receivers(img.source_vertex)
            if len(img) < depth and not dead_end:
                skips += 1
            try:
                y = pw.act_point(x)
                ok = y.startswith(img) and (
                    not dead_end or (y.is_finite and len(y) == len(img)))
            except DomainError:
                ok = False
            if not ok:
                violations.append((s, rho))
    return {
        "checked": checked,
        "skips": skips,
        "escapes": escapes,
        "violations": violations,
    }


def oracle_cases():
    """The truncations the two oracles are compared on: every corpus graph
    at depths 0-3, and seeded random graphs with infinite families at the
    depths 0-3 whose truncation has at most 20 paths (reference_partial_hom
    visits the square of the elements, whose number grows as the square
    of the paths)."""
    cases = [(name, corpus.by_name(name), depth)
             for name in sorted(corpus.BUILDERS) for depth in range(4)]
    for seed in range(12):
        g = corpus.random_graph(Random(seed), 4, allow_infinite=True)
        cases += [(f"random {seed}", g, depth) for depth in range(4)
                  if len(g.paths_up_to(depth)) <= 20]
    return cases


# ---------------------------------------------------------------- algebra

def test_pair_needs_common_source():
    g = corpus.g4()
    with pytest.raises(CompositionError):
        SgpElement(g.path_of("a"), g.path_of("c"))  # sources v vs w


def test_hand_checked_products():
    g = corpus.g2()
    a, b, v = g.path_of("a"), g.path_of("b"), g.vertex_path("v")
    E = SgpElement
    assert sgp_mul(g, E(a, b), E(b, a)) == E(a, a)
    assert sgp_mul(g, E(a, v), E(b, v)) == E(g.path_of("a", "b"), v)
    assert sgp_mul(g, E(v, a), E(v, b)) == E(v, g.path_of("b", "a"))
    assert sgp_mul(g, E(a, a), E(b, b)) is ZERO
    assert sgp_mul(g, E(a, b), E(a, b)) is ZERO  # b vs a overlap empty


def test_products_match_reference(corpus_graph):
    name, g = corpus_graph
    assert_products_match_reference(g, els(g, 2))


def test_zero_absorbs():
    g = corpus.g2()
    x = SgpElement(g.path_of("a"), g.path_of("b"))
    assert sgp_mul(g, ZERO, x) is ZERO
    assert sgp_mul(g, x, ZERO) is ZERO
    assert sgp_star(ZERO) is ZERO


def test_inverse_semigroup_axioms_exhaustive_small():
    for g, depth in [(corpus.g3(), 3), (corpus.g2(), 1), (corpus.g4(), 2)]:
        E = els(g, depth)
        for x in E:
            assert sgp_star(sgp_star(x)) == x
            assert sgp_mul(g, sgp_mul(g, x, sgp_star(x)), x) == x
        for x, y in product(E, repeat=2):
            assert sgp_star(sgp_mul(g, x, y)) == sgp_mul(g, sgp_star(y), sgp_star(x))
        for x, y, z in product(E, repeat=3):
            left = sgp_mul(g, sgp_mul(g, x, y), z)
            right = sgp_mul(g, x, sgp_mul(g, y, z))
            assert left == right


def test_associativity_exhaustive_g2_depth2():
    g = corpus.g2()
    E = els(g, 2)
    assert len(E) == 49
    for x, y, z in product(E, repeat=3):
        assert sgp_mul(g, sgp_mul(g, x, y), z) == sgp_mul(g, x, sgp_mul(g, y, z))


def test_idempotents_commute_and_meet():
    for g, depth in [(corpus.g2(), 2), (corpus.g4(), 2), (corpus.g7(), 2)]:
        paths = g.paths_up_to(depth)
        for p in paths:
            for q in paths:
                ep, eq = SgpElement(p, p), SgpElement(q, q)
                pq = sgp_mul(g, ep, eq)
                assert pq == sgp_mul(g, eq, ep)
                m = slat_meet(g, p, q)
                if m is None:
                    assert pq is ZERO
                else:
                    assert pq == SgpElement(m, m)
                    assert m in (p, q) and len(m) == max(len(p), len(q))


# ---------------------------------------------------------------- sigma

def test_sigma_values():
    g = corpus.g2()
    x = SgpElement(g.path_of("a"), g.path_of("b"))
    assert sigma(x) == parse_word("a.b^-1")
    assert sigma(SgpElement(g.path_of("a", "b"), g.path_of("b", "b"))) == parse_word("a.b^-1")
    assert sigma(SgpElement(g.vertex_path("v"), g.vertex_path("v"))).is_identity
    with pytest.raises(DomainError):
        sigma(ZERO)


def test_sigma_partial_hom_exhaustive():
    for g, depth in [(corpus.g1(), 3), (corpus.g2(), 2), (corpus.g3(), 3),
                     (corpus.g4(), 2)]:
        rep = verify_partial_hom(g, depth)
        assert rep["failures"] == []
        assert rep["idempotent_pure_failures"] == []
        assert rep["pairs_checked"] > 0


def test_sigma_check_visits_only_nonzero_products():
    # p3 at depth 3: 969 elements, so 938,961 pairs, of which these are nonzero
    rep = verify_partial_hom(corpus.p3(), 3)
    assert rep["elements"] == 969 and rep["pairs_checked"] == 107097


def test_sigma_check_matches_reference():
    """The whole report, failures in order, equals the per-pair loop's."""
    compared = 0
    for name, g, depth in oracle_cases():
        assert verify_partial_hom(g, depth) == reference_partial_hom(g, depth), (
            name, depth)
        compared += 1
    assert compared > 40


def test_sigma_memo_evaluates_each_runs_products_once(monkeypatch):
    """p3 at depth 3 calls sigma 969 times for the table and once for each
    distinct product in each run of pairs with one s.mu: 22,221.  Without
    the memo it would call it 108,066 times; a memo that is never cleared
    would call it 969 + 15,753 = 16,722 times."""
    real = invsgp.sigma
    calls = []

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(invsgp, "sigma", counting)
    rep = verify_partial_hom(corpus.p3(), 3)
    assert rep["failures"] == [] and rep["pairs_checked"] == 107097
    assert len(calls) == 969 + 22221


@pytest.mark.parametrize("name, depth", [
    ("g2", 1), ("g2", 2), ("g3", 1), ("g3", 2), ("p3", 1), ("p3", 2)])
def test_sigma_failures_come_in_product_order(monkeypatch, name, depth):
    """A sigma broken on the pairs whose mu is longer than nu fails some
    nonzero products; the check lists them as the full product loop does."""
    real = invsgp.sigma

    def broken(x):
        if x is not ZERO and len(x.mu) > len(x.nu):
            return ReducedWord.from_pair(x.nu, x.mu)
        return real(x)

    monkeypatch.setattr(invsgp, "sigma", broken)
    monkeypatch.setitem(globals(), "sigma", broken)  # the reference's sigma
    g = corpus.by_name(name)
    rep = verify_partial_hom(g, depth)
    assert rep["failures"]
    assert rep == reference_partial_hom(g, depth)


# ---------------------------------------------------------------- characters

def oracle_filters(paths, g):
    """All filters of the truncated semilattice, by brute force over subsets.

    A filter is a nonempty meet-closed upward-closed set avoiding 0.
    """
    out = []
    n = len(paths)
    for mask in range(1, 1 << n):
        F = [paths[i] for i in range(n) if mask >> i & 1]
        ok = True
        for mu in F:
            for k in range(len(mu)):            # upward: every prefix present
                if g.prefix(mu, k) not in F:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for mu in F:
                for nu in F:
                    m = slat_meet(g, mu, nu)
                    if m is None or m not in F:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(frozenset(F))
    return set(out)


def test_characters_are_exactly_the_filters():
    for g, depth in [(corpus.g2(), 2), (corpus.g3(), 3), (corpus.g4(), 2)]:
        paths = g.paths_up_to(depth)
        principal = {frozenset(g.prefix(mu, k) for k in range(len(mu) + 1))
                     for mu in paths}
        assert oracle_filters(paths, g) == principal
        assert len(principal) == len(paths)  # one character per stem


def test_character_membership():
    # the character with stem a.b holds exactly the prefixes of a.b
    g = corpus.g2()
    stem = g.path_of("a", "b")
    assert stem.startswith(g.path_of("a"))
    assert stem.startswith(g.vertex_path("v"))
    assert stem.startswith(g.path_of("a", "b"))
    assert not stem.startswith(g.path_of("b"))
    assert not stem.startswith(g.path_of("a", "a"))


def test_max_characters_frozen():
    g2 = corpus.g2()
    stems = g2.maximal_stems(2)
    assert stems == [g2.path_of("a", "a"), g2.path_of("a", "b"),
                     g2.path_of("b", "a"), g2.path_of("b", "b")]

    g3 = corpus.g3()
    stems3 = g3.maximal_stems(2)
    assert stems3 == [g3.vertex_path("w"), g3.path_of("e")]


def test_act_on_character_hand_checked():
    g = corpus.g2()
    s = SgpElement(g.path_of("a"), g.path_of("b"))
    assert _character_image(s, g.path_of("b", "a")) == g.path_of("a", "a")


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_act_on_character_matches_strip_then_concat(corpus_graph, depth):
    """The one-step image equals the old strip_prefix-then-concat image,
    source vertex included, on every stem in the domain of every pair."""
    name, g = corpus_graph
    paths = g.paths_up_to(depth)
    compared = 0
    for s in _pairs(paths):
        for rho in paths:
            if not rho.startswith(s.nu):
                continue
            img = _character_image(s, rho)
            want = reference_character_image(g, s, rho)
            assert (img, img.source_vertex) == (want, want.source_vertex), (s, rho)
            compared += 1
    assert compared > 0


def test_act_on_character_matches_conjugation():
    for g, depth in [(corpus.g2(), 2), (corpus.g3(), 3), (corpus.g4(), 2)]:
        paths = g.paths_up_to(depth)
        for s in _pairs(paths):
            for chi in paths:
                if not chi.startswith(s.nu):
                    continue
                if len(s.mu) + len(chi) - len(s.nu) > depth:
                    continue
                img = _character_image(s, chi)
                for tau in paths:
                    t = sgp_mul(g, sgp_mul(g, sgp_star(s), SgpElement(tau, tau)), s)
                    if t is ZERO:
                        expected = False
                    else:
                        assert t.is_idempotent
                        expected = chi.startswith(t.mu)
                    assert img.startswith(tau) == expected, (s, chi, tau)


# ---------------------------------------------------------------- invariance

def test_boundary_invariance_corpus():
    for name in ["g1", "g2", "g3", "g4"]:
        for depth in (1, 2):
            rep = check_boundary_invariance(corpus.by_name(name), depth)
            assert rep["violations"] == [], (name, depth)
            assert rep["checked"] > 0


def test_boundary_invariance_matches_reference():
    """The whole report equals the per-stem loop's, on sound images and on
    images that ignore s, whose violations come in the loop's order."""
    compared = 0
    for name, g, depth in oracle_cases():
        assert check_boundary_invariance(g, depth) == reference_boundary_invariance(
            g, depth), (name, depth)
        compared += 1
    assert compared > 40


def test_boundary_invariance_violations_match_reference(monkeypatch):
    monkeypatch.setattr(invsgp, "_character_image", lambda s, rho: rho)
    violations = 0
    for name, g, depth in oracle_cases():
        rep = check_boundary_invariance(g, depth)
        assert rep == reference_boundary_invariance(g, depth), (name, depth)
        violations += len(rep["violations"])
    assert violations > 100


def test_boundary_invariance_counts_skips_and_escapes():
    rep = check_boundary_invariance(corpus.g2(), 2)
    assert rep["skips"] > 0
    assert rep["escapes"] > 0
    assert rep["checked"] > rep["skips"] + rep["escapes"]


def test_boundary_invariance_catches_a_character_action_that_ignores_s(
        monkeypatch, capsys):
    """A character image that returns the stem unmoved disagrees with the
    boundary action; the escapes are still counted before it is called."""
    monkeypatch.setattr(invsgp, "_character_image", lambda s, rho: rho)
    found = sum(len(check_boundary_invariance(corpus.by_name(name), depth)["violations"])
                for name in ["g1", "g2", "g3", "g4"] for depth in (1, 2))
    assert found == 45
    assert main(["check", "invariance", "--graph", "g2"]) == 1
    assert "violations:" in capsys.readouterr().out
    # a failing report holds path pairs, which print as their str()
    assert main(["check", "invariance", "--graph", "g2", "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["violations"]) == 28
    assert rep["violations"][0] == ["SgpElement(Path('v'), Path('a'))", "a.b"]


def test_sigma_check_reports_a_sigma_that_swaps_the_pair(monkeypatch, capsys):
    """sigma(s) = nu.mu^-1 turns products around: the check fails, and
    its report prints in both formats."""
    monkeypatch.setattr(invsgp, "sigma",
                        lambda x: ReducedWord.from_pair(x.nu, x.mu))
    assert main(["check", "sigma", "--graph", "g2"]) == 1
    assert "failures:" in capsys.readouterr().out
    assert main(["check", "sigma", "--graph", "g2", "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["failures"]
    assert rep["failures"][0] == ["SgpElement(Path('v'), Path('a'))",
                                  "SgpElement(Path('v'), Path('b'))"]
    assert rep["idempotent_pure_failures"] == []
