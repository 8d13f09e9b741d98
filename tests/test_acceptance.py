"""Acceptance battery.

Ten stands, one per shipped guarantee, each with a pinned time budget
and a printed PASS line.  Everything here goes through the public API
or the command line entry point.
"""

import json
import random
import time

import pytest

from gforge import corpus
from gforge.boundary import (
    PartialWord,
    admissible_words,
    probe_points,
    reduced_words,
    sample_point,
    topological_freeness_report,
    verify_partial_action,
)
from gforge.cli import main
from gforge.graph import condition_l, condition_pi
from gforge.groupoid import PTGElement, compose, to_dr, to_ptg
from gforge.invsgp import check_boundary_invariance, verify_partial_hom
from gforge.orbit import (
    cocycles_agree,
    coe_check,
    coe_to_oe,
    identity_cocycle,
    oe_agree,
    oe_check,
    oe_to_coe,
    swap_cocycle_parallel_pair,
    swap_cocycle_two_loops,
)
from gforge.paradox import paradox_report
from gforge.semigroups import (
    AffineFamily,
    FreeMonoidFamily,
    NkFamily,
    Progression,
    SemigroupError,
    axb_paradox_witness,
    boundary_paradox_witness,
)
from gforge.words import ReducedWord

pytestmark = pytest.mark.acceptance


def _passline(n, label, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget}s"
    print(f"CRITERION {n} ({label}): PASS ({dt:.2f}s < {budget}s)")


def test_criterion_01_groupoid_roundtrip():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for name, bound in (("g1", 250), ("g2", 6), ("g3", 3), ("g4", 40)):
        g = corpus.by_name(name)
        base = []
        for w in admissible_words(g, bound):
            pw = PartialWord.from_word(g, w)
            for part in pw.domain().parts:
                x = sample_point(g, part)
                if x is not None:
                    base.append(PTGElement(g, w, x))
        assert base, name
        samples = []
        while len(samples) < 500:
            samples.extend(base)
        assert len(samples) >= 500, name

        by_point = {}
        for el in samples:
            d = to_dr(el)
            back = to_ptg(g, d)
            assert to_dr(back) == d, (name, el)
            by_point.setdefault(el.point, []).append(el)
        # homomorphism: composing germs matches the product word's germ
        pairs = 0
        for _ in range(400):
            t = rng.choice(samples)
            cands = by_point.get(t.image())
            if not cands:
                continue
            s = rng.choice(cands)
            prod = PTGElement(g, s.word * t.word, t.point)
            assert compose(to_dr(s), to_dr(t)) == to_dr(prod), (name, s, t)
            pairs += 1
        assert pairs > 100, name
    _passline(1, "groupoid roundtrip", t0, 2.0)


def test_criterion_02_partial_action_axioms():
    t0 = time.perf_counter()
    for name in ("g1", "g2", "g3", "g4"):
        g = corpus.by_name(name)
        rep = verify_partial_action(g, word_len=3)
        assert rep["failures"] == [], name

        words = reduced_words(g, 3)
        maps = {w: PartialWord.from_word(g, w) for w in words}
        pts = probe_points(g, 6)
        assert pts, name
        for w, pw in maps.items():
            if pw.is_empty_map:
                continue
            inv = pw.inverse()
            for x in pts:
                if not pw.is_identity and not x.startswith(pw.beta):
                    continue
                y = pw.act_point(x)
                assert inv.act_point(y) == x, (name, w, x)
        ident = maps[ReducedWord()]
        for x in pts:
            assert ident.act_point(x) == x
        for u in words:
            for w in words:
                if len(u) + len(w) > 3 or not u or not w:
                    continue
                pu, pw = maps[u], maps[w]
                if pu.is_empty_map or pw.is_empty_map:
                    continue
                puw = PartialWord.from_word(g, u * w)
                for x in pts:
                    if pw.is_identity or x.startswith(pw.beta):
                        y = pw.act_point(x)
                        if pu.is_identity or y.startswith(pu.beta):
                            assert not puw.is_empty_map, (name, u, w)
                            assert puw.is_identity \
                                or x.startswith(puw.beta), (name, u, w, x)
                            assert pu.act_point(y) == puw.act_point(x), \
                                (name, u, w, x)
    _passline(2, "partial action axioms", t0, 2.0)


def test_criterion_03_condition_l_vs_isotropy():
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    graphs = [corpus.by_name(n) for n in ("g1", "g4", "g2")]
    graphs += [corpus.random_graph(rng, 6, allow_infinite=True)
               for _ in range(20)]
    for g in graphs:
        holds, loop = condition_l(g)
        rep = topological_freeness_report(g, word_bound=6, stem_depth=2)
        assert rep["free"] == holds
        if holds:
            assert rep["verified"]
        else:
            assert loop is not None
            pw = PartialWord.from_word(g, rep["fixed_word"])
            x = rep["fixed_point"]
            assert pw.act_point(x) == x
    _passline(3, "condition L vs isotropy", t0, 5.0)


def test_criterion_04_coe_oe_roundtrip():
    t0 = time.perf_counter()
    builders = (
        (identity_cocycle, "g2"),
        (swap_cocycle_two_loops, "g2"),
        (swap_cocycle_parallel_pair, "p2"),
    )
    for mk, name in builders:
        coc = mk(corpus.by_name(name))
        first = coe_check(coc, depth=6)
        assert first["failures"] == [], name
        oe = coe_to_oe(coc)
        second = oe_check(oe, depth=6)
        assert second["failures"] == [], name
        back = oe_to_coe(oe)
        assert cocycles_agree(coc, back, depth=6), name
        assert oe_agree(oe, coe_to_oe(back), depth=6), name
    _passline(4, "coe/oe roundtrip", t0, 2.0)


def test_criterion_05_paradox_witnesses():
    t0 = time.perf_counter()
    positives = set()
    for name in sorted(corpus.BUILDERS):
        g = corpus.by_name(name)
        pi = condition_pi(g)
        rep = paradox_report(g, stem_depth=3)
        assert rep["holds"] == pi.holds, name
        if pi.holds:
            positives.add(name)
            assert rep["verified"] == rep["stems"], name
            assert rep["refusals"] == [] and rep["failures"] == [], name
        else:
            assert rep["refusals"], name
    assert positives == {"g2", "g5", "g7", "p3"}
    _passline(5, "paradox witnesses", t0, 5.0)


def test_criterion_06_sigma_partial_hom():
    t0 = time.perf_counter()
    for name in ("g2", "g3"):
        rep = verify_partial_hom(corpus.by_name(name), 2)
        assert rep["failures"] == [], name
        assert rep["idempotent_pure_failures"] == [], name
        assert rep["pairs_checked"] > 0, name
    _passline(6, "sigma partial hom", t0, 1.0)


def test_criterion_07_boundary_invariance():
    t0 = time.perf_counter()
    for name in ("g1", "g2", "g3", "g4"):
        g = corpus.by_name(name)
        for depth in (1, 2):
            rep = check_boundary_invariance(g, depth)
            assert rep["violations"] == [], (name, depth)
    _passline(7, "boundary invariance", t0, 1.0)


def test_criterion_08_semigroup_witnesses():
    t0 = time.perf_counter()
    free = FreeMonoidFamily(2)
    got = boundary_paradox_witness(free, "x", ["xx"], depth=8)
    assert got["verified"]
    assert got["pair"] == ("xyx", "xyy")
    assert got["ideal"] == "xy"

    axb = axb_paradox_witness(AffineFamily(), Progression(0, 2),
                              [Progression(0, 6)])
    assert axb["a"] == 7 and axb["delta"] == 6
    assert axb["witnesses"] == [(0, 7), (6, 7)]
    assert axb["modulus"] == 84 and axb["verified"]

    for k in (1, 3):
        with pytest.raises(SemigroupError):
            boundary_paradox_witness(NkFamily(k), (0,) * k)
    _passline(8, "semigroup witnesses", t0, 2.0)


def test_criterion_09_independence_and_kernel():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        fam = NkFamily(k)
        ind = fam.independence_report()
        assert ind["independent"] and ind["exact"], k
        g0 = fam.g0_report()
        assert g0["kernel_is_whole_group"] and g0["exact"], k

    free = FreeMonoidFamily(2)
    ind = free.independence_report()
    assert ind["independent"] and ind["exact"]
    g0 = free.g0_report(bound=4)
    assert g0["kernel_trivial"] and g0["exact"]
    assert g0["scanned"] == 160
    _passline(9, "independence and kernel", t0, 1.0)


def test_criterion_10_cli_determinism(capsys):
    t0 = time.perf_counter()
    battery = [["check", "pi", "--graph", n] for n in sorted(corpus.BUILDERS)]
    battery += [
        ["check", "l", "--graph", "g1"],
        ["check", "tf", "--graph", "g2"],
        ["witness", "g2", "Z(v)"],
        ["witness", "g5", "Z(v)", "--expand", "3"],
        ["oe", "identity-g2", "--depth", "3"],
        ["oe", "swap-g2", "--depth", "3"],
        ["oe", "parallel-p2", "--depth", "3"],
        ["sgp", "affine", "witness", "--ideal", "0+2Z", "--exclude", "0+6Z"],
        ["sgp", "free:2", "witness", "--ideal", "x", "--exclude", "xx"],
        ["sgp", "nk:2", "kernel"],
        ["sgp", "affine", "minimality", "--stages", "1,2,3,4,6,12"],
    ]

    def sweep():
        outs = []
        for argv in battery:
            code = main(argv + ["--format", "json"])
            outs.append((code, capsys.readouterr().out))
        return outs

    first = sweep()
    second = sweep()
    assert first == second
    for code, out in first:
        json.loads(out)
        assert "elapsed" not in out
    _passline(10, "cli determinism", t0, 10.0)
