import math
from fractions import Fraction

import pytest

from gforge import words
from gforge.semigroups import (
    AffineFamily,
    FreeMonoidFamily,
    NkFamily,
    Progression,
    SemigroupError,
    axb_paradox_witness,
    boundary_minimality_probe,
    boundary_paradox_witness,
    rcomplete_hypothesis_check,
    thompson_truncated,
)


# ----------------------------------------------------------- lattice corners

def test_nk_ideal_calculus():
    fam = NkFamily(3)
    x = fam.principal((1, 0, 2))
    y = fam.principal((0, 3, 1))
    assert fam.intersect(x, y) == (1, 3, 2)
    assert fam.contains(x, (1, 0, 2))
    assert fam.contains(x, (5, 1, 2))
    assert not fam.contains(x, (0, 9, 9))


def test_nk_rejects_bad_input():
    with pytest.raises(SemigroupError):
        NkFamily(0)
    fam = NkFamily(2)
    with pytest.raises(SemigroupError):
        fam.principal((1,))
    with pytest.raises(SemigroupError):
        fam.principal((-1, 0))


def test_nk_independent_with_full_kernel():
    fam = NkFamily(2)
    rep = fam.independence_report()
    assert rep["independent"] and rep["exact"]
    g0 = fam.g0_report()
    assert g0["kernel_is_whole_group"]
    assert g0["exact"]


# --------------------------------------------------------------- word cones

def test_word_cone_calculus():
    fam = FreeMonoidFamily(2)
    assert fam.letters == ("x", "y")
    assert fam.contains("xy", "xyxxy")
    assert not fam.contains("xy", "xx")
    with pytest.raises(SemigroupError, match="unknown letter 'q'"):
        fam.word("xq")
    # a part no letter matches is refused whole
    with pytest.raises(SemigroupError, match="unknown letter 'qx'"):
        fam.word("qx")
    with pytest.raises(SemigroupError):
        FreeMonoidFamily(1)


def test_word_spellings_past_three_letters():
    # letters x1..xn split by longest match, as the family spells its words
    fam = FreeMonoidFamily(4)
    assert fam.letters == ("x1", "x2", "x3", "x4")
    assert fam.word("x1x2") == ("x1", "x2")
    assert fam.word("") == ()
    assert fam.word(("x4", "x1")) == ("x4", "x1")
    assert fam.contains("x1", "x1x3")
    with pytest.raises(SemigroupError, match="unknown letter 'x5'"):
        fam.word("x5")
    with pytest.raises(SemigroupError):
        fam.word("x1q")
    assert FreeMonoidFamily(12).word("x12x1x10") == ("x12", "x1", "x10")


def test_word_cone_independence():
    rep = FreeMonoidFamily(2).independence_report()
    assert rep["independent"] and rep["exact"]


def test_group_ball_sizes():
    fam = FreeMonoidFamily(2)
    # 1 + 4 + 12 + 36 reduced words up to length 3
    assert len(list(words.ball(fam.letters, 3))) == 53


def test_free_kernel_trivial():
    rep = FreeMonoidFamily(2).g0_report(bound=4)
    assert rep["kernel_trivial"]
    assert rep["exact"]
    assert rep["scanned"] == 4 + 12 + 36 + 108
    assert len(rep["certificates"]) == 5
    assert all(c["direction"] in ("forward", "inverse")
               for _, c in rep["certificates"])


def test_free_kernel_witnesses():
    fam = FreeMonoidFamily(2)
    # positive words fail backwards on the clashing letter's cone
    w = fam.g0_witness((("x", 1), ("x", 1)))
    assert w == {"direction": "inverse", "cone": "y"}
    # an interior negative letter survives any positive append
    w = fam.g0_witness((("x", -1), ("y", 1)))
    assert w == {"direction": "forward", "cone": ""}
    # positive-then-negative: block the cancellation at the junction
    w = fam.g0_witness((("x", 1), ("y", -1)))
    assert w == {"direction": "forward", "cone": "x"}
    assert fam.cone_meets((("x", 1), ("y", -1)), "y")
    assert not fam.cone_meets((("x", 1), ("y", -1)), "x")
    with pytest.raises(SemigroupError):
        fam.g0_witness(())


# ------------------------------------------------------------- progressions

def test_progression_basics():
    p = Progression(7, 3)
    assert p.r == 1 and p.m == 3
    assert 10 in p and 11 not in p
    assert str(p) == "1+3Z"
    with pytest.raises(SemigroupError):
        Progression(0, 0)


def test_progression_intersection():
    a = Progression(1, 4)
    b = Progression(3, 6)
    got = a.intersect(b)
    assert got == Progression(9, 12)
    assert all(x in a and x in b for x in (9, 21, -3))
    # incompatible residues mod the gcd
    assert Progression(0, 4).intersect(Progression(1, 2)) is None
    # containment collapses to the finer one
    assert Progression(1, 2).intersect(Progression(3, 4)) == Progression(3, 4)


def test_affine_ideals():
    fam = AffineFamily()
    i = Progression(3, 4)
    assert fam.contains(i, (7, 8))
    assert not fam.contains(i, (7, 6))      # multiplier escapes 4Z
    assert not fam.contains(i, (6, 8))      # translation misses 3+4Z
    assert not fam.contains(i, (3, 0))


def test_affine_independence_and_kernel():
    fam = AffineFamily()
    rep = fam.independence_report(bound=5)
    assert rep["independent"] and rep["exact"]
    g0 = fam.g0_report(bound=2)
    assert not g0["kernel_trivial"]
    assert g0["infinite"]
    assert g0["exact"]
    assert g0["members_sampled"] > 0
    assert not g0["units_finite"]
    assert g0["uniqueness_certificate"] is None
    assert g0["scanned"] > 50


def test_affine_kernel_witnesses():
    fam = AffineFamily()
    # a half shift misses the integers on the full progression
    assert fam.g0_witness(Fraction(1, 2), 1) \
        == {"direction": "forward", "ideal": "0+1Z"}
    # doubling meets forward but its inverse halves the odd residues
    assert fam.g0_witness(0, 2) == {"direction": "inverse", "ideal": "1+2Z"}
    assert fam.translate_meets(Fraction(1, 2), Fraction(1, 2),
                               Progression(1, 2))
    assert not fam.translate_meets(Fraction(1, 2), Fraction(1, 2),
                                   Progression(0, 2))
    # a unit meets everything in both directions
    with pytest.raises(SemigroupError):
        fam.g0_witness(3, -1)


# --------------------------------------------------------- paradox witnesses

def test_cone_witness_frozen_example():
    fam = FreeMonoidFamily(2)
    got = boundary_paradox_witness(fam, "x", ["xx"], depth=8)
    assert got["verified"]
    assert got["character"] == "xy.(x)^inf"
    assert got["ideal"] == "xy"
    assert got["pair"] == ("xyx", "xyy")


def test_cone_witness_whole_monoid():
    fam = FreeMonoidFamily(2)
    got = boundary_paradox_witness(fam, "", [], depth=8)
    assert got["verified"]
    assert got["pair"] == ("x", "y")
    assert got["character"] == "(x)^inf"


def test_cone_witness_deeper_exclusions():
    fam = FreeMonoidFamily(2)
    got = boundary_paradox_witness(fam, "x", ["xyx", "xxx"], depth=8)
    assert got["verified"]
    base = got["ideal"]
    assert len(base) == 3
    assert base.startswith("x")
    assert not base.startswith("xyx") and not base.startswith("xxx")
    assert base == "xxy"  # the first unblocked word in letter order


def test_cone_witness_no_room():
    fam = FreeMonoidFamily(2)
    # every length-2 continuation of x is cut away
    got = boundary_paradox_witness(fam, "x", ["xx", "xy"], depth=8)
    assert got is None


def test_cone_witness_depth_guard():
    fam = FreeMonoidFamily(2)
    with pytest.raises(SemigroupError):
        boundary_paradox_witness(fam, "x", ["x" * 9], depth=8)


def test_corner_witness_refused():
    with pytest.raises(SemigroupError):
        boundary_paradox_witness(NkFamily(1), (0,))


def test_affine_witness_routed():
    fam = AffineFamily()
    direct = axb_paradox_witness(fam, Progression(0, 2), [Progression(0, 6)])
    routed = boundary_paradox_witness(fam, Progression(0, 2),
                                      [Progression(0, 6)])
    assert direct == routed


def test_axb_witness_frozen_example():
    got = axb_paradox_witness(AffineFamily(), Progression(0, 2),
                              [Progression(0, 6)])
    assert got["J"] == "0+6Z"
    assert got["a"] == 7
    assert got["delta"] == 6
    assert got["witnesses"] == [(0, 7), (6, 7)]
    assert got["modulus"] == 84
    assert got["verified"]


def test_axb_witness_no_exclusions():
    got = axb_paradox_witness(AffineFamily(), Progression(0, 3), [])
    assert got["J"] == "0+3Z"
    assert got["a"] == 4
    assert got["delta"] == 3
    assert got["verified"]


def test_axb_witness_preconditions():
    fam = AffineFamily()
    with pytest.raises(SemigroupError):
        axb_paradox_witness(fam, Progression(0, 4), [Progression(1, 2)])
    with pytest.raises(SemigroupError):
        axb_paradox_witness(fam, Progression(1, 2), [])
    with pytest.raises(SemigroupError):
        axb_paradox_witness(NkFamily(1), Progression(0, 2), [])


def test_axb_witness_refuses_a_sweep_past_a_million_residues():
    fam = AffineFamily()
    # the sweep covers ideal.m * J.m * (J.m + 1) residues
    with pytest.raises(SemigroupError, match=r"modulus 243270000 is past 10\*\*6"):
        axb_paradox_witness(fam, Progression(0, 300), [Progression(0, 900)])
    with pytest.raises(SemigroupError, match="modulus 1001000 "):
        boundary_paradox_witness(fam, Progression(0, 1), [Progression(0, 1000)])
    # the largest modulus the benchmark's affine commands reach
    assert axb_paradox_witness(fam, Progression(0, 4), [Progression(0, 16)])["modulus"] == 1088


def test_axb_witness_images_land_inside():
    got = axb_paradox_witness(AffineFamily(), Progression(0, 2),
                              [Progression(0, 6)])
    a, (b1, b2) = got["a"], (got["witnesses"][0][0], got["witnesses"][1][0])
    for x in range(-40, 40):
        if x % 2 == 0 and x % 6 != 0:
            for b in (b1, b2):
                y = a * x + b
                assert y % 2 == 0 and y % 6 != 0
    # images sit in distinct classes mod a
    assert b1 % a != b2 % a


# --------------------------------------------------------- hypothesis checks

def test_thompson_truncation_shape():
    gens, rels = thompson_truncated(4)
    assert gens == ["x1", "x2", "x3", "x4"]
    assert (("x2", "x1"), ("x1", "x3")) in rels
    assert len(rels) == 3


def test_rcomplete_passes_on_truncation():
    gens, rels = thompson_truncated(4)
    rep = rcomplete_hypothesis_check(gens, rels)
    assert rep["holds"]
    assert rep["partners"]["x1"] == "x4"
    assert rep["partners"]["x2"] == "x4"
    assert rep["partners"]["x3"] == "x4"
    assert rep["partners"]["x4"] == "x1"


def test_rcomplete_fails_when_saturated():
    gens = ["a", "b"]
    rels = [(("a", "a"), ("b", "b"))]
    # the single relation co-leads with {a, b}, leaving no partner
    rep = rcomplete_hypothesis_check(gens, rels)
    assert not rep["holds"]
    assert rep["stuck_at"] == "a"
    with pytest.raises(SemigroupError):
        rcomplete_hypothesis_check(gens, [((), ("a",))])


# -------------------------------------------------------------- stage probes

def test_minimality_probe_divisor_stages():
    stages = [d for d in range(1, 13) if 12 % d == 0]
    rep = boundary_minimality_probe(AffineFamily(), stages)
    assert rep["proper_filter"]
    assert rep["meet_modulus"] == 12
    assert rep["meet"] == "0+12Z"
    assert set(rep["character_on_stages"].values()) == {1}


def test_minimality_probe_prime_stages():
    rep = boundary_minimality_probe(AffineFamily(), [2, 3, 5])
    assert rep["proper_filter"]
    assert rep["meet_modulus"] == 30


def test_minimality_probe_corners():
    fam = NkFamily(2)
    rep = boundary_minimality_probe(fam, [(1, 0), (0, 2), (3, 1)])
    assert rep["proper_filter"]
    assert rep["meet"] == (3, 2)


def test_minimality_probe_refuses_cones():
    with pytest.raises(SemigroupError):
        boundary_minimality_probe(FreeMonoidFamily(2), ["x", "y"])


def test_lcm_sanity():
    assert math.lcm(2, 6, 7) == 42
