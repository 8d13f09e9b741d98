import json
import time
from pathlib import Path

import pytest

from gforge import corpus
from gforge.boundary import (
    PartialWord,
    set_str,
    topological_freeness_report,
    verify_partial_action,
)
from gforge.cli import (
    _OE_EXAMPLES,
    _READS,
    ExprError,
    _build_parser,
    _clean,
    main,
    parse_family,
    parse_progression,
    parse_set_expr,
)
from gforge.graph import Edge, Graph
from gforge.orbit import cocycles_agree, coe_check, coe_to_oe, oe_agree, oe_check, oe_to_coe
from gforge.semigroups import (
    AffineFamily,
    FreeMonoidFamily,
    NkFamily,
    Progression,
    boundary_paradox_witness,
    rcomplete_hypothesis_check,
    thompson_truncated,
)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ------------------------------------------------------------------- check

def test_check_pi_verdicts(capsys):
    code, rep = run_json(capsys, "check", "pi", "--graph", "g2")
    assert code == 0 and rep["holds"] is True
    code, rep = run_json(capsys, "check", "pi", "--graph", "g1")
    assert code == 1 and rep["holds"] is False
    assert rep["k_witness"] == ["v", "a"]


def test_check_l_and_k(capsys):
    code, rep = run_json(capsys, "check", "l", "--graph", "g1")
    assert code == 1 and rep["witness"] == "a"
    code, rep = run_json(capsys, "check", "l", "--graph", "g2")
    assert code == 0 and rep["witness"] is None
    code, rep = run_json(capsys, "check", "k", "--graph", "g4")
    assert code == 1


def test_check_tf(capsys):
    code, rep = run_json(capsys, "check", "tf", "--graph", "g2",
                         "--word-bound", "6")
    assert code == 0 and rep["free"] and rep["verified"]
    code, rep = run_json(capsys, "check", "tf", "--graph", "g1")
    assert code == 1 and rep["free"] is False


def test_check_action_sigma_invariance(capsys):
    code, rep = run_json(capsys, "check", "action", "--graph", "g1")
    assert code == 0 and rep["failures"] == []
    code, rep = run_json(capsys, "check", "sigma", "--graph", "g3",
                         "--depth", "2")
    assert code == 0
    code, rep = run_json(capsys, "check", "invariance", "--graph", "g2",
                         "--depth", "2")
    assert code == 0 and rep["violations"] == []


# ----------------------------------------------------------------- witness

def test_witness_found_and_refused(capsys):
    code, rep = run_json(capsys, "witness", "g2", "Z(v)")
    assert code == 0 and rep["found"] and rep["verified"]
    code, rep = run_json(capsys, "witness", "g1", "Z(v)")
    assert code == 2 and rep["found"] is False


def test_witness_expand(capsys):
    code, rep = run_json(capsys, "witness", "g2", "Z(v)", "--expand", "4")
    assert code == 0
    assert rep["expanded"] == {"count": 4, "verified": True}


def test_witness_union_expression(capsys):
    code, rep = run_json(capsys, "witness", "g2", "Z(a.a - {b}) + Z(b.a)")
    assert code == 0 and rep["verified"]
    assert rep["set"].startswith("Z(")


@pytest.mark.parametrize("expr", ["Z(a)+Z(a.a)", "Z(v)+Z(a)"])
def test_witness_overlapping_parts(capsys, expr):
    code, rep = run_json(capsys, "witness", "g2", expr)
    assert code == 0 and rep["verified"] is True


# ----------------------------------------------------------- set expressions

def test_parse_set_expr_shapes():
    g = corpus.by_name("g2")
    U = parse_set_expr(g, "Z(v)")
    assert set_str(U) == "Z(v)"
    U = parse_set_expr(g, "Z(a.b - {a}) + Z(b)")
    assert len(U.parts) == 2
    # excluding every receiver empties the cylinder, which then drops out
    U = parse_set_expr(g, "Z(a.b - {a, b}) + Z(b)")
    assert len(U.parts) == 1
    with pytest.raises(ExprError):
        parse_set_expr(g, "Q(v)")
    with pytest.raises(ExprError):
        parse_set_expr(g, "Z(zz)")
    with pytest.raises(ExprError):
        parse_set_expr(g, "Z(v - {a.b})")


def test_parse_set_expr_instance_index():
    g5 = corpus.by_name("g5")
    U = parse_set_expr(g5, "Z(v - {f[0], f[2]})")
    only = U.parts[0]
    assert len(only.excl) == 2


def clash_graph():
    """Vertex a is also the name of the loop at v."""
    return Graph(["v", "a"], [Edge("a", "v", "v", 1)])


def test_parse_set_expr_name_clash():
    g = clash_graph()
    with pytest.raises(ExprError):
        parse_set_expr(g, "Z(a)")
    # dotted spellings stay unambiguous
    assert parse_set_expr(g, "Z(a.a)") is not None


def test_clashing_exclusion_is_a_usage_error(capsys, monkeypatch):
    # an exclusion is read by the same rule as a stem: no silent edge reading
    monkeypatch.setitem(corpus.BUILDERS, "clash", clash_graph)
    assert main(["witness", "clash", "Z(v - {a})"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gforge: 'a' names both a vertex and an edge\n"
    assert main(["witness", "clash", "Z(v - {a.a})"]) == 64  # not one instance
    capsys.readouterr()


@pytest.mark.parametrize("graph, expr, name", [
    ("g3", "Z(v)", "v"), ("g2", "Z(q)", "q"), ("g2", "Z(v - {q})", "q")])
def test_bare_name_of_nothing_is_unknown_vertex_or_edge(capsys, graph, expr, name):
    assert main(["witness", graph, expr]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gforge: unknown vertex or edge {name!r}\n"


def test_parse_progression_and_family():
    assert parse_progression("3+4Z") == Progression(3, 4)
    assert parse_progression("-1+6") == Progression(5, 6)
    with pytest.raises(ExprError):
        parse_progression("4Z")
    fam = parse_family("nk:3")
    assert isinstance(fam, NkFamily) and fam.k == 3
    with pytest.raises(ExprError):
        parse_family("free:1")
    with pytest.raises(ExprError):
        parse_family("widgets")


# ---------------------------------------------------------------------- oe

def test_oe_examples(capsys):
    for name in ("identity-g2", "swap-g2", "parallel-p2"):
        code, rep = run_json(capsys, "oe", name, "--depth", "3")
        assert code == 0, name
        assert rep["cocycle_roundtrip_agrees"] and rep["orbit_roundtrip_agrees"]


def test_oe_probing_no_point_is_inconclusive(capsys):
    for name in ("identity-g2", "swap-g2", "parallel-p2"):
        code, rep = run_json(capsys, "oe", name, "--depth", "0")
        assert code == 2, name
        assert rep["cocycle_roundtrip_agrees"] and rep["orbit_roundtrip_agrees"]
        assert rep["orbit_check"]["checked"] == 0


def test_depth_zero_truncation_checks_are_inconclusive(capsys):
    # a depth-0 truncation holds only vertex paths, so no edge is probed
    for prop in ("sigma", "invariance"):
        for name in ("g1", "g2", "g5"):
            code, rep = run_json(capsys, "check", prop, "--graph", name,
                                 "--depth", "0")
            assert code == 2, (prop, name)
            assert not rep.get("failures") and not rep.get("violations")
            code, _ = run_json(capsys, "check", prop, "--graph", name,
                               "--depth", "1")
            assert code == 0, (prop, name)


def test_oe_swap_pieces(capsys):
    _, rep = run_json(capsys, "oe", "swap-g2", "--depth", "3")
    assert [tuple(p) for p in rep["pieces"]] == [
        ("Z(a.a)", 1, 2), ("Z(a.b)", 1, 2), ("Z(b.a)", 1, 2), ("Z(b.b)", 1, 2)]


# --------------------------------------------------------------------- sgp

def test_sgp_affine_witness(capsys):
    code, rep = run_json(capsys, "sgp", "affine", "witness",
                         "--ideal", "0+2Z", "--exclude", "0+6Z")
    assert code == 0
    assert rep["a"] == 7 and rep["delta"] == 6 and rep["modulus"] == 84
    # an empty set holds nothing to duplicate: no witness, as for Z(v - {a, b})
    for exclude in ("0+2Z", "0+1Z"):
        code, rep = run_json(capsys, "sgp", "affine", "witness",
                             "--ideal", "0+2Z", "--exclude", exclude)
        assert code == 2 and rep["found"] is False and "verified" not in rep


def test_sgp_affine_witness_refuses_a_sweep_past_a_million_residues(capsys):
    for fmt in ("text", "json"):
        start = time.perf_counter()
        assert main(["sgp", "affine", "witness", "--ideal", "0+300Z",
                     "--exclude", "0+900Z", "--format", fmt]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gforge: residue sweep of modulus 243270000 is past 10**6\n"


def test_sgp_kernel_refuses_a_scan_past_a_million(capsys):
    for argv, err in [
            (["free:2", "kernel", "--word-bound", "12"],
             "kernel scan at word bound 12 is past 10**6 words"),
            (["affine", "kernel", "--modulus-bound", "23"],
             "kernel scan at modulus bound 23 is past 10**6 pairs")]:
        for fmt in ("text", "json"):
            start = time.perf_counter()
            assert main(["sgp", *argv, "--format", fmt]) == 1
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"gforge: {err}\n"


def test_broken_certificates_end_in_one_line(capsys, monkeypatch):
    # explicit checks, so a broken certificate also fails under python -O
    broken = [
        (AffineFamily, "translate_meets", ["sgp", "affine", "kernel", "--modulus-bound", "1"],
         "unit (-1, -1) misses an ideal"),
        (AffineFamily, "contains", ["sgp", "affine", "independence", "--modulus-bound", "1"],
         "witness (0, 5) escapes 0+1Z"),
        # the entry-less loop of g1 must fix the point it freezes
        (PartialWord, "act_point", ["check", "tf", "--graph", "g1"],
         "the entry-less loop at v does not fix its point"),
    ]
    for cls, name, argv, err in broken:
        with monkeypatch.context() as m:
            m.setattr(cls, name, lambda *args: False)
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gforge: {err}\n"


def test_sgp_free_witness(capsys):
    code, rep = run_json(capsys, "sgp", "free:2", "witness",
                         "--ideal", "x", "--exclude", "xx")
    assert code == 0
    assert rep["pair"] == ["xyx", "xyy"]
    code, rep = run_json(capsys, "sgp", "free:2", "witness",
                         "--ideal", "x", "--exclude", "xx", "--exclude", "xy")
    assert code == 2 and rep["found"] is False


def test_sgp_free_witness_past_three_letters(capsys):
    # letters x1..xN are spelled as the family prints them
    code, rep = run_json(capsys, "sgp", "free:4", "witness",
                         "--ideal", "x1", "--exclude", "x1x1")
    assert code == 0 and rep["verified"] is True
    assert rep["set"] == "U(x1; x1x1)" and rep["pair"] == ["x1x2x1", "x1x2x2"]
    assert main(["sgp", "free:4", "witness", "--ideal", "x5"]) == 64
    assert capsys.readouterr().err == "gforge: unknown letter 'x5'\n"


@pytest.mark.parametrize("argv, culprit", [
    (["--ideal", "x" * 10], "the ideal runs"),
    (["--ideal", "x", "--exclude", "x" * 10], "exclusions run"),
])
def test_sgp_free_witness_names_what_runs_past_the_depth(capsys, argv, culprit):
    assert main(["sgp", "free:2", "witness", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gforge: {culprit} past the search depth\n"


def test_sgp_corner_witness_fails(capsys):
    code = main(["sgp", "nk:1", "witness"])
    capsys.readouterr()
    assert code == 1


def test_sgp_reports(capsys):
    code, rep = run_json(capsys, "sgp", "affine", "independence")
    assert code == 0 and rep["independent"]
    code, rep = run_json(capsys, "sgp", "free:2", "kernel")
    assert code == 0 and rep["kernel_trivial"]
    code, rep = run_json(capsys, "sgp", "nk:2", "kernel")
    assert code == 0 and rep["kernel_is_whole_group"]
    code, rep = run_json(capsys, "sgp", "affine", "kernel")
    assert code == 0 and rep["infinite"] and not rep["kernel_trivial"]
    code, rep = run_json(capsys, "sgp", "affine", "minimality",
                         "--stages", "1,2,3,4,6,12")
    assert code == 0 and rep["meet_modulus"] == 12
    code, rep = run_json(capsys, "sgp", "free:2", "rcomplete")
    assert code == 0 and rep["partners"]["x1"] == "x4"


# ------------------------------------------------- defaults of the library

@pytest.mark.parametrize("name", ["g1", "g2", "g5"])
def test_check_without_bounds_uses_the_library_defaults(capsys, name):
    g = corpus.by_name(name)
    for prop, out in [("tf", topological_freeness_report(g)),
                      ("action", verify_partial_action(g))]:
        _, rep = run_json(capsys, "check", prop, "--graph", name)
        assert rep == {"check": prop, "graph": name, **_clean(g, out)}, prop


@pytest.mark.parametrize("example", sorted(_OE_EXAMPLES))
def test_oe_without_depth_uses_the_library_default(capsys, example):
    coc = _OE_EXAMPLES[example]()
    g = coc.homeo.source_graph
    oe = coe_to_oe(coc)
    back = oe_to_coe(oe)
    _, rep = run_json(capsys, "oe", example)
    assert rep["cocycle_check"] == _clean(g, coe_check(coc))
    assert rep["orbit_check"] == _clean(g, oe_check(oe))
    assert rep["cocycle_roundtrip_agrees"] == cocycles_agree(coc, back)
    assert rep["orbit_roundtrip_agrees"] == oe_agree(oe, coe_to_oe(back))


def test_sgp_without_bounds_uses_the_library_defaults(capsys):
    nk, free, affine = NkFamily(2), FreeMonoidFamily(2), AffineFamily()
    cases = [
        (["nk:2", "independence"], nk.independence_report()),
        (["free:2", "independence"], free.independence_report()),
        (["affine", "independence"], affine.independence_report()),
        (["nk:2", "kernel"], nk.g0_report()),
        (["free:2", "kernel"], free.g0_report()),
        (["affine", "kernel"], affine.g0_report()),
        (["free:2", "witness", "--ideal", "x", "--exclude", "xx"],
         {**boundary_paradox_witness(free, free.word("x"), [free.word("xx")]),
          "found": True}),
        (["affine", "witness", "--ideal", "0+2Z", "--exclude", "0+6Z"],
         {**boundary_paradox_witness(affine, Progression(0, 2), [Progression(0, 6)]),
          "found": True}),
    ]
    for argv, out in cases:
        _, rep = run_json(capsys, "sgp", *argv)
        expected = {"family": parse_family(argv[0]).name(), "action": argv[1]}
        assert rep == {**expected, **_clean(None, out)}, argv
    gens, rels = thompson_truncated()
    _, rep = run_json(capsys, "sgp", "nk:1", "rcomplete")
    assert rep["generators"] == gens and len(rep["relations"]) == len(rels)
    out = rcomplete_hypothesis_check(gens, rels)
    assert {k: rep[k] for k in out} == _clean(None, out)


# ------------------------------------------------------------ usage and env

def test_usage_exits(capsys):
    assert main(["check", "l", "--graph", "nope"]) == 64
    capsys.readouterr()
    assert main(["witness", "g2", "plainly wrong"]) == 64
    capsys.readouterr()
    assert main(["sgp", "widgets", "kernel"]) == 64
    capsys.readouterr()
    assert main(["sgp", "affine", "minimality"]) == 64
    capsys.readouterr()
    assert main(["witness", "g2", "Z(v)", "--expand", "1"]) == 64
    capsys.readouterr()
    assert main(["sgp", "affine", "minimality", "--stages", "x,2"]) == 64
    capsys.readouterr()


def test_out_of_range_bounds_are_usage_errors(capsys):
    bad = [
        ["check", "tf", "--graph", "g2", "--word-bound", "-1"],
        ["check", "sigma", "--graph", "g2", "--depth", "-2"],
        ["check", "invariance", "--graph", "g2", "--depth", "-1"],
        ["check", "action", "--graph", "g1", "--word-bound", "two"],
        ["witness", "g2", "Z(v)", "--depth", "-1"],
        ["witness", "g2", "Z(v)", "--expand", "0"],
        ["oe", "swap-g2", "--depth", "-1"],
        ["sgp", "free:2", "kernel", "--word-bound", "-1"],
        ["sgp", "affine", "kernel", "--modulus-bound", "0"],
        ["sgp", "affine", "independence", "--modulus-bound", "0"],
        ["sgp", "free:2", "rcomplete", "--count", "0"],
        ["sgp", "nk:2", "independence", "--trials", "0"],
        ["sgp", "free:2", "witness", "--depth", "-1"],
        ["sgp", "affine", "witness", "--ideal", "0+0Z"],
        ["sgp", "affine", "witness", "--exclude", "1+0Z"],
        ["sgp", "affine", "minimality", "--stages", "0"],
        ["sgp", "nk:2", "minimality", "--stages", "-1"],
        ["sgp", "nk:2", "minimality", "--stages", ","],
        ["sgp", "affine", "kernel", "--stages", ""],
        ["sgp", "free:2", "witness", "--ideal", "xq"],
        ["sgp", "free:2", "witness", "--ideal", "x", "--exclude", "q"],
    ]
    for argv in bad:
        assert main(argv) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("gforge"), argv
        assert captured.err.count("\n") == 1, argv
    # every enumeration takes two copies of an infinite family: no --copies
    assert main(["check", "action", "--graph", "g5", "--copies", "2"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gforge") and "--copies" in captured.err
    assert captured.err.count("\n") == 1
    # depth 0 is a meaningful bound where stems start at the vertices
    assert main(["check", "tf", "--graph", "g2", "--depth", "0"]) == 0
    assert main(["witness", "g2", "Z(v)", "--depth", "0"]) == 0
    capsys.readouterr()


# the options each subcommand defines, with a value its parser accepts
_DEFINED = {
    "check": {"depth": "1", "word_bound": "2"},
    "witness": {"depth": "1", "expand": "2"},
    "oe": {"depth": "1"},
    "sgp": {"ideal": "x", "exclude": "x", "stages": "1,2", "count": "2",
            "trials": "2", "seed": "1", "depth": "1", "word_bound": "2",
            "modulus_bound": "2"},
}
_BASE = {"check": ["--graph", "g2"], "witness": ["g2", "Z(v)"],
         "oe": ["swap-g2"], "sgp": []}


@pytest.mark.parametrize("key", sorted(_READS))
def test_options_a_command_ignores_are_usage_errors(capsys, key):
    command, *rest = key
    if command == "sgp":
        rest = [{"nk": "nk:2", "free": "free:2"}.get(rest[0], rest[0]), rest[1]]
    unread = [o for o in _DEFINED[command] if o not in _READS[key]]
    for opt in unread:
        flag = "--" + opt.replace("_", "-")
        argv = [command, *rest, *_BASE[command], flag, _DEFINED[command][opt]]
        assert main(argv) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gforge: {' '.join(key)} does not read {flag}\n"


def test_every_unread_option_is_named(capsys):
    assert main(["sgp", "nk:2", "kernel", "--word-bound", "3",
                 "--modulus-bound", "3"]) == 64
    assert capsys.readouterr().err == (
        "gforge: sgp nk kernel does not read --modulus-bound, --word-bound\n")
    # an unknown family is refused as before, whatever else is set
    assert main(["sgp", "widgets", "kernel", "--depth", "2"]) == 64
    assert capsys.readouterr().err.startswith("gforge: unknown family 'widgets'")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    parser = _build_parser()
    assert _build_parser() is parser
    # argparse appends --exclude to a copy of its default, never to the default
    one = parser.parse_args(["sgp", "free:2", "witness", "--exclude", "xx"])
    two = parser.parse_args(["sgp", "free:2", "witness"])
    assert one.exclude == ["xx"] and two.exclude == []
    free = FreeMonoidFamily(2)

    def expected(ideal, excl):
        out = boundary_paradox_witness(free, free.word(ideal), [free.word(e) for e in excl])
        return {"family": free.name(), "action": "witness", **_clean(None, out),
                "found": True}

    runs = [("x", ["xx"]), ("x", ["xy"]), ("x", []), ("", ["x", "yx"]), ("y", [])]
    for ideal, excl in runs:
        argv = ["sgp", "free:2", "witness", "--ideal", ideal]
        for e in excl:
            argv += ["--exclude", e]
        code, rep = run_json(capsys, *argv)
        assert code == 0 and rep == expected(ideal, excl), argv
    # a usage error leaves nothing behind for the next command
    before = run(capsys, "check", "l", "--graph", "g2", "--format", "json")
    assert main(["check", "l", "--graph", "nope"]) == 64
    assert main(["check", "l", "--graph", "g2", "--depth", "2"]) == 64
    assert main(["sgp", "free:2", "witness", "--exclude", "q"]) == 64
    capsys.readouterr()
    assert run(capsys, "check", "l", "--graph", "g2", "--format", "json") == before
    code, rep = run_json(capsys, "sgp", "free:2", "witness", "--ideal", "x")
    assert code == 0 and rep == expected("x", [])


def test_json_byte_determinism(capsys):
    one = run(capsys, "witness", "g2", "Z(v)", "--format", "json")
    two = run(capsys, "witness", "g2", "Z(v)", "--format", "json")
    assert one == two
    a = run(capsys, "sgp", "affine", "witness", "--ideal", "0+2Z",
            "--exclude", "0+6Z", "--format", "json")
    b = run(capsys, "sgp", "affine", "witness", "--ideal", "0+2Z",
            "--exclude", "0+6Z", "--format", "json")
    assert a == b
    assert "elapsed" not in a[1]


def test_text_format_shows_elapsed(capsys):
    code, out = run(capsys, "check", "l", "--graph", "g2")
    assert code == 0
    assert "elapsed:" in out


GOLDEN = Path(__file__).parent / "golden" / "cli_battery.json"


def test_cli_battery_matches_golden(capsys):
    """Exit codes and output of the criterion-10 battery, the action,
    sigma and invariance checks on g1, g2 and g4, the tf and k checks on
    the corpus graphs, the witnesses on g7 Z(u), p3 Z(v) and g2 Z(v - {a}),
    oe and the sgp independence and kernel reports at their default bounds,
    and sgp nk:1 rcomplete, byte for byte as recorded in
    tests/golden/cli_battery.json.  Entries marked "format": "text" are the
    text rendering with its elapsed: line removed; the rest are JSON."""
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) == 63
    for case in cases:
        fmt = case.get("format", "json")
        code, out = run(capsys, *case["argv"], "--format", fmt)
        if fmt == "text":
            out = "".join(line for line in out.splitlines(keepends=True)
                          if not line.startswith("elapsed: "))
        assert (code, out) == (case["code"], case["stdout"]), case["argv"]
