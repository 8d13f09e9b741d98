"""Command line front end.

Subcommands:

* check    -- structural conditions and action laws on a corpus graph
* witness  -- paradoxical pair search on a compact open set
* oe       -- cocycle and orbit-data roundtrips on built-in examples
* sgp      -- semigroup family checks and witnesses

Exit codes: 0 pass, 1 fail, 2 inconclusive, 64 usage.
"""

import argparse
import re
import sys
import time

from . import corpus
from .boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    make_cylinder,
    parse_stem,
    point_str,
    set_str,
    topological_freeness_report,
    verify_partial_action,
)
from .graph import Graph, GraphError, Path, condition_k, condition_l, condition_pi
from .invsgp import check_boundary_invariance, verify_partial_hom
from .orbit import (
    OrbitError,
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
from .paradox import PiecewiseWord, expand_witness, find_witness, verify_witness
from .reports import render
from .semigroups import (
    AffineFamily,
    FreeMonoidFamily,
    NkFamily,
    Progression,
    SemigroupError,
    boundary_minimality_probe,
    boundary_paradox_witness,
    rcomplete_hypothesis_check,
    thompson_truncated,
)

USAGE = 64
INCONCLUSIVE = 2


class ExprError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------- small parsers

def _at_least(low):
    """argparse type: an integer no smaller than low."""
    def parse(text):
        if not re.fullmatch(r"\s*[+-]?\d+\s*", text) or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _int_list(text):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _given(args, **names):
    """The bounds the user set, keyed by library parameter (names maps each
    parameter to its option); a bound left out takes the library's default."""
    return {kw: getattr(args, opt) for kw, opt in names.items()
            if getattr(args, opt) is not None}


def parse_set_expr(g: Graph, text: str) -> CompactOpen:
    """Z(stem), Z(stem - {inst, ...}), joined with +."""
    parts = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        m = re.fullmatch(r"Z\((.*)\)", chunk, re.S)
        if not m:
            raise ExprError(f"expected Z(...), got {chunk!r}")
        body = m.group(1).strip()
        excl_text = None
        m2 = re.fullmatch(r"(.*?)\s*-\s*\{(.*)\}", body, re.S)
        if m2:
            body, excl_text = m2.group(1).strip(), m2.group(2)
        try:
            stem = parse_stem(g, body)
            excl = []
            if excl_text is not None:
                for tok in excl_text.split(","):
                    tok = tok.strip()
                    if not tok:
                        raise ExprError("empty exclusion token")
                    p = parse_stem(g, tok)
                    if len(p) != 1:
                        raise ExprError(
                            f"exclusions are single instances, got {tok!r}")
                    excl.append(p.instances[0])
            parts.append(make_cylinder(g, stem, excl))
        except (GraphError, BoundaryError) as err:
            raise ExprError(str(err))
    return CompactOpen(g, parts)


_PROG = re.compile(r"^(-?\d+)\+(\d+)Z?$", re.I)


def parse_progression(text: str) -> Progression:
    m = _PROG.match(text.strip().replace(" ", ""))
    if not m:
        raise ExprError(f"expected r+mZ, got {text!r}")
    try:
        return Progression(int(m.group(1)), int(m.group(2)))
    except SemigroupError as err:
        raise ExprError(str(err))


def parse_free_word(fam: FreeMonoidFamily, text: str):
    try:
        return fam.word(text)
    except SemigroupError as err:
        raise ExprError(str(err))


def parse_family(text: str):
    if text == "affine":
        return AffineFamily()
    m = re.fullmatch(r"(nk|free):(\d+)", text)
    if not m:
        raise ExprError(f"unknown family {text!r}; use nk:K, free:N, affine")
    n = int(m.group(2))
    try:
        return NkFamily(n) if m.group(1) == "nk" else FreeMonoidFamily(n)
    except SemigroupError as err:
        raise ExprError(str(err))


# ------------------------------------------------------------ object cleanup

def _clean(g, x):
    """The one walk from a report to plain data; g prints paths and
    cylinders (the sgp reports hold neither and pass None).  Anything
    else, such as the path pairs of a failing sigma or invariance check,
    prints as its str()."""
    if isinstance(x, dict):
        return {k: _clean(g, v) for k, v in x.items()}
    if isinstance(x, PiecewiseWord):
        return [[set_str(U), str(w)] for U, w in x.pieces]
    if isinstance(x, Cylinder):  # a NamedTuple, so ahead of tuples
        return set_str(CompactOpen(g, [x]))
    if isinstance(x, (list, tuple)):
        return [_clean(g, v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(str(v) for v in x)
    if isinstance(x, Path):
        return g.path_str(x)
    if isinstance(x, BoundaryPoint):
        return point_str(x)
    if isinstance(x, CompactOpen):
        return set_str(x)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return str(x)


# ----------------------------------------------------------------- handlers

def _run_check(args):
    g = corpus.by_name(args.graph)
    prop = args.property
    rep = {"check": prop, "graph": args.graph}
    if prop == "l":
        holds, witness = condition_l(g)
        rep.update(holds=holds, witness=_clean(g, witness))
        return rep, 0 if holds else 1
    if prop == "k":
        holds, witness = condition_k(g)
        rep.update(holds=holds, witness=_clean(g, witness))
        return rep, 0 if holds else 1
    if prop == "pi":
        pi = condition_pi(g)
        rep.update(_clean(g, pi._asdict()))
        return rep, 0 if pi.holds else 1
    if prop == "tf":
        out = topological_freeness_report(
            g, **_given(args, word_bound="word_bound", stem_depth="depth"))
        rep.update(_clean(g, out))
        if not out["free"]:
            return rep, 1
        return rep, 0 if out["verified"] else INCONCLUSIVE
    if prop == "action":
        out = verify_partial_action(g, **_given(args, word_len="word_bound"))
        rep.update(_clean(g, out))
        return rep, 0 if not out["failures"] else 1
    if prop in ("sigma", "invariance"):
        bounds = _given(args, depth="depth")
        if prop == "sigma":
            out = verify_partial_hom(g, **bounds)
            ok = not out["failures"] and not out["idempotent_pure_failures"]
        else:
            out = check_boundary_invariance(g, **bounds)
            ok = not out["violations"]
        rep.update(_clean(g, out))
        # a depth-0 truncation holds only vertex paths: no edge was probed
        return rep, (0 if args.depth != 0 else INCONCLUSIVE) if ok else 1
    raise ExprError(f"unknown property {prop!r}")


def _run_witness(args):
    g = corpus.by_name(args.graph)
    U = parse_set_expr(g, args.set)
    rep = {"graph": args.graph, "set": _clean(g, U)}
    pair = find_witness(g, U, **_given(args, depth_cap="depth"))
    if pair is None:
        rep["found"] = False
        return rep, INCONCLUSIVE
    rep["found"] = True
    rep["pair"] = _clean(g, list(pair))
    check = verify_witness(g, U, list(pair))
    rep["verified"] = check["ok"]
    rep["failures"] = _clean(g, check["failures"])
    code = 0 if check["ok"] else 1
    if args.expand and check["ok"]:
        maps = expand_witness(g, pair, args.expand)
        more = verify_witness(g, U, maps)
        rep["expanded"] = {"count": args.expand, "verified": more["ok"]}
        if not more["ok"]:
            code = 1
    return rep, code


_OE_EXAMPLES = {
    "identity-g2": lambda: identity_cocycle(corpus.by_name("g2")),
    "swap-g2": lambda: swap_cocycle_two_loops(corpus.by_name("g2")),
    "parallel-p2": lambda: swap_cocycle_parallel_pair(corpus.by_name("p2")),
}


def _run_oe(args):
    coc = _OE_EXAMPLES[args.example]()
    bounds = _given(args, depth="depth")
    g = coc.homeo.source_graph
    first = coe_check(coc, **bounds)
    oe = coe_to_oe(coc)
    second = oe_check(oe, **bounds)
    back = oe_to_coe(oe)
    again = coe_to_oe(back)
    rep = {
        "example": args.example,
        "cocycle_check": _clean(g, first),
        "pieces": _clean(g, oe.pieces),
        "orbit_check": _clean(g, second),
        "cocycle_roundtrip_agrees": cocycles_agree(coc, back, **bounds),
        "orbit_roundtrip_agrees": oe_agree(oe, again, **bounds),
    }
    ok = (not first["failures"] and not second["failures"]
          and rep["cocycle_roundtrip_agrees"] and rep["orbit_roundtrip_agrees"])
    probed = first["checked"] and second["checked"]  # agreeing on no point is no pass
    return rep, (0 if probed else INCONCLUSIVE) if ok else 1


def _run_sgp(args):
    fam = parse_family(args.family)
    act = args.action
    rep = {"family": fam.name(), "action": act}
    if act == "independence":
        if isinstance(fam, AffineFamily):
            out = fam.independence_report(**_given(args, bound="modulus_bound"))
        else:
            out = fam.independence_report(**_given(args, trials="trials", seed="seed"))
        rep.update(_clean(None, out))
        return rep, 0 if out["independent"] else 1
    if act == "kernel":
        if isinstance(fam, NkFamily):
            out = fam.g0_report()
        elif isinstance(fam, FreeMonoidFamily):
            out = fam.g0_report(**_given(args, bound="word_bound"))
        else:
            out = fam.g0_report(**_given(args, bound="modulus_bound"))
        rep.update(_clean(None, out))
        # the kernel verdict is a computed group, not a pass/fail check
        return rep, 0 if out.get("exact") else INCONCLUSIVE
    if act == "witness":
        if isinstance(fam, AffineFamily):
            ideal = parse_progression(args.ideal or "0+1Z")
            excl = [parse_progression(t) for t in args.exclude]
        elif isinstance(fam, FreeMonoidFamily):
            ideal = parse_free_word(fam, args.ideal or "")
            excl = [parse_free_word(fam, t) for t in args.exclude]
        else:
            ideal, excl = args.ideal or "", args.exclude
        out = boundary_paradox_witness(fam, ideal, excl, **_given(args, depth="depth"))
        if out is None:
            rep["found"] = False
            return rep, INCONCLUSIVE
        rep.update(_clean(None, out))
        rep["found"] = True
        return rep, 0 if out["verified"] else 1
    if act == "minimality":
        if not args.stages:
            raise ExprError("minimality needs --stages")
        # corner offsets start at 0, progression moduli at 1
        low = {NkFamily: 0, AffineFamily: 1}.get(type(fam))
        if low is not None and min(args.stages) < low:
            raise ExprError(f"{args.family} stages must be >= {low}")
        if isinstance(fam, NkFamily):
            stages = [(s,) * fam.k for s in args.stages]
        else:
            stages = args.stages
        out = boundary_minimality_probe(fam, stages)
        rep.update(_clean(None, out))
        return rep, 0 if out["proper_filter"] else 1
    if act == "rcomplete":
        gens, rels = thompson_truncated(**_given(args, count="count"))
        out = rcomplete_hypothesis_check(gens, rels)
        rep.update(generators=gens,
                   relations=[[" ".join(l), " ".join(r)] for l, r in rels],
                   **out)
        return rep, 0 if out["holds"] else 1
    raise ExprError(f"unknown action {act!r}")


# --------------------------------------------------------------------- main

def _build_parser():
    p = _Parser(prog="gforge", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    names = sorted(corpus.BUILDERS)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    c = sub.add_parser("check", help="structural conditions and action laws")
    c.add_argument("property",
                   choices=("l", "k", "pi", "tf", "action", "sigma",
                            "invariance"))
    c.add_argument("--graph", required=True, choices=names)
    c.add_argument("--depth", type=_at_least(0))
    c.add_argument("--word-bound", type=_at_least(1))
    common(c)

    w = sub.add_parser("witness", help="paradoxical pair on a compact open set")
    w.add_argument("graph", choices=names)
    w.add_argument("set", help="e.g. 'Z(v)' or 'Z(a.a - {b}) + Z(b.a)'")
    w.add_argument("--depth", type=_at_least(0))
    w.add_argument("--expand", type=_at_least(2))
    common(w)

    o = sub.add_parser("oe", help="cocycle and orbit-data roundtrips")
    o.add_argument("example", choices=sorted(_OE_EXAMPLES))
    o.add_argument("--depth", type=_at_least(0))
    common(o)

    s = sub.add_parser("sgp", help="semigroup family checks")
    s.add_argument("family", help="nk:K, free:N, or affine")
    s.add_argument("action",
                   choices=("independence", "kernel", "witness", "minimality",
                            "rcomplete"))
    s.add_argument("--ideal")
    s.add_argument("--exclude", action="append", default=[])
    s.add_argument("--stages", type=_int_list)
    s.add_argument("--count", type=_at_least(1))
    s.add_argument("--trials", type=_at_least(1))
    s.add_argument("--seed", type=int)
    s.add_argument("--depth", type=_at_least(0))
    s.add_argument("--word-bound", type=_at_least(1))
    s.add_argument("--modulus-bound", type=_at_least(1))
    common(s)
    return p


_HANDLERS = {
    "check": _run_check,
    "witness": _run_witness,
    "oe": _run_oe,
    "sgp": _run_sgp,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else USAGE
    t0 = time.perf_counter()
    try:
        rep, code = _HANDLERS[args.command](args)
    except ExprError as err:
        print(f"gforge: {err}", file=sys.stderr)
        return USAGE
    except (GraphError, BoundaryError, OrbitError, SemigroupError) as err:
        print(f"gforge: {err}", file=sys.stderr)
        return 1
    if args.format == "text":
        rep["elapsed"] = round(time.perf_counter() - t0, 6)
    sys.stdout.write(render(rep, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
