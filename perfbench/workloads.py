"""The four workloads: seeded inputs and the known answer for each verdict.

A verdict is one public checker call, or one CLI command, on one input,
compared with an answer fixed in this file.  The answers come from the
theorems the acceptance battery states (laws have no failures, roundtrips
are equal, paradox_report holds exactly when condition_pi holds, the
freeness report is free exactly when condition_l holds, the frozen
semigroup witnesses) and from hand-written tables; none is read back from
gforge's own output.

Every ``check`` returns one of the outcomes below or raises.  Item bodies
reach gforge through module attributes (``gf.boundary.verify_partial_action``)
so the tracer's shims see each call.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from typing import Callable, NamedTuple

PASS = "pass"
WRONG = "wrong"        # contradicts the known answer
VACUOUS = "vacuous"    # probed nothing, so it proves nothing
KNOWN = "known"        # the recorded condition_pi / paradox_report disagreement

# Copies of an infinite edge family that checkers enumerate (their default).
COPIES = 2


class Item(NamedTuple):
    kind: str
    tags: dict    # input size: vertices, edge instances, word bound, depth
    check: Callable[[], str]


class Gf:
    """The gforge modules of one import, looked up at call time."""

    def __init__(self):
        for name in ("corpus", "graph", "words", "boundary", "groupoid",
                     "orbit", "paradox", "invsgp", "semigroups", "cli"):
            setattr(self, name, importlib.import_module(f"gforge.{name}"))


# ------------------------------------------------------------------ helpers

def edge_instances(g) -> int:
    """Edge instances the checkers enumerate: infinite families give COPIES."""
    total = 0
    for e in g.edges.values():
        m = e.multiplicity
        total += COPIES if m == float("inf") else m
    return total


def graph_tags(g, **extra) -> dict:
    tags = {"vertices": len(g.vertices), "edge_instances": edge_instances(g)}
    tags.update(extra)
    return tags


def draw_graphs(gf, seeds, max_vertices, allow_infinite, count,
                keep=lambda g: True):
    """The first `count` random graphs from consecutive corpus seeds that
    have the wanted size.  Size is an input property fixed before timing,
    so every benchmark seed carries about the same work."""
    out = []
    for s in seeds:
        g = gf.corpus.random_graph(random.Random(s), max_vertices,
                                   allow_infinite=allow_infinite)
        if keep(g):
            out.append(g)
            if len(out) == count:
                return out
    raise RuntimeError("seed range exhausted before enough graphs")


def acts(g, word) -> bool:
    """Hand-written oracle: a reduced word moves points exactly when it reads
    alpha.beta^-1 with alpha and beta paths of the graph and, when both are
    nonempty, a common source."""
    pos, neg, seen_neg = [], [], False
    for inst, sign in word.letters:
        if sign == 1:
            if seen_neg:
                return False
            pos.append(inst)
        else:
            seen_neg = True
            neg.append(inst)
    neg.reverse()
    edges = g.edges

    def path_ok(insts):
        return all(edges[b.edge].range_vertex == edges[a.edge].source_vertex
                   for a, b in zip(insts, insts[1:]))

    if not path_ok(pos) or not path_ok(neg):
        return False
    if pos and neg:
        return edges[pos[-1].edge].source_vertex == edges[neg[-1].edge].source_vertex
    return True


def reduced_words(gf, g, length):
    """All reduced words up to length over the graph's letters (criterion 2)."""
    RW = gf.words.ReducedWord
    letters = []
    for v in sorted(g.vertices):
        for inst in g.continuations(v, COPIES):
            letters += [RW([(inst, 1)]), RW([(inst, -1)])]
    words, frontier = [RW()], [RW()]
    for _ in range(length):
        frontier = [w for u in frontier for let in letters
                    if len(w := u * let) > len(u)]
        words += frontier
    return words


def loopless_infinite_receivers(g) -> set:
    """Vertices that receive an infinite family and lie on no loop.

    Every condition_pi / paradox_report disagreement seen so far is on a
    graph with such a vertex, and paradox_report refuses without any
    failed certification (see perfbench/FINDINGS.md).  When the vertex is
    the source of no edge, only the empty word acts near the finite point
    that ends there, so its cylinder has no paradoxical pair although
    condition_pi holds.
    """
    inf = float("inf")
    out_edges = {}
    for e in g.edges.values():
        out_edges.setdefault(e.source_vertex, []).append(e.range_vertex)

    def on_loop(v):
        seen, stack = set(), list(out_edges.get(v, ()))
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.extend(out_edges.get(w, ()))
        return False

    return {e.range_vertex for e in g.edges.values()
            if e.multiplicity == inf and not on_loop(e.range_vertex)}


# ------------------------------------------------------------- action-laws

def _vpa_item(gf, g, word_len, tags):
    def check():
        rep = gf.boundary.verify_partial_action(g, word_len=word_len)
        if rep["failures"]:
            return WRONG
        return PASS if rep["words"] and rep["pairs"] else VACUOUS
    return Item("verify_partial_action", tags, check)


def _inverse_item(gf, g, u, pts, tags):
    """Word u undoes its inverse at every probe point of its domain."""
    def check():
        pu = gf.boundary.PartialWord.from_word(g, u)
        if pu.is_empty_map:
            return WRONG            # the oracle says u acts
        inv = pu.inverse()
        probes = 0
        for x in pts:
            if pu.is_identity or x.startswith(pu.beta):
                probes += 1
                if inv.act_point(pu.act_point(x)) != x:
                    return WRONG
        return PASS if probes else VACUOUS
    return Item("inverse_law", tags, check)


def _compose_item(gf, g, u, w, pts, tags):
    """u after w agrees with the product word wherever both steps act."""
    def check():
        from_word = gf.boundary.PartialWord.from_word
        pu, pw = from_word(g, u), from_word(g, w)
        if pu.is_empty_map or pw.is_empty_map:
            return WRONG
        puw = from_word(g, u * w)
        probes = 0
        for x in pts:
            if not x.startswith(pw.beta):
                continue
            probes += 1
            y = pw.act_point(x)
            if y.startswith(pu.beta):
                if puw.is_empty_map or not (
                        puw.is_identity or x.startswith(puw.beta)):
                    return WRONG
                if pu.act_point(y) != puw.act_point(x):
                    return WRONG
        return PASS if probes else VACUOUS
    return Item("composition_law", tags, check)


def _freeness_item(gf, g, tags):
    def check():
        holds, _ = gf.graph.condition_l(g)
        rep = gf.boundary.topological_freeness_report(g, word_bound=6,
                                                     stem_depth=2)
        if rep["free"] != holds:
            return WRONG
        if holds:
            if not rep["witnesses"]:
                return VACUOUS
            return PASS if rep["verified"] else WRONG
        pw = gf.boundary.PartialWord.from_word(g, rep["fixed_word"])
        x = rep["fixed_point"]
        return PASS if pw.act_point(x) == x else WRONG
    return Item("freeness", tags, check)


# Words of length at most 2 that act on each seeded action-laws graph.
ACTING_WORDS = 17


def action_laws(gf, seed):
    items = []
    for name in ("g1", "g2", "g3", "g4"):
        g = gf.corpus.by_name(name)
        items.append(_vpa_item(gf, g, 3, graph_tags(g, word_bound=3)))
        if name in ("g1", "g3"):
            # one and two probe points: their sweep verdicts take
            # microseconds and would only pile up below the median
            continue
        # the pointwise sweep of criterion 2 over the words that act
        words = [u for u in reduced_words(gf, g, 3) if acts(g, u)]
        pts = gf.boundary.probe_points(g, 6)
        tags = graph_tags(g, word_bound=3, depth=6)
        items += [_inverse_item(gf, g, u, pts, tags) for u in words]
        items += [_compose_item(gf, g, u, w, pts, tags)
                  for u in words for w in words
                  if u.letters and w.letters and len(u) + len(w) <= 3]
    # the freeness graphs of criterion 3: three corpus graphs, 20 random ones
    rng = random.Random(20260822)
    graphs = [gf.corpus.by_name(n) for n in ("g1", "g4", "g2")]
    graphs += [gf.corpus.random_graph(rng, 6, allow_infinite=True)
               for _ in range(20)]
    items += [_freeness_item(gf, g, graph_tags(g, word_bound=6, depth=2))
              for g in graphs]

    # Seeded random graphs of one stated size: 6 letters (37 words at
    # length 2), of which 17 act by the oracle above.  The law check's cost
    # follows the acting words (11 of them take a third of the time of 31),
    # so fixing both keeps the seed from moving throughput.  Each takes
    # longer than the fixed verdicts' 90th percentile, so the seed moves
    # no quantile either.
    def keep(g):
        return (edge_instances(g) == 3 and sum(
            acts(g, u) for u in reduced_words(gf, g, 2)) == ACTING_WORDS)
    block = range(1000 * (seed + 1), 1000 * (seed + 2))
    for g in draw_graphs(gf, block, 3, False, count=6, keep=keep):
        items.append(_vpa_item(gf, g, 2, graph_tags(
            g, word_bound=2, acting_words=ACTING_WORDS)))
    return items


# ---------------------------------------------------------------- roundtrip

# Germ bounds of criterion 1 and the number of admissible words each gives.
# g1 (one loop a): a^k for |k| <= B.  g2 (loops a, b): 1 + sum over
# lengths n of 2^(n+1) one-sided words plus (n-1) 2^(n-1) two-sided ones
# whose last letters differ.  g3 (u <- w along e): 1, e, e^-1.  g4 (loop a
# at v, c from w): a^k for |k| <= B, plus a^k.c and its inverse for k < B.
GERM_BOUNDS = {"g1": 250, "g2": 6, "g3": 3, "g4": 40}


def admissible_count(name, bound):
    if name == "g1":
        return 2 * bound + 1
    if name == "g2":
        return 1 + sum(2 ** (n + 1) + (n - 1) * 2 ** (n - 1)
                       for n in range(1, bound + 1))
    if name == "g3":
        return 3
    if name == "g4":
        return 4 * bound + 1
    raise KeyError(name)


def roundtrip(gf, seed):
    rng = random.Random(3_000_000 + seed)
    B, G = gf.boundary, gf.groupoid
    items = []
    for name, bound in GERM_BOUNDS.items():
        g = gf.corpus.by_name(name)
        tags = graph_tags(g, word_bound=bound)
        want = admissible_count(name, bound)

        def enumerate_check(g=g, bound=bound, want=want):
            words = B.admissible_words(g, bound)
            return PASS if len(words) == want else WRONG
        items.append(Item("admissible_words", tags, enumerate_check))

        germs = []
        for w in B.admissible_words(g, bound):
            for part in B.PartialWord.from_word(g, w).domain().parts:
                x = B.sample_point(g, part)
                if x is not None:
                    germs.append(G.PTGElement(g, w, x))
        for el in germs:
            def germ_check(g=g, w=el.word, x=el.point):
                d = G.to_dr(G.PTGElement(g, w, x))
                back = G.to_ptg(g, d)
                return PASS if G.to_dr(back) == d and back.point == x else WRONG
            items.append(Item("germ_roundtrip", tags, germ_check))

        # composition: germ s after germ t, with s based at t's image
        by_point = {}
        for el in germs:
            by_point.setdefault(el.point, []).append(el)
        pairs = []
        for t in germs:
            cands = by_point.get(t.image())
            if cands:
                pairs.append((rng.choice(cands), t))
        for s, t in rng.sample(pairs, min(len(pairs), 150)):
            def compose_check(g=g, s=s, t=t):
                ds = G.to_dr(G.PTGElement(g, s.word, s.point))
                dt = G.to_dr(G.PTGElement(g, t.word, t.point))
                prod = G.to_dr(G.PTGElement(g, s.word * t.word, t.point))
                return PASS if G.compose(ds, dt) == prod else WRONG
            items.append(Item("germ_compose", tags, compose_check))

    O = gf.orbit
    for make, name in ((O.identity_cocycle, "g2"),
                       (O.swap_cocycle_two_loops, "g2"),
                       (O.swap_cocycle_parallel_pair, "p2")):
        coc = make(gf.corpus.by_name(name))
        tags = graph_tags(coc.homeo.source_graph, depth=6)

        def coe(coc=coc):
            rep = O.coe_check(coc, depth=6)
            if rep["failures"]:
                return WRONG
            return PASS if rep["checked"] else VACUOUS

        def to_oe(coc=coc):
            rep = O.oe_check(O.coe_to_oe(coc), depth=6)
            if rep["failures"]:
                return WRONG
            return PASS if rep["checked"] else VACUOUS

        def back(coc=coc):
            oe = O.coe_to_oe(coc)
            again = O.oe_to_coe(oe)
            ok = (O.cocycles_agree(coc, again, depth=6)
                  and O.oe_agree(oe, O.coe_to_oe(again), depth=6))
            return PASS if ok else WRONG
        items += [Item("coe_check", tags, coe), Item("oe_check", tags, to_oe),
                  Item("coe_oe_roundtrip", tags, back)]
    return items


# ----------------------------------------------------------- paradox-census

# Whole-space pairs of the corpus (criterion 5).
PARADOX_CORPUS = frozenset({"g2", "g5", "g7", "p3"})


def _paradox_item(gf, g, stem_depth, tags):
    signature = bool(loopless_infinite_receivers(g))

    def check():
        holds = gf.graph.condition_pi(g).holds
        rep = gf.paradox.paradox_report(g, stem_depth=stem_depth)
        if not rep["stems"]:
            return VACUOUS
        if rep["holds"] == holds:
            if holds:
                ok = (rep["verified"] == rep["stems"]
                      and not rep["refusals"] and not rep["failures"])
            else:
                ok = bool(rep["refusals"] or rep["failures"])
            return PASS if ok else WRONG
        if holds and rep["refusals"] and not rep["failures"] and signature:
            return KNOWN
        return WRONG
    return Item("paradox_report", tags, check)


def _witness_item(gf, g, tags):
    signature = bool(loopless_infinite_receivers(g))

    def check():
        P = gf.paradox
        holds = gf.graph.condition_pi(g).holds
        U = gf.boundary.CompactOpen.whole(g)
        pair = P.find_witness(g, U)
        if pair is None:
            if not holds:
                return PASS     # no pair is promised outside condition (Pi)
            return KNOWN if signature else WRONG
        if not P.verify_witness(g, U, list(pair))["ok"]:
            return WRONG
        maps = P.expand_witness(g, pair, 3)
        return PASS if P.verify_witness(g, U, maps)["ok"] else WRONG
    return Item("whole_space_witness", tags, check)


def paradox_census(gf, seed):
    items = []
    for name in sorted(gf.corpus.BUILDERS):
        g = gf.corpus.by_name(name)
        items.append(_paradox_item(gf, g, 3, graph_tags(g, depth=3)))
        items.append(_witness_item(gf, g, graph_tags(g)))
    # The census random_graph(random.Random(s), 5, allow_infinite=True) for
    # s = 0..199 in which the disagreement was found, none skipped.  The
    # benchmark seed sets the order of the verdicts, not which graphs run:
    # graphs drawn per seed carried a varying number of disagreements, so
    # failed_share moved with the seed and two sets of runs could not agree.
    graphs = draw_graphs(gf, range(200), 5, True, count=200)
    for g in graphs:
        items.append(_paradox_item(gf, g, 2, graph_tags(g, depth=2)))
        items.append(_witness_item(gf, g, graph_tags(g)))
    random.Random(5_000_000 + seed).shuffle(items)
    return items


# -------------------------------------------------------------- cli-battery

# Exit codes: 0 pass, 1 fail.  Condition (Pi) holds on the corpus exactly
# at g2, g5, g7, p3; condition (L) fails only at g1, whose loop has no entry.
CRITERION_10 = [
    *[(["check", "pi", "--graph", n], 0 if n in PARADOX_CORPUS else 1)
      for n in ("g1", "g2", "g3", "g4", "g5", "g6", "g7", "p2", "p3")],
    (["check", "l", "--graph", "g1"], 1),
    (["check", "tf", "--graph", "g2"], 0),
    (["witness", "g2", "Z(v)"], 0),
    (["witness", "g5", "Z(v)", "--expand", "3"], 0),
    (["oe", "identity-g2", "--depth", "3"], 0),
    (["oe", "swap-g2", "--depth", "3"], 0),
    (["oe", "parallel-p2", "--depth", "3"], 0),
    (["sgp", "affine", "witness", "--ideal", "0+2Z", "--exclude", "0+6Z"], 0),
    (["sgp", "free:2", "witness", "--ideal", "x", "--exclude", "xx"], 0),
    (["sgp", "nk:2", "kernel"], 0),
    (["sgp", "affine", "minimality", "--stages", "1,2,3,4,6,12"], 0),
]

# Report fields that count what a command probed; zero means vacuous.
PROBE_FIELDS = ("words", "pairs", "pairs_checked", "checked", "checks",
                "scanned")


def _probed_nothing(rep) -> bool:
    if not isinstance(rep, dict):
        return False
    for key, value in rep.items():
        if key in PROBE_FIELDS and value == 0:
            return True
        if isinstance(value, dict) and _probed_nothing(value):
            return True
    if rep.get("free") is True and not rep.get("witnesses"):
        return True
    return False


def _cli_item(gf, argv, code, tags):
    argv = list(argv) + ["--format", "json"]

    def check():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = gf.cli.main(argv)
        if got != code:
            return WRONG
        if code == 1 and not out.getvalue():
            return PASS if err.getvalue().startswith("gforge: ") else WRONG
        rep = json.loads(out.getvalue())
        return VACUOUS if _probed_nothing(rep) else PASS
    return Item("cli", tags, check)


def cli_battery(gf, seed):
    rng = random.Random(4_000_000 + seed)
    cmds = list(CRITERION_10)
    # Law checks at default bounds on every corpus graph with at most 3 edge
    # instances, i.e. at most 37 words at length 2 (p3 has 145 and would
    # take a second alone).
    for name in sorted(gf.corpus.BUILDERS):
        g = gf.corpus.by_name(name)
        if edge_instances(g) <= 3:
            cmds.append((["check", "action", "--graph", name], 0))
        cmds.append((["check", "sigma", "--graph", name], 0))
        cmds.append((["check", "invariance", "--graph", name], 0))
    for fam in ("nk:1", "nk:2", "nk:3", "free:2", "free:3"):
        cmds.append((["sgp", fam, "independence",
                      "--seed", str(rng.randrange(10**6))], 0))
    cmds.append((["sgp", "affine", "independence"], 0))
    for fam in ("nk:1", "nk:3", "free:2", "free:3", "affine"):
        cmds.append((["sgp", fam, "kernel"], 0))
    # affine: a progression through 0 minus a proper subprogression always
    # duplicates; free:2: a cone minus one child cone always does; corners
    # always meet, so lattice families refuse (exit 1).
    for _ in range(3):
        m = rng.randint(1, 4)
        k = rng.randint(2, 4)
        cmds.append((["sgp", "affine", "witness", "--ideal", f"0+{m}Z",
                      "--exclude", f"0+{k * m}Z"], 0))
        stem = "".join(rng.choice("xy") for _ in range(rng.randint(1, 2)))
        cmds.append((["sgp", "free:2", "witness", "--ideal", stem,
                      "--exclude", stem + rng.choice("xy")], 0))
    cmds.append((["sgp", "nk:2", "witness"], 1))
    for fam, code in (("affine", 0), ("nk:2", 0), ("free:2", 1)):
        stages = ",".join(str(rng.randint(1, 12)) for _ in range(6))
        cmds.append((["sgp", fam, "minimality", "--stages", stages], code))
    rng.shuffle(cmds)

    items = []
    for argv, code in cmds:
        if argv[0] == "check":
            g = gf.corpus.by_name(argv[3])
            tags = graph_tags(g)
        elif argv[0] == "witness":
            tags = graph_tags(gf.corpus.by_name(argv[1]))
        else:
            tags = {}
        tags["command"] = " ".join(argv[:3])
        items.append(_cli_item(gf, argv, code, tags))
    return items


WORKLOADS = {
    "action-laws": action_laws,
    "roundtrip": roundtrip,
    "paradox-census": paradox_census,
    "cli-battery": cli_battery,
}
