"""Orbit-level comparisons of boundary spaces.

Two presentations of the same relationship between a pair of boundaries:

* a word-valued cocycle for a homeomorphism, recording which word of the
  target action matches each generator of the source action piece by
  piece, and
* integer shift data, recording how many shift steps on each side
  reconcile the homeomorphism with one shift step at the source.

Both directions of translation are provided, together with honest
checkers that probe actual boundary points.  The translations need the
finitely many receiver instances per vertex to be enumerable, so they
refuse graphs with infinite multiplicities.
"""

from .boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    DomainError,
    PartialWord,
    cyl_contains,
    point_str,
    probe_points,
    sample_point,
)
from .graph import Graph, GraphError, INFINITE
from .words import ReducedWord


class OrbitError(Exception):
    pass


def _assert_finite_multiplicities(g: Graph):
    for e in g.edges.values():
        if e.multiplicity == INFINITE:
            raise GraphError(
                f"edge {e.eid} has infinite multiplicity; "
                "orbit translations need enumerable receivers")


def _same_tail_shape(gs: Graph, v1: str, gt: Graph, v2: str, seen: set) -> bool:
    # verbatim tails require identical receiver labels all the way down
    if (v1, v2) in seen:
        return True
    seen.add((v1, v2))
    r1 = [(e.eid, e.multiplicity) for e in gs.receivers(v1)]
    r2 = [(e.eid, e.multiplicity) for e in gt.receivers(v2)]
    if r1 != r2:
        return False
    return all(
        _same_tail_shape(gs, e1.source_vertex, gt, e2.source_vertex, seen)
        for e1, e2 in zip(gs.receivers(v1), gt.receivers(v2)))


class PrefixHomeo:
    """Boundary map by prefix substitution: each rule (mu, nu) sends
    mu followed by a tail to nu followed by the same tail.

    The mu stems must partition the source boundary and the nu stems the
    target boundary, and each rule's stems must end at vertices whose
    downstream receiver structure matches, so tails carry over verbatim.
    """

    __slots__ = ("source_graph", "target_graph", "rules")

    def __init__(self, source_graph: Graph, target_graph: Graph, rules):
        rules = tuple((mu, nu) for mu, nu in rules)
        seen = set()
        for mu, nu in rules:
            if not _same_tail_shape(source_graph, mu.source_vertex,
                                    target_graph, nu.source_vertex, seen):
                raise OrbitError(
                    f"rule {source_graph.path_str(mu)} -> "
                    f"{target_graph.path_str(nu)} has incompatible tails")
        for g, side in ((source_graph, 0), (target_graph, 1)):
            total = CompactOpen.empty(g)
            for rule in rules:
                piece = CompactOpen.cylinder(g, rule[side])
                if not piece.intersect(total).is_empty:
                    raise OrbitError(f"rule stems overlap on side {side}")
                total = total.union(piece)
            if total != CompactOpen.whole(g):
                raise OrbitError(f"rule stems do not cover side {side}")
        self.source_graph = source_graph
        self.target_graph = target_graph
        self.rules = rules

    @classmethod
    def identity(cls, g: Graph) -> "PrefixHomeo":
        rules = [(g.vertex_path(v), g.vertex_path(v)) for v in g.vertices]
        return cls(g, g, rules)

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        gt = self.target_graph
        for mu, nu in self.rules:
            if x.startswith(mu):
                tail = x.shift(len(mu))
                # _same_tail_shape made every tail past mu a point of gt past
                # nu, canonical there as it is here
                return BoundaryPoint(gt, nu.source_vertex, tail.prefix,
                                     tail.cycle).prepend(nu)
        raise OrbitError(f"{point_str(x)} escapes the rule partition")


class Cocycle:
    """Word-valued cocycle over a homeomorphism.

    table maps a generator word g of the source action to pieces of its
    domain with a value word each: on the piece, the homeomorphism sends
    the g-image of x to the value-image of the x-image.
    """

    __slots__ = ("homeo", "table")

    def __init__(self, homeo: PrefixHomeo, table):
        self.homeo = homeo
        self.table = {
            gen: tuple(entries) for gen, entries in table.items()}

    def generators(self):
        return sorted(self.table, key=ReducedWord.sort_key)

    def value(self, gen: ReducedWord, x: BoundaryPoint):
        """The value of the first piece of gen's row that holds x, or None."""
        for piece, value in self.table.get(gen, ()):
            if cyl_contains(piece, x):
                return value
        return None


def identity_cocycle(g: Graph) -> Cocycle:
    """The identity homeo with every generator matched to itself."""
    _assert_finite_multiplicities(g)
    table = {}
    for v in g.vertices:
        for inst in g.continuations(v):
            pos = ReducedWord(((inst, 1),))
            neg = pos.inverse()
            table[pos] = [(Cylinder(g.vertex_path(g.s_of(inst)), frozenset()), pos)]
            table[neg] = [(Cylinder(g.path_of(tuple(inst)), frozenset()), neg)]
    return Cocycle(PrefixHomeo.identity(g), table)


class OEData:
    """Integer shift data over a homeomorphism.

    pieces is a list of (cylinder, k, l): for x in the cylinder, k shift
    steps applied to the image of the shifted point agree with l shift
    steps applied to the image of the point itself.  Points the shift
    does not reach (length-zero finite points) are exempt.
    """

    __slots__ = ("homeo", "pieces")

    def __init__(self, homeo: PrefixHomeo, pieces):
        self.homeo = homeo
        self.pieces = tuple((c, int(k), int(l)) for c, k, l in pieces)

    def lookup(self, x: BoundaryPoint):
        for c, k, l in self.pieces:
            if cyl_contains(c, x):
                return k, l
        raise OrbitError(f"{point_str(x)} escapes the piece partition")


# ----------------------------------------------------------------- checkers

def coe_check(coc: Cocycle, depth: int = 3) -> dict:
    """Probe the cocycle identity on concrete points, piece by piece."""
    homeo = coc.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    rep = {"generators": 0, "pieces": 0, "checked": 0, "failures": []}
    pts = probe_points(gs, depth)
    for gen in coc.generators():
        rep["generators"] += 1
        pw = PartialWord.from_word(gs, gen)
        dom = pw.domain()
        covered = CompactOpen.empty(gs)
        for piece, value in coc.table[gen]:
            rep["pieces"] += 1
            pc = probed = CompactOpen(gs, [piece])
            if not pc.difference(dom).is_empty:
                rep["failures"].append((str(gen), "piece outside domain"))
                probed = pc.intersect(dom)      # gen acts only on dom
            if not pc.intersect(covered).is_empty:
                rep["failures"].append((str(gen), "pieces overlap"))
            covered = covered.union(pc)
            vw = PartialWord.from_word(gt, value)
            for x in pts:
                if x not in probed:
                    continue
                moved = homeo.apply(pw.act_point(x))
                try:
                    matched = vw.act_point(homeo.apply(x))
                except DomainError:
                    rep["failures"].append(
                        (str(gen), f"value undefined at {point_str(x)}"))
                    continue
                rep["checked"] += 1
                if moved != matched:
                    rep["failures"].append(
                        (str(gen), f"mismatch at {point_str(x)}"))
        if covered != dom:
            rep["failures"].append((str(gen), "pieces do not cover domain"))
    return rep


def oe_check(oe: OEData, depth: int = 3) -> dict:
    """Probe the shift identity on concrete points; undefined shifts skip."""
    homeo = oe.homeo
    gs = homeo.source_graph
    rep = {"pieces": len(oe.pieces), "checked": 0, "skips": 0, "failures": []}
    covered = CompactOpen.empty(gs)
    for c, _, _ in oe.pieces:
        pc = CompactOpen(gs, [c])
        if not pc.intersect(covered).is_empty:
            rep["failures"].append(("partition", "pieces overlap"))
        covered = covered.union(pc)
    if covered != CompactOpen.whole(gs):
        rep["failures"].append(("partition", "pieces do not cover"))
    for x in probe_points(gs, depth):
        try:
            k, l = oe.lookup(x)
        except OrbitError:
            rep["failures"].append(("partition", point_str(x)))
            continue
        try:
            left = homeo.apply(x.shift(1)).shift(k)
            right = homeo.apply(x).shift(l)
        except BoundaryError:
            rep["skips"] += 1
            continue
        rep["checked"] += 1
        if left != right:
            rep["failures"].append((point_str(x), f"k={k} l={l}"))
    return rep


# ------------------------------------------------------------- translations

def _negative_instance(gen: ReducedWord):
    if len(gen.letters) == 1 and gen.letters[0][1] == -1:
        return gen.letters[0][0]
    return None


def coe_to_oe(coc: Cocycle) -> OEData:
    """Read shift data off the cocycle's negative generators.

    A negative generator realizes one shift step on its domain, so the
    value word's two halves give the step counts directly.  Vertices
    without receivers keep their lone point out of the shift's reach and
    become zero pieces.
    """
    homeo = coc.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    _assert_finite_multiplicities(gs)
    pieces = []
    seen_instances = set()
    for gen in coc.generators():
        inst = _negative_instance(gen)
        if inst is None:
            continue
        seen_instances.add(inst)
        for piece, value in coc.table[gen]:
            vw = PartialWord.from_word(gt, value)
            if vw.is_empty_map:
                raise OrbitError(f"value of {gen} does not act")
            k = 0 if vw.is_identity else len(vw.alpha)
            l = 0 if vw.is_identity else len(vw.beta)
            pieces.append((piece, k, l))
    for v in gs.vertices:
        missing = [i for i in gs.continuations(v) if i not in seen_instances]
        if missing:
            raise OrbitError(
                f"no negative generator for {gs.instance_str(missing[0])}")
        if not gs.receivers(v):
            pieces.append((Cylinder(gs.vertex_path(v), frozenset()), 0, 0))
    return OEData(homeo, pieces)


def oe_to_coe(oe: OEData) -> Cocycle:
    """Rebuild a word cocycle from shift data.

    Pieces are refined to stems deep enough that the image heads the
    values are read from are constant on each piece; one sample point
    per refined stem then determines the value.
    """
    homeo = oe.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    _assert_finite_multiplicities(gs)
    _assert_finite_multiplicities(gt)
    rule_len = max((len(mu) for mu, _ in homeo.rules), default=0)
    piece_len = max((len(c.stem) for c, _, _ in oe.pieces), default=0)
    step = max((max(k, l) for _, k, l in oe.pieces), default=0)
    refine_depth = 2 * rule_len + piece_len + step + 2
    table = {}
    for stem in gs.maximal_stems(refine_depth):
        if not stem.instances:
            continue
        x = sample_point(gs, Cylinder(stem, frozenset()))
        k, l = oe.lookup(x)
        try:
            lam = homeo.apply(x.shift(1)).head(k)
            kap = homeo.apply(x).head(l)
        except BoundaryError as exc:
            raise OrbitError(
                f"shift data runs past the image of {point_str(x)}") from exc
        value = ReducedWord.from_pair(lam, kap)
        first = stem.instances[0]
        neg = ReducedWord(((first, 1),)).inverse()
        table.setdefault(neg, []).append(
            (Cylinder(stem, frozenset()), value))
        pos = neg.inverse()
        table.setdefault(pos, []).append(
            (Cylinder(gs.strip_prefix(stem, 1), frozenset()), value.inverse()))
    return Cocycle(homeo, table)


# ------------------------------------------------------------- agreement

def cocycles_agree(c1: Cocycle, c2: Cocycle, depth: int = 3) -> bool:
    """Same homeo behaviour and pointwise-equal cocycle action."""
    gs, gt = c1.homeo.source_graph, c1.homeo.target_graph
    pts = probe_points(gs, depth)
    for x in pts:
        if c1.homeo.apply(x) != c2.homeo.apply(x):
            return False
    for gen in set(c1.table) | set(c2.table):
        pw = PartialWord.from_word(gs, gen)
        if pw.is_empty_map:
            return False
        for x in pts:
            v0, v1 = c1.value(gen, x), c2.value(gen, x)
            if (v0 is None) != (v1 is None):
                return False
            if v0 is None or v0 == v1:
                continue
            fx = c1.homeo.apply(x)
            try:
                y0 = PartialWord.from_word(gt, v0).act_point(fx)
                y1 = PartialWord.from_word(gt, v1).act_point(fx)
            except DomainError:
                return False
            if y0 != y1:
                return False
    return True


def oe_agree(o1: OEData, o2: OEData, depth: int = 3) -> bool:
    """Pointwise-equal shift counts wherever the shift is defined."""
    gs = o1.homeo.source_graph
    for x in probe_points(gs, depth):
        if o1.homeo.apply(x) != o2.homeo.apply(x):
            return False
        if x.is_finite and len(x) == 0:
            continue
        if o1.lookup(x) != o2.lookup(x):
            return False
    return True


# --------------------------------------------------------------- examples

def swap_homeo(g: Graph, eid_a: str = "a", eid_b: str = "b") -> PrefixHomeo:
    """Exchange two parallel receiver instances at the first step."""
    pa, pb = g.path_of(eid_a), g.path_of(eid_b)
    rules = [(pa, pb), (pb, pa)]
    for v in g.vertices:
        if v != pa.range_vertex:
            rules.append((g.vertex_path(v), g.vertex_path(v)))
    return PrefixHomeo(g, g, rules)


def swap_cocycle_two_loops(g: Graph) -> Cocycle:
    """The first-letter swap on the two-loop graph, with its cocycle."""
    homeo = swap_homeo(g)
    a, b = g.path_of("a"), g.path_of("b")

    def w(*ids):
        return ReducedWord.from_path(g.path_of(*ids))

    table = {
        w("a"): [
            (Cylinder(a, frozenset()), w("b", "a") * w("b").inverse()),
            (Cylinder(b, frozenset()), w("b", "b") * w("a").inverse()),
        ],
        w("b"): [
            (Cylinder(a, frozenset()), w("a", "a") * w("b").inverse()),
            (Cylinder(b, frozenset()), w("a", "b") * w("a").inverse()),
        ],
        w("a").inverse(): [
            (Cylinder(g.path_of("a", "a"), frozenset()),
             w("b") * w("b", "a").inverse()),
            (Cylinder(g.path_of("a", "b"), frozenset()),
             w("a") * w("b", "b").inverse()),
        ],
        w("b").inverse(): [
            (Cylinder(g.path_of("b", "a"), frozenset()),
             w("b") * w("a", "a").inverse()),
            (Cylinder(g.path_of("b", "b"), frozenset()),
             w("a") * w("a", "b").inverse()),
        ],
    }
    return Cocycle(homeo, table)


def swap_cocycle_parallel_pair(g: Graph) -> Cocycle:
    """The swap of two parallel edges into a sink, with its cocycle."""
    homeo = swap_homeo(g, "f", "g")
    f, gg = g.path_of("f"), g.path_of("g")
    wf = ReducedWord.from_path(f)
    wg = ReducedWord.from_path(gg)
    sink = g.vertex_path(f.source_vertex)
    table = {
        wf: [(Cylinder(sink, frozenset()), wg)],
        wg: [(Cylinder(sink, frozenset()), wf)],
        wf.inverse(): [(Cylinder(f, frozenset()), wg.inverse())],
        wg.inverse(): [(Cylinder(gg, frozenset()), wf.inverse())],
    }
    return Cocycle(homeo, table)
