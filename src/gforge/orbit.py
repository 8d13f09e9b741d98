"""Orbit-level comparisons of boundary spaces.

Two presentations of the same relationship between a pair of boundaries:

* a word-valued cocycle for a homeomorphism, recording which word of the
  target action matches each generator of the source action piece by
  piece, and
* integer shift data, recording how many shift steps on each side
  reconcile the homeomorphism with one shift step at the source.

Both directions of translation are provided, together with checkers
that certify each identity on every point.  The translations and the
checkers need the finitely many receiver instances per vertex to be
enumerable, so they refuse graphs with infinite multiplicities.

Rule stems, cocycle rows and shift data are tables of cylinders that must
partition a set.  Each table is certified where it is read, by the
cylinder algebra of boundary.py: cyl_overlaps gives the pieces that meet
an earlier one and cyl_inside whether the pieces lie in a set and cover
it.  The homeo certifies its rule stems at construction, coe_check each
cocycle row, and oe_check and oe_to_coe the shift data.

Each check cuts its pieces into locality cylinders, whose stems fix every
rule and word involved, and evaluates its identity with act_point,
PrefixHomeo.apply and shift at two points of each, or at its only point:
two prefix maps that agree at two points are equal (_samples).  The depth
a check is given is the least depth of the cut.
"""

from types import MappingProxyType

from .boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    DomainError,
    PartialWord,
    cyl_inside,
    cyl_intersect,
    cyl_is_empty,
    cyl_overlaps,
    point_str,
    sample_pair,
    sample_point,
)
from .graph import Graph, GraphError, INFINITE, Path
from .words import ReducedWord


class OrbitError(Exception):
    pass


def _tiles(g: Graph, cylinders) -> bool:
    """The cylinders cover the whole boundary of g."""
    return cyl_inside(g, CompactOpen.whole(g).parts, CompactOpen(g, cylinders))


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
    A rule acts by the act_point of its map PartialWord(target_graph, nu,
    mu), built once here: its beta is a source path.

    At most one rule stem heads any path.  A rule cylinder has no
    exclusions, so it holds the cylinder of every path its stem heads, and
    no such cylinder is empty: a path ends at a singular vertex or extends
    by a receiver.  Two rule stems on one path would therefore meet, which
    the certificate refuses.  A point's rule is the one whose stem is a
    prefix of its first R letters, R the longest rule stem, looked up in
    one dict keyed by (range vertex, stem instances).
    """

    __slots__ = ("source_graph", "target_graph", "rules", "_rule_of", "_rule_len", "_maps")

    def __init__(self, source_graph: Graph, target_graph: Graph, rules):
        rules = tuple((mu, nu) for mu, nu in rules)
        seen = set()
        for mu, nu in rules:
            if not _same_tail_shape(source_graph, mu.source_vertex,
                                    target_graph, nu.source_vertex, seen):
                raise OrbitError(
                    f"rule {source_graph.path_str(mu)} -> "
                    f"{target_graph.path_str(nu)} has incompatible tails")
        for side, g in enumerate((source_graph, target_graph)):
            cyls = [Cylinder(rule[side], frozenset()) for rule in rules]
            if cyl_overlaps(g, cyls):
                raise OrbitError(f"rule stems overlap on side {side}")
            if not _tiles(g, cyls):
                raise OrbitError(f"rule stems do not cover side {side}")
        self.source_graph = source_graph
        self.target_graph = target_graph
        self.rules = rules
        self._rule_of = {(mu.range_vertex, mu.instances): i for i, (mu, _) in enumerate(rules)}
        self._rule_len = max((len(mu) for mu, _ in rules), default=0)
        self._maps = tuple(PartialWord(target_graph, nu, mu) for mu, nu in rules)

    @classmethod
    def identity(cls, g: Graph) -> "PrefixHomeo":
        rules = [(g.vertex_path(v), g.vertex_path(v)) for v in g.vertices]
        return cls(g, g, rules)

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        letters, cyc, r = x.prefix, x.cycle, self._rule_len
        if cyc is not None and len(letters) < r:
            letters += cyc * ((r - len(letters)) // len(cyc) + 1)
        rule_of, v = self._rule_of, x.range_vertex
        for n in range(min(len(letters), r) + 1):
            i = rule_of.get((v, letters[:n]))
            if i is not None:
                return self._maps[i].act_point(x)
        raise OrbitError(f"{point_str(x)} escapes the rule partition")


class Cocycle:
    """Word-valued cocycle over a homeomorphism.

    table maps a generator word g of the source action to pieces of its
    domain with a value word each: on the piece, the homeomorphism sends
    the g-image of x to the value-image of the x-image.  The rows are fixed
    at construction, and table is a read-only view of them; coe_check
    certifies that each row partitions its generator's domain.
    """

    __slots__ = ("homeo", "table")

    def __init__(self, homeo: PrefixHomeo, table):
        self.homeo = homeo
        self.table = MappingProxyType({
            gen: tuple(entries) for gen, entries in table.items()})

    def generators(self):
        return sorted(self.table, key=ReducedWord.sort_key)


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
    does not reach (length-zero finite points) are exempt.  The pieces are
    fixed at construction, which refuses a count that is not an int >= 0;
    oe_check and oe_to_coe certify that they partition the boundary.
    """

    __slots__ = ("homeo", "pieces")

    def __init__(self, homeo: PrefixHomeo, pieces):
        pieces = tuple((c, k, l) for c, k, l in pieces)
        for _, k, l in pieces:
            for n in (k, l):
                if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                    raise OrbitError(f"shift count {n!r} is not an integer >= 0")
        self.homeo = homeo
        self.pieces = pieces


# ----------------------------------------------------------------- checkers

def _samples(g: Graph, parts, depth: int, memo: dict):
    """sample_pair's points of each locality cylinder of the parts: the
    cylinders of the stems that _extensions cuts them into.

    Why they decide an identity.  Let the first len(t) letters of Z(t - F)
    fix every rule, generator and value involved.  Then each side sends
    x = t.y to P.y for one path P of its own.  Two such maps that agree at
    two distinct tails y are equal: if |P| = |Q|, P = Q; if |P| < |Q|, then
    Q = P.q, and P.y = P.q.y gives y = q^inf, one tail and not two.

    The tails of Z(v - F) serve every stem with source v, so memo keeps
    them under the key (v, F) for the call, beside _extensions' stems under
    their remaining depth; a sample t.y is built by act_point.
    """
    for part in parts:
        for cyl in _extensions(g, part, depth, memo):
            stem, excl = cyl
            v = stem.source_vertex
            ys = memo.get((v, excl))
            if ys is None:
                ys = memo[v, excl] = sample_pair(g, Cylinder(Path(v, v), excl))
            if stem.instances:
                put = PartialWord(g, stem, Path(v, v)).act_point
                ys = [put(y) for y in ys]
            yield from ys


def _regions(g: Graph, cylinders) -> list:
    """The parts of each cylinder less the earlier ones that it meets: where
    it is the first cylinder that holds a point."""
    return [CompactOpen(g, [c]).difference(CompactOpen(g, [
        d for d in cylinders[:i] if cyl_intersect(c, d) is not None])).parts
            for i, c in enumerate(cylinders)]


def coe_check(coc: Cocycle, depth: int = 3) -> dict:
    """Certify the cocycle identity h(gen(x)) = value(h(x)), each piece on
    its own, on its meets with gen's domain (Z(beta), all or nothing).

    A meet is cut to D = max(depth, R + max(|beta|, |beta'|)) letters, R
    the longest rule stem and beta' the value's beta.  On a stem t of D
    letters, gen(x) = alpha.t[|beta|:].y keeps R or more letters of t,
    which fix its rule, and h(x) = nu.t[|mu|:].y keeps |beta'| or more,
    which decide how the value acts: both sides are prefix maps of y.
    """
    homeo = coc.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    _assert_finite_multiplicities(gs)
    rep = {"generators": 0, "pieces": 0, "checked": 0, "failures": []}
    memo = {}
    for gen in coc.generators():
        rep["generators"] += 1
        pw = PartialWord.from_word(gs, gen)
        dom = pw.domain()
        row = coc.table[gen]
        pieces = [piece for piece, _ in row]
        inside = [cyl_inside(gs, (piece,), dom) for piece in pieces]
        overlaps = set(cyl_overlaps(gs, pieces))
        for i, (piece, value) in enumerate(row):
            rep["pieces"] += 1
            if not inside[i]:
                rep["failures"].append((str(gen), "piece outside domain"))
            if i in overlaps:
                rep["failures"].append((str(gen), "pieces overlap"))
            vw = PartialWord.from_word(gt, value)
            meets = [m for part in dom.parts if (m := cyl_intersect(piece, part)) is not None]
            cut = max(depth, homeo._rule_len + max(len(pw.beta or ()), len(vw.beta or ())))
            for x in _samples(gs, meets, cut, memo):
                moved = homeo.apply(pw.act_point(x))
                try:
                    matched = vw.act_point(homeo.apply(x))
                except DomainError:
                    rep["failures"].append((str(gen), f"value undefined at {point_str(x)}"))
                    continue
                rep["checked"] += 1
                if moved != matched:
                    rep["failures"].append((str(gen), f"mismatch at {point_str(x)}"))
        # the row tiles dom: every piece lies in it and they cover it
        if not (all(inside) and cyl_inside(gs, dom.parts, CompactOpen(gs, pieces))):
            rep["failures"].append((str(gen), "pieces do not cover domain"))
    return rep


def oe_check(oe: OEData, depth: int = 3) -> dict:
    """Certify the shift identity h(x.shift(1)).shift(k) = h(x).shift(l);
    a sample point whose shift is undefined is a skip.

    The first piece that holds a point gives its counts, so piece i is
    checked on its region, the piece less the earlier pieces, cut to
    D = max(depth, 1 + R + max(k, l)) letters, the bound oe_to_coe proves
    fixes both sides as prefix maps, decided by _samples.  A sample point
    names each cylinder of the gap the pieces leave.
    """
    homeo = oe.homeo
    gs = homeo.source_graph
    _assert_finite_multiplicities(gs)
    rep = {"pieces": len(oe.pieces), "checked": 0, "skips": 0, "failures": []}
    cyls = [c for c, _, _ in oe.pieces]
    rep["failures"] += [("partition", "pieces overlap")] * len(cyl_overlaps(gs, cyls))
    if not _tiles(gs, cyls):
        rep["failures"].append(("partition", "pieces do not cover"))
        gap = CompactOpen.whole(gs).difference(CompactOpen(gs, cyls))
        rep["failures"] += [("partition", point_str(sample_point(gs, c))) for c in gap.parts]
    memo = {}
    for (_, k, l), region in zip(oe.pieces, _regions(gs, cyls)):
        for x in _samples(gs, region, max(depth, 1 + homeo._rule_len + max(k, l)), memo):
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


def _extensions(g: Graph, cyl: Cylinder, depth: int, memo: dict) -> list[Cylinder]:
    """cyl cut into the cylinders of the stems that extend its stem to
    `depth` letters, or stop earlier at a source with no receivers, the
    first letter past the stem avoiding its exclusions; cyl itself when its
    stem already has `depth` letters.  The extensions are the maximal stems
    of the remaining depth that start at the stem's source.

    Those stems are enumerated once per remaining depth n and grouped by
    range vertex, kept under the key n of the caller's per-call memo."""
    stem, excl = cyl
    n = depth - len(stem)
    if n <= 0:
        return [cyl]
    by_range = memo.get(n)
    if by_range is None:
        by_range = memo[n] = {}
        for mu in g.maximal_stems(n):
            by_range.setdefault(mu.range_vertex, []).append(mu)
    return [Cylinder(Path(stem.range_vertex, mu.source_vertex,
                          stem.instances + mu.instances), frozenset())
            for mu in by_range.get(stem.source_vertex, ())
            if not (mu.instances and mu.instances[0] in excl)]


def oe_to_coe(oe: OEData) -> Cocycle:
    """Rebuild a word cocycle from shift data, refining each piece on its own.

    On a piece (Z(s - F), k, l) the value at x is lam.kap^-1, with
    lam = head_k(h(x.shift(1))) and kap = head_l(h(x)) for the homeo h.
    Let R be the longest rule stem mu.  h(x) = nu.x.shift(len(mu)) for the
    one rule whose mu heads x, so the first R letters of x fix the rule,
    and the first len(mu) + max(l - len(nu), 0) <= R + l fix kap.
    x.shift(1) is x read from its second letter, so the first 1 + R + k
    letters of x fix lam.  The piece is therefore cut into the stems that
    extend s to D = max(len(s), 1 + R + max(k, l)) letters, avoiding F at
    the first step: all points of such a stem share their first D letters,
    and a stem that stops earlier at a source with no receivers holds one
    finite point.  Each carries one value, read at one sample point; when
    len(s) >= D the piece itself does.  coe_to_oe reads (k, l) back off the
    reduced values, no larger than before, so after one round every stem is
    deep enough for its data and the next round keeps it whole.  Shift data
    whose pieces overlap or leave a gap is refused.
    """
    homeo = oe.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    _assert_finite_multiplicities(gs)
    _assert_finite_multiplicities(gt)
    cyls = [c for c, _, _ in oe.pieces]
    overlaps = cyl_overlaps(gs, cyls)
    if overlaps:
        raise OrbitError(f"shift data pieces overlap at piece {overlaps[0]}")
    if not _tiles(gs, cyls):
        raise OrbitError("shift data pieces do not cover the boundary")
    table = {}
    memo = {}
    for piece, k, l in oe.pieces:
        depth = 1 + homeo._rule_len + max(k, l)
        for cyl in _extensions(gs, piece, depth, memo):
            x = sample_point(gs, cyl)
            if x is None or not cyl.stem.instances:
                continue    # empty, or a lone vertex the shift does not reach
            try:
                lam = homeo.apply(x.shift(1)).head(k)
                kap = homeo.apply(x).head(l)
            except BoundaryError as exc:
                raise OrbitError(
                    f"shift data runs past the image of {point_str(x)}") from exc
            value = ReducedWord.from_pair(lam, kap)
            stem = cyl.stem
            neg = ReducedWord(((stem.instances[0], 1),)).inverse()
            table.setdefault(neg, []).append((cyl, value))
            table.setdefault(neg.inverse(), []).append(
                (Cylinder(gs.strip_prefix(stem, 1), cyl.excl), value.inverse()))
    return Cocycle(homeo, table)


# ------------------------------------------------------------- agreement

def _same_homeo(h1: PrefixHomeo, h2: PrefixHomeo, depth: int, memo: dict) -> bool:
    """h1 and h2 agree on every point: cut to max(depth, R1, R2) letters,
    a stem fixes the rules of both, so both are prefix maps of the tail."""
    g = h1.source_graph
    cut = max(depth, h1._rule_len, h2._rule_len)
    return all(h1.apply(x) == h2.apply(x)
               for x in _samples(g, CompactOpen.whole(g).parts, cut, memo))


def cocycles_agree(c1: Cocycle, c2: Cocycle, depth: int = 3) -> bool:
    """Same homeo behaviour and equal cocycle action: gen's two rows cover
    the same set, and wherever the first pieces that hold a point carry
    different values, the values act alike on its image h(x).

    The values are compared on the meets of the rows' regions (each piece
    less the earlier pieces of its row), cut to D = max(depth, R +
    max(|beta0|, |beta1|)) letters: h(x) = nu.t[|mu|:].y starts with the
    letters of t that decide how each value acts, as in coe_check.
    """
    h1, h2 = c1.homeo, c2.homeo
    gs, gt = h1.source_graph, h1.target_graph
    _assert_finite_multiplicities(gs)
    memo = {}
    if h2 is not h1 and not _same_homeo(h1, h2, depth, memo):
        return False
    for gen in set(c1.table) | set(c2.table):
        if PartialWord.from_word(gs, gen).is_empty_map:
            return False
        rows = c1.table.get(gen, ()), c2.table.get(gen, ())
        pieces = [[piece for piece, _ in row] for row in rows]
        if CompactOpen(gs, pieces[0]) != CompactOpen(gs, pieces[1]):
            return False
        regions = [_regions(gs, p) for p in pieces]
        for (_, v0), parts0 in zip(rows[0], regions[0]):
            for (_, v1), parts1 in zip(rows[1], regions[1]):
                if v0 == v1:
                    continue
                w0, w1 = PartialWord.from_word(gt, v0), PartialWord.from_word(gt, v1)
                meets = [m for a in parts0 for b in parts1
                         if (m := cyl_intersect(a, b)) is not None]
                cut = max(depth, h1._rule_len + max(len(w0.beta or ()), len(w1.beta or ())))
                for x in _samples(gs, meets, cut, memo):
                    fx = h1.apply(x)
                    try:
                        if w0.act_point(fx) != w1.act_point(fx):
                            return False
                    except DomainError:
                        return False
    return True


def oe_agree(o1: OEData, o2: OEData, depth: int = 3) -> bool:
    """Equal homeomorphisms and equal cocycle values l - k wherever the
    shift is defined, read off the first piece that holds a point.

    l - k is constant on each meet of a region of o1 (a piece less the
    earlier pieces) with one of o2, so a meet that holds a point of
    positive length, which the shift reaches, decides it.  A point that
    one table misses is refused before any value is compared, named by a
    sample point of the gap, unless it has length zero.

    The pair (k, l) itself is not an invariant: wherever (k, l) holds, so
    does (k + 1, l + 1), and a round through the cocycle reads the pair off
    a reduced value word, so valid data that is not reduced would fail a
    literal comparison.
    """
    h1, h2 = o1.homeo, o2.homeo
    g = h1.source_graph
    _assert_finite_multiplicities(g)
    if h2 is not h1 and not _same_homeo(h1, h2, depth, {}):
        return False

    def shifts(c):      # c holds a point of positive length
        return c.stem.instances or g.is_regular(c.stem.source_vertex)
    regions = []
    for o in (o1, o2):
        cyls = [c for c, _, _ in o.pieces]
        for c in filter(shifts, CompactOpen.whole(g).difference(CompactOpen(g, cyls)).parts):
            raise OrbitError(f"{point_str(sample_point(g, c))} escapes the piece partition")
        regions.append(_regions(g, cyls))
    for (_, k1, l1), parts1 in zip(o1.pieces, regions[0]):
        for (_, k2, l2), parts2 in zip(o2.pieces, regions[1]):
            if l1 - k1 != l2 - k2 and any(
                    m is not None and not cyl_is_empty(g, m) and shifts(m)
                    for a in parts1 for b in parts2 for m in [cyl_intersect(a, b)]):
                return False
    return True


# --------------------------------------------------------------- examples

def swap_homeo(g: Graph, eid_a: str = "a", eid_b: str = "b") -> PrefixHomeo:
    """Exchange two parallel receiver instances at the first step; every
    other first step, and every other vertex, stays put."""
    pa, pb = g.path_of(eid_a), g.path_of(eid_b)
    rules = [(pa, pb), (pb, pa)]
    for inst in g.continuations(pa.range_vertex):
        if inst not in pa.instances + pb.instances:
            rules.append((g.trusted_path((inst,)),) * 2)
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
