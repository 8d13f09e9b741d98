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

Rule stems, cocycle rows and shift data are tables of cylinders that must
partition a set, and every probe point must find its piece.  Each table
is certified where it is read, by the cylinder algebra of boundary.py:
cyl_overlaps gives the pieces that meet an earlier one and cyl_inside
whether the pieces lie in the set and cover it.  The homeo certifies its
rule stems at construction, coe_check each cocycle row, and oe_check and
oe_to_coe the shift data.

The points find their pieces the other way round.  Each checker builds
one boundary.PointIndex over its probe points (_probes) and asks each
cylinder, rule stems included, which probe points it holds: a point's
piece is the first in table order that holds it, and PrefixHomeo.images
applies each rule's map to the points of its stem.  A point moved under a
piece (by the generator in coe_check, by one shift step in oe_check) lies
under a stem known from the piece; when one rule stem heads that stem,
the rule's map serves every such point, and otherwise PrefixHomeo.apply
finds each one's rule by the stems that head its first letters.
"""

from types import MappingProxyType

from .boundary import (
    BoundaryError,
    BoundaryPoint,
    CompactOpen,
    Cylinder,
    DomainError,
    PartialWord,
    PointIndex,
    cyl_inside,
    cyl_intersect,
    cyl_overlaps,
    point_str,
    probe_points,
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

    def _rule(self, v: str, letters: tuple):
        """The act_point of the rule whose stem heads the path of the
        letters from v, read up to R of them, or None."""
        rule_of = self._rule_of
        for n in range(min(len(letters), self._rule_len) + 1):
            i = rule_of.get((v, letters[:n]))
            if i is not None:
                return self._maps[i].act_point
        return None

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        letters, cyc, r = x.prefix, x.cycle, self._rule_len
        if cyc is not None and len(letters) < r:
            letters += cyc * ((r - len(letters)) // len(cyc) + 1)
        f = self._rule(x.range_vertex, letters)
        if f is None:
            raise OrbitError(f"{point_str(x)} escapes the rule partition")
        return f(x)

    def apply_on(self, v: str, letters: tuple):
        """apply, for the points of Z(p), p the path of the letters from v:
        the act_point of the one rule map whose stem heads p, or apply
        itself, which finds each point's rule, when no rule stem does."""
        return self._rule(v, letters) or self.apply

    def images(self, pts, probes: PointIndex) -> list:
        """The image of each point of pts, probes their PointIndex, under
        the map of the one rule whose stem holds it."""
        first = probes.first_holding([Cylinder(mu, frozenset()) for mu, _ in self.rules])
        return [self._maps[i].act_point(x) for i, x in zip(first, pts)]


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

def _probes(g: Graph, depth: int, homeos, cylinders):
    """The probe points of g to depth and their PointIndex, deep enough for
    the rule stems of the homeos and the stems of the cylinders."""
    pts = probe_points(g, depth)
    return pts, PointIndex(pts, max([h._rule_len for h in homeos]
                                    + [len(c.stem) for c in cylinders]))


def coe_check(coc: Cocycle, depth: int = 3) -> dict:
    """Probe the cocycle identity on concrete points, piece by piece.

    gen acts only on its domain, which is Z(beta), the whole space or
    empty, so at most one of its parts meets a piece, in one cylinder: the
    piece's probed points are that cylinder's in the probe index, in probe
    order.  The cylinder's stem starts with beta, so gen moves its points
    under alpha + stem[len(beta):], and homeo.apply_on gives the homeo's
    map for all of them.
    """
    homeo = coc.homeo
    gs, gt = homeo.source_graph, homeo.target_graph
    rep = {"generators": 0, "pieces": 0, "checked": 0, "failures": []}
    gens = []
    for gen in coc.generators():
        pw = PartialWord.from_word(gs, gen)
        gens.append((gen, pw, pw.domain()))
    pts, probes = _probes(gs, depth, [homeo], [c for _, _, dom in gens for c in dom.parts]
                          + [piece for row in coc.table.values() for piece, _ in row])
    images = homeo.images(pts, probes)
    for gen, pw, dom in gens:
        rep["generators"] += 1
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
            for part in dom.parts:
                meet = cyl_intersect(piece, part)
                if meet is None:
                    continue
                stem = meet.stem
                if pw.beta is None:     # the identity moves nothing
                    step = homeo.apply_on(stem.range_vertex, stem.instances)
                else:
                    step = homeo.apply_on(pw.alpha.range_vertex, pw.alpha.instances
                                          + stem.instances[len(pw.beta):])
                for j in sorted(probes.within(meet)):
                    x = pts[j]
                    moved = step(pw.act_point(x))
                    try:
                        matched = vw.act_point(images[j])
                    except DomainError:
                        rep["failures"].append(
                            (str(gen), f"value undefined at {point_str(x)}"))
                        continue
                    rep["checked"] += 1
                    if moved != matched:
                        rep["failures"].append(
                            (str(gen), f"mismatch at {point_str(x)}"))
        # the row tiles dom: every piece lies in it and they cover it
        if not (all(inside) and cyl_inside(gs, dom.parts, CompactOpen(gs, pieces))):
            rep["failures"].append((str(gen), "pieces do not cover domain"))
    return rep


def oe_check(oe: OEData, depth: int = 3) -> dict:
    """Probe the shift identity on concrete points; undefined shifts skip.

    The probe index gives each point its first piece and its rule.  The
    shift of a point under a piece's stem m1.m2...mn lies under m2...mn, so
    homeo.apply_on gives the homeo's map of the shifted points piece by
    piece.
    """
    homeo = oe.homeo
    gs = homeo.source_graph
    rep = {"pieces": len(oe.pieces), "checked": 0, "skips": 0, "failures": []}
    cyls = [c for c, _, _ in oe.pieces]
    rep["failures"] += [("partition", "pieces overlap")] * len(cyl_overlaps(gs, cyls))
    if not _tiles(gs, cyls):
        rep["failures"].append(("partition", "pieces do not cover"))
    pts, probes = _probes(gs, depth, [homeo], cyls)
    shifted = [homeo.apply_on(gs.s_of(stem.instances[0]), stem.instances[1:])
               if stem.instances else homeo.apply for stem, _ in cyls]
    for x, i, fx in zip(pts, probes.first_holding(cyls), homeo.images(pts, probes)):
        if i < 0:
            rep["failures"].append(("partition", point_str(x)))
            continue
        _, k, l = oe.pieces[i]
        try:
            left = shifted[i](x.shift(1)).shift(k)
            right = fx.shift(l)
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


def _extensions(g: Graph, cyl: Cylinder, depth: int) -> list[Cylinder]:
    """cyl cut into the cylinders of the stems that extend its stem to
    `depth` letters, or stop earlier at a source with no receivers, the
    first letter past the stem avoiding its exclusions; cyl itself when its
    stem already has `depth` letters.  The extensions are the maximal stems
    of the remaining depth that start at the stem's source."""
    stem, excl = cyl
    if len(stem) >= depth:
        return [cyl]
    v = stem.source_vertex
    return [Cylinder(Path(stem.range_vertex, mu.source_vertex,
                          stem.instances + mu.instances), frozenset())
            for mu in g.maximal_stems(depth - len(stem))
            if mu.range_vertex == v and not (mu.instances and mu.instances[0] in excl)]


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
    for piece, k, l in oe.pieces:
        depth = 1 + homeo._rule_len + max(k, l)
        for cyl in _extensions(gs, piece, depth):
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

def cocycles_agree(c1: Cocycle, c2: Cocycle, depth: int = 3) -> bool:
    """Same homeo behaviour and pointwise-equal cocycle action: at each
    probe point, the first pieces of gen's two rows that hold it give
    values acting alike on its image, or neither row holds it."""
    h1, h2 = c1.homeo, c2.homeo
    gs, gt = h1.source_graph, h1.target_graph
    rows = {gen: (c1.table.get(gen, ()), c2.table.get(gen, ()))
            for gen in set(c1.table) | set(c2.table)}
    pts, probes = _probes(gs, depth, {h1, h2}, [piece for pair in rows.values()
                                                for row in pair for piece, _ in row])
    images = h1.images(pts, probes)
    if h2 is not h1 and h2.images(pts, probes) != images:
        return False
    for gen, (row0, row1) in rows.items():
        if PartialWord.from_word(gs, gen).is_empty_map:
            return False
        firsts = zip(probes.first_holding([piece for piece, _ in row0]),
                     probes.first_holding([piece for piece, _ in row1]))
        for (i0, i1), fx in zip(firsts, images):
            if i0 < 0 or i1 < 0:
                if i0 != i1:
                    return False
                continue
            v0, v1 = row0[i0][1], row1[i1][1]
            if v0 == v1:
                continue
            try:
                y0 = PartialWord.from_word(gt, v0).act_point(fx)
                y1 = PartialWord.from_word(gt, v1).act_point(fx)
            except DomainError:
                return False
            if y0 != y1:
                return False
    return True


def oe_agree(o1: OEData, o2: OEData, depth: int = 3) -> bool:
    """Equal homeomorphisms and pointwise-equal cocycle values l - k
    wherever the shift is defined, read at each probe point off the first
    piece that holds it.

    The pair (k, l) itself is not an invariant: wherever (k, l) holds, so
    does (k + 1, l + 1), and a round through the cocycle reads the pair off
    a reduced value word, so valid data that is not reduced would fail a
    literal comparison.
    """
    h1, h2 = o1.homeo, o2.homeo
    cyls1, cyls2 = ([c for c, _, _ in o.pieces] for o in (o1, o2))
    pts, probes = _probes(h1.source_graph, depth, {h1, h2}, cyls1 + cyls2)
    moved = [False] * len(pts) if h2 is h1 else [
        y1 != y2 for y1, y2 in zip(h1.images(pts, probes), h2.images(pts, probes))]
    for x, differs, i1, i2 in zip(pts, moved, probes.first_holding(cyls1),
                                  probes.first_holding(cyls2)):
        if differs:
            return False
        if x.is_finite and len(x) == 0:
            continue
        if i1 < 0 or i2 < 0:
            raise OrbitError(f"{point_str(x)} escapes the piece partition")
        (_, k1, l1), (_, k2, l2) = o1.pieces[i1], o2.pieces[i2]
        if l1 - k1 != l2 - k2:
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
