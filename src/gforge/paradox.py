"""Paradoxical pairs on boundary pieces.

A paradoxical pair for a compact open set U is two piecewise word maps
with domain U whose images are disjoint subsets of U.  Each copy is a
homeomorph of U inside U, which is exactly what the search below hunts
for and the verifier certifies.

The search works cylinder by cylinder.  At a vertex with infinitely many
receivers it builds two loops through fresh instances of an infinite
family.  At a regular vertex it asks for two first-return loops avoiding
the excluded instances, and when only one or none exists it splits the
cylinder one level deeper and recurses.  Receiverless sources carry a
single point and admit no pair, so the search reports failure there.
"""

from itertools import count, islice

from .boundary import CompactOpen, Cylinder, PartialWord, set_str
from .graph import EdgeInstance, Graph, INFINITE, first_return_profile
from .words import ReducedWord


class PiecewiseWord:
    """Finitely many disjoint pieces, each moved by its own word; maps[i] is
    the PartialWord of pieces[i]'s word, built once here.  A piece is a
    CompactOpen or a single non-empty Cylinder, as _cylinder_pair makes."""

    __slots__ = ("graph", "pieces", "maps")

    def __init__(self, graph: Graph, pieces):
        self.graph = graph
        self.pieces = tuple(
            (U if isinstance(U, CompactOpen) else CompactOpen.trusted(graph, (U,)), w)
            for U, w in pieces)
        self.maps = tuple(PartialWord.from_word(graph, w) for _, w in self.pieces)

    def image(self) -> CompactOpen:
        return CompactOpen(self.graph, [
            part for (U, _), pw in zip(self.pieces, self.maps)
            for part in pw.act_set(U).parts])

    def compose(self, inner: "PiecewiseWord") -> "PiecewiseWord":
        """Apply inner first.  Pieces refine along where images land."""
        pieces = []
        for (P, u), upw in zip(inner.pieces, inner.maps):
            img = upw.act_set(P)
            for Q, w in self.pieces:
                hit = img.intersect(Q)
                if hit.is_empty:
                    continue
                back = upw.inverse().act_set(hit)
                pieces.append((back.intersect(P), w * u))
        return PiecewiseWord(self.graph, pieces)

    def __repr__(self):
        inner = ", ".join(f"({set_str(U)}, {w})" for U, w in self.pieces)
        return f"PiecewiseWord([{inner}])"


def _conjugate(stem, loop, g: Graph) -> ReducedWord:
    # stem.loop.stem^-1 moves Z(stem) into Z(stem.loop)
    return ReducedWord.from_pair(g.concat(stem, loop), stem)


def infinite_loops(g: Graph, v: str, forbidden_first=frozenset()):
    """Two loops at v through distinct instances of infinite receiver families.

    Instances are taken in copy order across the families that can lead
    back to v; each loop returns by the least path.  No loops come back
    when no infinite family leads back to v, never raising.
    """
    up = g.upstream(v)
    fams = [(e.eid, g.shortest_path(e.source_vertex, v).instances) for e in g._receivers[v]
            if e.multiplicity == INFINITE and e.source_vertex in up]
    if not fams:
        return []
    # an infinite family offers endless copies, and forbidden_first is finite
    return list(islice(
        (g.trusted_path((inst,) + back) for copy in count() for eid, back in fams
         if (inst := EdgeInstance(eid, copy)) not in forbidden_first), 2))


def _cylinder_pair(g: Graph, cyl: Cylinder, depth: int):
    """Two (piece, word) lists for a paradoxical pair on one cylinder,
    or None when the search bottoms out.  cyl is never empty: it is a part
    of a compact open set or a stem without exclusions."""
    v = cyl.stem.source_vertex
    if not g._receivers[v]:
        return None                       # a single point cannot split
    infinite = g._count[v] == INFINITE
    if infinite:
        loops = infinite_loops(g, v, forbidden_first=cyl.excl)
    else:
        loops = first_return_profile(g, v, forbidden_first=cyl.excl)
    if len(loops) == 2:
        wa, wb = (_conjugate(cyl.stem, loop, g) for loop in loops)
        return [(cyl, wa)], [(cyl, wb)]
    if infinite or depth <= 0:
        return None
    side_a, side_b = [], []
    for inst in g.continuations(v):
        if inst in cyl.excl:
            continue
        ext = Cylinder(g.trusted_path(cyl.stem.instances + (inst,)), frozenset())
        sub = _cylinder_pair(g, ext, depth - 1)
        if sub is None:
            return None
        side_a.extend(sub[0])
        side_b.extend(sub[1])
    return side_a, side_b


def find_witness(g: Graph, U: CompactOpen, depth_cap=None):
    """A paradoxical pair on U, or None when some piece defeats the search.

    Parts of U may overlap: each part is searched minus the earlier parts.
    """
    if depth_cap is None:
        depth_cap = len(g.vertices) + 1
    side_a, side_b = [], []
    for i, cyl in enumerate(U.parts):
        rest = CompactOpen(g, [cyl]).difference(
            CompactOpen(g, U.parts[:i])).parts if i else (cyl,)
        for piece in rest:
            sub = _cylinder_pair(g, piece, depth_cap)
            if sub is None:
                return None
            side_a.extend(sub[0])
            side_b.extend(sub[1])
    if not side_a:
        return None                       # U empty: nothing to duplicate
    return (PiecewiseWord(g, side_a), PiecewiseWord(g, side_b))


def verify_witness(g: Graph, U: CompactOpen, maps) -> dict:
    """Certify that the maps carry U onto pairwise disjoint subsets of U.

    Fewer than two maps, or an empty U, certify nothing and fail.
    """
    rep = {"maps": len(maps), "pieces": 0, "ok": True, "failures": []}

    def fail(msg):
        rep["ok"] = False
        rep["failures"].append(msg)

    if len(maps) < 2:
        fail("a paradoxical witness needs at least 2 maps")
    if U.is_empty:
        fail("the set is empty: nothing to duplicate")

    images = []
    for i, m in enumerate(maps):
        rep["pieces"] += len(m.pieces)
        covered = CompactOpen.empty(g)
        for (D, w), pw in zip(m.pieces, m.maps):
            if pw.is_empty_map:
                fail(f"map {i}: word {w} does not act")
                continue
            if not D.difference(pw.domain()).is_empty:
                fail(f"map {i}: piece {set_str(D)} leaves the domain of {w}")
            if not D.intersect(covered).is_empty:
                fail(f"map {i}: pieces overlap at {set_str(D)}")
            covered = covered.union(D)
        if covered != U:
            fail(f"map {i}: pieces do not tile the set")
        img = m.image()
        if not img.difference(U).is_empty:
            fail(f"map {i}: image escapes the set")
        images.append(img)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if not images[i].intersect(images[j]).is_empty:
                fail(f"images {i} and {j} meet")
    return rep


def expand_witness(g: Graph, pair, count: int):
    """Grow a pair into count maps with pairwise disjoint images in U.

    Tree leaves over the pair: b, ab, aab, ..., and a top power of a.
    Disjointness falls out of a's image being disjoint from b's inside U.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    a, b = pair
    maps = []
    lead = b
    for _ in range(count - 1):
        maps.append(lead)
        lead = a.compose(lead)
    power = a
    for _ in range(count - 2):
        power = a.compose(power)
    maps.append(power)
    return maps


def paradox_report(g: Graph, stem_depth: int = 2) -> dict:
    """Search and certify each source vertex once; every cylinder stem up to
    stem_depth takes its source vertex's verdict.

    Z(mu) is the image of Z(s(mu)) under theta_mu, and prefixing by mu maps
    the cylinder algebra below Z(s(mu)) isomorphically onto the one below
    Z(mu).  A paradoxical pair on Z(s(mu)), its pieces prefixed by mu and its
    words conjugated by mu, is a paradoxical pair on Z(mu), and conversely;
    it is what find_witness returns on Z(mu).  So each vertex is searched
    on its own cylinder, itself the length-0 stem, and a failed certification
    names that cylinder's pieces.  searched counts the vertices searched.

    holds is True when every probed cylinder carries a verified pair,
    False when any refusal or verification failure appears.
    """
    rep = {"holds": True, "stems": 0, "searched": 0, "verified": 0,
           "refusals": [], "failures": []}
    verdicts = {}       # source vertex -> None when refused, else its failures
    for mu in g.paths_up_to(stem_depth):
        v = mu.source_vertex
        if v not in verdicts:
            U = CompactOpen.cylinder(g, g.vertex_path(v))
            pair = find_witness(g, U)
            verdicts[v] = (None if pair is None
                           else verify_witness(g, U, list(pair))["failures"])
        failures = verdicts[v]
        rep["stems"] += 1
        if failures is None:
            rep["holds"] = False
            rep["refusals"].append(g.path_str(mu))
        elif failures:
            rep["holds"] = False
            rep["failures"].append((g.path_str(mu), failures))
        else:
            rep["verified"] += 1
    rep["searched"] = len(verdicts)
    return rep
