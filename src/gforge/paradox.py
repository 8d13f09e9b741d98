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

from .boundary import (CompactOpen, Cylinder, PartialWord, cyl_inside, cyl_meets,
                       set_str)
from .graph import EdgeInstance, Graph, INFINITE, first_return_profile
from .invsgp import ZERO, SgpElement, sgp_mul


class PiecewiseWord:
    """Finitely many disjoint pieces, each moved by its own word.  parts
    holds (piece, map): the piece is a CompactOpen, the map the PartialWord
    of its word, built once, and pieces reads each word off its map."""

    __slots__ = ("graph", "parts")

    def __init__(self, graph: Graph, parts):
        """The piecewise word with exactly these (piece, map) parts, stored
        unchecked.  Precondition: each piece is a CompactOpen and each map
        a PartialWord on graph; verify_witness certifies the rest."""
        self.graph = graph
        self.parts = tuple(parts)

    @property
    def pieces(self) -> tuple:
        """(piece, word) for each part, the word read off its map."""
        return tuple((U, pw.word()) for U, pw in self.parts)

    def compose(self, inner: "PiecewiseWord") -> "PiecewiseWord":
        """Apply inner first.  Pieces refine along where images land."""
        g = self.graph
        parts = []
        for P, upw in inner.parts:
            img = upw.act_set(P)
            back = upw.inverse()
            for Q, wpw in self.parts:
                hit = img.intersect(Q)
                if not hit.is_empty:
                    parts.append((back.act_set(hit).intersect(P),
                                  _product_map(g, wpw, upw)))
        return PiecewiseWord(g, parts)

    def __repr__(self):
        inner = ", ".join(f"({set_str(U)}, {w})" for U, w in self.pieces)
        return f"PiecewiseWord([{inner}])"


def _product_map(g: Graph, outer: PartialWord, inner: PartialWord) -> PartialWord:
    """The map of outer's word times inner's word: invsgp.sgp_mul multiplies
    their pairs and from_pair builds the product's map.  An identity factor
    gives the other factor's map; an empty factor or a zero product falls
    back to from_word.
    """
    if inner.is_identity:
        return outer
    if outer.is_identity:
        return inner
    if outer.beta is not None and inner.beta is not None:
        s = sgp_mul(g, SgpElement(outer.alpha, outer.beta),
                    SgpElement(inner.alpha, inner.beta))
        if s is not ZERO:
            return PartialWord.from_pair(g, s.mu, s.nu)
    return PartialWord.from_word(g, outer.word() * inner.word())


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
    """Two lists of (piece, map) for a paradoxical pair on one
    cylinder, or None when the search bottoms out.  cyl is never empty: it
    is a part of a compact open set or a stem without exclusions."""
    v = cyl.stem.source_vertex
    if not g._receivers[v]:
        return None                       # a single point cannot split
    infinite = g._count[v] == INFINITE
    if infinite:
        loops = infinite_loops(g, v, forbidden_first=cyl.excl)
    else:
        loops = first_return_profile(g, v, forbidden_first=cyl.excl)
    if len(loops) == 2:
        # stem.loop.stem^-1 moves Z(stem) into Z(stem.loop)
        piece = CompactOpen.trusted(g, (cyl,))
        a, b = (PartialWord.from_pair(g, g.concat(cyl.stem, loop), cyl.stem)
                for loop in loops)
        return [(piece, a)], [(piece, b)]
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
    return PiecewiseWord(g, side_a), PiecewiseWord(g, side_b)


def verify_witness(g: Graph, U: CompactOpen, maps) -> dict:
    """Certify that the maps carry U onto pairwise disjoint subsets of U.

    The certificate works on the pieces' cylinders, with boundary's
    cyl_meets and cyl_inside: a piece overlaps the earlier pieces of its
    map when one of its parts meets one of theirs, the parts of a map tile
    U when the set they make equals U, and two images meet when one part
    of each does.  Fewer than two maps, or an empty U, certify nothing and
    fail.
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
        rep["pieces"] += len(m.parts)
        covered, image = [], []
        for D, pw in m.parts:
            if pw.is_empty_map:
                fail(f"map {i}: word {pw.word()} does not act")
                continue
            if not cyl_inside(g, D.parts, pw.domain()):
                fail(f"map {i}: piece {set_str(D)} leaves the domain of {pw.word()}")
            if cyl_meets(g, D.parts, covered):
                fail(f"map {i}: pieces overlap at {set_str(D)}")
            covered.extend(D.parts)
            image.extend(pw.act_set(D).parts)
        if CompactOpen(g, covered) != U:
            fail(f"map {i}: pieces do not tile the set")
        if not cyl_inside(g, image, U):
            fail(f"map {i}: image escapes the set")
        images.append(image)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if cyl_meets(g, images[i], images[j]):
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
    maps = [b]
    for _ in range(count - 2):
        maps.append(a.compose(maps[-1]))
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
