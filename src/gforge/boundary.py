"""The boundary path space of a graph and the partial action of words on it.

Points are either finite paths ending at a singular vertex or eventually
periodic infinite paths, stored as prefix + primitive cycle in a canonical
form.  Open sets are finite unions of cylinders Z(stem minus exclusions),
where an exclusion set only ever reaches one level past the stem; that is
enough to close the family under intersection and difference without ever
enumerating the receivers of a vertex.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .graph import (CompositionError, EdgeInstance, Graph, GraphError, Path,
                    condition_l, first_return_profile, instance_token, sort_key)
from .words import _TOKEN, ReducedWord, ball, positive_negative_split


class BoundaryError(ValueError):
    pass


class DomainError(Exception):
    pass


# ---------------------------------------------------------------------- points

def _primitive_root(insts):
    n = len(insts)
    for per in range(1, n + 1):
        if n % per == 0 and insts == insts[:per] * (n // per):
            return insts[:per]
    return insts


def _absorb(pre: tuple, cyc: tuple):
    """The same prefix.cycle^inf with no prefix letter equal to the cycle's
    last: each such letter moves into a rotation of the cycle."""
    while pre and pre[-1] == cyc[-1]:
        pre = pre[:-1]
        cyc = cyc[-1:] + cyc[:-1]
    return pre, cyc


class BoundaryPoint:
    """A finite path with singular source, or prefix.cycle^inf.

    Stored as the range vertex and two tuples of edge instances: the
    prefix, and the cycle (None for a finite point).  Canonical shape for
    the periodic kind: the cycle is primitive and the prefix does not end
    with the cycle's last instance (such a letter is absorbed by rotating
    the cycle), which makes equality literal.
    """

    __slots__ = ("graph", "range_vertex", "prefix", "cycle")

    def __init__(self, graph: Graph, range_vertex: str, prefix: tuple, cycle):
        """Unchecked: the arguments must already be a canonical point.  finite and
        periodic validate; a point built here is trusted, as trusted_path is."""
        self.graph = graph
        self.range_vertex = range_vertex
        self.prefix = prefix
        self.cycle = cycle

    @classmethod
    def finite(cls, graph, mu: Path):
        if graph.is_regular(mu.source_vertex):
            raise BoundaryError(
                f"finite path ending at regular vertex {mu.source_vertex}")
        return cls(graph, mu.range_vertex, mu.instances, None)

    @classmethod
    def periodic(cls, graph, prefix: Path, cycle: Path):
        """prefix.cycle^inf, brought to canonical form."""
        if not cycle.instances or cycle.range_vertex != cycle.source_vertex:
            raise BoundaryError("period must be a loop of positive length")
        if prefix.source_vertex != cycle.range_vertex:
            raise BoundaryError("prefix does not reach the loop")
        pre, cyc = _absorb(prefix.instances, _primitive_root(cycle.instances))
        return cls(graph, prefix.range_vertex, pre, cyc)

    @property
    def is_finite(self):
        return self.cycle is None

    def __len__(self):
        if not self.is_finite:
            raise BoundaryError("infinite point has no length")
        return len(self.prefix)

    def _first(self, n: int) -> tuple:
        """The first n instances: the prefix, then the cycle unrolled."""
        pre = self.prefix
        if n < 0 or (self.cycle is None and n > len(pre)):
            raise BoundaryError(f"{point_str(self)} has no first {n} instances")
        if n > len(pre):
            pre += self.cycle * ((n - len(pre)) // len(self.cycle) + 1)
        return pre[:n]

    def instance_at(self, i: int) -> EdgeInstance:
        return self._first(i + 1)[i]

    def head(self, n: int) -> Path:
        """The first n instances as a path."""
        return self.graph.trusted_path(self._first(n), self.range_vertex)

    def startswith(self, mu: Path) -> bool:
        if mu.range_vertex != self.range_vertex:
            return False
        if self.is_finite and len(mu) > len(self.prefix):
            return False
        return self._first(len(mu)) == mu.instances

    def shift(self, k: int) -> "BoundaryPoint":
        """Drop the first k instances; a canonical point stays canonical."""
        g, pre, cyc = self.graph, self.prefix, self.cycle
        if k < 0 or (cyc is None and k > len(pre)):
            raise BoundaryError(f"cannot shift {point_str(self)} by {k}")
        if cyc is None:
            v = g.s_of(pre[k - 1]) if k else self.range_vertex
            return BoundaryPoint(g, v, pre[k:], None)
        j = max(k - len(pre), 0) % len(cyc)
        cyc = cyc[j:] + cyc[:j]  # a rotation of a primitive cycle is primitive
        pre = pre[k:]
        return BoundaryPoint(g, g.r_of((pre or cyc)[0]), pre, cyc)

    def prepend(self, alpha: Path) -> "BoundaryPoint":
        if alpha.source_vertex != self.range_vertex:
            raise CompositionError(
                f"cannot append path with range {self.range_vertex} "
                f"at source {alpha.source_vertex}")
        pre, cyc = alpha.instances + self.prefix, self.cycle
        if cyc is not None:
            pre, cyc = _absorb(pre, cyc)
        return BoundaryPoint(self.graph, alpha.range_vertex, pre, cyc)

    def __eq__(self, other):
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        return self.range_vertex == other.range_vertex \
            and self.prefix == other.prefix and self.cycle == other.cycle

    def __hash__(self):
        return hash((self.range_vertex, self.prefix, self.cycle))

    def __repr__(self):
        return f"BoundaryPoint({point_str(self)!r})"


def point_str(x: BoundaryPoint) -> str:
    pre = ".".join(map(instance_token, x.prefix))
    if x.is_finite:
        return pre or x.range_vertex
    cyc = ".".join(map(instance_token, x.cycle))
    return f"{pre}.({cyc})^inf" if pre else f"({cyc})^inf"


_POINT = re.compile(r"^(?:(?P<pre>[^()]*?)\.)?\((?P<cyc>[^()]+)\)\^inf$")


def parse_point(g: Graph, text: str) -> BoundaryPoint:
    text = text.strip()
    m = _POINT.match(text)
    if not m:
        return BoundaryPoint.finite(g, parse_stem(g, text))
    cyc = _parse_path(g, m.group("cyc"))
    pre = m.group("pre")
    if pre:
        return BoundaryPoint.periodic(g, _parse_path(g, pre), cyc)
    return BoundaryPoint.periodic(g, g.vertex_path(cyc.range_vertex), cyc)


def _parse_path(g: Graph, text: str) -> Path:
    insts = []
    for tok in text.split("."):
        m = _TOKEN.match(tok.strip())
        if not m or m.group(3):  # a word token; paths take no ^-1
            raise BoundaryError(f"bad path token {tok!r}")
        insts.append(g.instance(m.group(1), int(m.group(2)) if m.group(2) else 0))
    return g.make_path(insts)


def parse_stem(g: Graph, text: str) -> Path:
    """A path, or the vertex a lone token names, as written in set
    expressions and finite points.  A name that is both a vertex and an
    edge is refused; any other lone token is an edge token."""
    text = text.strip()
    if text in g.vertices:
        if text in g.edges:
            raise BoundaryError(f"{text!r} names both a vertex and an edge")
        return g.vertex_path(text)
    m = _TOKEN.match(text)
    if m and m.group(1) not in g.edges:
        raise BoundaryError(f"unknown vertex or edge {text!r}")
    return _parse_path(g, text)


# -------------------------------------------------------------------- cylinders

class Cylinder(NamedTuple):
    """Z(stem minus excl).  Invariant, which cyl_is_empty relies on: excl holds
    distinct valid instances received at the stem's source.  make_cylinder
    checks it; cyl_intersect, cyl_difference and act_set keep it."""
    stem: Path
    excl: frozenset

    def key(self):
        return (sort_key(self.stem), tuple(sorted(self.excl)))


def make_cylinder(g: Graph, stem: Path, excl=()) -> Cylinder:
    excl = frozenset(excl)
    for inst in excl:
        g.instance(*inst)
        if g.r_of(inst) != stem.source_vertex:
            raise BoundaryError(
                f"exclusion {instance_token(inst)} does not attach at {stem.source_vertex}")
    return Cylinder(stem, excl)


def cyl_is_empty(g: Graph, c: Cylinder) -> bool:
    """Empty iff the stem's source is regular and every continuation is barred
    (Webster, Proc. AMS 142, 2014).  By the Cylinder invariant that is a count;
    a source with no receivers is a single point, hence the 0 <."""
    return 0 < len(c.excl) == g.receiver_count(c.stem.source_vertex)


def cyl_contains(c: Cylinder, x: BoundaryPoint) -> bool:
    if not x.startswith(c.stem):
        return False
    n = len(c.stem)
    if x.is_finite and len(x) == n:
        return True
    return x.instance_at(n) not in c.excl


def cyl_intersect(a: Cylinder, b: Cylinder):
    """The intersection, again a single cylinder (or None when disjoint)."""
    if a.stem == b.stem:
        return Cylinder(a.stem, a.excl | b.excl)
    if a.stem.startswith(b.stem):
        if a.stem.instances[len(b.stem)] in b.excl:
            return None
        return a
    if b.stem.startswith(a.stem):
        if b.stem.instances[len(a.stem)] in a.excl:
            return None
        return b
    return None


def cyl_difference(g: Graph, c: Cylinder, r: Cylinder) -> list[Cylinder]:
    """c minus r as a disjoint list of cylinders.

    When r sits strictly below c the complement splits along r's spine: what
    leaves the spine at each level, plus what r itself excludes at the bottom.
    """
    mu, F = c
    nu, G = r
    if nu == mu:
        return [Cylinder(g.trusted_path(mu.instances + (x,)), frozenset())
                for x in sorted(G - F)]
    if nu.startswith(mu):
        etas = nu.instances[len(mu):]
        if etas[0] in F:
            return [c]
        parts = [Cylinder(mu, F | {etas[0]})]
        for j in range(1, len(etas)):
            parts.append(Cylinder(g.prefix(nu, len(mu) + j), frozenset({etas[j]})))
        for x in sorted(G):
            parts.append(Cylinder(g.trusted_path(nu.instances + (x,)), frozenset()))
        return parts
    if mu.startswith(nu):
        if mu.instances[len(nu)] in G:
            return [c]
        return []
    return [c]


class CompactOpen:
    """A finite union of cylinders, kept deduplicated and empty-free."""

    __slots__ = ("graph", "parts")

    def __init__(self, graph: Graph, parts=()):
        self.graph = graph
        keep = [p for p in parts if not cyl_is_empty(graph, p)]
        if len(keep) > 1:  # Cylinder.key is unique, so the order is fixed
            keep = sorted(set(keep), key=Cylinder.key)
        self.parts = tuple(keep)

    @classmethod
    def empty(cls, g):
        return cls(g, ())

    @classmethod
    def whole(cls, g):
        return cls(g, [Cylinder(g.vertex_path(v), frozenset()) for v in sorted(g.vertices)])

    @classmethod
    def cylinder(cls, g, stem: Path):
        return cls(g, [Cylinder(stem, frozenset())])

    @property
    def is_empty(self):
        return not self.parts

    def __contains__(self, x: BoundaryPoint):
        return any(cyl_contains(p, x) for p in self.parts)

    def union(self, other: "CompactOpen") -> "CompactOpen":
        return CompactOpen(self.graph, self.parts + other.parts)

    def intersect(self, other: "CompactOpen") -> "CompactOpen":
        out = []
        for a in self.parts:
            for b in other.parts:
                ab = cyl_intersect(a, b)
                if ab is not None:
                    out.append(ab)
        return CompactOpen(self.graph, out)

    def difference(self, other: "CompactOpen") -> "CompactOpen":
        g, parts = self.graph, self.parts
        for r in other.parts:
            parts = [p for c in parts for p in cyl_difference(g, c, r)
                     if not cyl_is_empty(g, p)]
        return CompactOpen(g, parts)

    def __eq__(self, other):
        if not isinstance(other, CompactOpen):
            return NotImplemented
        if self.parts == other.parts:
            return True
        return self.difference(other).is_empty and other.difference(self).is_empty

    def __hash__(self):
        raise TypeError("compact opens compare semantically; do not hash")

    def __repr__(self):
        return f"CompactOpen({set_str(self)!r})"


def set_str(U: CompactOpen) -> str:
    if not U.parts:
        return "{}"
    out = []
    for stem, excl in U.parts:
        s = stem.range_vertex if not stem.instances else ".".join(
            map(instance_token, stem.instances))
        if excl:
            s = f"Z({s} - {{{','.join(map(instance_token, sorted(excl)))}}})"
        else:
            s = f"Z({s})"
        out.append(s)
    return " + ".join(out)


# ---------------------------------------------------------------- partial words

class PartialWord:
    """The partial transformation of the boundary attached to a reduced word.

    Only words shaped alpha.beta^-1 with composable pieces and matching
    sources move anything; every other word has empty domain.  The empty word
    is the identity on the whole space.
    """

    __slots__ = ("graph", "alpha", "beta", "_word")

    def __init__(self, graph: Graph, alpha: Path | None, beta: Path | None, word=None):
        """Trusted, as trusted_path is: alpha and beta are paths with a common
        source (beta.x goes to alpha.x), or both are None and word tells the
        identity from an empty map.  from_word is the validating builder."""
        self.graph = graph
        self.alpha = alpha
        self.beta = beta
        self._word = word

    @classmethod
    def identity(cls, graph):
        return cls(graph, None, None, ReducedWord())

    @classmethod
    def from_word(cls, graph, word: ReducedWord) -> "PartialWord":
        if word.is_identity:
            return cls.identity(graph)
        split = positive_negative_split(word.letters)
        if split is None:
            return cls(graph, None, None, word)
        pos, neg = split
        try:
            alpha = graph.make_path(pos) if pos else None
            beta = graph.make_path(neg) if neg else None
        except GraphError:
            return cls(graph, None, None, word)
        if alpha is None:
            alpha = graph.vertex_path(beta.source_vertex)
        if beta is None:
            beta = graph.vertex_path(alpha.source_vertex)
        if alpha.source_vertex != beta.source_vertex:
            return cls(graph, None, None, word)
        return cls(graph, alpha, beta, word)

    @property
    def is_identity(self):
        return self.alpha is None and self.beta is None and self._word is not None \
            and self._word.is_identity

    @property
    def is_empty_map(self):
        return self.alpha is None and not self.is_identity

    def word(self) -> ReducedWord:
        if self._word is not None:
            return self._word
        return ReducedWord.from_pair(self.alpha, self.beta)

    def inverse(self) -> "PartialWord":
        if self.is_identity:
            return self
        if self.is_empty_map:
            return PartialWord(self.graph, None, None, self.word().inverse())
        return PartialWord(self.graph, self.beta, self.alpha)

    def domain(self) -> CompactOpen:
        if self.is_identity:
            return CompactOpen.whole(self.graph)
        if self.is_empty_map:
            return CompactOpen.empty(self.graph)
        return CompactOpen.cylinder(self.graph, self.beta)

    def act_point(self, x: BoundaryPoint) -> BoundaryPoint:
        if self.is_identity:
            return x
        if self.is_empty_map or not x.startswith(self.beta):
            raise DomainError(f"{point_str(x)} is not in the domain of {self.word()}")
        return x.shift(len(self.beta)).prepend(self.alpha)

    def act_set(self, U: CompactOpen) -> CompactOpen:
        """The image of U intersected with the domain."""
        g = self.graph
        if self.is_identity:
            return U
        if self.is_empty_map:
            return CompactOpen.empty(g)
        out = []
        for stem, F in U.parts:
            if stem.startswith(self.beta):
                rest = g.strip_prefix(stem, len(self.beta))
                out.append(Cylinder(g.concat(self.alpha, rest), F))
            elif self.beta.startswith(stem) and len(self.beta) > len(stem):
                if self.beta.instances[len(stem)] not in F:
                    out.append(Cylinder(self.alpha, frozenset()))
        return CompactOpen(g, out)

    def __repr__(self):
        return f"PartialWord({str(self.word())!r})"


def sample_point(g: Graph, cyl: Cylinder):
    """A concrete boundary point of the cylinder, or None when it is empty.

    Deterministic: extends the stem by least allowed instances until a
    singular vertex stops the path or a vertex repeats and closes a loop.
    """
    if cyl_is_empty(g, cyl):
        return None
    stem, excl = cyl
    v = stem.source_vertex
    if g.is_singular(v):
        return BoundaryPoint.finite(g, stem)
    appended = []
    seen_at = {v: 0}
    x = v
    while True:
        step = None
        for inst in g.continuations(x, copies=len(excl) + 1):
            if not appended and inst in excl:
                continue
            step = inst
            break
        appended.append(step)
        x = g.s_of(step)
        if g.is_singular(x):
            return BoundaryPoint.finite(g, g.trusted_path(stem.instances + tuple(appended)))
        if x in seen_at:
            k = seen_at[x]
            cycle = g.trusted_path(tuple(appended[k:]))
            prefix = g.trusted_path(stem.instances + tuple(appended[:k]), x)
            return BoundaryPoint.periodic(g, prefix, cycle)
        seen_at[x] = len(appended)


def sample_points(g: Graph, U: CompactOpen) -> list[BoundaryPoint]:
    out = []
    for part in U.parts:
        x = sample_point(g, part)
        if x is not None and x not in out:
            out.append(x)
    return out


def probe_points(g: Graph, depth: int = 3) -> list[BoundaryPoint]:
    """A deterministic spread of boundary points for checks to probe.

    Every finite point whose path fits in `depth`, and every prefix-cycle
    combination whose total length fits in it.
    """
    paths = g.paths_up_to(depth)
    cycles = [c for c in paths
              if c.instances and c.range_vertex == c.source_vertex]
    pts = []
    for mu in paths:
        if g.is_singular(mu.source_vertex):
            pts.append(BoundaryPoint.finite(g, mu))
        for cyc in cycles:
            if len(mu) + len(cyc) <= depth \
                    and cyc.range_vertex == mu.source_vertex:
                pts.append(BoundaryPoint.periodic(g, mu, cyc))
    return list(dict.fromkeys(pts))


# --------------------------------------------------------------- word calculus

def admissible_words(g: Graph, bound: int) -> list[ReducedWord]:
    """All words alpha.beta^-1 from composable pairs with a common source and
    total length at most the bound, the empty word included.

    Pairs sharing a last instance are skipped: their word already arises from
    the shorter pair.
    """
    paths = g.paths_up_to(bound)
    words = {ReducedWord()}
    for alpha in paths:
        for beta in paths:
            if len(alpha) + len(beta) > bound:
                continue
            if alpha.source_vertex != beta.source_vertex:
                continue
            if alpha.instances and beta.instances \
                    and alpha.instances[-1] == beta.instances[-1]:
                continue
            words.add(ReducedWord.from_pair(alpha, beta))
    return sorted(words, key=ReducedWord.sort_key)


def reduced_words(g: Graph, length: int) -> list[ReducedWord]:
    """Every reduced word of length <= length over the edge instances of
    the paths of length one; the ball order of words.ball with instances
    taken vertex by vertex."""
    gens = [mu.instances[0] for mu in g.paths_up_to(1) if mu.instances]
    return [ReducedWord(w) for w in ball(gens, length)]


def isotropy_words(x: BoundaryPoint, bound: int) -> list[ReducedWord]:
    """Nontrivial words of pair length <= bound fixing x.

    A fixing word reads two heads of x against each other: head(i).head(j)^-1
    fixes x exactly when x.shift(i) == x.shift(j).  Shifts stay canonical,
    so that asks for equal prefixes and cycles: a finite point is fixed by
    no word, and a periodic one by the pairs i != j, both at least
    len(prefix), whose difference the cycle length divides.
    """
    if x.is_finite:
        return []
    start, period = len(x.prefix), len(x.cycle)
    found = {ReducedWord.from_pair(x.head(i), x.head(j))
             for i in range(start, bound + 1)
             for j in range(start, bound - i + 1)
             if i != j and (j - i) % period == 0}
    return sorted(found, key=ReducedWord.sort_key)


def verify_partial_action(g: Graph, word_len: int = 2) -> dict:
    """Check the partial action laws on all reduced words up to word_len.

    The empty word must act as the identity everywhere, inverses must undo,
    and composing two word maps must restrict the map of the product word.
    A pair (u, w) is checked on D = theta_w^-1(im theta_w & dom theta_u).
    Every pair counts in "pairs"; when D is empty (dom theta_u, or its
    meet with im theta_w, is empty) the domain, composition and pointwise
    laws hold with nothing to compare, and the product word is never built.
    """
    words = reduced_words(g, word_len)
    table = {}  # word -> (map, domain, image, inverse map)
    for w in words:
        pw = PartialWord.from_word(g, w)
        dom = pw.domain()
        table[w] = (pw, dom, pw.act_set(dom), pw.inverse())

    report = {"words": len(words), "pairs": len(words) ** 2, "failures": []}
    ident, ident_dom, _, _ = table[ReducedWord()]
    if not ident.is_identity or ident_dom != CompactOpen.whole(g):
        report["failures"].append(("identity", ReducedWord()))
    for w, (_, dom, im, inv) in table.items():
        if inv.act_set(im) != dom:
            report["failures"].append(("inverse", w))
    for u, (pu, dom_u, _, _) in table.items():
        if dom_u.is_empty:
            continue
        for w, (pw, _, im_w, inv_w) in table.items():
            mid = im_w.intersect(dom_u)
            if mid.is_empty:
                continue
            D = inv_w.act_set(mid)
            puw = PartialWord.from_word(g, u * w)
            if not D.difference(puw.domain()).is_empty:
                report["failures"].append(("domain", u, w))
                continue
            left = pu.act_set(pw.act_set(D))
            right = puw.act_set(D)
            if left != right:
                report["failures"].append(("composition", u, w))
                continue
            for x in sample_points(g, D):
                try:
                    same = pu.act_point(pw.act_point(x)) == puw.act_point(x)
                except DomainError:
                    same = False
                if not same:
                    report["failures"].append(("pointwise", u, w, x))
    return report


# --------------------------------------------------------- topological freeness

def topological_freeness_report(g: Graph, word_bound: int = 8, stem_depth: int = 2) -> dict:
    """Decide whether some word fixes a whole nonempty open set.

    An entry-less loop freezes the vertex cylinder at its base to a single
    point, which the loop word fixes; that is the only way failure happens.
    Otherwise every stem cylinder gets an explicit point whose isotropy stays
    out of reach of the word bound: a finite point when the flow can reach a
    singular vertex, else an eventually periodic point whose primitive period
    is pumped past the bound.
    """
    l_holds, cyc = condition_l(g)
    if not l_holds:
        base = cyc.range_vertex
        x = BoundaryPoint.periodic(g, g.vertex_path(base), cyc)
        word = ReducedWord.from_path(cyc)
        pw = PartialWord.from_word(g, word)
        for inst in cyc.instances:
            assert g.receiver_count(g.r_of(inst)) == 1
        assert pw.act_point(x) == x
        return {
            "free": False,
            "entryless_loop": cyc,
            "fixed_word": word,
            "fixed_open_stem": g.vertex_path(base),
            "fixed_point": x,
        }

    witnesses = []
    for stem in g.paths_up_to(stem_depth):
        v = stem.source_vertex
        down = sorted(g.downstream(v))
        x = None
        for w in down:
            if g.is_singular(w):
                rho = g.shortest_path(v, w)
                x = BoundaryPoint.finite(g, g.concat(stem, rho))
                break
        if x is None:
            for y in down:
                loops = first_return_profile(g, y)
                if len(loops) == 2:
                    la, lb = loops
                    m = word_bound // len(la) + 1
                    c = g.trusted_path(la.instances * m + lb.instances)
                    rho = g.shortest_path(v, y)
                    x = BoundaryPoint.periodic(g, g.concat(stem, rho), c)
                    break
        if x is None:
            raise GraphError(
                f"no aperiodic point reachable from {v} although every loop has an entry")
        leftover = isotropy_words(x, word_bound)
        witnesses.append({
            "stem": stem,
            "point": x,
            "isotropy_words_up_to_bound": leftover,
        })
    ok = all(not w["isotropy_words_up_to_bound"] for w in witnesses)
    return {
        "free": True,
        "verified": ok,
        "word_bound": word_bound,
        "witnesses": witnesses,
    }
