"""The boundary path space of a graph and the partial action of words on it.

Points are either finite paths ending at a singular vertex or eventually
periodic infinite paths, stored as prefix + primitive cycle in a canonical
form.  Open sets are finite unions of cylinders Z(stem minus exclusions),
where an exclusion set only ever reaches one level past the stem; that is
enough to close the family under intersection and difference without ever
enumerating the receivers of a vertex.

A table of cylinders that should partition a set (the rule stems, cocycle
rows and shift data of orbit.py, the pieces and images of a paradox
witness) is certified by three helpers on the same algebra: cyl_meets,
cyl_overlaps (the pieces that meet an earlier one) and cyl_inside (the
parts that lie in a set).  sample_point names one point of a cylinder and
sample_pair two distinct ones, or its only point: two points are what
the orbit checks of orbit.py evaluate on each locality cylinder.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .graph import (Graph, GraphError, Path, condition_l, first_return_profile,
                    instance_token, sort_key)
from .words import _TOKEN, ReducedWord, _trusted, ball, positive_negative_split


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


_LETTERS = 8  # letters _absorb compares one at a time before it gallops


def _absorb(pre: tuple, cyc: tuple):
    """The same prefix.cycle^inf with no prefix letter equal to the cycle's
    last: each such letter moves into a rotation of the cycle.

    The k letters absorbed are the prefix's longest tail that reads the
    cycle backwards from its last letter; the prefix is cut once and the
    cycle turned once, by k mod its length.  The first max(8, c) letters
    (c the cycle length) are compared one at a time.  Once a tail of
    k >= c letters matches, pre ends with the whole cycle, so a longer
    tail matches exactly when it repeats with period c, and a tail of
    t > k letters does once its t - k new letters equal the letters c
    further on: pre[n-t:n-k] == pre[n-t+c:n-k+c].  That test is monotone
    in t, so k is found by galloping in O(log n) slice comparisons.  The
    first probe is the whole prefix, since a prefix made of turns of the
    cycle (a word's path acting on its own loop) is absorbed whole; after
    that t doubles while the slices agree, then the gap is halved.
    """
    if not pre or pre[-1] != cyc[-1]:
        return pre, cyc
    n, c = len(pre), len(cyc)
    k = 1
    while k < n and pre[n - 1 - k] == cyc[-1 - k % c]:
        k += 1
        if k >= _LETTERS and k >= c:
            hi, t = n + 1, n  # tails shorter than hi may match
            while hi - k > 1:
                if pre[n - t:n - k] == pre[n - t + c:n - k + c]:
                    k = t
                else:
                    hi = t
                t = 2 * k if 2 * k < hi else (k + hi) // 2
            break
    j = c - k % c
    return pre[:n - k], cyc[j:] + cyc[:j]


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

    def head(self, n: int) -> Path:
        """The first n instances as a path: the prefix, then the cycle unrolled."""
        pre = self.prefix
        if n < 0 or (self.cycle is None and n > len(pre)):
            raise BoundaryError(f"{point_str(self)} has no first {n} instances")
        if n > len(pre):
            pre += self.cycle * ((n - len(pre)) // len(self.cycle) + 1)
        return self.graph.trusted_path(pre[:n], self.range_vertex)

    def startswith(self, mu: Path) -> bool:
        """mu is a head: the part t of mu past the prefix starts like the
        cycle and repeats with its period, read as slices of mu, so at most
        two copies of t and no unrolled cycle are built.  Only a vertex path
        compares range vertices: mu's first instance, when it matches,
        already fixes the range vertex of a canonical point."""
        m, pre, cyc = mu.instances, self.prefix, self.cycle
        if not m:
            return mu.range_vertex == self.range_vertex
        k, n = len(m), len(pre)
        if k <= n:
            return pre[:k] == m
        if cyc is None or m[:n] != pre:
            return False
        c = len(cyc)
        if k - n <= c:
            return m[n:] == cyc[:k - n]
        return m[n:n + c] == cyc and m[n + c:] == m[n:k - c]

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
    return 0 < len(c.excl) == g._count[c.stem.source_vertex]


def cyl_intersect(a: Cylinder, b: Cylinder):
    """The intersection, again a single cylinder (or None when disjoint).
    The stems are compared as slices in place of Path methods: the
    certificates call this once per pair of pieces."""
    s, t = a.stem, b.stem
    if s.range_vertex != t.range_vertex:
        return None
    x, y = s.instances, t.instances
    if len(x) < len(y):
        a, b, x, y = b, a, y, x
    n = len(y)
    if x[:n] != y:
        return None
    if len(x) == n:
        return Cylinder(s, a.excl | b.excl)
    return None if x[n] in b.excl else a


def cyl_difference(g: Graph, c: Cylinder, r: Cylinder) -> list[Cylinder]:
    """c minus r as a disjoint list of cylinders.

    When r sits strictly below c the complement splits along r's spine: what
    leaves the spine at each level, plus what r itself excludes at the bottom.
    The stems are compared as slices, as in cyl_intersect.
    """
    mu, F = c
    nu, G = r
    if mu.range_vertex != nu.range_vertex:
        return [c]
    x, y = mu.instances, nu.instances
    m, n = len(x), len(y)
    if m <= n and y[:m] == x:
        if m == n:
            return [Cylinder(g.trusted_path(x + (a,)), frozenset()) for a in sorted(G - F)]
        if y[m] in F:
            return [c]
        parts = [Cylinder(mu, F | {y[m]})]
        for j in range(m + 1, n):
            parts.append(Cylinder(g.trusted_path(y[:j], mu.range_vertex), frozenset({y[j]})))
        for a in sorted(G):
            parts.append(Cylinder(g.trusted_path(y + (a,)), frozenset()))
        return parts
    if x[:n] == y:
        return [c] if x[n] in G else []
    return [c]


def _cyl_within(a: Cylinder, b: Cylinder) -> bool:
    """A test on stems alone that suffices for Z(a) within Z(b): a's stem
    extends b's past b's exclusions, or equals it and excludes all b does."""
    if not a.stem.startswith(b.stem):
        return False
    n = len(b.stem.instances)
    if len(a.stem.instances) == n:
        return b.excl <= a.excl
    return a.stem.instances[n] not in b.excl


def cyl_inside(g: Graph, parts, U: "CompactOpen") -> bool:
    """Whether every part lies in U: by _cyl_within where it settles a part,
    by the exact difference for the parts it leaves open."""
    rest = []
    for p in parts:
        for u in U.parts:
            if _cyl_within(p, u):
                break
        else:
            rest.append(p)
    return not rest or CompactOpen(g, rest).difference(U).is_empty


def cyl_meets(g: Graph, parts, others) -> bool:
    """Whether some part meets some other: a non-empty cylinder intersection
    (the count of cyl_is_empty; Webster, Proc. AMS 142, 2014)."""
    for a in parts:
        for b in others:
            ab = cyl_intersect(a, b)
            if ab is not None and not cyl_is_empty(g, ab):
                return True
    return False


def cyl_overlaps(g: Graph, cylinders) -> list[int]:
    """The indices of the cylinders that meet an earlier one, in order."""
    return [i for i, c in enumerate(cylinders) if cyl_meets(g, (c,), cylinders[:i])]


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
    def trusted(cls, graph: Graph, parts: tuple) -> "CompactOpen":
        """The set with exactly these parts, built without the normalising
        pass of __init__.

        Precondition: parts is a tuple of non-empty, distinct cylinders
        sorted by Cylinder.key, which is the normal form __init__ makes.
        """
        self = object.__new__(cls)
        self.graph = graph
        self.parts = parts
        return self

    @classmethod
    def empty(cls, g):
        return cls.trusted(g, ())

    @classmethod
    def whole(cls, g):
        # a vertex cylinder is never empty, and Cylinder.key orders them by vertex
        return cls.trusted(g, tuple(Cylinder(Path(v, v), frozenset())
                                    for v in sorted(g.vertices)))

    @classmethod
    def cylinder(cls, g, stem: Path):
        # a cylinder without exclusions is never empty
        return cls.trusted(g, (Cylinder(stem, frozenset()),))

    @property
    def is_empty(self):
        return not self.parts

    def intersect(self, other: "CompactOpen") -> "CompactOpen":
        if not self.parts or not other.parts:
            return CompactOpen.empty(self.graph)
        out = []
        for a in self.parts:
            for b in other.parts:
                ab = cyl_intersect(a, b)
                if ab is not None:
                    out.append(ab)
        return CompactOpen(self.graph, out)

    def difference(self, other: "CompactOpen") -> "CompactOpen":
        g, parts = self.graph, self.parts
        if not parts or not other.parts:
            return self
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
        identity from an empty map.  from_word is the validating builder.
        beta may be a path of another graph with the same tails, as in
        orbit.PrefixHomeo's rule maps; only act_point reads such a map."""
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

    @classmethod
    def from_pair(cls, graph, alpha: Path, beta: Path) -> "PartialWord":
        """The map of alpha.beta^-1, built from the pair as from_word builds
        it from the word: the k instances of the shared tail that
        ReducedWord.from_pair cancels come off both paths, and a side that
        cancels whole becomes the vertex path at the range of the first
        cancelled instance.

        Unchecked, as trusted_path is: alpha and beta are paths of graph
        with a common source.
        """
        word = ReducedWord.from_pair(alpha, beta)
        if not word.letters:
            return cls.identity(graph)
        k = (len(alpha) + len(beta) - len(word)) // 2
        if k:
            m, n = alpha.instances, beta.instances
            v = graph.r_of(m[len(m) - k])
            alpha = graph.trusted_path(m[:len(m) - k], v)
            beta = graph.trusted_path(n[:len(n) - k], v)
        return cls(graph, alpha, beta, word)

    @property
    def is_identity(self):
        return self.beta is None and not self._word.letters

    @property
    def is_empty_map(self):
        return self.beta is None and bool(self._word.letters)

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
        """alpha.y for x = beta.y: the one re-heading kernel.

        With beta within the prefix, the head test (one slice compare; a
        vertex path compares range vertices) and the re-heading share this
        frame, and x is canonical, so only a new prefix that ends in the
        cycle's last instance is absorbed.  Past the prefix, startswith
        tests beta, the cycle turns by what beta takes of it and alpha is
        absorbed.
        """
        beta = self.beta
        if beta is None:
            if not self._word.letters:
                return x
        else:
            b, pre, cyc = beta.instances, x.prefix, x.cycle
            k, n = len(b), len(pre)
            if k <= n:
                if (pre[:k] == b) if k else beta.range_vertex == x.range_vertex:
                    pre = self.alpha.instances + pre[k:]
                    if cyc is not None and pre and pre[-1] == cyc[-1]:
                        pre, cyc = _absorb(pre, cyc)
                    return BoundaryPoint(self.graph, self.alpha.range_vertex, pre, cyc)
            elif x.startswith(beta):
                j = (k - n) % len(cyc)
                pre, cyc = _absorb(self.alpha.instances, cyc[j:] + cyc[:j])
                return BoundaryPoint(self.graph, self.alpha.range_vertex, pre, cyc)
        raise DomainError(f"{point_str(x)} is not in the domain of {self.word()}")

    def act_set(self, U: CompactOpen) -> CompactOpen:
        """The image of U intersected with the domain.

        Swapping the prefix beta for alpha keeps each stem's source, so its
        emptiness, and keeps the order of Cylinder.key among stems that
        start with beta: their images are in normal form already.  Only
        Z(alpha), the image of a part above Z(beta), sends the result
        through the normalising constructor.
        """
        g, alpha, beta = self.graph, self.alpha, self.beta
        if beta is None:
            return U if self.is_identity else CompactOpen.empty(g)
        k = len(beta.instances)
        out, normal = [], True
        for stem, F in U.parts:
            if stem.startswith(beta):
                out.append(Cylinder(Path(alpha.range_vertex, stem.source_vertex,
                                         alpha.instances + stem.instances[k:]), F))
            elif beta.startswith(stem) and k > len(stem.instances):
                if beta.instances[len(stem.instances)] not in F:
                    out.append(Cylinder(alpha, frozenset()))
                    normal = False
        return CompactOpen.trusted(g, tuple(out)) if normal else CompactOpen(g, out)

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


def sample_pair(g: Graph, cyl: Cylinder) -> list[BoundaryPoint]:
    """[] for an empty cylinder, its one point when it holds one point, and
    two distinct points of it otherwise.

    A forced walk, as in sample_point, the exclusions barring the first
    step, follows a vertex's only allowed continuation.  A source with no
    receivers, or a vertex it left before with nothing barred, ends it at
    the cylinder's one point.  At the first vertex with two allowed
    continuations (two copies of an infinite family), the least two
    each start a point that sample_point completes.
    """
    if cyl_is_empty(g, cyl):
        return []
    stem, excl = cyl
    walk, v, seen = stem.instances, stem.source_vertex, set()
    while v not in seen:
        if not excl:
            seen.add(v)
        conts = [a for a in g.continuations(v, len(excl) + 2) if a not in excl]
        if len(conts) > 1:
            return [sample_point(g, Cylinder(g.trusted_path(walk + (a,)), frozenset()))
                    for a in conts[:2]]
        if not conts:
            break
        walk += conts[0],
        v, excl = g.s_of(conts[0]), ()
    return [sample_point(g, cyl)]


def probe_points(g: Graph, depth: int = 3) -> list[BoundaryPoint]:
    """A deterministic spread of boundary points for checks to probe.

    Every finite point whose path fits in `depth`, and every prefix-cycle
    combination whose total length fits in it, each point once.  Only
    canonical pairs are built, a primitive cycle behind a prefix that does
    not end in the cycle's last instance: any other pair gives the point of
    a pair with a shorter prefix or cycle, which comes first in paths_up_to
    order, so the list is that of all pairs with repeats dropped.
    """
    paths = g.paths_up_to(depth)
    cycles = {}     # vertex -> primitive cycles there, in paths_up_to order
    for c in paths:
        insts = c.instances
        if insts and c.range_vertex == c.source_vertex \
                and len(_primitive_root(insts)) == len(insts):
            cycles.setdefault(c.source_vertex, []).append(insts)
    pts = []
    for mu in paths:
        v, pre = mu.source_vertex, mu.instances
        if g.is_singular(v):
            pts.append(BoundaryPoint(g, mu.range_vertex, pre, None))
        room = depth - len(pre)
        for cyc in cycles.get(v, ()):
            if len(cyc) > room:
                break
            if not pre or pre[-1] != cyc[-1]:
                pts.append(BoundaryPoint(g, mu.range_vertex, pre, cyc))
    return pts


# --------------------------------------------------------------- word calculus

def admissible_words(g: Graph, bound: int) -> list[ReducedWord]:
    """All words alpha.beta^-1 from composable pairs with a common source and
    total length at most the bound, the empty word included.

    Pairs sharing a last instance are skipped: their word already arises from
    the shorter pair.  The paths are grouped by source vertex, then by last
    instance (None for a vertex), each group in length order, so only the
    pairs that give a word are visited: alpha walks the groups of its
    source whose last instance differs from its own and stops each at the
    length left.  Such a pair cancels nothing, so its word is alpha's
    letters then beta's inverted.  Each path is spelled once each way, from
    one tuple per letter that every word shares.
    """
    paths = g.paths_up_to(bound)
    # every instance of a path is the instance of a path of length 1
    gens = [mu.instances[0] for mu in paths if len(mu.instances) == 1]
    plus = {i: (i, 1) for i in gens}.__getitem__
    minus = {i: (i, -1) for i in gens}.__getitem__
    groups = {}
    for mu in paths:
        insts = mu.instances
        forward, backward = tuple(map(plus, insts)), tuple(map(minus, reversed(insts)))
        last = insts[-1] if insts else None
        groups.setdefault(mu.source_vertex, {}).setdefault(last, []).append(
            (forward, backward))
    words = {ReducedWord()}
    for by_last in groups.values():
        for last, alphas in by_last.items():
            for forward, _ in alphas:
                room = bound - len(forward)
                for other, betas in by_last.items():
                    if last is not None and other == last:
                        continue
                    for _, backward in betas:
                        if len(backward) > room:
                            break
                        words.add(_trusted(forward + backward))
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
    len(prefix), whose difference the cycle length divides.  For each i, j
    steps by the cycle length from the least such j, so the scan costs one
    step per i and one per pair (i, j) with j - i a multiple: linear in the
    bound when the cycle is longer than the bound, as on the pumped points
    of topological_freeness_report.
    """
    if x.is_finite:
        return []
    start, period = len(x.prefix), len(x.cycle)
    found = {ReducedWord.from_pair(x.head(i), x.head(j))
             for i in range(start, bound + 1)
             for j in range(start + (i - start) % period, bound - i + 1, period)
             if i != j}
    return sorted(found, key=ReducedWord.sort_key)


def _partner_row(g, w, row, meet, samples):
    """(w, its map, D, w(D), D's sample points with repeats dropped) for
    the meet of w's image with a domain, D its preimage under w."""
    pw, _, _, inv = row
    D = inv.act_set(meet)
    points = []
    for part in D.parts:
        if part not in samples:
            samples[part] = sample_point(g, part)
        if samples[part] not in points:
            points.append(samples[part])
    return w, pw, D, pw.act_set(D), points


def verify_partial_action(g: Graph, word_len: int = 2) -> dict:
    """Check the partial action laws on all reduced words up to word_len.

    The empty word must act as the identity everywhere, inverses must undo,
    and composing two word maps must restrict the map of the product word.
    A pair (u, w) is checked on D = theta_w^-1(im theta_w & dom theta_u),
    and every pair counts in "pairs".  A domain or image is whole, empty or
    a cylinder many words share, so each distinct domain meets each
    distinct image once and keeps a partner row, in table order, for each
    w whose meet is non-empty: D and what a pair reads of it.  A pair with
    empty D, where the laws hold with nothing to compare, is never visited.
    Each product's map and domain is built once per call.
    """
    words = reduced_words(g, word_len)
    table = {}  # word -> (map, domain, image, inverse map)
    products = {}  # u * w -> (map, domain)
    samples = {}  # part of some D (never empty) -> its sample point
    images = {}  # non-empty image parts -> (image, [(table index, word)])
    for i, w in enumerate(words):
        pw = PartialWord.from_word(g, w)
        dom = pw.domain()
        im = pw.act_set(dom)
        table[w] = (pw, dom, im, pw.inverse())
        if im.parts:
            images.setdefault(im.parts, (im, []))[1].append((i, w))
    partners = {(): []}  # domain parts -> its partner rows in table order
    for _, dom, _, _ in table.values():
        if dom.parts not in partners:
            rows = []
            for im, ws in images.values():
                meet = im.intersect(dom)
                if not meet.is_empty:
                    rows += [(i, w, meet) for i, w in ws]
            partners[dom.parts] = [_partner_row(g, w, table[w], meet, samples)
                                   for _, w, meet in sorted(rows)]

    report = {"words": len(words), "pairs": len(words) ** 2, "failures": []}
    ident, ident_dom, _, _ = table[ReducedWord()]
    if not ident.is_identity or ident_dom != CompactOpen.whole(g):
        report["failures"].append(("identity", ReducedWord()))
    for w, (_, dom, im, inv) in table.items():
        if inv.act_set(im) != dom:
            report["failures"].append(("inverse", w))
    for u, (pu, dom_u, _, _) in table.items():
        for w, pw, D, wD, points in partners[dom_u.parts]:
            uw = u * w
            if uw not in products:
                puw = PartialWord.from_word(g, uw)
                products[uw] = puw, puw.domain()
            puw, dom_uw = products[uw]
            if not D.difference(dom_uw).is_empty:
                report["failures"].append(("domain", u, w))
                continue
            if pu.act_set(wD) != puw.act_set(D):
                report["failures"].append(("composition", u, w))
                continue
            for x in points:
                try:
                    same = pu.act_point(pw.act_point(x)) == puw.act_point(x)
                except DomainError:
                    same = False
                if not same:
                    report["failures"].append(("pointwise", u, w, x))
    return report


# --------------------------------------------------------- topological freeness

def _aperiodic_tail(g: Graph, v: str, word_bound: int):
    """(rho, None) for a shortest path rho from v to the first singular
    vertex downstream, else (rho, cycle) for a shortest path to the first
    vertex with two first-return loops, the first pumped past the word
    bound ahead of the second.

    Condition (L), under which alone it is called, makes one of the two
    exist.  With no singular vertex downstream of v, every downstream
    vertex receives an edge, so some cyclic strongly connected component C
    lies downstream with no other one downstream of it; then nothing
    outside C is downstream of C, since a walk back along receivers from
    it would reach another.  A loop in C has an entry by (L), whose source
    is thus in C and leads back to the entry's range y: y has two
    first-return loops, the loop's and one through the entry.
    """
    down = sorted(g.downstream(v))
    for w in down:
        if g.is_singular(w):
            return g.shortest_path(v, w), None
    for y in down:
        loops = first_return_profile(g, y)
        if len(loops) == 2:
            la, lb = loops
            m = word_bound // len(la) + 1
            return g.shortest_path(v, y), g.trusted_path(la.instances * m + lb.instances)


def topological_freeness_report(g: Graph, word_bound: int = 8, stem_depth: int = 2) -> dict:
    """Decide whether some word fixes a whole nonempty open set.

    An entry-less loop freezes the vertex cylinder at its base to a single
    point, which the loop word fixes; that is the only way failure happens.
    Otherwise every stem cylinder gets an explicit point whose isotropy stays
    out of reach of the word bound: a finite point when the flow can reach a
    singular vertex, else an eventually periodic point whose primitive period
    is pumped past the bound.  The tail behind a stem depends only on the
    stem's source vertex, so each vertex's tail is found once.
    """
    l_holds, cyc = condition_l(g)
    if not l_holds:
        base = cyc.range_vertex
        x = BoundaryPoint.periodic(g, g.vertex_path(base), cyc)
        word = ReducedWord.from_path(cyc)
        pw = PartialWord.from_word(g, word)
        if (any(g.receiver_count(g.r_of(inst)) != 1 for inst in cyc.instances)
                or pw.act_point(x) != x):
            raise GraphError(f"the entry-less loop at {base} does not fix its point")
        return {
            "free": False,
            "entryless_loop": cyc,
            "fixed_word": word,
            "fixed_open_stem": g.vertex_path(base),
            "fixed_point": x,
        }

    witnesses = []
    tails = {}  # source vertex -> its aperiodic tail
    for stem in g.paths_up_to(stem_depth):
        v = stem.source_vertex
        if v not in tails:
            tails[v] = _aperiodic_tail(g, v, word_bound)
        rho, c = tails[v]
        if c is None:
            x = BoundaryPoint.finite(g, g.concat(stem, rho))
        else:
            x = BoundaryPoint.periodic(g, g.concat(stem, rho), c)
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
