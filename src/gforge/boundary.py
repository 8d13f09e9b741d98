"""The boundary path space of a graph and the partial action of words on it.

Points are either finite paths ending at a singular vertex or eventually
periodic infinite paths, stored as prefix + primitive cycle in a canonical
form.  Open sets are finite unions of cylinders Z(stem minus exclusions),
where an exclusion set only ever reaches one level past the stem; that is
enough to close the family under intersection and difference without ever
enumerating the receivers of a vertex.

A table of cylinders that should partition a set (the rule stems, cocycle
rows and shift data of orbit.py) is certified through a StemIndex, a trie
of the stems keyed by edge instances from the range vertex: the pieces
that meet an earlier one, which cylinders the table covers, and whether
it covers the whole boundary come from one pass over the trie and the
receiver counts, with no CompactOpen built.  A PointIndex answers the
lookups for a list of points: a trie of their first letters, whose node
ranges name the points in a cylinder without a walk per point.
"""
from __future__ import annotations

import re
from array import array
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


class _Node:
    __slots__ = ("kids", "here")

    def __init__(self):
        self.kids = {}  # edge instance -> the node one letter further
        self.here = []  # the exclusions of the cylinders ending here


_NO_BAR = frozenset()


class StemIndex:
    """The partition certificate of a table of cylinders: which of them
    meet an earlier one, which cylinders their union covers, and whether
    they cover the whole boundary.

    A trie over the stems, keyed by edge instances from the range vertex.
    Each node lists the exclusions of every non-empty cylinder whose stem
    ends there; an empty one meets nothing and covers nothing, so it is
    left out.

    `overlaps` is found in the same pass that builds the trie: the indices
    of the cylinders that meet an earlier one, in order.  Two non-empty
    cylinders meet when one stem sits at or below the other on a branch the
    upper one does not exclude, or, with one stem, when the union of their
    exclusions leaves a receiver (the count cyl_is_empty reads; Webster,
    Proc. AMS 142, 2014).  `covers` decides containment by the same count:
    a node lies in the union when a cylinder ends there and every child that
    all of them exclude lies in it below, or when its source is regular and
    all its receiver_count children lie in it.  A node with an infinite
    family, or with no receivers, holds a finite point of its own, which
    only a cylinder ending there covers.
    """

    __slots__ = ("graph", "overlaps", "_roots")

    def __init__(self, graph: Graph, cylinders):
        self.graph = graph
        self.overlaps = []
        self._roots = {}
        count = graph._count
        for i, (stem, excl) in enumerate(cylinders):
            n = count[stem.source_vertex]
            if 0 < len(excl) == n:
                continue
            node = self._roots.get(stem.range_vertex)
            if node is None:
                node = self._roots[stem.range_vertex] = _Node()
            meets = False
            for a in stem.instances:
                meets = meets or any(a not in F for F in node.here)
                kid = node.kids.get(a)
                if kid is None:
                    kid = node.kids[a] = _Node()
                node = kid
            # every node below holds a cylinder; a stem at this node meets
            # this one unless their exclusions bar every receiver together
            meets = (meets or any(a not in excl for a in node.kids)
                     or any(not 0 < len(excl | F) == n for F in node.here))
            node.here.append(excl)
            if meets:
                self.overlaps.append(i)

    def covers(self, cyl: Cylinder) -> bool:
        """Z(cyl) lies in the union of the cylinders."""
        stem, excl = cyl
        if cyl_is_empty(self.graph, cyl):
            return True
        node = self._roots.get(stem.range_vertex)
        for a in stem.instances:
            if node is None:
                return False
            if any(a not in F for F in node.here):
                return True
            node = node.kids.get(a)
        return node is not None and self._covered(node, stem.source_vertex, excl)

    def _covered(self, node: _Node, v: str, bar: frozenset) -> bool:
        """The node's cylinder, less the children in bar, lies in the union
        of the cylinders at or below it; v is the stem's source.

        A node where no cylinder ends lies above one, so v has receivers,
        and every receiver outside bar must lead to a covered child.  No
        set of children makes up an infinite count, and the finite point
        at such a v lies in no child, so there only a cylinder ending at
        the node covers it.
        """
        g, kids = self.graph, node.kids
        if node.here:
            need = frozenset.intersection(*node.here) - bar
            return all(a in kids and self._covered(kids[a], g.s_of(a), _NO_BAR)
                       for a in need)
        open_kids = [(a, kid) for a, kid in kids.items() if a not in bar]
        return len(open_kids) == g._count[v] - len(bar) and all(
            self._covered(kid, g.s_of(a), _NO_BAR) for a, kid in open_kids)

    def tiles(self) -> bool:
        """The cylinders cover the whole boundary, each vertex's cylinder."""
        roots = self._roots
        return all(v in roots and self._covered(roots[v], v, _NO_BAR)
                   for v in self.graph.vertices)


class _Span:
    __slots__ = ("kids", "lo", "hi", "at")

    def __init__(self):
        self.kids = {}  # edge instance -> the node one letter further
        self.lo = self.hi = 0   # the node's range of PointIndex.order
        self.at = 0     # points ending here, then the next free slot of them


class PointIndex:
    """Which points of a list lie in a cylinder.

    A trie over the points' first letters, keyed by edge instances from the
    range vertex, down to one letter past `depth`, the longest stem a query
    may have; a periodic point is unrolled that far.  `order` holds the
    point indices in trie order: at each node, the finite points that end
    there, then each child's points, so a node's points are the range
    order[lo:hi].  Z(s - F) is s's range less the ranges of the children in
    F: a query walks len(s) letters and copies what it finds, with no walk
    per point.  The index keeps one array entry per point and one node per
    distinct head of at most depth + 1 letters.
    """

    __slots__ = ("depth", "order", "_roots")

    def __init__(self, points, depth: int):
        self.depth = depth
        self._roots = roots = {}
        ends = []
        for x in points:
            node = roots.get(x.range_vertex)
            if node is None:
                node = roots[x.range_vertex] = _Span()
            letters, cyc = x.prefix, x.cycle
            if cyc is not None and len(letters) <= depth:
                letters += cyc * ((depth - len(letters)) // len(cyc) + 1)
            for a in letters[:depth + 1]:
                kids = node.kids
                node = kids.get(a)
                if node is None:
                    node = kids[a] = _Span()
            node.at += 1
            ends.append(node)
        cursor, todo = 0, list(roots.values())
        while todo:
            node = todo.pop()
            if node is None:    # every child of the node on top is placed
                todo.pop().hi = cursor
                continue
            node.lo, node.at, cursor = cursor, cursor, cursor + node.at
            todo += [node, None]
            todo += node.kids.values()
        self.order = order = array("l", [0]) * cursor
        for j, node in enumerate(ends):
            order[node.at] = j
            node.at += 1

    def within(self, cyl: Cylinder) -> array:
        """The indices of the points in Z(cyl), in trie order."""
        stem, excl = cyl
        letters = stem.instances
        if len(letters) > self.depth:
            raise BoundaryError(f"stem of {len(letters)} letters past index depth {self.depth}")
        node = self._roots.get(stem.range_vertex)
        for a in letters:
            if node is None:
                break
            node = node.kids.get(a)
        order = self.order
        if node is None:
            return order[:0]
        if not excl:
            return order[node.lo:node.hi]
        out, lo = order[:0], node.lo
        for start, end in sorted((kid.lo, kid.hi) for a, kid in node.kids.items() if a in excl):
            out += order[lo:start]
            lo = end
        out += order[lo:node.hi]
        return out

    def first_holding(self, cylinders) -> list[int]:
        """For each point, the index of the first cylinder that holds it,
        or -1: the cylinders are met last to first, so the first one wins."""
        first = [-1] * len(self.order)
        for i in range(len(cylinders) - 1, -1, -1):
            for j in self.within(cylinders[i]):
                first[j] = i
        return first


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
