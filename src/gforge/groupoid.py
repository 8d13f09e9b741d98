"""Germs of the boundary word action and their shift-offset normal form.

A germ is a word of the action together with a point of its domain, taken
up to agreement on a neighbourhood of that point.  The normal form of a
germ records the image point, the integer length offset, and the source
point; the merge depth is the least shift at which the image and source
tails coincide.  Two presentations define the same germ exactly when
their normal forms agree, which makes the normal form the workable
equality test.

Composition follows function order: compose(d2, d1) applies d1 first.
"""

from .boundary import (
    PartialWord,
    admissible_words,
    point_str,
    probe_points,
    sample_point,
)
from .graph import CompositionError, GraphError, INFINITE
from .words import ReducedWord


class GroupoidError(Exception):
    pass


class PTGElement:
    """A word of the action paired with a point of its domain."""

    __slots__ = ("graph", "word", "point", "_pw")

    def __init__(self, graph, word, point):
        pw = PartialWord.from_word(graph, word)
        if pw.is_empty_map:
            raise GroupoidError(f"word {word} does not act on this graph")
        if not pw.is_identity and not point.startswith(pw.beta):
            raise GroupoidError(
                f"point {point_str(point)} is outside the domain of {word}")
        self.graph = graph
        self.word = word
        self.point = point
        self._pw = pw

    def image(self):
        return self._pw.act_point(self.point)

    def __eq__(self, other):
        if not isinstance(other, PTGElement):
            return NotImplemented
        return self.word == other.word and self.point == other.point

    def __hash__(self):
        return hash((PTGElement, self.word, self.point))

    def __repr__(self):
        return f"PTGElement({str(self.word)!r}, {point_str(self.point)!r})"


class DRElement:
    """Normal form of a germ: (target, offset, source) plus merge depth.

    The witness condition is target.shift(k) == source.shift(k - offset)
    at k = merge_depth, and merge_depth is the least such k.  Equality
    and hashing use the triple only; the depth is determined by it.
    """

    __slots__ = ("target", "offset", "source", "merge_depth")

    def __init__(self, target, offset, source, merge_depth):
        """Store the fields unchecked.

        Precondition: merge_depth >= max(offset, 0), the tails merge at
        merge_depth, and no smaller depth of at least max(offset, 0) does.
        make is the builder that checks; a germ built here is trusted.
        """
        self.target = target
        self.offset = offset
        self.source = source
        self.merge_depth = merge_depth

    @classmethod
    def make(cls, target, offset, source, search_cap):
        """The germ at its least merge depth <= search_cap, else GroupoidError."""
        for k in range(max(offset, 0), search_cap + 1):
            if target.shift(k) == source.shift(k - offset):
                return cls(target, offset, source, k)
        raise GroupoidError("no merge depth within the search cap")

    @classmethod
    def unit(cls, point):
        """The identity germ at point; depth 0 is the least allowed."""
        return cls(point, 0, point, 0)

    def key(self):
        return (point_str(self.target), self.offset, point_str(self.source))

    def __eq__(self, other):
        if not isinstance(other, DRElement):
            return NotImplemented
        return self.target == other.target and self.offset == other.offset \
            and self.source == other.source

    def __hash__(self):
        return hash((DRElement, self.target, self.offset, self.source))

    def __repr__(self):
        return (f"DRElement({point_str(self.target)!r}, {self.offset}, "
                f"{point_str(self.source)!r}, depth={self.merge_depth})")


def to_dr(element: PTGElement) -> DRElement:
    """Normal form of a presented germ, with merge depth len(alpha).

    The tails of alpha.tail and beta.tail agree from depth len(alpha) on.
    alpha.beta^-1 is reduced, so nonempty alpha and beta end in different
    instances: the tails differ at len(alpha) - 1, hence at every smaller
    depth.  With alpha or beta empty, len(alpha) is the least depth allowed.
    """
    pw = element._pw
    if pw.is_identity:
        return DRElement.unit(element.point)
    y = pw.act_point(element.point)
    n = len(pw.alpha)
    return DRElement(y, n - len(pw.beta), element.point, n)


def to_ptg(g, d: DRElement) -> PTGElement:
    """A word presentation read off the normal form's merge witness."""
    lam = d.target.head(d.merge_depth)
    mu = d.source.head(d.merge_depth - d.offset)
    word = ReducedWord.from_pair(lam, mu)
    return PTGElement(g, word, d.source)


def compose(d2: DRElement, d1: DRElement) -> DRElement:
    """Apply d1 first.  The merge depths of the factors cap the rescan."""
    if d1.target != d2.source:
        raise CompositionError("germs do not compose: endpoint mismatch")
    cap = max(d2.merge_depth, d1.merge_depth + d2.offset)
    return DRElement.make(d2.target, d2.offset + d1.offset, d1.source, cap)


def all_boundary_points(g):
    """Every boundary point, for graphs whose boundary is finite.

    That needs finite multiplicities and no cycles; otherwise the space
    is infinite and this raises.
    """
    for e in g.edges.values():
        if e.multiplicity == INFINITE:
            raise GraphError("boundary space is infinite: "
                             f"edge {e.eid} has infinite multiplicity")
    for v in g.vertices:
        if any(e.source_vertex in g.upstream(v) for e in g.receivers(v)):
            raise GraphError(f"boundary space is infinite: cycle through {v}")
    # acyclic: no path reaches |V| edges, so the probe holds every point
    return probe_points(g, len(g.vertices))


def full_groupoid(g, word_bound=4):
    """All germs over a finite boundary, deduplicated by normal form."""
    pts = all_boundary_points(g)
    seen = {}
    for w in admissible_words(g, word_bound):
        pw = PartialWord.from_word(g, w)
        for x in pts:
            if pw.is_identity or x.startswith(pw.beta):
                d = to_dr(PTGElement(g, w, x))
                seen.setdefault(d.key(), d)
    return sorted(seen.values(), key=DRElement.key)


def roundtrip_report(g, word_bound):
    """Word -> normal form -> word again, germ by germ.

    One sample point per domain part of every admissible word.  A
    failure records a germ whose normal form changed across the
    roundtrip; distinct counts normal forms seen.
    """
    rep = {"roundtrips": 0, "distinct": 0, "failures": []}
    seen = set()
    for w in admissible_words(g, word_bound):
        pw = PartialWord.from_word(g, w)
        for part in pw.domain().parts:
            x = sample_point(g, part)
            if x is None:
                continue
            s = PTGElement(g, w, x)
            d = to_dr(s)
            s2 = to_ptg(g, d)
            d2 = to_dr(s2)
            rep["roundtrips"] += 1
            if d2 != d or s2.point != s.point:
                rep["failures"].append((str(w), point_str(x)))
            seen.add(d.key())
    rep["distinct"] = len(seen)
    return rep
