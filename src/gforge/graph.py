"""Finite directed multigraphs and their path calculus.

An edge e points from its source s(e) to its range r(e).  Paths are written
with the range end first: in mu = m1.m2...mn consecutive instances satisfy
r(m_{i+1}) = s(m_i), so a path is extended by appending edges at the source
end, and r(mu) = r(m1), s(mu) = s(mn).  A vertex doubles as the length-0 path
at itself.

Edges carry a multiplicity (a positive integer or infinity); an edge with
multiplicity m stands for m parallel copies, addressed as instances
(edge id, copy index).  Each vertex's receiver count |r^-1(v)|, summed with
multiplicity, is computed once at construction; receiver_count, is_regular
and is_singular only look it up.

Input is validated once, where it enters: Graph() (with from_json and
loads), vertex_path, make_path/path_of, the parsers, make_cylinder,
BoundaryPoint.finite/periodic, PartialWord.from_word and DRElement.make.
Code that already holds composable instances builds paths with the
unchecked trusted_path.
"""
from __future__ import annotations

import json
import math
from itertools import count, islice
from typing import Iterable, NamedTuple

INFINITE = math.inf


class GraphError(ValueError):
    pass


class SchemaError(GraphError):
    """Raised when graph JSON violates the input schema."""


class CompositionError(GraphError):
    """Raised when paths or words are glued at mismatched vertices."""


class EdgeInstance(NamedTuple):
    edge: str
    copy: int


def instance_token(inst: EdgeInstance) -> str:
    """The edge id alone for copy 0, else edge[copy].

    Graph.instance_str differs: it also marks copy 0 of multi-copy edges.
    """
    return inst.edge if inst.copy == 0 else f"{inst.edge}[{inst.copy}]"


class Edge(NamedTuple):
    eid: str
    range_vertex: str
    source_vertex: str
    multiplicity: int | float


class Path:
    """A finite path; length 0 paths are vertices."""

    __slots__ = ("range_vertex", "source_vertex", "instances", "_hash")

    def __init__(self, range_vertex, source_vertex, instances=()):
        self.range_vertex = range_vertex
        self.source_vertex = source_vertex
        self.instances = tuple(instances)
        self._hash = hash((range_vertex, self.instances))

    def __len__(self):
        return len(self.instances)

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return (self.range_vertex == other.range_vertex
                and self.instances == other.instances)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.instances:
            return f"Path({self.range_vertex!r})"
        return f"Path({'.'.join(map(instance_token, self.instances))!r})"

    def startswith(self, other: "Path") -> bool:
        if len(other) > len(self):
            return False
        if other.range_vertex != self.range_vertex:
            return False
        return self.instances[:len(other)] == other.instances


def sort_key(path: Path):
    return (len(path), path.range_vertex, path.instances)


class Graph:
    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        vertices = tuple(vertices)
        for v in vertices:
            if not isinstance(v, str):
                raise SchemaError(f"vertex {v!r}: id must be a string")
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise SchemaError("duplicate vertex id")
        self.vertices = vertices
        self.edges: dict[str, Edge] = {}
        for e in edges:
            e = Edge(*e)
            if not all(isinstance(f, str) for f in e[:3]):
                raise SchemaError(f"edge {e.eid!r}: id, range and source must be strings")
            if e.eid in self.edges:
                raise SchemaError(f"duplicate edge id {e.eid!r}")
            if e.range_vertex not in vset:
                raise SchemaError(f"edge {e.eid!r}: unknown range {e.range_vertex!r}")
            if e.source_vertex not in vset:
                raise SchemaError(f"edge {e.eid!r}: unknown source {e.source_vertex!r}")
            if e.multiplicity != INFINITE:
                if type(e.multiplicity) is not int or e.multiplicity < 1:
                    raise SchemaError(f"edge {e.eid!r}: bad multiplicity {e.multiplicity!r}")
            self.edges[e.eid] = e
        self._receivers: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        # neighbour lists for the reachability walks: one step source-to-range
        # (up) and one step range-to-source (down)
        self._up: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            self._receivers[e.range_vertex].append(e)
            self._up[e.source_vertex].append(e.range_vertex)
        for lst in self._receivers.values():
            lst.sort(key=lambda e: e.eid)
        self._down = {v: [e.source_vertex for e in lst]
                      for v, lst in self._receivers.items()}
        self._count = {v: sum(e.multiplicity for e in lst)
                       for v, lst in self._receivers.items()}

    # -- schema ------------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "Graph":
        if not isinstance(data, dict):
            raise SchemaError("graph document must be an object")
        verts = data.get("vertices")
        if not isinstance(verts, list):
            raise SchemaError('"vertices" must be a list of strings')
        raw_edges = data.get("edges", [])
        if not isinstance(raw_edges, list):
            raise SchemaError('"edges" must be a list')
        edges = []
        for i, item in enumerate(raw_edges):
            if not isinstance(item, dict):
                raise SchemaError(f"edges[{i}] must be an object")
            try:
                eid, rv, sv = item["id"], item["range"], item["source"]
            except KeyError as exc:
                raise SchemaError(f"edges[{i}] missing key {exc.args[0]!r}") from None
            mult = item.get("multiplicity", 1)
            if mult == "inf":
                mult = INFINITE
            elif isinstance(mult, float):  # 1e999 and Infinity parse to inf
                raise SchemaError(f"edge {eid!r}: bad multiplicity {mult!r}")
            edges.append(Edge(eid, rv, sv, mult))
        return cls(verts, edges)

    @classmethod
    def loads(cls, text: str) -> "Graph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
        return cls.from_json(data)

    def to_json(self) -> dict:
        edges = []
        for e in sorted(self.edges.values(), key=lambda e: e.eid):
            item = {"id": e.eid, "range": e.range_vertex, "source": e.source_vertex}
            if e.multiplicity != 1:
                item["multiplicity"] = "inf" if e.multiplicity == INFINITE else e.multiplicity
            edges.append(item)
        return {"vertices": list(self.vertices), "edges": edges}

    # -- basic structure ---------------------------------------------------

    def receivers(self, v: str) -> list[Edge]:
        """Edges with range v, sorted by id."""
        self._check_vertex(v)
        return self._receivers[v]

    def receiver_count(self, v: str):
        """|r^-1(v)| counted with multiplicity."""
        self._check_vertex(v)
        return self._count[v]

    def is_regular(self, v: str) -> bool:
        return 0 < self.receiver_count(v) < INFINITE

    def is_singular(self, v: str) -> bool:
        return not self.is_regular(v)

    def _check_vertex(self, v):
        if v not in self._receivers:
            raise GraphError(f"unknown vertex {v!r}")

    def instance(self, eid: str, copy: int = 0) -> EdgeInstance:
        e = self.edges.get(eid)
        if e is None:
            raise GraphError(f"unknown edge {eid!r}")
        if copy < 0 or (e.multiplicity != INFINITE and copy >= e.multiplicity):
            raise GraphError(f"edge {eid!r} has no copy {copy}")
        return EdgeInstance(eid, copy)

    def r_of(self, inst: EdgeInstance) -> str:
        return self.edges[inst.edge].range_vertex

    def s_of(self, inst: EdgeInstance) -> str:
        return self.edges[inst.edge].source_vertex

    def instance_str(self, inst: EdgeInstance) -> str:
        e = self.edges[inst.edge]
        if e.multiplicity == 1 and inst.copy == 0:
            return inst.edge
        return f"{inst.edge}[{inst.copy}]"

    # -- path construction -------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        self._check_vertex(v)
        return Path(v, v)

    def make_path(self, instances: Iterable[EdgeInstance]) -> Path:
        instances = tuple(instances)
        if not instances:
            raise GraphError("make_path needs at least one instance; use vertex_path")
        es = []
        for inst in instances:
            e = self.edges.get(inst[0])
            if e is None or not 0 <= inst[1] < e.multiplicity:
                self.instance(*inst)  # raises the error for this instance
            es.append(e)
        for i in range(1, len(es)):
            if es[i].range_vertex != es[i - 1].source_vertex:
                a, b = instances[i - 1], instances[i]
                raise CompositionError(
                    f"{self.instance_str(b)} (range {self.r_of(b)}) does not extend "
                    f"{self.instance_str(a)} (source {self.s_of(a)})")
        return Path(es[0].range_vertex, es[-1].source_vertex, instances)

    def trusted_path(self, instances, vertex: str | None = None) -> Path:
        """The path through instances, built without any check.

        Precondition: the instances are instances of this graph and already
        compose.  An empty tuple gives the vertex path at `vertex`.
        """
        if not instances:
            return Path(vertex, vertex)
        return Path(self.r_of(instances[0]), self.s_of(instances[-1]), instances)

    def path_of(self, *ids) -> Path:
        """Convenience: path from edge ids / (id, copy) pairs, or a single vertex id."""
        if len(ids) == 1 and isinstance(ids[0], str) and ids[0] in self._receivers \
                and ids[0] not in self.edges:
            return self.vertex_path(ids[0])
        insts = []
        for item in ids:
            if isinstance(item, str):
                insts.append(self.instance(item))
            else:
                insts.append(self.instance(*item))
        return self.make_path(insts)

    def concat(self, mu: Path, nu: Path) -> Path:
        """mu followed by nu; requires r(nu) = s(mu)."""
        if nu.range_vertex != mu.source_vertex:
            raise CompositionError(
                f"cannot append path with range {nu.range_vertex} at source {mu.source_vertex}")
        return Path(mu.range_vertex, nu.source_vertex, mu.instances + nu.instances)

    def prefix(self, mu: Path, k: int) -> Path:
        if not 0 <= k <= len(mu):
            raise ValueError(f"prefix length {k} out of range for {mu!r}")
        return self.trusted_path(mu.instances[:k], mu.range_vertex)

    def strip_prefix(self, mu: Path, k: int) -> Path:
        """The tail of mu after its length-k prefix."""
        if not 0 <= k <= len(mu):
            raise ValueError(f"prefix length {k} out of range for {mu!r}")
        return self.trusted_path(mu.instances[k:], mu.source_vertex)

    def path_str(self, mu: Path) -> str:
        if not mu.instances:
            return mu.range_vertex
        return ".".join(self.instance_str(i) for i in mu.instances)

    # -- enumeration -------------------------------------------------------

    def continuations(self, v: str, copies: int = 1):
        """Edge instances receivable at v; infinite families contribute `copies` copies."""
        out = []
        for e in self.receivers(v):
            n = copies if e.multiplicity == INFINITE else e.multiplicity
            for c in range(n):
                out.append(EdgeInstance(e.eid, c))
        return out

    def paths_up_to(self, depth: int) -> list[Path]:
        """All paths of length <= depth, each infinite family cut to copies 0 and 1.

        Order: sort_key; a sorted level extended in (eid, copy) order stays sorted.
        """
        out = [self.vertex_path(v) for v in sorted(self.vertices)]
        frontier = list(out)
        for _ in range(depth):
            nxt = []
            for mu in frontier:
                for inst in self.continuations(mu.source_vertex, 2):
                    ext = Path(mu.range_vertex, self.s_of(inst), mu.instances + (inst,))
                    nxt.append(ext)
            out.extend(nxt)
            frontier = nxt
        return out

    def maximal_stems(self, depth: int) -> list[Path]:
        """The paths of paths_up_to(depth) that cannot grow within depth:
        full length, or a source with no receivers."""
        return [mu for mu in self.paths_up_to(depth)
                if len(mu) == depth or not self._receivers[mu.source_vertex]]

    # -- reachability ------------------------------------------------------

    def upstream(self, v: str) -> frozenset:
        """All w with w <- v, i.e. reachable from v along edges source-to-range."""
        return _closure((v,), self._up)

    def downstream(self, v: str) -> frozenset:
        """All z with v <- z: the vertices a path from v can end at."""
        return _closure((v,), self._down)

    def omega_set(self, v: str) -> frozenset:
        """Vertices w != v with no path from v to w (r = w, s = v)."""
        self._check_vertex(v)
        reach = self.upstream(v)
        return frozenset(w for w in self.vertices if w != v and w not in reach)

    def shortest_path(self, w: str, v: str) -> Path | None:
        """Lexicographically least shortest path with r = w, s = v, or None."""
        self._check_vertex(w)
        self._check_vertex(v)
        if w == v:
            return self.vertex_path(w)
        # BFS from the range end, extending at the source; levels stay sorted
        best = {w: self.vertex_path(w)}
        frontier = [self.vertex_path(w)]
        while frontier:
            nxt = []
            for mu in frontier:
                for inst in self.continuations(mu.source_vertex):
                    y = self.s_of(inst)
                    if y in best:
                        continue
                    ext = Path(mu.range_vertex, y, mu.instances + (inst,))
                    best[y] = ext
                    nxt.append(ext)
                    if y == v:
                        return ext
            frontier = nxt
        return None


def _closure(starts, adjacency) -> frozenset:
    """starts and every vertex reachable from them along adjacency lists."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in adjacency[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


class PIReport(NamedTuple):
    holds: bool
    breaking: frozenset
    k_witness: tuple | None
    tail_witness: tuple | None


def breaking_vertices(g: Graph) -> frozenset:
    """Infinite receivers left with finitely many, but some, receivers once
    sources in the omega set are discarded."""
    out = []
    for v in g.vertices:
        if g.receiver_count(v) != INFINITE:
            continue
        om = g.omega_set(v)
        n = sum(e.multiplicity for e in g.receivers(v) if e.source_vertex not in om)
        if 0 < n < INFINITE:
            out.append(v)
    return frozenset(out)


def condition_l(g: Graph):
    """Every loop has an entry.

    Returns (True, None) or (False, cycle) where cycle is an entry-less loop.
    A loop has no entry exactly when each of its vertices receives a single
    edge instance, so it suffices to follow unique-receiver chains.
    """
    for v in sorted(g.vertices):
        x = v
        insts = []
        for _ in range(len(g.vertices)):
            if g.receiver_count(x) != 1:
                break
            e = g.receivers(x)[0]
            insts.append(EdgeInstance(e.eid, 0))
            x = e.source_vertex
            if x == v:
                return False, g.trusted_path(insts)
    return True, None


def first_return_profile(g: Graph, v: str, forbidden_first=frozenset()):
    """Loops at v that do not pass v in between, at most two of them.

    Returns min(true count, 2) pairwise distinct loops.  forbidden_first
    excludes instances as the first (range-end) edge.  Deterministic:
    smallest instances win.

    At the current position only instances whose source can still lead back
    to v matter; if a position ever offers two of them, two loops sharing the
    walked prefix complete via shortest continuations.  Otherwise the walk is
    forced and terminates at v.
    """
    U = g.upstream(v)

    def complete(insts):
        rho = g.shortest_path(g.s_of(insts[-1]), v)
        return g.trusted_path(insts + list(rho.instances))

    x = v
    prefix = []
    forbidden = forbidden_first
    for _ in range(len(g.vertices) + 1):
        # an infinite family offers endless copies, and forbidden is finite
        allowed = list(islice(
            (i for e in g.receivers(x) if e.source_vertex in U
             for c in (count() if e.multiplicity == INFINITE else range(e.multiplicity))
             if (i := EdgeInstance(e.eid, c)) not in forbidden), 2))
        if not allowed:
            return []
        if len(allowed) == 2:
            return [complete(prefix + [i]) for i in allowed]
        prefix.append(allowed[0])
        x = g.s_of(allowed[0])
        forbidden = frozenset()
        if x == v:
            return [g.trusted_path(prefix)]
    raise GraphError("forced first-return walk failed to close")  # unreachable


def condition_k(g: Graph):
    """Every vertex on a loop lies on at least two first-return loops.

    Returns (True, None) or (False, (v, loop)) with the unique first-return
    loop at the offending vertex.
    """
    for v in sorted(g.vertices):
        loops = first_return_profile(g, v)
        if len(loops) == 1:
            return False, (v, loops[0])
    return True, None


def maximal_tails(g: Graph) -> list[frozenset]:
    """All maximal tails (Bates, Hong, Raeburn & Szymanski, Illinois J. Math.
    46, 2002): nonempty vertex sets T that are closed under going upstream,
    downward directed, and in which every regular vertex receives from
    inside T.  A finite downward-directed T has a member y with T inside
    upstream(y), so a T closed upstream equals upstream(y): one closure per
    vertex, not a search over subsets.
    """
    tails = {T for T in map(g.upstream, g.vertices)
             if all(any(e.source_vertex in T for e in g.receivers(v))
                    for v in T if g.is_regular(v))}
    return sorted(tails, key=lambda T: (len(T), tuple(sorted(T))))


def cycle_vertices_within(g: Graph, T: frozenset) -> frozenset:
    """Vertices of T lying on a loop whose vertices all stay in T."""
    inner = {y: [w for w in g._down[y] if w in T] for y in T}
    return frozenset(z for z in T if z in _closure(inner[z], inner))


def condition_pi(g: Graph) -> PIReport:
    """No breaking vertices, two first returns on every loop vertex, and every
    vertex of every maximal tail flowing into a loop inside its tail."""
    brk = breaking_vertices(g)
    k_ok, k_wit = condition_k(g)
    tail_wit = None
    for T in maximal_tails(g):
        cyc = cycle_vertices_within(g, T)
        for v in sorted(T):
            if not (g.downstream(v) & cyc):
                tail_wit = (T, v)
                break
        if tail_wit:
            break
    holds = not brk and k_ok and tail_wit is None
    return PIReport(holds, brk, k_wit, tail_wit)
