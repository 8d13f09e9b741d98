"""Small graphs used throughout the test suite and the docs.

Each builder returns a fresh Graph.  The letters follow a house style:
g1..g7 are the single-digit standards, p2/p3 are auxiliary.
"""
from .graph import Edge, Graph, INFINITE


def g1():
    """One vertex, one loop."""
    return Graph(["v"], [Edge("a", "v", "v", 1)])


def g2():
    """One vertex, two loops."""
    return Graph(["v"], [Edge("a", "v", "v", 1), Edge("b", "v", "v", 1)])


def g3():
    """Two vertices joined by a single edge e with r(e) = u, s(e) = w."""
    return Graph(["u", "w"], [Edge("e", "u", "w", 1)])


def g4():
    """A loop at v plus an edge from w into v."""
    return Graph(["v", "w"], [Edge("a", "v", "v", 1), Edge("c", "v", "w", 1)])


def g5():
    """One vertex carrying an infinite family of loops f[0], f[1], ..."""
    return Graph(["v"], [Edge("f", "v", "v", INFINITE)])


def g6():
    """v receives an infinite family from u plus a single loop; u receives nothing.

    The loop survives discarding the omega-set sources, so v is breaking.
    """
    return Graph(["v", "u"], [Edge("f", "v", "u", INFINITE), Edge("d", "v", "v", 1)])


def g7():
    """Two vertices: infinitely many edges u -> v and one edge v -> u."""
    return Graph(["v", "u"], [Edge("f", "v", "u", INFINITE), Edge("t", "u", "v", 1)])


def p2():
    """Two vertices joined by a parallel pair of edges f, g with range u, source w."""
    return Graph(["u", "w"], [Edge("f", "u", "w", 1), Edge("g", "u", "w", 1)])


def p3():
    """Double loops at p and q, fed from v along c and d."""
    return Graph(
        ["v", "p", "q"],
        [Edge("p1", "p", "p", 1), Edge("p2", "p", "p", 1),
         Edge("q1", "q", "q", 1), Edge("q2", "q", "q", 1),
         Edge("c", "v", "p", 1), Edge("d", "v", "q", 1)])


BUILDERS = {
    "g1": g1, "g2": g2, "g3": g3, "g4": g4, "g5": g5, "g6": g6, "g7": g7,
    "p2": p2, "p3": p3,
}


def by_name(name: str) -> Graph:
    try:
        return BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown corpus graph {name!r}; have {sorted(BUILDERS)}") from None


def random_graph(rng, max_vertices: int = 6, allow_infinite: bool = False) -> Graph:
    """A small random graph, fully determined by the rng state.

    Every vertex gets a positive chance of loops, forward edges and parallel
    edges; multiplicities stay small.
    """
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    k = 0
    for i in range(n):
        for j in range(n):
            for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
                if allow_infinite and rng.random() < 0.08:
                    mult = INFINITE
                else:
                    mult = rng.choice([1, 1, 1, 2])
                edges.append(Edge(f"e{k}", verts[i], verts[j], mult))
                k += 1
    return Graph(verts, edges)
