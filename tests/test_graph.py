import json
import random

import pytest

from gforge import corpus
from gforge.graph import (
    CompositionError,
    Edge,
    EdgeInstance,
    Graph,
    GraphError,
    INFINITE,
    SchemaError,
    breaking_vertices,
    condition_k,
    condition_l,
    condition_pi,
    first_return_profile,
    maximal_tails,
    sort_key,
)


# ---------------------------------------------------------------- oracles

def closure_pairs(g):
    """Reachability as a set of (w, v) pairs, by naive transitive closure."""
    pairs = {(v, v) for v in g.vertices}
    for e in g.edges.values():
        pairs.add((e.range_vertex, e.source_vertex))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def enumerate_paths_from(g, v, depth, copies=2):
    """All paths with range v up to the given length, instances capped."""
    out = [g.vertex_path(v)]
    frontier = [g.vertex_path(v)]
    for _ in range(depth):
        nxt = []
        for mu in frontier:
            for inst in g.continuations(mu.source_vertex, copies):
                nxt.append(g.make_path(mu.instances + (inst,)))
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_first_returns(g, v, depth, copies=3):
    """Distinct first-return loops at v up to the length bound."""
    loops = []
    for mu in enumerate_paths_from(g, v, depth, copies):
        if not mu.instances or mu.source_vertex != v:
            continue
        internal = [g.s_of(i) for i in mu.instances[:-1]]
        if v not in internal:
            loops.append(mu)
    return loops


def oracle_is_tail(g, T, pairs):
    """Clause-by-clause tail check against the closure oracle."""
    reach = lambda w, v: (w, v) in pairs
    for v in T:
        for w in g.vertices:
            if reach(w, v) and w not in T:
                return False
    for v in T:
        rec = g.receivers(v)
        if g.is_regular(v) and not any(e.source_vertex in T for e in rec):
            return False
    for v in T:
        for w in T:
            if not any(reach(v, y) and reach(w, y) for y in T):
                return False
    return True


def oracle_tails(g, pairs):
    verts = sorted(g.vertices)
    out = []
    for mask in range(1, 1 << len(verts)):
        T = frozenset(x for i, x in enumerate(verts) if mask >> i & 1)
        if oracle_is_tail(g, T, pairs):
            out.append(T)
    return sorted(out, key=lambda T: (len(T), tuple(sorted(T))))


def oracle_entryless_cycle_exists(g):
    cycles = []
    for v in g.vertices:
        for mu in enumerate_paths_from(g, v, len(g.vertices), copies=2):
            if mu.instances and mu.source_vertex == mu.range_vertex == v:
                cycles.append(mu)
    for c in cycles:
        has_entry = False
        for i, inst in enumerate(c.instances):
            x = g.r_of(inst)
            here = [EdgeInstance(e.eid, k)
                    for e in g.receivers(x)
                    for k in range(min(2, e.multiplicity) if e.multiplicity != INFINITE else 2)]
            if any(h != inst for h in here):
                has_entry = True
                break
        if not has_entry:
            return True
    return False


# ---------------------------------------------------------------- paths

def test_vertex_path_roundtrip():
    g = corpus.g4()
    p = g.vertex_path("w")
    assert not p.instances and len(p) == 0
    assert p.range_vertex == p.source_vertex == "w"
    assert g.path_str(p) == "w"


def test_make_path_endpoints():
    g = corpus.g4()
    p = g.path_of("a", "a", "c")
    assert p.range_vertex == "v" and p.source_vertex == "w"
    assert len(p) == 3
    assert g.path_str(p) == "a.a.c"


def test_make_path_rejects_gluing_mismatch():
    g = corpus.g4()
    with pytest.raises(CompositionError):
        g.path_of("c", "a")  # s(c) = w but r(a) = v


def test_make_path_rejects_bad_instances():
    # the message is Graph.instance's, whichever instance of the path is bad
    g = corpus.g4()
    for bad, msg in (("x", 0), "unknown edge 'x'"), (("a", 1), "edge 'a' has no copy 1"), \
            (("c", -1), "edge 'c' has no copy -1"):
        for insts in ([bad], [EdgeInstance("a", 0), bad]):
            with pytest.raises(GraphError, match=msg):
                g.make_path(insts)
    assert g.make_path([EdgeInstance("a", 0)] * 3) == g.path_of("a", "a", "a")


def test_concat_and_prefix_strip():
    g = corpus.g4()
    mu = g.path_of("a", "a")
    nu = g.path_of("c")
    both = g.concat(mu, nu)
    assert g.path_str(both) == "a.a.c"
    for k in range(len(both) + 1):
        left = g.prefix(both, k)
        right = g.strip_prefix(both, k)
        assert g.concat(left, right) == both
    with pytest.raises(CompositionError):
        g.concat(nu, mu)  # r(mu) = v != s(nu) = w


def test_concat_with_vertices_is_identity():
    g = corpus.g2()
    mu = g.path_of("a", "b")
    v = g.vertex_path("v")
    assert g.concat(mu, v) == mu
    assert g.concat(v, mu) == mu


def test_startswith():
    g = corpus.g2()
    mu = g.path_of("a", "b", "a")
    assert mu.startswith(g.prefix(mu, 2))
    assert not mu.startswith(g.path_of("b"))
    assert g.path_of("a").startswith(g.vertex_path("v"))


def test_instance_validation():
    g = corpus.g5()
    assert g.instance("f", 17) == EdgeInstance("f", 17)
    with pytest.raises(GraphError):
        g.instance("f", -1)
    g2 = corpus.g2()
    with pytest.raises(GraphError):
        g2.instance("a", 1)
    with pytest.raises(GraphError):
        g2.instance("zz")


def test_instance_str_only_marks_copies():
    g5 = corpus.g5()
    assert g5.instance_str(EdgeInstance("f", 0)) == "f[0]"
    g2 = corpus.g2()
    assert g2.instance_str(EdgeInstance("a", 0)) == "a"


def test_paths_up_to_counts_and_order():
    g = corpus.g2()
    ps = g.paths_up_to(3)
    # 1 vertex path + 2 + 4 + 8
    assert len(ps) == 15
    lens = [len(p) for p in ps]
    assert lens == sorted(lens)
    assert ps == g.paths_up_to(3)  # deterministic

    g5 = corpus.g5()
    assert len(g5.paths_up_to(2)) == 7

    rng = random.Random(7)
    randoms = [corpus.random_graph(rng, 5, allow_infinite=True) for _ in range(60)]
    assert any(e.multiplicity == INFINITE for h in randoms for e in h.edges.values())
    for h in [corpus.by_name(n) for n in corpus.BUILDERS] + randoms:
        ps = h.paths_up_to(3)
        assert ps == sorted(ps, key=sort_key)


# ---------------------------------------------------------------- schema

def test_json_roundtrip():
    for name, g in corpus.BUILDERS.items():
        g = g()
        doc = g.to_json()
        h = Graph.from_json(json.loads(json.dumps(doc)))
        assert h.vertices == g.vertices
        assert h.edges == g.edges


def test_schema_rejects_garbage():
    with pytest.raises(SchemaError):
        Graph.loads("[]")
    with pytest.raises(SchemaError):
        Graph.loads('{"vertices": ["v", "v"], "edges": []}')
    with pytest.raises(SchemaError):
        Graph.loads('{"vertices": ["v"], "edges": [{"id": "e", "range": "v"}]}')
    with pytest.raises(SchemaError):
        Graph.loads('{"vertices": ["v"], "edges": [{"id": "e", "range": "v", "source": "x"}]}')
    with pytest.raises(SchemaError):
        Graph.loads(
            '{"vertices": ["v"], "edges": [{"id": "e", "range": "v", "source": "v",'
            ' "multiplicity": 0}]}')
    with pytest.raises(SchemaError):
        Graph.loads("not json")
    for bad in ({"id": [1]}, {"id": 7}, {"range": [1]}, {"source": None},
                {"multiplicity": True}, {"multiplicity": False}, {"multiplicity": 1.0}):
        item = {"id": "e", "range": "v", "source": "v", **bad}
        with pytest.raises(SchemaError):
            Graph.from_json({"vertices": ["v"], "edges": [item]})
    # json reads both as float inf; the only infinite spelling is "inf"
    for mult in ("1e999", "Infinity"):
        with pytest.raises(SchemaError):
            Graph.loads('{"vertices": ["v"], "edges": [{"id": "e", "range": "v",'
                        f' "source": "v", "multiplicity": {mult}}}]}}')
    for verts in ([["v"]], [1]):
        with pytest.raises(SchemaError):
            Graph(verts, [])
        with pytest.raises(SchemaError):
            Graph.from_json({"vertices": verts, "edges": []})
    # both entries refuse a repeated vertex id with the same message
    with pytest.raises(SchemaError, match="duplicate vertex id"):
        Graph(["v", "v"], [])
    with pytest.raises(SchemaError, match="duplicate vertex id"):
        Graph.from_json({"vertices": ["v", "v"], "edges": []})
    with pytest.raises(SchemaError, match="list of strings"):
        Graph.from_json({"vertices": "v", "edges": []})


def test_infinite_multiplicity_spelled_inf():
    g = Graph.loads(
        '{"vertices": ["v"], "edges": [{"id": "f", "range": "v", "source": "v",'
        ' "multiplicity": "inf"}]}')
    assert g.edges["f"].multiplicity == INFINITE
    assert g.to_json()["edges"][0]["multiplicity"] == "inf"


# ---------------------------------------------------------------- reachability

def test_reaches_matches_closure_oracle(corpus_graph):
    _, g = corpus_graph
    pairs = closure_pairs(g)
    for w in g.vertices:
        for v in g.vertices:
            assert (w in g.upstream(v)) == ((w, v) in pairs)


def test_reaches_matches_closure_oracle_random():
    rng = random.Random(1101)
    for _ in range(25):
        g = corpus.random_graph(rng, max_vertices=5, allow_infinite=True)
        pairs = closure_pairs(g)
        for w in g.vertices:
            for v in g.vertices:
                assert (w in g.upstream(v)) == ((w, v) in pairs)


def test_up_down_and_omega(corpus_graph):
    _, g = corpus_graph
    pairs = closure_pairs(g)
    for v in g.vertices:
        assert g.upstream(v) == {w for w in g.vertices if (w, v) in pairs}
        assert g.downstream(v) == {z for z in g.vertices if (v, z) in pairs}
        assert g.omega_set(v) == {w for w in g.vertices if w != v and (w, v) not in pairs}


def test_shortest_path_endpoints_and_minimality():
    g = corpus.g7()
    p = g.shortest_path("v", "u")
    assert p is not None and p.range_vertex == "v" and p.source_vertex == "u"
    assert len(p) == 1
    assert not g.shortest_path("u", "u").instances
    g3 = corpus.g3()
    assert g3.shortest_path("w", "u") is None


# ---------------------------------------------------------------- vertex classes

def test_vertex_classes():
    g = corpus.g5()
    assert g.is_singular("v") and not g.is_regular("v")
    g3 = corpus.g3()
    assert g3.is_singular("w")      # receives nothing
    assert g3.is_regular("u")
    g7 = corpus.g7()
    assert g7.receiver_count("v") == INFINITE
    assert g7.receiver_count("u") == 1


# ---------------------------------------------------------------- conditions

def test_breaking_vertices_frozen():
    assert breaking_vertices(corpus.g5()) == frozenset()
    assert breaking_vertices(corpus.g6()) == frozenset({"v"})
    assert breaking_vertices(corpus.g7()) == frozenset()
    for name in ["g1", "g2", "g3", "g4", "p2", "p3"]:
        assert breaking_vertices(corpus.by_name(name)) == frozenset()


def test_condition_l_corpus():
    holds, wit = condition_l(corpus.g1())
    assert not holds
    g = corpus.g1()
    assert wit == g.path_of("a")
    for name in ["g2", "g3", "g4", "g5", "g6", "g7", "p2", "p3"]:
        holds, wit = condition_l(corpus.by_name(name))
        assert holds and wit is None, name


def test_condition_l_matches_entry_oracle_random():
    rng = random.Random(2202)
    for _ in range(40):
        g = corpus.random_graph(rng, max_vertices=5, allow_infinite=True)
        holds, wit = condition_l(g)
        assert holds == (not oracle_entryless_cycle_exists(g))
        if not holds:
            # witness really is an entry-less loop
            assert wit.range_vertex == wit.source_vertex
            for inst in wit.instances:
                assert g.receiver_count(g.r_of(inst)) == 1


def test_first_return_profile_against_enumeration(corpus_graph):
    name, g = corpus_graph
    for v in g.vertices:
        loops = first_return_profile(g, v)
        found = oracle_first_returns(g, v, depth=4)
        assert len(loops) == min(len(found), 2), (name, v)
        assert len(set(loops)) == len(loops)
        for mu in loops:
            assert mu.range_vertex == mu.source_vertex == v
            assert v not in [g.s_of(i) for i in mu.instances[:-1]]


def test_first_return_profile_respects_exclusions():
    g = corpus.g2()
    loops = first_return_profile(g, "v", forbidden_first={EdgeInstance("a", 0)})
    assert loops == [g.path_of("b")]
    loops = first_return_profile(
        g, "v", forbidden_first={EdgeInstance("a", 0), EdgeInstance("b", 0)})
    assert loops == []

    g5 = corpus.g5()
    loops = first_return_profile(
        g5, "v", forbidden_first={EdgeInstance("f", 0), EdgeInstance("f", 2)})
    assert len(loops) == 2
    firsts = {mu.instances[0] for mu in loops}
    assert firsts == {EdgeInstance("f", 1), EdgeInstance("f", 3)}


def test_first_return_profile_random_soundness():
    rng = random.Random(3303)
    for _ in range(30):
        g = corpus.random_graph(rng, max_vertices=5, allow_infinite=True)
        for v in g.vertices:
            loops = first_return_profile(g, v)
            assert len(set(loops)) == len(loops)
            for mu in loops:
                assert mu.range_vertex == mu.source_vertex == v
                assert v not in [g.s_of(i) for i in mu.instances[:-1]]
            found = oracle_first_returns(g, v, depth=3, copies=2)
            if len(found) >= 2:
                assert len(loops) == 2
            if not loops:
                assert not found


def test_condition_k_corpus():
    for name, expect in [("g1", False), ("g2", True), ("g3", True), ("g4", False),
                         ("g5", True), ("g6", False), ("g7", True), ("p2", True),
                         ("p3", True)]:
        holds, wit = condition_k(corpus.by_name(name))
        assert holds == expect, name
    g = corpus.g4()
    holds, (v, loop) = condition_k(g)
    assert v == "v" and loop == g.path_of("a")


def test_maximal_tails_frozen():
    assert maximal_tails(corpus.g1()) == [frozenset({"v"})]
    assert maximal_tails(corpus.g2()) == [frozenset({"v"})]
    assert maximal_tails(corpus.g3()) == [frozenset({"u", "w"})]
    assert maximal_tails(corpus.g4()) == [frozenset({"v"}), frozenset({"v", "w"})]
    assert maximal_tails(corpus.g5()) == [frozenset({"v"})]
    assert maximal_tails(corpus.g7()) == [frozenset({"u", "v"})]
    assert maximal_tails(corpus.p3()) == [frozenset({"p", "v"}), frozenset({"q", "v"})]


def test_maximal_tails_against_clause_oracle(corpus_graph):
    _, g = corpus_graph
    assert maximal_tails(g) == oracle_tails(g, closure_pairs(g))


def test_maximal_tails_against_clause_oracle_random():
    rng = random.Random(4404)
    for _ in range(200):
        g = corpus.random_graph(rng, max_vertices=10, allow_infinite=True)
        assert maximal_tails(g) == oracle_tails(g, closure_pairs(g))


def test_maximal_tails_large_graphs():
    # 20 isolated vertices: each singular singleton is its own tail
    verts = [f"v{i:02d}" for i in range(20)]
    g = Graph(verts, [])
    assert maximal_tails(g) == [frozenset({v}) for v in verts]
    assert condition_pi(g).tail_witness == (frozenset({"v00"}), "v00")

    # a 24-vertex ring with chords is strongly connected: one tail, all of it
    verts = [f"v{i:02d}" for i in range(24)]
    edges = [Edge(f"r{i}", verts[(i + 1) % 24], verts[i], 1) for i in range(24)]
    edges += [Edge(f"c{i}", verts[(i + 5) % 24], verts[i], 1) for i in range(0, 24, 3)]
    g = Graph(verts, edges)
    assert maximal_tails(g) == [frozenset(verts)]
    assert condition_pi(g).holds

    # 21 vertices feeding an infinite receiver with no loop: its tail is
    # itself, since the regular-receiver clause skips it (BHRS 2002)
    verts = ["hub"] + [f"s{i:02d}" for i in range(20)]
    edges = [Edge(f"e{i}", "hub", f"s{i:02d}", INFINITE) for i in range(20)]
    g = Graph(verts, edges)
    assert maximal_tails(g) == [frozenset({"hub"})] + [
        frozenset({"hub", s}) for s in verts[1:]]
    assert condition_pi(g).tail_witness == (frozenset({"hub"}), "hub")


def test_condition_pi_verdicts():
    for name in ["g2", "g5", "g7", "p3"]:
        rep = condition_pi(corpus.by_name(name))
        assert rep.holds, name
        assert not rep.breaking and rep.k_witness is None and rep.tail_witness is None
    for name, clause in [("g1", "k"), ("g3", "tail"), ("g4", "k"), ("g6", "breaking")]:
        rep = condition_pi(corpus.by_name(name))
        assert not rep.holds, name
        if clause == "k":
            assert rep.k_witness is not None
        elif clause == "tail":
            assert rep.tail_witness is not None
        else:
            assert rep.breaking


def test_condition_pi_witness_details():
    rep = condition_pi(corpus.g3())
    assert rep.tail_witness == (frozenset({"u", "w"}), "u")
    rep = condition_pi(corpus.g6())
    assert rep.breaking == frozenset({"v"})
