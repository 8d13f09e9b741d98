import json
import random
from itertools import combinations, count, islice

import pytest

from gforge import corpus
from gforge.graph import (
    CompositionError,
    Edge,
    EdgeInstance,
    Graph,
    GraphError,
    INFINITE,
    Path,
    SchemaError,
    _closure,
    _first_returns,
    breaking_vertices,
    condition_k,
    condition_l,
    condition_pi,
    first_return_profile,
    maximal_tails,
    sort_key,
)
from gforge.invsgp import SgpElement, sgp_mul


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


def test_make_path_validates_a_run_once():
    """An instance that is the same object as the one before it is not
    looked up again; an equal but distinct one is, and the first instance
    always is."""
    class CountingDict(dict):
        gets = 0

        def get(self, *args):
            self.gets += 1
            return super().get(*args)

    g = corpus.g1()
    g._ends = ends = CountingDict(g._ends)
    a = EdgeInstance("a", 0)
    run = g.make_path((a,) * 600)
    assert ends.gets == 1 and run.instances == (a,) * 600
    ends.gets = 0
    assert g.make_path([EdgeInstance("a", 0) for _ in range(600)]) == run
    assert ends.gets == 600
    with pytest.raises(TypeError):
        g.make_path((None,))


@pytest.mark.parametrize("ids, error, msg", [
    # an invalid instance after a composition fault is still reported first
    (["c", "a", "x"], GraphError, "unknown edge 'x'"),
    (["c", "a", ("a", 1)], GraphError, "edge 'a' has no copy 1"),
    # of two composition faults, the first is named
    (["c", "a", "c", "c"], CompositionError, "a (range v) does not extend c (source w)"),
    (["a", "c", "c", "a"], CompositionError, "c (range v) does not extend c (source w)"),
])
def test_make_path_error_precedence(ids, error, msg):
    g = corpus.g4()
    insts = [EdgeInstance(i, 0) if isinstance(i, str) else EdgeInstance(*i) for i in ids]
    with pytest.raises(error) as info:
        g.make_path(insts)
    assert str(info.value) == msg
    assert str(info.value) == reference_outcome(g, insts)[1]


def reference_make_path(g, instances):
    """make_path as written with two passes: every instance validated, then
    every consecutive pair checked for composability."""
    instances = tuple(instances)
    if not instances:
        raise GraphError("make_path needs at least one instance; use vertex_path")
    es = []
    for inst in instances:
        e = g.edges.get(inst[0])
        if e is None or type(inst[1]) is not int or not 0 <= inst[1] < e.multiplicity:
            g.instance(*inst)
        es.append(e)
    for i in range(1, len(es)):
        if es[i].range_vertex != es[i - 1].source_vertex:
            a, b = instances[i - 1], instances[i]
            raise CompositionError(
                f"{g.instance_str(b)} (range {g.r_of(b)}) does not extend "
                f"{g.instance_str(a)} (source {g.s_of(a)})")
    return Path(es[0].range_vertex, es[-1].source_vertex, instances)


def outcome(build, g, instances):
    """A built path as its endpoints and instances, or a raised error as
    its type and message."""
    try:
        p = build(g, instances)
    except GraphError as err:
        return type(err), str(err)
    return p.range_vertex, p.source_vertex, p.instances


def reference_outcome(g, instances):
    return outcome(reference_make_path, g, instances)


def path_kernel_laws(g, seed):
    """make_path, validating in one pass, gives what the two-pass
    reference_make_path gives: the same path, or the same error type and
    message.  The inputs are random walks of up to 600 instances (copies
    0-2 of every family, and copy 10**6 of an infinite one), and those
    walks with one instance replaced by an unknown edge, a negative copy,
    a copy past a finite multiplicity, a copy that is a bool or a float,
    or an instance that does not compose, and with two such faults at once in either order.  Faults go
    at every position of a walk of up to 9 instances, and at positions 0,
    1 and the last and three random ones of a longer walk.

    make_path checks an instance that is the same object as the one before
    it only for composing with itself, so runs of one object get cases of
    their own: runs of 2, 9 and 600 of a loop instance, alone, with an
    equal but distinct object inside (a fresh copy, and a bool copy), and
    with a fault just before or just after; each walk with one of its
    instances (a loop or not) or one invalid instance repeated three
    times in place; and every instance repeated twice and three times."""
    rng = random.Random(seed)
    far = [EdgeInstance(e.eid, 10 ** 6) for e in g.edges.values()
           if e.multiplicity == INFINITE]
    steps = {v: g.continuations(v, 3) + tuple(i for i in far if g.r_of(i) == v)
             for v in g.vertices}
    walks = []
    for length in (1, 2, 3, 8, 9, 40, 600):
        v = rng.choice(sorted(g.vertices))
        walk = []
        while len(walk) < length and steps[v]:
            inst = rng.choice(steps[v])
            walk.append(inst)
            v = g.s_of(inst)
        if walk:
            walks.append(walk)
    edges = sorted(g.edges.values())
    invalid = [EdgeInstance("zz", 0)]
    for e in edges:
        invalid += [EdgeInstance(e.eid, -1), EdgeInstance(e.eid, False),
                    EdgeInstance(e.eid, True), EdgeInstance(e.eid, 0.5)]
        if e.multiplicity != INFINITE:
            invalid.append(EdgeInstance(e.eid, e.multiplicity))

    def misfits(prev):
        """Instances whose range is not the source of prev."""
        return [EdgeInstance(e.eid, 0) for e in edges
                if e.range_vertex != g.s_of(prev)]

    cases = list(walks)
    for walk in walks:
        spots = list(range(len(walk))) if len(walk) <= 9 \
            else sorted(set(rng.sample(range(len(walk)), 3)) | {0, 1, len(walk) - 1})
        for i in spots:
            for bad in rng.sample(invalid, min(len(invalid), 3)):
                cases.append(walk[:i] + [bad] + walk[i + 1:])
            if i and misfits(walk[i - 1]):
                broken = walk[:i] + [rng.choice(misfits(walk[i - 1]))] + walk[i + 1:]
                cases.append(broken)
                for j in rng.sample(spots, min(len(spots), 3)):
                    if j != i:
                        mixed = list(broken)
                        mixed[j] = rng.choice(invalid)
                        cases.append(mixed)
                    if j > i + 1 and misfits(broken[j - 1]):
                        twice = list(broken)
                        twice[j] = rng.choice(misfits(broken[j - 1]))
                        cases.append(twice)
    instances = sorted({i for v in g.vertices for i in steps[v]})
    for x in instances:
        cases += [[x] * 2, [x] * 3]
    loops = [x for x in instances if g.r_of(x) == g.s_of(x)]
    for x in rng.sample(loops, min(len(loops), 3)):
        before = [EdgeInstance(e.eid, 0) for e in edges if e.source_vertex != g.r_of(x)]
        for n in (2, 9, 600):
            cases.append([x] * n)
            twins = [EdgeInstance(x.edge, x.copy)]
            if x.copy in (0, 1):
                twins.append(EdgeInstance(x.edge, bool(x.copy)))
            for twin in twins:
                assert twin == x and twin is not x
                cases.append([x] * (n // 2) + [twin] + [x] * (n - n // 2))
            if before:
                cases.append([rng.choice(before)] + [x] * n)
            if misfits(x):
                cases.append([x] * n + [rng.choice(misfits(x))])
    for walk in walks:
        for i in sorted({0, len(walk) // 2, len(walk) - 1}):
            cases.append(walk[:i] + [walk[i]] * 3 + walk[i + 1:])
            cases.append(walk[:i] + [rng.choice(invalid)] * 3 + walk[i + 1:])
    for insts in cases:
        assert outcome(Graph.make_path, g, insts) == reference_outcome(g, insts), insts


def test_path_kernel_on_corpus(corpus_graph):
    _, g = corpus_graph
    path_kernel_laws(g, 0)


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


def test_paths_hash_as_their_range_and_instances():
    """The hash, filled on first use, is that of (range, instances) however
    the path was built, so equal paths built different ways dedupe."""
    g = corpus.g2()
    a, b, v = g.path_of("a"), g.path_of("b"), g.vertex_path("v")
    ab = g.make_path([EdgeInstance("a", 0), EdgeInstance("b", 0)])
    aba = g.make_path(ab.instances + a.instances)
    E = SgpElement
    built = {
        "make_path": [ab, a, aba],
        "trusted_path": [g.trusted_path(ab.instances), g.trusted_path((), "v")],
        "concat": [g.concat(a, b), g.concat(ab, v), g.concat(v, a)],
        "strip_prefix": [g.strip_prefix(aba, 1), g.strip_prefix(aba, 3),
                         g.strip_prefix(aba, 0)],
        "paths_up_to": g.paths_up_to(3),
        "sgp_mul": [sgp_mul(g, E(a, v), E(b, v)).mu, sgp_mul(g, E(v, a), E(v, b)).nu,
                    sgp_mul(g, E(a, b), E(b, a)).nu, sgp_mul(g, E(ab, b), E(b, ab)).nu],
    }
    for how, paths in built.items():
        for p in paths:
            # the first call fills the slot, the second reads it
            assert hash(p) == hash(p) == hash((p.range_vertex, p.instances)), (how, p)
    ba = g.path_of("b", "a")
    ways = [ab, g.trusted_path(ab.instances), g.concat(a, b),
            g.strip_prefix(g.concat(v, ab), 0), sgp_mul(g, E(a, v), E(b, v)).mu]
    ways += [p for p in g.paths_up_to(2) if p == ab]
    assert len(ways) == 6 and set(ways) == {ab} and len({*ways, ba}) == 2


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


@pytest.mark.parametrize("name, bad, msg", [
    # a copy index is an int: a float in range, a bool and a string are refused
    ("g5", EdgeInstance("f", 0.5), "edge 'f' has no copy 0.5"),
    ("g5", EdgeInstance("f", True), "edge 'f' has no copy True"),
    ("g2", EdgeInstance("a", False), "edge 'a' has no copy False"),
    ("g2", EdgeInstance("a", "0"), "edge 'a' has no copy '0'"),
])
def test_copy_index_must_be_an_int(name, bad, msg):
    g = corpus.by_name(name)
    for build in (lambda: g.instance(*bad), lambda: g.make_path([bad]),
                  lambda: g.path_of(tuple(bad))):
        with pytest.raises(GraphError) as info:
            build()
        assert str(info.value) == msg
    assert g.make_path([g.instance(bad.edge)]) == g.path_of(bad.edge)


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


def closed_invariant_sets(g):
    """The non-empty vertex sets T closed upstream in which every regular
    vertex receives from inside T.  Without infinite edge families these
    index the closed invariant subsets of the boundary (Bates, Hong,
    Raeburn & Szymanski, Illinois J. Math. 46, 2002): the maximal tails
    without directedness."""
    vs = sorted(g.vertices)
    return [T for n in range(1, len(vs) + 1) for T in map(frozenset, combinations(vs, n))
            if all(g.upstream(v) <= T for v in T)
            and all(any(e.source_vertex in T for e in g.receivers(v))
                    for v in T if g.is_regular(v))]


def restriction(g, T):
    """g on the vertices of T and the edges between them."""
    return Graph(sorted(T), [e for e in g.edges.values()
                             if e.range_vertex in T and e.source_vertex in T])


def k_by_closed_invariant_sets(g):
    """(K) as Kumjian, Pask, Raeburn & Renault, J. Funct. Anal. 144 (1997)
    read it: (L) on the restriction to every closed invariant set."""
    return all(condition_l(restriction(g, T))[0] for T in closed_invariant_sets(g))


CENSUS_SEEDS = [*range(240), *range(1000, 1240), *range(2000, 2240)]


def test_condition_k_is_condition_l_on_every_closed_invariant_set():
    """On the 720 census seeds without infinite edge families, where every
    closed invariant set has a vertex set of this form."""
    disagree, failing = [], 0
    for s in CENSUS_SEEDS:
        g = corpus.random_graph(random.Random(s), 5, allow_infinite=False)
        holds = condition_k(g)[0]
        failing += not holds
        if holds != k_by_closed_invariant_sets(g):
            disagree.append(s)
    assert disagree == []
    assert failing == 187


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


# ---------------------------------------------------------------- per-graph tables

def reference_upstream(g, v):
    """upstream as first written: one closure per call."""
    return _closure((v,), g._up)


def reference_downstream(g, v):
    """downstream as first written: one closure per call."""
    return _closure((v,), g._down)


def reference_continuations(g, v, copies=1):
    """continuations as first written: a new list per call."""
    out = []
    for e in g.receivers(v):
        n = copies if e.multiplicity == INFINITE else e.multiplicity
        for c in range(n):
            out.append(EdgeInstance(e.eid, c))
    return out


def reference_shortest_path(g, w, v):
    """shortest_path as first written: a BFS per (w, v) pair that returns
    at the first discovery of v."""
    if w == v:
        return g.vertex_path(w)
    best = {w: g.vertex_path(w)}
    frontier = [g.vertex_path(w)]
    while frontier:
        nxt = []
        for mu in frontier:
            for inst in reference_continuations(g, mu.source_vertex):
                y = g.s_of(inst)
                if y in best:
                    continue
                ext = Path(mu.range_vertex, y, mu.instances + (inst,))
                best[y] = ext
                nxt.append(ext)
                if y == v:
                    return ext
        frontier = nxt
    return None


def reference_first_return_profile(g, v, forbidden_first=frozenset()):
    """The first-return walk as first written, on the reference closures
    and paths, with nothing kept between calls."""
    U = reference_upstream(g, v)

    def complete(insts):
        rho = reference_shortest_path(g, g.s_of(insts[-1]), v)
        return g.trusted_path(insts + list(rho.instances))

    x = v
    prefix = []
    forbidden = forbidden_first
    for _ in range(len(g.vertices) + 1):
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
    raise GraphError("forced first-return walk failed to close")


def exclusion_sets(g, v):
    """First-step exclusions at v: each instance of continuations(v, 2)
    alone, each pair of the first four, and all of them."""
    conts = reference_continuations(g, v, 2)
    out = [frozenset({i}) for i in conts]
    out += [frozenset(pair) for pair in combinations(conts[:4], 2)]
    out.append(frozenset(conts))
    return out


def graph_table_laws(g):
    """Every answer the per-graph tables give equals the uncached reference,
    on a fresh copy of g (the cold call) and again (the warm one).  The
    first-return table serves only calls without exclusions, the answer
    with exclusions follows the one without, and a caller that mutates
    the list first_return_profile returned changes no later answer.  What
    the tables hand out is immutable: frozensets, Paths and tuples."""
    vs = sorted(g.vertices)
    exclusions = {v: exclusion_sets(g, v) for v in vs}
    queries = {
        "upstream": (lambda h, v: h.upstream(v), reference_upstream),
        "downstream": (lambda h, v: h.downstream(v), reference_downstream),
        "continuations": (
            lambda h, v: [h.continuations(v, c) for c in (1, 2, 3)],
            lambda h, v: [tuple(reference_continuations(h, v, c)) for c in (1, 2, 3)]),
        "shortest_path": (
            lambda h, v: [h.shortest_path(w, v) for w in vs],
            lambda h, v: [reference_shortest_path(h, w, v) for w in vs]),
        "first_return_profile": (
            lambda h, v: [first_return_profile(h, v)]
            + [first_return_profile(h, v, F) for F in exclusions[v]],
            lambda h, v: [reference_first_return_profile(h, v)]
            + [reference_first_return_profile(h, v, F) for F in exclusions[v]]),
    }
    for name, (ask, reference) in queries.items():
        h = Graph(g.vertices, g.edges.values())
        want = {v: reference(h, v) for v in vs}
        for call in ("cold", "warm"):
            for v in vs:
                assert ask(h, v) == want[v], (name, call, v)
    h = Graph(g.vertices, g.edges.values())
    for v in vs:
        assert type(h.upstream(v)) is type(h.downstream(v)) is frozenset
        assert all(type(h.continuations(v, c)) is tuple for c in (1, 2, 3))
        want = reference_first_return_profile(h, v)
        loops = first_return_profile(h, v)
        loops.append(h.vertex_path(v))
        loops[0:1] = []
        assert first_return_profile(h, v) == want, v


def test_graph_tables_match_reference(corpus_graph):
    _, g = corpus_graph
    graph_table_laws(g)


def test_first_return_walk_closes():
    """The forced walk closes within |V| steps, as _first_returns' docstring
    proves, on random graphs with an infinite family, with no exclusion and
    with every exclusion set of exclusion_sets: each walk gives the
    reference's loops at v, none starting with an excluded instance, and a
    lone loop, which the walk took step by forced step, has at most |V|
    letters."""
    rng = random.Random(41)
    walks = forced = 0
    while walks < 12000:
        g = corpus.random_graph(rng, 5, allow_infinite=True)
        if all(e.multiplicity != INFINITE for e in g.edges.values()):
            continue
        for v in g.vertices:
            for F in [frozenset()] + exclusion_sets(g, v):
                loops = _first_returns(g, v, F)
                assert loops == reference_first_return_profile(g, v, F), (v, F)
                for mu in loops:
                    assert mu.range_vertex == mu.source_vertex == v
                    assert mu.instances[0] not in F
                if len(loops) == 1:
                    assert len(loops[0]) <= len(g.vertices)
                    forced += 1
                walks += 1
    assert forced > 500
