"""Co-purchase graph + exact triangle census tests
(webtext/functions/graph.py): crafted-graph differential, an
independent brute-force differential on a pseudo-random graph, and
block-split invariance."""

import itertools
import random
import re

import pyarrow as pa
import ray

from webtext.functions.graph import copurchase_edges, triangle_census


def _edge_ds(edges, nparts=3):
    t = pa.Table.from_arrays(
        [pa.array([e[0] for e in edges], pa.int64()),
         pa.array([e[1] for e in edges], pa.int64())],
        names=["p1", "p2"])
    return ray.data.from_arrow(t).repartition(nparts)


def _census(edges, nparts=3):
    out = triangle_census(_edge_ds(edges, nparts)).to_pandas()
    return {int(r.node): (int(r.deg), int(r.tri))
            for r in out.itertuples()}


def _brute(edges):
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for v, nb in adj.items():
        tri = sum(1 for a, b in itertools.combinations(sorted(nb), 2)
                  if b in adj[a])
        want[v] = (len(nb), tri)
    return want


def test_triangles_k4_plus_pendant(ray_session):
    edges = list(itertools.combinations([1, 2, 3, 4], 2)) + [(1, 5)]
    got = _census(edges)
    assert got == {1: (4, 3), 2: (3, 3), 3: (3, 3), 4: (3, 3),
                   5: (1, 0)}


def test_triangles_triangle_free(ray_session):
    # a 4-cycle has wedges but no triangles
    got = _census([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert got == {1: (2, 0), 2: (2, 0), 3: (2, 0), 4: (2, 0)}


def test_triangles_brute_force_differential(ray_session):
    rng = random.Random("triangles:differential")
    edges = sorted({tuple(sorted(rng.sample(range(1, 40), 2)))
                    for _ in range(220)})
    assert _census(edges) == _brute(edges)


def test_triangles_block_split_invariant(ray_session):
    rng = random.Random("triangles:blocks")
    edges = sorted({tuple(sorted(rng.sample(range(1, 30), 2)))
                    for _ in range(140)})
    assert _census(edges, nparts=1) == _census(edges, nparts=7)


def test_copurchase_edges_semantics(ray_session):
    # order 10 holds parts {1,2,3} (part 2 listed twice -> counted
    # once); order 11 holds {2,3}; order 12 a single part (no pairs)
    li = pa.Table.from_arrays(
        [pa.array([10, 10, 10, 10, 11, 11, 12], pa.int64()),
         pa.array([1, 2, 3, 2, 2, 3, 9], pa.int64())],
        names=["l_orderkey", "l_partkey"])
    out = copurchase_edges(ray.data.from_arrow(li).repartition(3)) \
        .to_pandas().sort_values(["p1", "p2"]).reset_index(drop=True)
    assert out.values.tolist() == [[1, 2, 1], [1, 3, 1], [2, 3, 2]]


def test_copurchase_order_split_across_blocks(ray_session):
    # the hash(order) bucket key must co-locate an order's lines even
    # when the input blocks split them apart
    rows_a = pa.Table.from_arrays(
        [pa.array([20, 20], pa.int64()), pa.array([1, 2], pa.int64())],
        names=["l_orderkey", "l_partkey"])
    rows_b = pa.Table.from_arrays(
        [pa.array([20, 21], pa.int64()), pa.array([3, 1], pa.int64())],
        names=["l_orderkey", "l_partkey"])
    ds = ray.data.from_arrow(rows_a).union(ray.data.from_arrow(rows_b))
    out = copurchase_edges(ds).to_pandas() \
        .sort_values(["p1", "p2"]).reset_index(drop=True)
    assert out.values.tolist() == [[1, 2, 1], [1, 3, 1], [2, 3, 1]]


def test_triangles_attach_path_equals_broadcast(ray_session, monkeypatch):
    # force the >gate routing: the bucketed-attach orientation plan
    # must produce the identical census
    import webtext.functions.graph as g
    rng = random.Random("triangles:gate")
    edges = sorted({tuple(sorted(rng.sample(range(1, 30), 2)))
                    for _ in range(120)})
    want = _census(edges)
    monkeypatch.setattr(g, "TRI_BROADCAST_MAX_NODES", 0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = _census(edges)
    assert got == want


def test_assortativity_star_vs_clique(ray_session):
    from webtext.functions.graph import degree_assortativity

    # a star is maximally disassortative; verify against a pure-python
    # pearson over the symmetrized pairs with the same quantization
    import math

    def brute(edges):
        want = _brute(edges)
        xy = [(want[a][0], want[b][0]) for a, b in edges]
        xy += [(y, x) for x, y in xy]
        n = len(xy)
        sx = sum(x for x, _ in xy); sy = sum(y for _, y in xy)
        sxx = sum(x*x for x, _ in xy); syy = sum(y*y for _, y in xy)
        sxy = sum(x*y for x, y in xy)
        if n <= 1 or n*sxx - sx*sx <= 0 or n*syy - sy*sy <= 0:
            return n, 0
        return n, int(math.floor(
            float(n*sxy - sx*sy) * 1e6
            / math.sqrt(float(n*sxx - sx*sx) * float(n*syy - sy*sy))
            + 0.5))

    star = [(1, k) for k in range(2, 9)]
    out = degree_assortativity(_edge_ds(star)).to_pandas()
    n, r = brute(star)
    assert out.values.tolist() == [[n, r]] and r == -1000000

    rng = random.Random("assort")
    edges = sorted({tuple(sorted(rng.sample(range(1, 25), 2)))
                    for _ in range(80)})
    out = degree_assortativity(_edge_ds(edges, 5)).to_pandas()
    assert out.values.tolist() == [list(brute(edges))]


def _walk_brute(edges, steps=3):
    import hashlib
    from collections import defaultdict

    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    rows = set()
    for s in adj:
        cur = s
        rows.add((s, 0, s))
        for t in range(steps):
            h = int.from_bytes(hashlib.md5(
                f"{s}:{cur}:{t}:walk".encode()).digest()[:8],
                "little") & 0x7FFFFFFFFFFFFFFF
            cur = adj[cur][h % len(adj[cur])]
            rows.add((s, t + 1, cur))
    return rows


def test_graph_walks_differential(ray_session):
    from webtext.functions.graph import graph_walks

    rng = random.Random("walks")
    edges = sorted({tuple(sorted(rng.sample(range(1, 30), 2)))
                    for _ in range(60)})
    out = graph_walks(_edge_ds(edges, 4), steps=3).to_pandas()
    got = set(map(tuple, out.values.tolist()))
    assert got == _walk_brute(edges)


def test_graph_walks_block_split_invariant(ray_session):
    from webtext.functions.graph import graph_walks

    rng = random.Random("walks2")
    edges = sorted({tuple(sorted(rng.sample(range(1, 20), 2)))
                    for _ in range(40)})
    a = graph_walks(_edge_ds(edges, 1), steps=2).to_pandas()
    b = graph_walks(_edge_ds(edges, 6), steps=2).to_pandas()
    key = ["start", "step", "node"]
    assert a.sort_values(key).values.tolist() == \
        b.sort_values(key).values.tolist()


# ---------------------------------------------------------------- coreness

def _peel(edges):
    """Literal iterated-deletion k-core reference (textbook peeling)."""
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    live = {v: set(ns) for v, ns in adj.items()}
    core, k = {}, 0
    while live:
        k += 1
        while True:
            drop = [v for v, ns in live.items() if len(ns) < k]
            if not drop:
                break
            for v in drop:
                core[v] = k - 1
                for u in live[v]:
                    live[u].discard(v)
                del live[v]
    return core


def _coreness(edges, nparts=3):
    from webtext.functions.graph import coreness
    out = coreness(_edge_ds(edges, nparts)).to_pandas()
    return {int(r.node): int(r.coreness) for r in out.itertuples()}


def test_coreness_k4_plus_pendant(ray_session):
    # K4 is a 3-core; the pendant vertex peels at k=1
    edges = list(itertools.combinations([1, 2, 3, 4], 2)) + [(1, 5)]
    assert _coreness(edges) == {1: 3, 2: 3, 3: 3, 4: 3, 5: 1}


def test_coreness_path_is_1core(ray_session):
    assert _coreness([(1, 2), (2, 3), (3, 4)]) == {1: 1, 2: 1,
                                                   3: 1, 4: 1}


def test_coreness_brute_force_differential(ray_session):
    rng = random.Random("coreness:differential")
    edges = sorted({tuple(sorted(rng.sample(range(1, 40), 2)))
                    for _ in range(220)})
    assert _coreness(edges) == _peel(edges)


def test_coreness_block_split_invariant(ray_session):
    rng = random.Random("coreness:splits")
    edges = sorted({tuple(sorted(rng.sample(range(1, 30), 2)))
                    for _ in range(120)})
    assert _coreness(edges, nparts=1) == _coreness(edges, nparts=7)


def test_coreness_exchange_path_matches_local(ray_session, monkeypatch):
    """A gate of 0 forces the bucketed state-only exchange path;
    it must be row-identical to the gated broadcast path AND to the
    literal peeling reference (both paths share the persisted
    adjacency slices with dual role assignment — see coreness doc)."""
    from webtext.functions import graph
    rng = random.Random("coreness:exchange")
    edges = sorted({tuple(sorted(rng.sample(range(1, 45), 2)))
                    for _ in range(260)})
    want = _coreness(edges)
    monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES", 0)
    out = graph.coreness(_edge_ds(edges, 5)).to_pandas()
    got = {int(r.node): int(r.coreness) for r in out.itertuples()}
    assert got == _peel(edges)
    assert got == want


def test_coreness_max_rounds_backstop_raises(ray_session, monkeypatch):
    """An explicit too-small cap still raises (never returns an
    unconverged table) on both paths."""
    import pytest

    from webtext.functions import graph
    edges = list(itertools.combinations(range(1, 8), 2)) + [(1, 9)]
    with pytest.raises(RuntimeError, match="no convergence"):
        graph.coreness(_edge_ds(edges, 3), max_rounds=1).to_pandas()
    monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES", 0)
    with pytest.raises(RuntimeError, match="no convergence"):
        graph.coreness(_edge_ds(edges, 3), max_rounds=1).to_pandas()


# ------------------------------------------------------------ bfs_distances

def _bfs_ref(edges, seeds):
    from collections import deque
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {s: 0 for s in seeds}
    q = deque(sorted(seeds))
    while q:
        v = q.popleft()
        for u in adj.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def _bfs(edges, seeds, nparts=3):
    from webtext.functions.graph import bfs_distances
    seed_ds = ray.data.from_arrow(pa.table(
        {"node": pa.array(sorted(seeds), pa.int64())}))
    out = bfs_distances(_edge_ds(edges, nparts), seed_ds).to_pandas()
    return {int(r.node): int(r.dist) for r in out.itertuples()}


def test_bfs_path_graph(ray_session):
    edges = [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert _bfs(edges, {1}) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}


def test_bfs_multi_source_and_unreachable(ray_session):
    # two components; the second has no seed -> absent from output
    edges = [(1, 2), (2, 3), (10, 11)]
    assert _bfs(edges, {1, 3}) == {1: 0, 2: 1, 3: 0}


def test_bfs_brute_force_differential(ray_session):
    rng = random.Random("bfs:differential")
    edges = sorted({tuple(sorted(rng.sample(range(1, 60), 2)))
                    for _ in range(90)})
    seeds = {n for n in range(1, 60) if n % 7 == 0}
    assert _bfs(edges, seeds) == _bfs_ref(edges, seeds)


def test_bfs_block_split_invariant(ray_session):
    rng = random.Random("bfs:splits")
    edges = sorted({tuple(sorted(rng.sample(range(1, 40), 2)))
                    for _ in range(70)})
    assert _bfs(edges, {5}, nparts=1) == _bfs(edges, {5}, nparts=7)


def test_bfs_failing_seeds_leave_no_slice_dir(ray_session):
    """A seeds dataset without a ``node`` column fails after the
    adjacency slices are persisted; the op must raise AND remove its
    slice directory."""
    import glob
    import os
    import tempfile

    import pytest

    from webtext.functions.graph import bfs_distances

    pattern = os.path.join(tempfile.gettempdir(), "webtext_gbuckets_*")
    before = set(glob.glob(pattern))
    bad_seeds = ray.data.from_arrow(pa.table(
        {"vertex": pa.array([1], pa.int64())}))
    with pytest.raises(Exception):
        bfs_distances(_edge_ds([(1, 2), (2, 3)]), bad_seeds)
    assert set(glob.glob(pattern)) <= before


# --------------------------------------------------------- lpa_communities

def _lpa_ref(edges, rounds=10):
    from collections import Counter
    adj: dict[int, set] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    label = {v: v for v in adj}
    for _ in range(rounds):
        nxt = {}
        for v, ns in adj.items():
            cnt = Counter(label[u] for u in ns)
            top = max(cnt.values())
            nxt[v] = min(l for l, c in cnt.items() if c == top)
        if nxt == label:
            break
        label = nxt
    return label


def _lpa(edges, nparts=3):
    from webtext.functions.graph import lpa_communities
    out = lpa_communities(_edge_ds(edges, nparts)).to_pandas()
    return {int(r.node): int(r.community) for r in out.itertuples()}


def test_lpa_two_cliques_with_bridge(ray_session):
    # two K4s joined by one bridge edge: each clique collapses to its
    # min label
    k1 = list(itertools.combinations([1, 2, 3, 4], 2))
    k2 = list(itertools.combinations([10, 11, 12, 13], 2))
    got = _lpa(k1 + k2 + [(4, 10)])
    assert got == _lpa_ref(k1 + k2 + [(4, 10)])
    assert len({got[1], got[2], got[3]}) == 1
    assert len({got[11], got[12], got[13]}) == 1
    assert got[1] != got[11]


def test_lpa_brute_force_differential(ray_session):
    rng = random.Random("lpa:differential")
    edges = sorted({tuple(sorted(rng.sample(range(1, 50), 2)))
                    for _ in range(130)})
    assert _lpa(edges) == _lpa_ref(edges)


def test_lpa_block_split_invariant(ray_session):
    rng = random.Random("lpa:splits")
    edges = sorted({tuple(sorted(rng.sample(range(1, 35), 2)))
                    for _ in range(90)})
    assert _lpa(edges, nparts=1) == _lpa(edges, nparts=7)


# ------------------------------------------------------- association_rules

def test_association_rules_hand_computed(ray_session):
    """Three baskets: {1,2,3}, {1,2}, {1,4} — pair (1,2) has support 2;
    every other pair has support 1 and drops at min_support=2."""
    from webtext.functions.graph import association_rules, \
        copurchase_edges

    rows = []
    for o, parts in [(10, [1, 2, 3]), (11, [1, 2]), (12, [1, 4])]:
        rows += [{"l_orderkey": o, "l_partkey": p} for p in parts]
    li = ray.data.from_items(rows).repartition(3)
    edges = copurchase_edges(li)
    got = {(int(r["ante"]), int(r["cons"])):
           (int(r["n_ab"]), int(r["n_ante"]),
            int(r["conf_micro"]), int(r["lift_micro"]))
           for r in association_rules(li, edges).take_all()}
    m = 1_000_000
    # N=3 orders; n_1=3, n_2=2; conf(1->2)=2/3, conf(2->1)=2/2;
    # lift = 2*3/(3*2) = 1.0 both ways
    assert got == {
        (1, 2): (2, 3, m * 2 // 3, m * 2 * 3 // (3 * 2)),
        (2, 1): (2, 2, m * 2 // 2, m * 2 * 3 // (3 * 2)),
    }


def _round_lines(err, name):
    return re.findall(rf"^\[{name}\] round \d+:.*$", err, re.M)


def _route_fields(err, name):
    return re.findall(rf"^\[{name}\] route=(local|exchange) nodes=\d+ "
                      r"gate=\d+$", err, re.M)


def test_round_trace_lines(ray_session, capfd, monkeypatch):
    """WEBTEXT_TRACE_ROUNDS prints one line per round for every
    iterative op: exactly ``iters`` for pagerank, pagerank_personalized
    and hits, at most ``rounds`` for lpa, and coreness keeps its
    changed-count line (the broadcast path adds its dirty-bucket
    count).  The driver-state ops (connected components included) also
    print one route line per call, whose field flips when the gate is
    forced to 0."""
    from webtext.functions import dedup, graph

    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    capfd.readouterr()
    k4 = list(itertools.combinations([1, 2, 3, 4], 2))
    pairs = k4 + [(4, 5), (5, 6), (6, 7)]
    graph.lpa_communities(_edge_ds(pairs), rounds=2).take_all()
    err = capfd.readouterr().err
    assert 1 <= len(_round_lines(err, "lpa")) <= 2
    assert not _route_fields(err, "lpa")

    directed = ray.data.from_items(
        [{"src": 0, "dst": 1, "w": 1}, {"src": 1, "dst": 2, "w": 2},
         {"src": 2, "dst": 0, "w": 1}])
    weights = ray.data.from_items([{"node": 0, "w": 1}])
    for gate, route, note in (
            (graph.LOCAL_STATE_MAX_NODES, "local", r" dirty=\d+"),
            (0, "exchange", "")):
        monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES", gate)
        for name, run in (
                ("pagerank", lambda: graph.pagerank(directed, iters=3)),
                ("pagerank_personalized",
                 lambda: graph.pagerank_personalized(directed, weights,
                                                     iters=3)),
                ("hits", lambda: graph.hits(directed, iters=3))):
            run().take_all()
            err = capfd.readouterr().err
            assert len(_round_lines(err, name)) == 3, (name, route)
            assert _route_fields(err, name) == [route], (name, err)

        dedup.connected_components(ray.data.from_items(
            [{"left_id": a, "right_id": b} for a, b in pairs])).take_all()
        err = capfd.readouterr().err
        assert _route_fields(err, "connected_components") == [route]
        assert _round_lines(err, "connected_components")

        graph.coreness(_edge_ds(pairs)).take_all()
        err = capfd.readouterr().err
        assert _route_fields(err, "coreness") == [route]
        lines = _round_lines(err, "coreness")
        assert lines
        for line in lines:
            assert re.fullmatch(
                rf"\[coreness\] round \d+: changed=\d+{note} "
                r"\(\d+\.\d\ds\)", line), line
