"""Graph operators: degrees and fixed-point PageRank."""

import os
import shutil

import numpy as np
import pyarrow as pa

from webtext.functions import graph


def _edges_ds(rows):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "src": pa.array([r[0] for r in rows], pa.int64()),
        "dst": pa.array([r[1] for r in rows], pa.int64()),
        "w": pa.array([r[2] for r in rows], pa.int64())}))


def _dense_pagerank(rows, iters=graph.PAGERANK_ITERS,
                    scale=graph.PAGERANK_SCALE):
    """Independent dense reference (mirrors tools/gen_goldens.py)."""
    esrc = np.array([r[0] for r in rows], dtype=np.int64)
    edst = np.array([r[1] for r in rows], dtype=np.int64)
    ew = np.array([r[2] for r in rows], dtype=np.int64)
    nodes = np.unique(np.concatenate([esrc, edst]))
    si = np.searchsorted(nodes, esrc)
    di = np.searchsorted(nodes, edst)
    outdeg = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(outdeg, si, ew)
    base = np.int64(scale // len(nodes))
    base_next = (np.int64(3) * base) // np.int64(graph.PR_D_DEN)
    rank = np.full(len(nodes), base, dtype=np.int64)
    for _ in range(iters):
        share = np.where(outdeg > 0,
                         rank // np.maximum(outdeg, 1), np.int64(0))
        inflow = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(inflow, di, share[si] * ew)
        rank = base_next + (np.int64(graph.PR_D_NUM) * inflow) \
            // np.int64(graph.PR_D_DEN)
    return dict(zip(nodes.tolist(), rank.tolist()))


def test_degrees_with_multiplicity(ray_session):
    edges = _edges_ds([(0, 1, 3), (0, 3, 1), (2, 1, 2)])
    got = {r["node"]: (r["out_deg"], r["in_deg"])
           for r in graph.degrees(edges).take_all()}
    assert got == {0: (4, 0), 1: (0, 5), 2: (2, 0), 3: (0, 1)}


def test_pagerank_two_node_cycle(ray_session):
    # symmetric cycle: ranks stay equal, mass conserved up to floor
    edges = _edges_ds([(0, 1, 1), (1, 0, 1)])
    got = {r["node"]: r["rank"]
           for r in graph.pagerank(edges).take_all()}
    assert got == _dense_pagerank([(0, 1, 1), (1, 0, 1)])
    assert got[0] == got[1]


def test_pagerank_matches_dense_reference(ray_session):
    rng = np.random.RandomState(7)
    rows = [(int(rng.randint(0, 30)), int(rng.randint(0, 30)),
             int(rng.randint(1, 4))) for _ in range(120)]
    rows = [(s, d, w) for s, d, w in rows if s != d]
    # collapse duplicate (src, dst) pairs — the op contract is one
    # weighted edge per pair (lineitem_edges guarantees this upstream)
    agg = {}
    for s, d, w in rows:
        agg[(s, d)] = agg.get((s, d), 0) + w
    rows = [(s, d, w) for (s, d), w in agg.items()]
    got = {r["node"]: r["rank"]
           for r in graph.pagerank(edges=_edges_ds(rows)).take_all()}
    assert got == _dense_pagerank(rows)


def test_pagerank_split_invariant(ray_session):
    rows = [(i % 9, (i * 7) % 9 or 1, 1 + i % 3) for i in range(40)
            if i % 9 != ((i * 7) % 9 or 1)]
    agg = {}
    for s, d, w in rows:
        agg[(s, d)] = agg.get((s, d), 0) + w
    rows = [(s, d, w) for (s, d), w in agg.items()]
    one = {r["node"]: r["rank"]
           for r in graph.pagerank(_edges_ds(rows)).take_all()}
    many = {r["node"]: r["rank"]
            for r in graph.pagerank(
                _edges_ds(rows).repartition(5)).take_all()}
    assert one == many


def test_lineitem_edges_collapse_multiedges(ray_session):
    import ray.data

    li = ray.data.from_arrow(pa.table({
        "l_partkey": pa.array([1, 1, 2], pa.int64()),
        "l_suppkey": pa.array([5, 5, 5], pa.int64())}))
    got = sorted((r["src"], r["dst"], r["w"])
                 for r in graph.lineitem_edges(li).take_all())
    assert got == [(2, 11, 2), (4, 11, 1)]


def test_hits_bipartite_ordering_and_invariance(ray_session):
    import ray.data

    from webtext.functions.graph import hits

    # parts 0,2,4 (even) -> suppliers 1,3 (odd); supplier 1 receives
    # from every part, supplier 3 from one part only
    edges = [
        {"src": 0, "dst": 1, "w": 1},
        {"src": 2, "dst": 1, "w": 1},
        {"src": 4, "dst": 1, "w": 1},
        {"src": 4, "dst": 3, "w": 1},
    ]
    out = {r["node"]: (r["hub"], r["auth"])
           for r in hits(ray.data.from_items(edges).repartition(2))
           .take_all()}
    # authorities live on suppliers, hubs on parts
    assert out[1][0] == 0 and out[3][0] == 0
    assert out[0][1] == 0 and out[2][1] == 0 and out[4][1] == 0
    # the all-parts supplier out-ranks the single-part supplier
    assert out[1][1] > out[3][1]
    # the two-link part out-hubs the single-link parts
    assert out[4][0] > out[0][0] == out[2][0]
    # block-split invariance (integer sums + elementwise rescale)
    out2 = {r["node"]: (r["hub"], r["auth"])
            for r in hits(ray.data.from_items(edges).repartition(4))
            .take_all()}
    assert out2 == out


def test_butterfly_count_known_motifs(ray_session):
    """K_{2,2} has exactly 1 butterfly; adding a third part on both
    suppliers makes C(3,2)=3; multi-edges must not inflate counts."""
    import ray.data

    from webtext.functions.graph import butterfly_count

    # parts 2,4,6 (even ids) each connected to suppliers 1,3 (odd ids)
    edges = [{"src": p, "dst": s, "w": 1}
             for p in (2, 4, 6) for s in (1, 3)]
    # a multi-edge duplicate (same src, dst) — must be ignored
    edges.append({"src": 2, "dst": 1, "w": 5})
    # a dangling extra edge that makes no new wedge pair
    edges.append({"src": 8, "dst": 1, "w": 1})
    got = butterfly_count(ray.data.from_items(edges)).to_pylist()[0]
    # wedges: parts 2,4,6 each contribute pair (1,3) → c=3 → C(3,2)=3
    assert got == {"butterflies": 3, "wedges": 3}


def test_butterfly_count_no_wedges(ray_session):
    import ray.data

    from webtext.functions.graph import butterfly_count

    edges = [{"src": 2, "dst": 1, "w": 1}, {"src": 4, "dst": 3, "w": 1}]
    got = butterfly_count(ray.data.from_items(edges)).to_pylist()[0]
    assert got == {"butterflies": 0, "wedges": 0}


def test_pagerank_personalized_uniform_equals_plain(ray_session):
    """Uniform teleport weights reproduce the plain pagerank
    bit-for-bit (p_v = scale//n exactly when all w equal... only when
    scale//W*w matches scale//n — true for w=1, W=n)."""
    import ray.data

    from webtext.functions.graph import pagerank, pagerank_personalized

    edges = [{"src": 2, "dst": 1, "w": 2}, {"src": 4, "dst": 1, "w": 1},
             {"src": 4, "dst": 3, "w": 1}, {"src": 6, "dst": 3, "w": 3}]
    eds = ray.data.from_items(edges)
    nodes = sorted({e["src"] for e in edges} | {e["dst"] for e in edges})
    wds = ray.data.from_items([{"node": n, "w": 1} for n in nodes])
    plain = {r["node"]: r["rank"]
             for r in pagerank(ray.data.from_items(edges)).take_all()}
    pers = {r["node"]: r["rank"]
            for r in pagerank_personalized(eds, wds).take_all()}
    assert plain == pers


def test_pagerank_personalized_concentrates_on_seed(ray_session):
    """All teleport mass on one source node → that node's neighborhood
    outranks the rest; nodes absent from weights still rank via
    inflow; weight rows for non-graph nodes are ignored."""
    import ray.data

    from webtext.functions.graph import pagerank_personalized

    edges = ray.data.from_items([
        {"src": 2, "dst": 1, "w": 1},
        {"src": 4, "dst": 3, "w": 1},
    ])
    weights = ray.data.from_items([
        {"node": 2, "w": 100},      # all teleport mass here
        {"node": 999, "w": 500},    # not in graph → ignored
    ])
    got = {r["node"]: r["rank"]
           for r in pagerank_personalized(edges, weights).take_all()}
    assert set(got) == {1, 2, 3, 4}
    assert got[2] > got[4]          # seed beats unseeded source
    assert got[1] > got[3]          # seed's sink beats unseeded sink
    assert got[4] == 0 and got[3] == 0


def test_lineitem_degrees_fused_equals_composition(ray_session):
    """The one-exchange fused path is row-identical to
    degrees(lineitem_edges(x)) — the edge-collapse groupby cancels
    against the degree sum; block-split invariant."""
    import ray.data

    from webtext.functions.graph import (degrees, lineitem_degrees,
                                         lineitem_edges)

    rows = [{"l_partkey": p, "l_suppkey": s}
            for p, s in [(1, 1), (1, 1), (1, 2), (2, 1), (3, 3),
                         (3, 3), (3, 1)]]
    ds = ray.data.from_items(rows)
    want = sorted((r["node"], r["out_deg"], r["in_deg"]) for r in
                  degrees(lineitem_edges(ds)).take_all())
    for parts in (1, 4):
        got = sorted((r["node"], r["out_deg"], r["in_deg"]) for r in
                     lineitem_degrees(ds.repartition(parts)).take_all())
        assert got == want


def test_missing_present_slice_raises(ray_session):
    """A bucket the slice handle records as written must be readable:
    a deleted slice file raises instead of reading as an empty slice,
    while a bucket that was never written stays a legitimate empty
    slice.  The directory is gone once the block exits."""
    import os

    import pytest
    import ray.data

    keyed = ray.data.from_arrow(pa.table({
        "key": pa.array([0, 0, 3], pa.int64()),
        "a": pa.array([5, 1, 2], pa.int64()),
        "b": pa.array([7, 8, 9], pa.int64())}))
    with graph._persisted_slices(keyed, ["a", "b"], n_buckets=8) as s:
        assert s.present == {0, 3}
        a, b = graph._load_bucket(s, 0)
        assert (a.tolist(), b.tolist()) == ([1, 5], [8, 7])
        assert [c.tolist() for c in graph._load_bucket(s, 5)] == [[], []]
        os.remove(graph._bucket_file(s.dir, 3))
        with pytest.raises(FileNotFoundError, match="missing"):
            graph._load_bucket(s, 3)
    assert not os.path.exists(s.dir)


def test_pagerank_hits_empty_graph(ray_session):
    """An empty edge set gives empty typed tables (no division by the
    zero node count); personalized pagerank keeps its documented
    ValueError for zero total teleport weight."""
    import pytest
    import ray.data

    empty = _edges_ds([])
    for op, cols in ((graph.pagerank, ["node", "rank"]),
                     (graph.hits, ["node", "hub", "auth"])):
        out = op(empty)
        assert out.take_all() == []
        assert out.schema().names == cols
        assert set(out.schema().types) == {pa.int64()}
    weights = ray.data.from_items([{"node": 1, "w": 1}])
    with pytest.raises(ValueError, match="positive total"):
        graph.pagerank_personalized(_edges_ds([]), weights).take_all()


def test_pagerank_hits_exchange_route_matches_local(ray_session,
                                                     monkeypatch,
                                                     tmp_path):
    """Forcing the gate to 0 runs pagerank, pagerank_personalized and
    hits on the bucketed exchange route; on a random multi-block graph
    each is row-identical to the driver-state local route and to the
    dense references (``_dense_pagerank``, tools/gen_goldens.py
    ``golden_hits``)."""
    import pyarrow.parquet as pq
    import ray.data

    from tools.gen_goldens import golden_hits

    rng = np.random.RandomState(11)
    li = pa.table({"l_partkey": pa.array(rng.randint(0, 40, 300),
                                         pa.int64()),
                   "l_suppkey": pa.array(rng.zipf(1.6, 300) % 12,
                                         pa.int64())})
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    edges = graph.lineitem_edges(ray.data.from_arrow(li).repartition(4)) \
        .materialize()
    rows = [(r["src"], r["dst"], r["w"]) for r in edges.take_all()]
    nodes = sorted({r[0] for r in rows} | {r[1] for r in rows})
    weights = ray.data.from_items(
        [{"node": n, "w": 1 + n % 5} for n in nodes])

    def run():
        return (sorted((r["node"], r["rank"])
                       for r in graph.pagerank(edges).take_all()),
                sorted((r["node"], r["rank"])
                       for r in graph.pagerank_personalized(
                           edges, weights).take_all()),
                sorted((r["node"], r["hub"], r["auth"])
                       for r in graph.hits(edges).take_all()))

    local = run()
    monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES", 0)
    exchange = run()
    assert exchange == local
    assert dict(local[0]) == _dense_pagerank(rows)
    assert local[2] == sorted(golden_hits(str(tmp_path))
                              .to_pandas().itertuples(index=False, name=None))


def test_local_route_skips_schemaless_empty_edge_blocks(ray_session,
                                                        monkeypatch):
    """An edge Dataset repartitioned into more blocks than rows holds
    0-row blocks with no columns (as an exchange's output can); the
    local route's pagerank and hits read its blocks directly and give
    the one-block result."""
    import ray

    rows = [(0, 1, 2), (1, 2, 1), (2, 0, 3)]
    monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES", 10**9)
    one = _edges_ds(rows).materialize()
    sparse = _edges_ds(rows).repartition(8).materialize()
    assert any(not b.num_rows and not b.num_columns
               for b in ray.get(sparse.to_arrow_refs()))
    for op in (graph.pagerank, graph.hits):
        assert sorted(op(sparse).take_all(), key=str) == \
            sorted(op(one).take_all(), key=str)
    assert dict((r["node"], r["rank"])
                for r in graph.pagerank(sparse).take_all()) == \
        _dense_pagerank(rows)


def test_bucket_cache_evicts_removed_dirs_then_oldest(tmp_path,
                                                      monkeypatch):
    """Over budget, ``_load_bucket`` first evicts entries of slice dirs
    that no longer exist (a finished op's removed tempdir), then the
    oldest-inserted entry — a second LIVE dir's slices (hits' fwd/rev
    pair) are not dropped wholesale."""
    import pyarrow.parquet as pq

    def slices(name):
        d = tmp_path / name
        d.mkdir()
        for b in range(3):
            pq.write_table(pa.table({"a": pa.array([b] * 4, pa.int64())}),
                           graph._bucket_file(str(d), b))
        return graph._Slices(str(d), frozenset(range(3)), None, 1)

    monkeypatch.setattr(graph, "_BUCKET_CACHE", {})
    monkeypatch.setattr(graph, "_BUCKET_CACHE_BYTES", 0)
    monkeypatch.setattr(graph, "_BUCKET_CACHE_BUDGET", 64)   # 2 entries
    fwd, rev, done = slices("fwd"), slices("rev"), slices("done")

    def cached():
        return [(os.path.basename(d), b) for d, b in graph._BUCKET_CACHE]

    graph._load_bucket(fwd, 0)
    graph._load_bucket(rev, 0)
    graph._load_bucket(fwd, 1)      # both dirs live: oldest goes
    assert cached() == [("rev", 0), ("fwd", 1)]
    graph._load_bucket(done, 0)
    shutil.rmtree(done.dir)
    graph._load_bucket(rev, 1)      # removed dir first, though newest
    assert cached() == [("fwd", 1), ("rev", 1)]
    assert graph._BUCKET_CACHE_BYTES == 64
