"""Connected components on both routes (webtext/functions/dedup.py,
over the graph family's local-route helpers in graph.py): the local
route (driver-held labels, raw-task fan-out) and the exchange route
(bucketed label shuffles, forced by a 0 gate) must give identical
labels, identical per-round changed counts, and resume each other's
checkpoints."""

import random

import pyarrow as pa
import pytest
import ray

from webtext.functions import dedup, graph
from webtext.sources.manifest import CommitManifest

_rnd = random.Random(5)
GRAPHS = {
    # the compression regime: min-propagation alone needs ~60 rounds
    "chain": ([(i, i + 1) for i in range(100, 160)], 1),
    "two_components": ([(1, 2), (2, 3), (50, 60)], 1),
    "random_multiblock": ([(_rnd.randrange(1000), _rnd.randrange(1000))
                           for _ in range(200)], 5),
}
PATH = [(i, i + 1) for i in range(100, 109)]


def _pairs(edges, nparts=1):
    t = pa.Table.from_arrays(
        [pa.array([a for a, _ in edges], pa.int64()),
         pa.array([b for _, b in edges], pa.int64())],
        names=["left_id", "right_id"])
    ds = ray.data.from_arrow(t)
    return ds.repartition(nparts) if nparts > 1 else ds


def _min_labels(edges):
    """Union-find reference: node → min node id of its component."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _round_changes(ckpt):
    return [(r["iter"], r["n_changed"])
            for r in CommitManifest(ckpt).records()
            if r["shard"].startswith("round_")]


def _cc(monkeypatch, route, edges, nparts=1, **kwargs):
    monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES",
                        2_000_000 if route == "local" else 0)
    return {r["node"]: r["label"]
            for r in dedup.connected_components(
                _pairs(edges, nparts), **kwargs).take_all()}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_routes_identical_labels_and_rounds(ray_session, tmp_path,
                                            monkeypatch, name):
    edges, nparts = GRAPHS[name]
    got = {}
    for route in ("local", "exchange"):
        ckpt = str(tmp_path / route)
        got[route] = (_cc(monkeypatch, route, edges, nparts,
                          checkpoint_dir=ckpt), _round_changes(ckpt))
    assert got["local"] == got["exchange"]
    labels, rounds = got["local"]
    assert labels == _min_labels(edges)
    assert rounds[-1][1] == 0
    if name == "chain":
        assert len(rounds) > 4          # pointer jumping ran


def test_empty_pairs_give_typed_empty_table(ray_session, monkeypatch):
    for gate in (graph.LOCAL_STATE_MAX_NODES, 0):
        monkeypatch.setattr(graph, "LOCAL_STATE_MAX_NODES", gate)
        out = dedup.connected_components(_pairs([]))
        assert out.count() == 0
        assert out.schema().names == ["node", "label"]
        assert list(out.schema().types) == [pa.int64(), pa.int64()]


@pytest.mark.parametrize("first,second", [("local", "exchange"),
                                          ("exchange", "local")])
def test_resume_on_the_other_route(ray_session, tmp_path, monkeypatch,
                                   first, second):
    """Crash after committed round 1 on one route; the rerun on the
    other route resumes from round 2 and ends with the labels and the
    per-round changed counts of an uninterrupted run."""
    ref = str(tmp_path / "ref")
    want = _cc(monkeypatch, "local", PATH, checkpoint_dir=ref)
    assert want == _min_labels(PATH)

    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected failure"):
        _cc(monkeypatch, first, PATH, checkpoint_dir=ckpt,
            _fail_after_round=1)
    assert _round_changes(ckpt) == _round_changes(ref)[:2]
    assert _cc(monkeypatch, second, PATH, checkpoint_dir=ckpt) == want
    assert _round_changes(ckpt) == _round_changes(ref)
