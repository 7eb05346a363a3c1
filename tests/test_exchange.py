"""``webtext.exchange.aggregate`` against Ray Data's native keyed
aggregates, ``webtext.exchange.join`` against Arrow's hash join on both
routes, and the pins that keep the package on them."""

from __future__ import annotations

import ast
import datetime
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

# Keyed native aggregates that stay native, by (module path under
# webtext/, enclosing function): only floating-point sums, whose result
# depends on summation order (exchange.aggregate refuses them).  Each
# entry states its reason.
NATIVE_AGGREGATE_ALLOWLIST: dict[tuple[str, str], str] = {}

_KEYED_AGGS = {"sum", "count", "min", "max", "mean", "std", "aggregate"}


def _rows(ds) -> list:
    return sorted(tuple(sorted((k, repr(v)) for k, v in r.items()))
                  for r in ds.take_all())


@pytest.fixture(scope="module")
def table() -> pa.Table:
    rng = np.random.default_rng(7)
    n = 3000
    return pa.table({
        "k": pa.array(rng.integers(0, 40, n), mask=rng.random(n) < 0.05),
        "s": pa.array([f"s{x}" for x in rng.integers(0, 25, n)]),
        "v": pa.array(rng.integers(-50, 50, n), mask=rng.random(n) < 0.2),
        "i32": pa.array(rng.integers(0, 9, n).astype(np.int32)),
        "ts": pa.array([datetime.datetime(2024, 1, 1)
                        + datetime.timedelta(hours=int(h))
                        for h in rng.integers(0, 30, n)],
                       pa.timestamp("us")),
        "f": pa.array(rng.random(n)),
    })


_CASES = {
    "int key, sum": ("k", [("sum", "v")], lambda g: g.sum("v")),
    "int key, two sums": ("k", [("sum", "v"), ("sum", "i32")],
                          lambda g: g.sum(["v", "i32"])),
    "string key, count": ("s", [("count",)], lambda g: g.count()),
    "string key, min/max": ("s", [("min", "v"), ("max", "ts")],
                            lambda g: g.aggregate(_agg("Min", "v"),
                                                  _agg("Max", "ts"))),
    "timestamp key": ("ts", [("count",), ("min", "s"), ("max", "f")],
                      lambda g: g.aggregate(_agg("Count"), _agg("Min", "s"),
                                            _agg("Max", "f"))),
    "two-column key, every kind": (
        ["k", "s"], [("count",), ("min", "v"), ("max", "v"), ("sum", "v")],
        lambda g: g.aggregate(_agg("Count"), _agg("Min", "v"),
                              _agg("Max", "v"), _agg("Sum", "v"))),
}


def _agg(kind: str, *col):
    from ray.data import aggregate as agg

    return getattr(agg, kind)(*col)


@pytest.mark.parametrize("n_blocks", [1, 6])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_aggregate_matches_native(ray_session, table, case, n_blocks):
    """Row-identical to the native aggregate up to row order, with its
    column names, over null keys (``k``), null values and all-null
    groups' null sums."""
    import ray

    from webtext.exchange import aggregate

    on, specs, native = _CASES[case]
    ds = ray.data.from_arrow(table).repartition(n_blocks).materialize()
    got = aggregate(ds, on, *specs)
    want = native(ds.groupby(on))
    assert got.columns() == want.columns()
    assert _rows(got) == _rows(want)


def test_aggregate_null_key_and_all_null_group(ray_session):
    import ray

    from webtext.exchange import aggregate

    t = pa.table({"k": pa.array([1, None, 2, None, 1], pa.int64()),
                  "v": pa.array([None, 3, None, 4, None], pa.int64())})
    ds = ray.data.from_arrow(t).repartition(3)
    got = {r["k"]: (r["sum(v)"], r["count()"]) for r in
           aggregate(ds, "k", ("sum", "v"), ("count",)).take_all()}
    assert got == {1: (None, 2), None: (7, 2), 2: (None, 1)}


def test_aggregate_empty_input_matches_native(ray_session, table):
    import ray

    from webtext.exchange import aggregate

    for ds in (ray.data.from_arrow(table.slice(0, 0)),
               ray.data.from_arrow(table).repartition(4)
               .filter(expr="k < -1")):
        got = aggregate(ds, "k", ("sum", "v"))
        assert got.take_all() == ds.groupby("k").sum("v").take_all() == []
        assert got.count() == 0


def test_aggregate_over_schemaless_empty_blocks(ray_session):
    """A repartition of a few rows into many blocks leaves 0-row blocks
    with no columns; the combiner skips them."""
    import ray

    from webtext.exchange import aggregate

    ds = ray.data.from_arrow(pa.table({"k": [1, 2, 1], "v": [5, 6, 7]})) \
        .repartition(8).materialize()
    got = sorted((r["k"], r["sum(v)"])
                 for r in aggregate(ds, "k", ("sum", "v")).take_all())
    assert got == [(1, 12), (2, 6)]


def test_aggregate_float_sum_raises(ray_session, table):
    """Arrow's float summation order is not Ray's: fail loud."""
    import ray

    from webtext.exchange import aggregate

    ds = ray.data.from_arrow(table)
    with pytest.raises(Exception, match=r"TypeError: [^\n]*floating-point"):
        aggregate(ds, "k", ("sum", "f")).take_all()


def test_aggregate_rejects_bad_specs():
    from webtext.exchange import aggregate

    for specs in ([("mean", "v")], [("sum",)], [("count", "v")], []):
        with pytest.raises(ValueError):
            aggregate(None, "k", *specs)


def test_key_bucket_is_deterministic_and_spread():
    """The bucket of a key depends only on the key, not on the rest of
    the batch, and small int keys spread over many buckets."""
    from webtext.exchange import N_SHUFFLE_BUCKETS, _key_bucket

    t = pa.table({"a": pa.array(np.arange(2000) * 2),
                  "s": pa.array([f"x{i % 7}" for i in range(2000)]),
                  "ts": pa.array(np.arange(2000).astype("datetime64[us]"))})
    whole = _key_bucket(t, ["a", "s", "ts"])
    parts = np.concatenate([_key_bucket(t.slice(i, 250), ["a", "s", "ts"])
                            for i in range(0, 2000, 250)])
    assert (whole == parts).all()
    assert ((0 <= whole) & (whole < N_SHUFFLE_BUCKETS)).all()
    assert len(np.unique(_key_bucket(t, ["a"]))) > N_SHUFFLE_BUCKETS // 2


def _calls() -> list[tuple[str, str, ast.Call]]:
    """(path, enclosing function, node) of every call under webtext/ —
    paths relative to webtext/ — and in ``__ray_entry__.py``."""
    import webtext

    root = pathlib.Path(webtext.__file__).parent
    files = [(p.relative_to(root).as_posix(), p)
             for p in sorted(root.rglob("*.py"))]
    files.append(("__ray_entry__.py", root.parent / "__ray_entry__.py"))
    found = []
    for rel, path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            fn, p = "<module>", parents.get(node)
            while p is not None:
                if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = p.name
                    break
                p = parents.get(p)
            found.append((rel, fn, node))
    return found


def _is_groupby(node) -> bool:
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "groupby"


def _keyed_native_aggregates() -> list[tuple[str, str, int]]:
    """(module path, enclosing function, line) of every
    ``<x>.groupby(...).<agg>(...)`` call under webtext/ and in
    ``__ray_entry__.py``."""
    return [(rel, fn, node.lineno) for rel, fn, node in _calls()
            if node.func.attr in _KEYED_AGGS
            and _is_groupby(node.func.value)]


def test_no_keyed_native_aggregate_outside_allowlist():
    """Every keyed aggregate under webtext/ and in the query entry
    module goes through ``exchange.aggregate``; Ray 2.49's native ones
    walk rows in Python on both sides of their exchange.  Only listed
    float sums stay."""
    offenders = [f"{rel}:{line} ({fn})"
                 for rel, fn, line in _keyed_native_aggregates()
                 if (rel, fn) not in NATIVE_AGGREGATE_ALLOWLIST]
    assert offenders == []
    listed = {(rel, fn) for rel, fn, _ in _keyed_native_aggregates()}
    assert set(NATIVE_AGGREGATE_ALLOWLIST) <= listed, \
        "stale allowlist entries"
    assert all(reason.strip()
               for reason in NATIVE_AGGREGATE_ALLOWLIST.values())


# Modules under webtext/ that still call Ray Data's sort-based
# ``map_groups``, ``repartition`` or Dataset ``groupby``, each with its
# reason.  A module leaves the list when its family moves onto the hash
# exchange; the list only shrinks.
SORT_SHUFFLE_ALLOWLIST: dict[str, str] = {
    "functions/ann.py": "not yet moved",
    "functions/curation.py": "not yet moved",
    "functions/dedup.py": "not yet moved",
    "functions/events.py": "not yet moved",
    "functions/graph.py": "not yet moved",
    "functions/lm.py": "not yet moved",
    "functions/media.py": "not yet moved",
    "functions/sketches.py": "not yet moved",
    "functions/textstats.py": "not yet moved",
    "jobs/compact.py": "compaction's repartition sets its output file "
                       "count",
    "pipelines/links.py": "not yet moved",
    "pipelines/relational.py": "not yet moved",
    "pipelines/webgraph.py": "not yet moved",
}


def _sort_shuffle_modules() -> set[str]:
    """Modules under webtext/ that call ``.map_groups(``,
    ``.repartition(`` or a Dataset ``.groupby(`` (one whose result is
    grouped-mapped or aggregated, unlike a pandas ``groupby().size()``)."""
    return {rel for rel, _, node in _calls()
            if rel != "__ray_entry__.py"
            and (node.func.attr in ("map_groups", "repartition")
                 or (node.func.attr in _KEYED_AGGS
                     and _is_groupby(node.func.value)))}


def test_no_sort_shuffle_outside_allowlist():
    """No module outside SORT_SHUFFLE_ALLOWLIST runs Ray Data's
    sort-based all-to-all operators; the tpch family is off them."""
    found = _sort_shuffle_modules()
    assert "pipelines/tpch.py" not in SORT_SHUFFLE_ALLOWLIST
    assert sorted(found - set(SORT_SHUFFLE_ALLOWLIST)) == []
    assert sorted(set(SORT_SHUFFLE_ALLOWLIST) - found) == [], \
        "stale allowlist entries"


# -- join -------------------------------------------------------------------

_JOIN_TYPES = {"inner": "inner", "left": "left outer", "semi": "left semi",
               "anti": "left anti"}


@pytest.fixture(scope="module")
def join_sides() -> dict:
    """Left rows with null int and string keys, and per key shape a
    right side with unique keys, a null-key row and keys the left
    lacks."""
    rng = np.random.default_rng(11)
    n = 400
    left = pa.table({
        "k": pa.array(rng.integers(0, 60, n), mask=rng.random(n) < 0.05),
        "s": pa.array([f"s{x}" for x in rng.integers(0, 40, n)],
                      mask=rng.random(n) < 0.05),
        "v": pa.array(np.arange(n)),
    })
    ks = rng.permutation(80)[:50]
    pairs = sorted({(int(a), f"s{b}") for a, b in zip(
        rng.integers(0, 60, 300), rng.integers(0, 40, 300))})
    return {
        "int": (left, pa.table({
            "rk": pa.array(list(ks) + [None], pa.int64()),
            "a": pa.array(list(ks * 10) + [7], pa.int64()),
            "t": [f"t{x}" for x in ks] + ["tnull"]}), "k", "rk"),
        "string": (left, pa.table({
            "rs": pa.array([f"s{x}" for x in range(0, 50, 2)] + [None]),
            "a": pa.array(list(range(25)) + [99], pa.int64()),
            "t": [f"u{x}" for x in range(26)]}), "s", "rs"),
        "two-column": (left, pa.table({
            "k": pa.array([p[0] for p in pairs] + [None], pa.int64()),
            "s": [p[1] for p in pairs] + ["s1"],
            "a": pa.array(range(len(pairs) + 1), pa.int64()),
            "t": [f"w{i}" for i in range(len(pairs) + 1)]}),
            ["k", "s"], ["k", "s"]),
    }


def _reference_join(lt: pa.Table, rt: pa.Table, on, right_on, how: str,
                    attach: dict) -> pa.Table:
    """``pa.Table.join`` with the right keys renamed to the left's."""
    on = [on] if isinstance(on, str) else on
    right_on = [right_on] if isinstance(right_on, str) else right_on
    cols = list(right_on) + list(attach)
    rt = rt.select(cols).rename_columns(list(on) + list(attach.values()))
    return lt.join(rt, keys=on, join_type=_JOIN_TYPES[how],
                   coalesce_keys=True, use_threads=False)


def _run_join(lt, rt, on, right_on, how, attach, route, n_left=5,
              n_right=3):
    import ray

    from webtext.exchange import join

    left = ray.data.from_arrow(lt).repartition(n_left)
    right = ray.data.from_arrow(rt).repartition(n_right)
    return join(left, right, on, right_on=right_on, how=how,
                attach=attach, right_rows=rt.num_rows,
                broadcast_max_rows=rt.num_rows if route == "broadcast"
                else 0)


@pytest.mark.parametrize("route", ["broadcast", "bucketed"])
@pytest.mark.parametrize("key", ["int", "string", "two-column"])
def test_join_matches_arrow_reference(ray_session, join_sides, key,
                                      route):
    """Every ``how`` on both routes equals Arrow's hash join: null keys
    never match, ``left`` pads with nulls, semi/anti keep left rows."""
    lt, rt, on, right_on = join_sides[key]
    for how in _JOIN_TYPES:
        attach = {} if how in ("semi", "anti") else {"a": "a", "t": "t2"}
        got = _run_join(lt, rt, on, right_on, how, attach, route)
        want = _reference_join(lt, rt, on, right_on, how, attach)
        assert sorted(got.columns()) == sorted(want.column_names), how
        assert _rows(got) == sorted(
            tuple(sorted((k, repr(v)) for k, v in r.items()))
            for r in want.to_pylist()), how


@pytest.mark.parametrize("route", ["broadcast", "bucketed"])
def test_join_one_block_each_side(ray_session, join_sides, route):
    lt, rt, on, right_on = join_sides["int"]
    for how in ("inner", "left"):
        got = _run_join(lt, rt, on, right_on, how, ["a"], route, 1, 1)
        want = _reference_join(lt, rt, on, right_on, how, {"a": "a"})
        assert _rows(got) == sorted(
            tuple(sorted((k, repr(v)) for k, v in r.items()))
            for r in want.to_pylist())


@pytest.mark.parametrize("route", ["broadcast", "bucketed"])
def test_join_empty_sides_and_schemaless_blocks(ray_session, route):
    """An empty side, and sides of a few rows spread over many blocks
    (0-row blocks with no columns), on both routes."""
    import ray

    from webtext.exchange import join

    gate = 10 if route == "broadcast" else 0
    lt = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "v": [1, 2, 3]})
    rt = pa.table({"k": pa.array([2, 3], pa.int64()), "a": [20, 30]})
    empty = ray.data.from_arrow(lt).filter(expr="k < 0")

    def sparse(t: pa.Table):
        return ray.data.from_arrow(t).repartition(8).materialize()

    def run(left, right, how, attach=()):
        return sorted(tuple(r.values()) for r in join(
            left, right, "k", how=how, attach=attach, right_rows=2,
            broadcast_max_rows=gate).take_all())

    assert run(sparse(lt), sparse(rt), "inner", ["a"]) == [(2, 2, 20),
                                                          (3, 3, 30)]
    assert run(sparse(lt), sparse(rt), "anti") == [(1, 1)]
    assert run(empty, sparse(rt), "inner", ["a"]) == []
    assert run(sparse(lt), empty.select_columns(["k"]), "semi") == []
    assert run(sparse(lt), empty.select_columns(["k"]), "anti") \
        == [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("route", ["broadcast", "bucketed"])
def test_join_duplicate_right_key_raises(ray_session, route):
    import ray

    from webtext.exchange import join

    left = ray.data.from_items([{"k": 1}, {"k": 2}])
    right = ray.data.from_items([{"k": 2, "a": 1}, {"k": 2, "a": 2}])
    with pytest.raises(Exception, match="duplicate right key"):
        join(left, right, "k", attach=["a"], right_rows=2,
             broadcast_max_rows=2 if route == "broadcast" else 0) \
            .take_all()
    # semi/anti only test membership: duplicates are fine
    assert join(left, right, "k", how="semi", right_rows=2,
                broadcast_max_rows=2 if route == "broadcast" else 0) \
        .take_all() == [{"k": 2}]


def test_join_rejects_bad_arguments():
    from webtext.exchange import join

    for kwargs in ({"how": "outer"}, {"how": "semi", "attach": ["a"]},
                   {"right_on": ["a", "b"]}):
        with pytest.raises(ValueError):
            join(None, None, "k", **kwargs)


def test_join_route_record_flips_with_gate(ray_session, monkeypatch,
                                           capsys):
    """WEBTEXT_TRACE_ROUNDS prints the route, the row bound and the gate
    in graph._local_route's format."""
    import ray

    from webtext.exchange import join

    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    left = ray.data.from_items([{"k": 1}])
    right = ray.data.from_items([{"k": 1, "a": 5}])
    for gate in (10, 0):
        assert join(left, right, "k", attach=["a"], right_rows=1,
                    broadcast_max_rows=gate).take_all() \
            == [{"k": 1, "a": 5}]
    join(left, right, "k", how="semi")
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("[join]")]
    assert lines == ["[join] route=broadcast rows=1 gate=10",
                     "[join] route=bucketed rows=1 gate=0",
                     "[join] route=bucketed rows=None gate=4000000"]


def test_join_broadcast_runs_the_right_plan_once(ray_session, tmp_path):
    """The broadcast collect materializes a lazy right side before
    reading its block refs, so its plan runs once per block — no second
    ``limit(1)`` schema run, whose task cancels can abort Ray's core
    worker."""
    import ray

    from webtext.exchange import join

    log = tmp_path / "calls"

    def counted(batch: pa.Table, *, _log=str(log)) -> pa.Table:
        with open(_log, "a", encoding="utf-8") as f:
            f.write("x\n")
        return batch

    right = ray.data.from_items(
        [{"k": i, "a": 10 * i} for i in range(30)], override_num_blocks=3) \
        .map_batches(counted, batch_format="pyarrow")
    left = ray.data.from_items([{"k": i} for i in range(0, 40, 4)])
    got = join(left, right, "k", attach=["a"], right_rows=30).take_all()
    assert sorted(r["a"] for r in got) == [10 * i for i in range(0, 30, 4)]
    assert log.read_text().count("x") == 3


def _near_dup_corpus(n: int = 120) -> pa.Table:
    """Documents in families of near-duplicates (a few words swapped)
    plus unrelated ones."""
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(400)]
    ids, texts = [], []
    for d in range(n):
        fam = rng.integers(0, n // 3)
        base = np.random.default_rng(int(fam)).choice(vocab, 40)
        words = base.copy()
        flip = rng.random(40) < 0.08
        words[flip] = rng.choice(vocab, int(flip.sum()))
        ids.append(d)
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts,
                     "extra": [f"x{i}" for i in ids]})


def test_minhash_verify_routes_identical(ray_session, monkeypatch):
    """minhash_lsh_pairs and dedup_apply over a materialized multi-block
    corpus give the same rows on the broadcast and the bucketed verify,
    and dedup_apply over the lazy corpus agrees."""
    import ray

    from webtext.functions import dedup

    ds = ray.data.from_arrow(_near_dup_corpus()).repartition(6) \
        .materialize()

    def run(gate):
        monkeypatch.setattr(dedup, "TEXT_BROADCAST_MAX_BYTES", gate)
        return (_rows(dedup.minhash_lsh_pairs(ds)),
                _rows(dedup.dedup_apply(ds)))

    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    broadcast = run(1 << 40)
    assert broadcast == run(0)
    assert len(broadcast[0]) > 20 and 0 < len(broadcast[1]) < 120
    assert _rows(dedup.dedup_apply(
        ray.data.from_arrow(_near_dup_corpus()).repartition(4))) \
        == broadcast[1]


def test_dedup_extracted_routes_identical(ray_session, monkeypatch,
                                          tmp_path):
    """dedup_extracted over a multi-file committed output: the same
    survivors with the docs materialized and broadcast, and not."""
    from webtext.functions import dedup
    from webtext.pipelines import run_extraction
    from webtext.pipelines.dedup_pipeline import dedup_extracted
    from webtext.synth import write_corpus

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    write_corpus(inp, n_per_family=4, seed=13, rows_per_file=20)
    run_extraction(inp, out, shards_per_round=2)
    want = sorted(r["doc_id"] for r in dedup_extracted(out).take_all())
    monkeypatch.setattr(dedup, "TEXT_BROADCAST_MAX_BYTES", 0)
    assert sorted(r["doc_id"] for r in dedup_extracted(out).take_all()) \
        == want
    assert want


def test_verify_spreads_many_text_bytes_over_the_cpus(ray_session,
                                                      monkeypatch):
    """A verify whose candidate keys fit one block but whose texts sum
    past one target_min_block_size scores on one block per CPU; a small
    one scores in one block.  Both keep the pairs a direct word Jaccard
    keeps, as the bucketed text route does."""
    import ray

    from webtext.exchange import _n_parts
    from webtext.functions import dedup

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, 120)) for _ in range(200)]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(200), pa.int64()), "text": texts})) \
        .repartition(3).materialize()
    left, right = np.triu_indices(200, 1)
    target = ray.data.DataContext.get_current().target_min_block_size

    def similar(a, b):
        inter, union = dedup.word_jaccard(texts[a], texts[b])
        return inter / union >= 0.25

    def run(n):
        pairs = ray.data.from_arrow(pa.table({
            "left_id": left[:n], "right_id": right[:n]})).materialize()
        out = dedup._jaccard_verify_pairs(pairs, docs, 0.25).materialize()
        want = sorted((int(a), int(b)) for a, b in zip(left[:n], right[:n])
                      if similar(a, b))
        got = sorted((r["left_id"], r["right_id"]) for r in out.take_all())
        assert got == want and want
        return out.num_blocks(), pairs.size_bytes(), got

    mean = docs.size_bytes() / 200
    many, key_bytes, got = run(3000)
    assert key_bytes < target < 3000 * 2 * mean
    assert many == _n_parts() > 1
    few, _, _ = run(200)
    assert 200 * 2 * mean < target and few == 1
    monkeypatch.setattr(dedup, "TEXT_BROADCAST_MAX_BYTES", 0)
    assert run(3000)[2] == got


def test_pair_text_join_is_gone():
    """The MinHash verify attaches texts through exchange.join; the
    hand-written emit-union text join it replaced stays deleted."""
    import webtext
    from webtext.functions import dedup

    assert not hasattr(dedup, "_pair_text_join")
    root = pathlib.Path(webtext.__file__).parent
    assert not [p for p in root.rglob("*.py")
                if "_pair_text_join" in p.read_text(encoding="utf-8")]


# -- the hash exchange --------------------------------------------------------

def _counted(log: str):
    """An identity batch UDF that appends one line to ``log`` per call."""
    def counted(batch: pa.Table, *, _log=log) -> pa.Table:
        with open(_log, "a", encoding="utf-8") as f:
            f.write("x\n")
        return batch
    return counted


def _band_rows_table(n_docs: int = 300) -> pa.Table:
    """A band table whose (band_id, band_hash) cells hold several docs."""
    rng = np.random.default_rng(3)
    n = n_docs * 4
    return pa.table({
        "doc_id": pa.array(np.repeat(np.arange(n_docs), 4), pa.int64()),
        "band_id": pa.array(np.tile(np.arange(4), n_docs), pa.int32()),
        "band_hash": pa.array(rng.integers(0, 60, n), pa.int64())})


def _old_band_route(bands):
    """band_candidates as it ran before the hash exchange: one Ray Data
    ``groupby(bucket).map_groups`` over the same buckets and cell."""
    from webtext.functions.dedup import _band_cut, _band_pairs

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bucket", pa.array(_band_cut(batch, "band_hash")[1]))

    return bands.map_batches(tag, batch_format="pyarrow") \
        .groupby("bucket").map_groups(
            lambda g: _band_pairs(g, "band_hash"), batch_format="pyarrow")


@pytest.mark.parametrize("n_parts", [1, 2, None])
def test_exchange_matches_the_old_route(ray_session, monkeypatch, table,
                                        join_sides, n_parts):
    """At P forced to 1 (the fused task), 2 and the cluster's CPU count
    (None; these inputs are under one target block), aggregate equals
    the native aggregate, the bucketed join equals Arrow's join for
    every ``how``, and band_candidates emits the same pairs, with the
    same repeats, as the groupby route; each result has P blocks."""
    import ray

    from webtext import exchange
    from webtext.functions.dedup import band_candidates

    monkeypatch.setattr(exchange, "_size_parts",
                        lambda nbytes, cpus: n_parts or cpus)
    n = n_parts or exchange._n_parts()
    ds = ray.data.from_arrow(table).repartition(5).materialize()
    got = exchange.aggregate(ds, ["k", "s"], ("count",), ("sum", "v"))
    want = ds.groupby(["k", "s"]).aggregate(_agg("Count"), _agg("Sum", "v"))
    assert _rows(got) == _rows(want) and got.num_blocks() == n
    lt, rt, on, right_on = join_sides["two-column"]
    for how in _JOIN_TYPES:
        attach = {} if how in ("semi", "anti") else {"a": "a", "t": "t2"}
        got = _run_join(lt, rt, on, right_on, how, attach, "bucketed")
        assert got.num_blocks() == n, how
        assert _rows(got) == sorted(
            tuple(sorted((k, repr(v)) for k, v in r.items()))
            for r in _reference_join(lt, rt, on, right_on, how,
                                     attach).to_pylist()), how
    bands = ray.data.from_arrow(_band_rows_table()).repartition(4) \
        .materialize()
    got = band_candidates(bands)
    pairs = _rows(got)
    assert pairs == _rows(_old_band_route(bands)) and len(pairs) > 100
    assert got.num_blocks() == n


def test_bucketed_join_right_only_partitions_keep_the_schema(ray_session,
                                                            monkeypatch):
    """A partition holding right rows only returns 0 rows with the left
    schema plus the attach columns, not a column-less table (P forced
    to the CPU count: these sides are under one target block)."""
    import ray

    from webtext import exchange
    from webtext.exchange import _n_parts, join

    monkeypatch.setattr(exchange, "_size_parts", lambda nbytes, cpus: cpus)
    left = ray.data.from_arrow(pa.table({"k": pa.array([7], pa.int64()),
                                         "v": ["x"]}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(range(200), pa.int64()),
        "a": pa.array(range(200), pa.int64())})).repartition(3)
    for how, attach, names in (("inner", ["a"], ["k", "v", "a"]),
                               ("left", ["a"], ["k", "v", "a"]),
                               ("semi", [], ["k", "v"])):
        out = join(left, right, "k", how=how, attach=attach)
        blocks = ray.get(out.to_arrow_refs())
        assert len(blocks) == _n_parts() > 1
        assert sum(b.num_rows for b in blocks) == 1
        for b in blocks:
            assert b.column_names == names, how
            assert b.schema.field("k").type == pa.int64()
            if attach:
                assert b.schema.field("a").type == pa.int64()


def test_bucketed_join_ignores_the_schema_of_empty_blocks(ray_session):
    """Ray 2.49's ``select_columns`` returns a 0-row block unprojected,
    so an empty block's schema can still hold a dropped column; the
    exchange takes its schema from the blocks with rows."""
    import ray
    import pyarrow.compute as pc

    from webtext.exchange import join

    left = ray.data.from_items(
        [{"k": i, "x": f"x{i}"} for i in range(40)], override_num_blocks=4) \
        .map_batches(lambda b: b.filter(pc.less(b["k"], 15)),
                     batch_format="pyarrow").select_columns(["k"])
    right = ray.data.from_items([{"k": i, "a": 2 * i} for i in range(10)])
    for how, attach, names in (("inner", ["a"], ["k", "a"]),
                               ("anti", [], ["k"])):
        out = join(left, right, "k", how=how, attach=attach)
        assert out.count() == (10 if how == "inner" else 5)
        assert {tuple(b.column_names)
                for b in ray.get(out.to_arrow_refs())} == {tuple(names)}


def test_exchange_over_zero_blocks(ray_session):
    """An input with no blocks at all gives an empty result."""
    import ray

    from webtext.exchange import aggregate, join
    from webtext.functions.dedup import band_candidates

    empty = ray.data.from_arrow_refs([])
    assert empty.num_blocks() == 0
    assert aggregate(empty, "k", ("count",)).take_all() == []
    assert band_candidates(empty).count() == 0
    right = ray.data.from_items([{"k": 1, "a": 2}])
    assert join(empty, right, "k", attach=["a"]).take_all() == []
    assert join(ray.data.from_items([{"k": 1}]), empty, "k",
                how="anti").take_all() == [{"k": 1}]


def test_exchange_runs_a_lazy_plan_once_per_block(ray_session, tmp_path,
                                                  monkeypatch, capsys):
    """Every block of a lazy input is computed once: by the exchange,
    by graph._LocalFanout.collect and by graph._rebind, none of which
    re-runs the plan under a ``limit(1)`` schema probe (the exchange
    with P forced to the CPU count: this input is under one target
    block).  The exchange prints its trace line with the bytes its
    blocks carry."""
    import ray

    from webtext import exchange
    from webtext.exchange import _n_parts, aggregate
    from webtext.functions import graph

    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    monkeypatch.setattr(exchange, "_size_parts", lambda nbytes, cpus: cpus)

    def lazy(name: str):
        log = tmp_path / name
        log.touch()
        ds = ray.data.from_items(
            [{"node": i % 13, "outdeg": i} for i in range(60)],
            override_num_blocks=3).map_batches(
                _counted(str(log)), batch_format="pyarrow")
        return ds, log

    ds, log = lazy("aggregate")
    assert len(aggregate(ds, "node", ("count",)).take_all()) == 13
    assert log.read_text().count("x") == 3
    traced = [re.fullmatch(r"\[exchange\] op=aggregate blocks=3 "
                           rf"bytes=(\d+) parts={_n_parts()}", ln)
              for ln in capsys.readouterr().err.splitlines()]
    nbytes = [int(m[1]) for m in traced if m]
    assert len(nbytes) == 1 and nbytes[0] > 0
    ds, log = lazy("collect")
    fan = graph._LocalFanout.collect(ds, ("node", "outdeg"),
                                     graph._inflow_kernel)
    assert len(fan.sn) == 60 and log.read_text().count("x") == 3
    ds, log = lazy("rebind")
    assert graph._rebind(ds).count() == 60
    assert log.read_text().count("x") == 3


def _exchange_trace(err: str) -> list:
    """(op, blocks, bytes, parts) of each ``[exchange]`` trace line."""
    return [m.groups() for m in map(re.compile(
        r"\[exchange\] op=(\w+) blocks=(\d+) bytes=(\w+) parts=(\d+)")
        .fullmatch, err.splitlines()) if m]


def test_size_parts_is_one_within_a_target_block_else_the_cpus(
        monkeypatch):
    """P = 1 while the bytes fit in one target_min_block_size, else the
    CPU count; a block of unknown size gives the CPU count; the target
    is Ray Data's, read at call time."""
    from ray.data import DataContext

    from webtext.exchange import _size_parts

    target = DataContext.get_current().target_min_block_size
    for nbytes, want in ((0, 1), (1, 1), (target, 1), (target + 1, 4),
                         (100 * target, 4), (None, 4)):
        assert _size_parts(nbytes, 4) == want, nbytes
    assert _size_parts(None, 1) == _size_parts(100 * target, 1) == 1
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        100)
    assert (_size_parts(100, 4), _size_parts(101, 4)) == (1, 4)


def test_small_exchange_is_one_fused_task(ray_session, monkeypatch,
                                          tmp_path, capsys):
    """An input under one target block runs as one raw task, which cuts
    every block and calls the cell once, and gives one block.  Forced to
    the CPU count, the same rows take one split task per block and one
    reduce task per partition."""
    import ray

    from webtext import exchange

    log = tmp_path / "tasks"

    def logged(fn, tag: str):
        def run(*args, _fn=fn, _tag=tag, _log=str(log), **kw):
            import ray as _ray

            with open(_log, "a", encoding="utf-8") as f:
                f.write(f"{_tag} "
                        f"{_ray.get_runtime_context().get_task_id()}\n")
            return _fn(*args, **kw)
        return run

    monkeypatch.setattr(exchange, "_partial",
                        logged(exchange._partial, "cut"))
    monkeypatch.setattr(exchange, "_combine",
                        logged(exchange._combine, "cell"))
    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    ds = ray.data.from_items([{"k": i % 40, "v": i} for i in range(200)],
                             override_num_blocks=3).materialize()
    want = [(k, sum(range(k, 200, 40))) for k in range(40)]

    def run():
        log.write_text("")
        out = exchange.aggregate(ds, "k", ("sum", "v"))
        rows = sorted((r["k"], r["sum(v)"]) for r in out.take_all())
        calls = [ln.split() for ln in log.read_text().splitlines()]
        return (rows, out.num_blocks(), sorted(t for t, _ in calls),
                len({task for _, task in calls}))

    assert run() == (want, 1, ["cell", "cut", "cut", "cut"], 1)
    (trace,) = _exchange_trace(capsys.readouterr().err)
    assert trace[:2] == ("aggregate", "3") and trace[3] == "1"
    assert 0 < int(trace[2]) < ray.data.DataContext.get_current() \
        .target_min_block_size
    cpus = exchange._n_parts()
    monkeypatch.setattr(exchange, "_size_parts", lambda nbytes, c: c)
    assert run() == (want, cpus, ["cell"] * cpus + ["cut"] * 3, 3 + cpus)


def test_exchange_over_one_target_block_cuts_one_part_per_cpu(
        ray_session, monkeypatch, tmp_path, capsys):
    """Real blocks whose sizes sum past one target_min_block_size: P is
    the CPU count, and the aggregate is exact.  The exchange holds
    blocks only until one target's worth has arrived: the blocks before
    the last are being cut before the input yields its last block."""
    import time
    import types

    import ray

    from webtext import exchange
    from webtext.exchange import _n_parts, aggregate

    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    log = tmp_path / "cuts"
    log.touch()

    def logged(*args, _fn=exchange._partial, _log=str(log), **kw):
        with open(_log, "a", encoding="utf-8") as f:
            f.write("x\n")
        return _fn(*args, **kw)

    monkeypatch.setattr(exchange, "_partial", logged)
    cpus = _n_parts()
    target = ray.data.DataContext.get_current().target_min_block_size
    rows = target // 16 // 5 + 1     # two int64 columns: 5 blocks pass it
    ds = ray.data.from_arrow([pa.table({
        "k": pa.array(np.arange(b * rows, (b + 1) * rows) % 997),
        "v": pa.array(np.ones(rows, dtype=np.int64))}) for b in range(6)])
    cut_first = []

    class LastBlockWaits:
        """``ds`` one block per bundle; the last block is yielded once a
        cut has run, or after 60 s."""
        def iter_internal_ref_bundles(self):
            blocks = [b for bundle in ds.iter_internal_ref_bundles()
                      for b in bundle.blocks]
            for b in blocks[:-1]:
                yield types.SimpleNamespace(blocks=[b])
            deadline = time.monotonic() + 60
            while not log.read_text() and time.monotonic() < deadline:
                time.sleep(0.05)
            cut_first.append(bool(log.read_text()))
            yield types.SimpleNamespace(blocks=blocks[-1:])

    out = aggregate(LastBlockWaits(), "k", ("sum", "v"))
    assert cut_first == [True]
    assert out.num_blocks() == cpus
    got = {r["k"]: r["sum(v)"] for r in out.take_all()}
    assert len(got) == 997 and sum(got.values()) == 6 * rows
    (trace,) = _exchange_trace(capsys.readouterr().err)
    assert trace[:2] == ("aggregate", "6") and trace[3] == str(cpus)
    assert int(trace[2]) > target


def test_block_of_unknown_size_gives_one_part_per_cpu(ray_session,
                                                      monkeypatch, capsys):
    """A block whose metadata has no ``size_bytes`` makes P the CPU
    count, however few bytes the other blocks hold."""
    import types

    import ray
    from ray.data.block import BlockMetadata

    from webtext.exchange import _n_parts, aggregate

    monkeypatch.setenv("WEBTEXT_TRACE_ROUNDS", "1")
    ds = ray.data.from_items([{"k": i % 40} for i in range(200)],
                             override_num_blocks=2).materialize()

    class LastUnsized:
        def iter_internal_ref_bundles(self):
            blocks = [b for bundle in ds.iter_internal_ref_bundles()
                      for b in bundle.blocks]
            ref, meta = blocks[-1]
            blocks[-1] = (ref, BlockMetadata(
                num_rows=meta.num_rows, size_bytes=None, exec_stats=None,
                input_files=None))
            yield types.SimpleNamespace(blocks=blocks)

    out = aggregate(LastUnsized(), "k", ("count",))
    assert out.num_blocks() == _n_parts()
    assert sorted((r["k"], r["count()"]) for r in out.take_all()) \
        == [(k, 5) for k in range(40)]
    assert _exchange_trace(capsys.readouterr().err) \
        == [("aggregate", "2", "None", str(_n_parts()))]


@pytest.mark.parametrize("n_parts", [1, None])
def test_exchange_over_empty_inputs(ray_session, monkeypatch, n_parts):
    """Zero blocks, 0-row column-less blocks and a right side with no
    rows, through the fused task (P = 1) and through the split and
    reduce tasks (P = the CPU count)."""
    import ray

    from webtext import exchange
    from webtext.functions.dedup import band_candidates

    monkeypatch.setattr(exchange, "_size_parts",
                        lambda nbytes, cpus: n_parts or cpus)
    empty = ray.data.from_arrow_refs([])
    assert exchange.aggregate(empty, "k", ("count",)).take_all() == []
    assert band_candidates(empty).count() == 0

    def sparse(t: pa.Table):
        return ray.data.from_arrow(t).repartition(8).materialize()

    lt = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "v": [1, 2, 3]})
    rt = pa.table({"k": pa.array([2, 3], pa.int64()), "a": [20, 30]})
    no_rows = sparse(rt).filter(expr="k < 0")
    assert sorted(tuple(r.values()) for r in exchange.aggregate(
        sparse(lt), "k", ("sum", "v")).take_all()) == [(1, 1), (2, 2),
                                                       (3, 3)]

    def run(right, how, attach=()):
        return sorted(tuple(r.values()) for r in exchange.join(
            sparse(lt), right, "k", how=how, attach=attach).take_all())

    assert run(sparse(rt), "inner", ["a"]) == [(2, 2, 20), (3, 3, 30)]
    assert run(no_rows, "inner", ["a"]) == []
    assert run(no_rows, "left", ["a"]) == [(1, 1, None), (2, 2, None),
                                           (3, 3, None)]
    assert run(no_rows, "anti") == run(empty, "anti") \
        == [(1, 1), (2, 2), (3, 3)]
    assert run(empty, "semi") == []


def test_exchange_module_has_no_groupby():
    """Every exchange in exchange.py is the raw-task hash exchange; no
    Ray Data sort-based groupby is left in it."""
    import webtext.exchange as exchange

    assert "groupby(" not in pathlib.Path(exchange.__file__).read_text(
        encoding="utf-8")


def _combiner():
    """A per-block combiner: (k, v) rows → one (k, n, v2) row per key,
    n its rows and v2 the sum of 2·v (a closure, so Ray pickles it by
    value)."""
    def combine(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pa.table({"k": batch.column("k"),
                      "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                      "v2": pc.multiply(batch.column("v"), 2)})
        out = t.group_by("k").aggregate([("n", "sum"), ("v2", "sum")])
        return pa.table({"k": out.column("k"), "n": out.column("n_sum"),
                         "v2": out.column("v2_sum")})
    return combine


@pytest.mark.parametrize("n_parts", [1, None])
def test_named_premapped_aggregate_matches_the_map_form(
        ray_session, monkeypatch, table, n_parts):
    """``aggregate(ds, …, pre=f, names=N)`` is row-identical to the old
    form, ``aggregate(ds.map_batches(f), …)`` then a
    ``rename_columns(N)`` map, at P = 1 and at P = the CPU count, and
    keeps P blocks."""
    import ray

    from webtext import exchange

    monkeypatch.setattr(exchange, "_size_parts",
                        lambda nbytes, cpus: n_parts or cpus)
    ds = ray.data.from_arrow(table.select(["k", "v"])).repartition(5) \
        .materialize()
    names = ["key", "rows", "twice_v"]
    specs = (("sum", "n"), ("sum", "v2"))
    old = exchange.aggregate(
        ds.map_batches(_combiner(), batch_format="pyarrow"), "k", *specs) \
        .map_batches(lambda b: b.rename_columns(names),
                     batch_format="pyarrow")
    new = exchange.aggregate(ds, "k", *specs, pre=_combiner(), names=names)
    assert _rows(new) == _rows(old) and len(_rows(new)) == 41
    assert new.num_blocks() == (n_parts or exchange._n_parts())
    with pytest.raises(ValueError, match="names"):
        exchange.aggregate(ds, "k", ("count",), names=["k"])


def test_bucketed_left_join_types_empty_attach_columns(ray_session,
                                                       monkeypatch):
    """A bucketed ``how="left"`` join whose right side holds one row:
    the partitions without it still type the attach column from the
    right side's schema, so every block's attach column is int64."""
    import ray

    from webtext import exchange

    monkeypatch.setattr(exchange, "_size_parts", lambda nbytes, cpus: cpus)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(range(40), pa.int64())}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([7], pa.int64()),
                                          "a": pa.array([70], pa.int64())}))
    out = exchange.join(left, right, "k", how="left", attach=["a"])
    blocks = ray.get(out.to_arrow_refs())
    assert len(blocks) == exchange._n_parts() > 1
    assert [b.schema.field("a").type for b in blocks] \
        == [pa.int64()] * len(blocks)
    assert sorted((r["k"], r["a"]) for r in out.take_all()) \
        == [(k, 70 if k == 7 else None) for k in range(40)]


def test_repeated_exchange_exports_no_function(ray_session, monkeypatch):
    """Each raw-task remote function is made once per process: a second
    ``aggregate`` call, on the fused task or on split and reduce tasks,
    pickles and exports no function."""
    import ray
    from ray._private.function_manager import FunctionActorManager

    from webtext import exchange

    exported = []
    real = FunctionActorManager.export
    monkeypatch.setattr(FunctionActorManager, "export",
                        lambda self, fn: (exported.append(
                            fn._function_name), real(self, fn))[1])
    ds = ray.data.from_items([{"k": i % 9} for i in range(90)],
                             override_num_blocks=3).materialize()
    for n_parts in (1, None):
        monkeypatch.setattr(exchange, "_size_parts",
                            lambda nbytes, cpus, _n=n_parts: _n or cpus)
        exchange.aggregate(ds, "k", ("count",))
        exported.clear()
        out = exchange.aggregate(ds, "k", ("count",))
        assert sorted(r["count()"] for r in out.take_all()) == [10] * 9
        assert exported == [], n_parts


# -- group_map ----------------------------------------------------------------

def _group_rows(ds) -> list:
    return sorted(tuple(r.values()) for r in ds.take_all())


def _cells() -> dict:
    """Two group cells (closures, so Ray pickles them by value): the
    group's rows with v > 0 each tagged with the group's size, and no
    rows."""
    def tag_positive(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kept = group.filter(pc.greater(group.column("v"), 0))
        return kept.append_column("n", pa.array(
            np.full(kept.num_rows, group.num_rows, np.int64)))

    def no_rows(group: pa.Table) -> pa.Table:
        return group.slice(0, 0)

    return {"tag_positive": tag_positive, "no_rows": no_rows}


@pytest.mark.parametrize("n_parts", [1, 2, None])
@pytest.mark.parametrize("on", ["k", "s", ["k", "s"]])
@pytest.mark.parametrize("cell", ["tag_positive", "no_rows"])
def test_group_map_matches_map_groups(ray_session, monkeypatch, n_parts,
                                      on, cell):
    """``group_map(ds, on, cell)`` gives the rows of Ray Data's
    ``groupby(on).map_groups(cell)`` at P = 1, 2 and the CPU count,
    with a cell that keeps rows and one that returns none."""
    import ray

    from webtext import exchange

    monkeypatch.setattr(exchange, "_size_parts",
                        lambda nbytes, cpus: n_parts or cpus)
    rng = np.random.default_rng(3)
    n = 600
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(rng.integers(0, 30, n)),
        "s": pa.array([f"s{x}" for x in rng.integers(0, 7, n)]),
        "v": pa.array(rng.integers(-5, 5, n))})).repartition(4) \
        .materialize()
    fn = _cells()[cell]
    want = _group_rows(ds.groupby(on).map_groups(fn,
                                                 batch_format="pyarrow"))
    got = exchange.group_map(ds, on, fn)
    assert _group_rows(got) == want
    assert (len(want) > 100) == (cell == "tag_positive")


def test_group_map_empty_input_and_null_keys(ray_session, monkeypatch):
    """An empty input gives no rows, as ``map_groups`` does; null keys
    form one group; ``on=()`` runs the cell once over every row, also
    when the exchange cuts P = CPUs partitions."""
    import ray

    from webtext import exchange

    empty = ray.data.from_items([{"k": 1, "v": 1}]) \
        .filter(lambda r: r["k"] < 0)
    tag_positive = _cells()["tag_positive"]
    assert exchange.group_map(empty, "k", tag_positive).take_all() \
        == empty.groupby("k").map_groups(
            tag_positive, batch_format="pyarrow").take_all() == []
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None, 2, None, 1], pa.int64()),
        "v": pa.array([1, 2, 3, 4, 5], pa.int64())}))

    def size(group: pa.Table) -> pa.Table:
        return pa.table({"k": group.column("k").slice(0, 1),
                         "n": [group.num_rows]})

    assert sorted((tuple(r.values()) for r in
                   exchange.group_map(ds, "k", size).take_all()),
                  key=repr) == sorted([(1, 2), (2, 1), (None, 2)], key=repr)
    assert _group_rows(exchange.group_map(ds, (), size)) == [(1, 5)]
    monkeypatch.setattr(exchange, "_size_parts", lambda nbytes, cpus: cpus)
    assert _group_rows(exchange.group_map(ds, (), size)) == [(1, 5)]
