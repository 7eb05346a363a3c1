"""``webtext.exchange.aggregate`` against Ray Data's native keyed
aggregates, and the pin that keeps the package on it."""

from __future__ import annotations

import ast
import datetime
import pathlib

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


def _keyed_native_aggregates() -> list[tuple[str, str, int]]:
    """(module path, enclosing function, line) of every
    ``<x>.groupby(...).<agg>(...)`` call under webtext/."""
    import webtext

    root = pathlib.Path(webtext.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _KEYED_AGGS):
                continue
            inner = node.func.value
            if not (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "groupby"):
                continue
            fn, p = "<module>", parents.get(node)
            while p is not None:
                if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = p.name
                    break
                p = parents.get(p)
            found.append((rel, fn, node.lineno))
    return found


def test_no_keyed_native_aggregate_outside_allowlist():
    """Every keyed aggregate under webtext/ goes through
    ``exchange.aggregate``; Ray 2.49's native ones walk rows in Python
    on both sides of their exchange.  Only listed float sums stay."""
    offenders = [f"{rel}:{line} ({fn})"
                 for rel, fn, line in _keyed_native_aggregates()
                 if (rel, fn) not in NATIVE_AGGREGATE_ALLOWLIST]
    assert offenders == []
    listed = {(rel, fn) for rel, fn, _ in _keyed_native_aggregates()}
    assert set(NATIVE_AGGREGATE_ALLOWLIST) <= listed, \
        "stale allowlist entries"
    assert all(reason.strip()
               for reason in NATIVE_AGGREGATE_ALLOWLIST.values())
