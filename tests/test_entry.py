"""Driver-contract tests for __ray_entry__."""

import sys

import pytest

sys.path.insert(0, "/root/repo")

import __ray_entry__ as entrymod  # noqa: E402


def test_entry_runs_and_has_rows(ray_session):
    ds = entrymod.entry()
    rows = ds.take_all()
    assert len(rows) > 0
    assert {"doc_id", "spans", "status"} <= set(rows[0])
    assert all(r["status"] in ("ok", "timeout") for r in rows)


def test_queries_and_oracles_consistent():
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(qs)
    # since round 2 every query is oracle-checked: SQL-expressible ops
    # against live DuckDB SQL, the rest against committed golden parquet
    # (tools/gen_goldens.py) — including the sketches, whose outputs are
    # pure deterministic functions of the value set (differential HLL
    # golden since round 3).  Keep this equality exact so a new query
    # cannot silently ship without an oracle.
    assert set(qs) == set(oracles)


def test_golden_files_exist_for_driver_sf():
    import duckdb

    golden_sql = {k: v for k, v in entrymod.oracle_sql().items()
                  if "read_parquet" in v}
    assert len(golden_sql) >= 14
    con = duckdb.connect()
    for name, sql in golden_sql.items():
        n = con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
        assert n >= 0, name


@pytest.mark.parametrize("name", ["token_count", "group_counts",
                                  "exact_dedup", "knn_cosine"])
def test_query_smoke_sf0001(ray_session, name):
    out = entrymod.queries()[name]("/root/testdata/sf0.001")
    import pyarrow as pa

    if not isinstance(out, pa.Table):
        out = out.to_pandas()
        assert len(out) > 0
    else:
        assert out.num_rows > 0


def test_bench_iterates_the_query_registry():
    """bench.py times every registered query by iterating queries(); a
    hand-kept list of names would let a new query go unbenched."""
    import ast
    from pathlib import Path

    names = set(entrymod.queries())
    tree = ast.parse(
        (Path(entrymod.__file__).resolve().parent / "bench.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            listed = [e.value for e in node.elts
                      if isinstance(e, ast.Constant) and e.value in names]
            assert len(listed) < 2, (node.lineno, listed)
