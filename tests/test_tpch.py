"""TPC-H-shaped relational ops: combiner aggregate, large-large join,
broadcast dimension enrichment."""

import numpy as np
import pyarrow as pa
import pytest


def test_pricing_summary_integer_cents(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import pricing_summary

    rows = [
        {"l_returnflag": "A", "l_linestatus": "F",
         "l_quantity": 3.0, "l_extendedprice": 10.005},
        {"l_returnflag": "A", "l_linestatus": "F",
         "l_quantity": 2.0, "l_extendedprice": 0.01},
        {"l_returnflag": "N", "l_linestatus": "O",
         "l_quantity": 7.0, "l_extendedprice": 99.99},
    ]
    got = {(r["l_returnflag"], r["l_linestatus"]):
           (r["sum_qty"], r["sum_base_cents"], r["n_rows"])
           for r in pricing_summary(ray.data.from_items(rows)).take_all()}
    # 10.005*100 = 1000.4999... in fp → half-away rounding on the FP
    # value, same in DuckDB
    want = {r[0:2]: tuple(r[2:]) for r in duckdb.sql(
        "SELECT l_returnflag, l_linestatus,"
        " CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT),"
        " CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT),"
        " count(*) FROM (SELECT unnest(['A','A','N']) l_returnflag,"
        " unnest(['F','F','O']) l_linestatus,"
        " unnest([3.0,2.0,7.0]) l_quantity,"
        " unnest([10.005,0.01,99.99]) l_extendedprice)"
        " GROUP BY 1,2").fetchall()}
    assert got == want


def test_order_line_join_inner_semantics(ray_session):
    import ray.data

    from webtext.pipelines.tpch import order_line_join

    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_custkey": 10},
        {"o_orderkey": 2, "o_custkey": 20},   # no lines → dropped
    ])
    lines = ray.data.from_items([
        {"l_orderkey": 1, "l_quantity": 5.0},
        {"l_orderkey": 1, "l_quantity": 7.0},
        {"l_orderkey": 99, "l_quantity": 1.0},  # no order → dropped
    ])
    got = {r["o_orderkey"]: (r["o_custkey"], r["n_lines"], r["sum_qty"])
           for r in order_line_join(orders, lines).take_all()}
    assert got == {1: (10, 2, 12)}


def test_order_line_join_invariant_under_repartition(ray_session):
    import ray.data

    from webtext.pipelines.tpch import order_line_join

    sf = "/root/testdata/sf0.001"
    o = ray.data.read_parquet(f"{sf}/orders.parquet",
                              columns=["o_orderkey", "o_custkey"])
    l = ray.data.read_parquet(f"{sf}/lineitem.parquet",
                              columns=["l_orderkey", "l_quantity"])
    a = sorted((r["o_orderkey"], r["n_lines"], r["sum_qty"])
               for r in order_line_join(o, l).take_all())
    b = sorted((r["o_orderkey"], r["n_lines"], r["sum_qty"])
               for r in order_line_join(o.repartition(5),
                                        l.repartition(7)).take_all())
    assert a == b and a


def test_region_customer_counts_broadcast(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import region_customer_counts

    sf = "/root/testdata/sf0.001"
    got = {r["r_name"]: r["n_customers"] for r in region_customer_counts(
        ray.data.read_parquet(f"{sf}/customer.parquet",
                              columns=["c_nationkey"]),
        ray.data.read_parquet(f"{sf}/nation.parquet"),
        ray.data.read_parquet(f"{sf}/region.parquet")).take_all()}
    want = dict(duckdb.sql(f"""
        SELECT r_name, count(*) FROM
          read_parquet('{sf}/customer.parquet') c
        JOIN read_parquet('{sf}/nation.parquet') n
          ON n.n_nationkey = c.c_nationkey
        JOIN read_parquet('{sf}/region.parquet') r
          ON r.r_regionkey = n.n_regionkey
        GROUP BY r_name""").fetchall())
    assert got == want


def test_supplier_shipments_broadcast_names(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import supplier_shipments

    sf = "/root/testdata/sf0.001"
    got = sorted((r["s_suppkey"], r["s_name"], r["n_lines"], r["sum_qty"])
                 for r in supplier_shipments(
        ray.data.read_parquet(f"{sf}/lineitem.parquet",
                              columns=["l_suppkey", "l_quantity"]),
        ray.data.read_parquet(f"{sf}/supplier.parquet",
                              columns=["s_suppkey", "s_name"]))
        .take_all())
    want = sorted(tuple(r) for r in duckdb.sql(f"""
        SELECT s.s_suppkey, s.s_name, count(*),
               CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
        FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN read_parquet('{sf}/supplier.parquet') s
          ON s.s_suppkey = l.l_suppkey
        GROUP BY 1, 2""").fetchall())
    assert got == want and got


def test_brand_volume_join_reaggregate(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import brand_volume

    sf = "/root/testdata/sf0.001"
    got = sorted((r["p_brand"], r["n_lines"], r["sum_qty"])
                 for r in brand_volume(
        ray.data.read_parquet(f"{sf}/lineitem.parquet",
                              columns=["l_partkey", "l_quantity"]),
        ray.data.read_parquet(f"{sf}/part.parquet",
                              columns=["p_partkey", "p_brand"]))
        .take_all())
    want = sorted(tuple(r) for r in duckdb.sql(f"""
        SELECT p.p_brand, count(*),
               CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
        FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN read_parquet('{sf}/part.parquet') p
          ON p.p_partkey = l.l_partkey
        GROUP BY 1""").fetchall())
    assert got == want and got


def test_semi_join_and_anti_join_crafted(ray_session):
    import ray.data

    from webtext.pipelines.relational import semi_join

    left = ray.data.from_items([
        {"c_custkey": 1, "c_name": "a"},
        {"c_custkey": 2, "c_name": "b"},
        {"c_custkey": 3, "c_name": "c"},
    ])
    right = ray.data.from_items(
        [{"o_custkey": 1}, {"o_custkey": 1}, {"o_custkey": 3},
         {"o_custkey": 99}])
    semi = sorted(r["c_custkey"] for r in semi_join(
        left, right, "c_custkey", "o_custkey").take_all())
    anti = sorted(r["c_custkey"] for r in semi_join(
        left, right, "c_custkey", "o_custkey", anti=True).take_all())
    assert semi == [1, 3] and anti == [2]


def test_semi_join_string_keys(ray_session):
    import ray.data

    from webtext.pipelines.relational import semi_join

    left = ray.data.from_items(
        [{"k": "x", "v": 1}, {"k": "y", "v": 2}, {"k": "z", "v": 3}])
    right = ray.data.from_items([{"rk": "y"}, {"rk": "nope"}])
    assert sorted(r["k"] for r in semi_join(
        left, right, "k", "rk").take_all()) == ["y"]
    assert sorted(r["k"] for r in semi_join(
        left, right, "k", "rk", anti=True).take_all()) == ["x", "z"]


def test_customer_orders_semi_anti_match_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.relational import semi_join

    sf = "/root/testdata/sf0.001"
    left = ray.data.read_parquet(f"{sf}/customer.parquet",
                                 columns=["c_custkey", "c_name"])
    right = ray.data.read_parquet(f"{sf}/orders.parquet",
                                  columns=["o_custkey"])
    semi = sorted((r["c_custkey"], r["c_name"]) for r in semi_join(
        left, right.repartition(4), "c_custkey", "o_custkey").take_all())
    anti = sorted((r["c_custkey"], r["c_name"]) for r in semi_join(
        left.repartition(3), right, "c_custkey", "o_custkey",
        anti=True).take_all())
    w_semi = duckdb.sql(f"""
        SELECT c_custkey, c_name
        FROM read_parquet('{sf}/customer.parquet') c
        WHERE EXISTS (SELECT 1 FROM
          read_parquet('{sf}/orders.parquet') o
          WHERE o.o_custkey = c.c_custkey) ORDER BY 1""").fetchall()
    w_anti = duckdb.sql(f"""
        SELECT c_custkey, c_name
        FROM read_parquet('{sf}/customer.parquet') c
        WHERE NOT EXISTS (SELECT 1 FROM
          read_parquet('{sf}/orders.parquet') o
          WHERE o.o_custkey = c.c_custkey) ORDER BY 1""").fetchall()
    assert semi == [tuple(w) for w in w_semi] and semi
    assert anti == [tuple(w) for w in w_anti]


def test_shipping_priority_crafted(ray_session):
    """Hand-built 3-table join exercising every Q3 branch: wrong
    segment dropped, order after cutoff dropped, lines shipped before
    cutoff excluded from revenue, top-k ordering by revenue desc."""
    import datetime as dt

    import ray.data

    from webtext.pipelines.tpch import shipping_priority

    D = lambda y, m, d: dt.datetime(y, m, d)
    customer = ray.data.from_items([
        {"c_custkey": 1, "c_mktsegment": "BUILDING"},
        {"c_custkey": 2, "c_mktsegment": "MACHINERY"},  # dropped
    ])
    orders = ray.data.from_items([
        {"o_orderkey": 10, "o_custkey": 1, "o_orderdate": D(1997, 1, 1),
         "o_orderpriority": "1-URGENT"},
        {"o_orderkey": 11, "o_custkey": 1, "o_orderdate": D(1999, 1, 1),
         "o_orderpriority": "2-HIGH"},  # after cutoff -> dropped
        {"o_orderkey": 12, "o_custkey": 2, "o_orderdate": D(1997, 1, 1),
         "o_orderpriority": "3-MEDIUM"},  # wrong segment
        {"o_orderkey": 13, "o_custkey": 1, "o_orderdate": D(1997, 6, 1),
         "o_orderpriority": "4-LOW"},
    ])
    lineitem = ray.data.from_items([
        {"l_orderkey": 10, "l_extendedprice": 100.0, "l_discount": 0.1,
         "l_shipdate": D(1998, 7, 1)},              # 9000 cents
        {"l_orderkey": 10, "l_extendedprice": 50.0, "l_discount": 0.0,
         "l_shipdate": D(1997, 1, 2)},              # shipped early: out
        {"l_orderkey": 13, "l_extendedprice": 200.0, "l_discount": 0.5,
         "l_shipdate": D(1998, 6, 2)},              # 10000 cents
        {"l_orderkey": 12, "l_extendedprice": 999.0, "l_discount": 0.0,
         "l_shipdate": D(1998, 7, 1)},              # wrong segment
    ])
    out = shipping_priority(customer, orders, lineitem).take_all()
    got = [(r["l_orderkey"], r["revenue_cents"], r["o_orderpriority"])
           for r in out]
    assert got == [(13, 10000, "4-LOW"), (10, 9000, "1-URGENT")]


def test_shipping_priority_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import shipping_priority

    sf = "/root/testdata/sf0.001"
    got = shipping_priority(
        ray.data.read_parquet(f"{sf}/customer.parquet"),
        ray.data.read_parquet(f"{sf}/orders.parquet"),
        ray.data.read_parquet(f"{sf}/lineitem.parquet")).take_all()
    want = duckdb.sql(f"""
        SELECT l.l_orderkey,
               CAST(SUM(CAST(round(
                 l.l_extendedprice*(1-l.l_discount)*100) AS BIGINT))
                 AS BIGINT) AS revenue_cents
        FROM read_parquet('{sf}/customer.parquet') c
        JOIN read_parquet('{sf}/orders.parquet') o
          ON o.o_custkey = c.c_custkey
        JOIN read_parquet('{sf}/lineitem.parquet') l
          ON l.l_orderkey = o.o_orderkey
        WHERE c.c_mktsegment = 'BUILDING'
          AND o.o_orderdate < TIMESTAMP '1998-06-01'
          AND l.l_shipdate > TIMESTAMP '1998-06-01'
        GROUP BY l.l_orderkey
        ORDER BY revenue_cents DESC, l_orderkey LIMIT 10""").fetchall()
    assert [(r["l_orderkey"], r["revenue_cents"]) for r in got] == \
        [tuple(w) for w in want]


def test_order_line_left_keeps_unmatched_orders(ray_session):
    import ray.data

    from webtext.pipelines.tpch import order_line_left_join

    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_custkey": 7},
        {"o_orderkey": 2, "o_custkey": 8},   # no lines -> zeros
    ])
    lineitem = ray.data.from_items([
        {"l_orderkey": 1, "l_quantity": 2.0},
        {"l_orderkey": 1, "l_quantity": 3.0},
        {"l_orderkey": 9, "l_quantity": 5.0},  # dangling line dropped
    ])
    got = {r["o_orderkey"]: (r["n_lines"], r["sum_qty"])
           for r in order_line_left_join(orders, lineitem).take_all()}
    assert got == {1: (2, 5), 2: (0, 0)}


def test_pricing_rollup_levels(ray_session):
    import ray.data

    from webtext.pipelines.tpch import pricing_rollup

    rows = [
        {"l_returnflag": "A", "l_linestatus": "F",
         "l_quantity": 1.0, "l_extendedprice": 1.0},
        {"l_returnflag": "A", "l_linestatus": "O",
         "l_quantity": 2.0, "l_extendedprice": 2.0},
        {"l_returnflag": "N", "l_linestatus": "O",
         "l_quantity": 4.0, "l_extendedprice": 4.0},
    ]
    got = {(r["l_returnflag"], r["l_linestatus"]):
           (r["sum_qty"], r["n_rows"])
           for r in pricing_rollup(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {("A", "F"): (1, 1), ("A", "O"): (2, 1),
                   ("N", "O"): (4, 1), ("A", "ALL"): (3, 2),
                   ("N", "ALL"): (4, 1), ("ALL", "ALL"): (7, 3)}


def test_profile_columns_min_max_nulls(ray_session):
    import ray.data

    from webtext.pipelines.tpch import profile_columns

    rows = [{"a": 1.0, "b": None}, {"a": -2.5, "b": 7.0},
            {"a": 4.0, "b": None}]
    got = {r["column"]: (r["n_rows"], r["n_null"], r["min_v"],
                         r["max_v"])
           for r in profile_columns(
               ray.data.from_items(rows).repartition(2),
               ("a", "b")).take_all()}
    assert got == {"a": (3, 0, -2.5, 4.0), "b": (3, 2, 7.0, 7.0)}


def test_local_supplier_volume_crafted(ray_session):
    """Two customers in nation 1, suppliers split across nations: only
    lines whose supplier nation equals the customer nation count."""
    import ray.data

    from webtext.pipelines.tpch import local_supplier_volume

    customer = ray.data.from_items([
        {"c_custkey": 1, "c_nationkey": 1},
        {"c_custkey": 2, "c_nationkey": 2},
    ])
    orders = ray.data.from_items([
        {"o_orderkey": 10, "o_custkey": 1},
        {"o_orderkey": 20, "o_custkey": 2},
    ])
    lineitem = ray.data.from_items([
        # order 10 (cust nation 1): supplier 100 is nation 1 -> counts
        {"l_orderkey": 10, "l_suppkey": 100,
         "l_extendedprice": 10.0, "l_discount": 0.0},
        # supplier 200 is nation 2 -> cross-nation, dropped
        {"l_orderkey": 10, "l_suppkey": 200,
         "l_extendedprice": 99.0, "l_discount": 0.0},
        # order 20 (cust nation 2): supplier 200 nation 2 -> counts
        {"l_orderkey": 20, "l_suppkey": 200,
         "l_extendedprice": 20.0, "l_discount": 0.5},
    ])
    supplier = ray.data.from_items([
        {"s_suppkey": 100, "s_nationkey": 1},
        {"s_suppkey": 200, "s_nationkey": 2},
    ])
    nation = ray.data.from_items([
        {"n_nationkey": 1, "n_name": "ALPHA"},
        {"n_nationkey": 2, "n_name": "BETA"},
    ])
    got = {r["n_name"]: r["revenue_cents"]
           for r in local_supplier_volume(
               customer, orders, lineitem, supplier, nation).take_all()}
    assert got == {"ALPHA": 1000, "BETA": 1000}


def test_order_line_full_keeps_both_dangles(ray_session):
    import ray.data

    from webtext.pipelines.tpch import order_line_full_join

    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_custkey": 7},
        {"o_orderkey": 2, "o_custkey": 8},   # no lines -> zeros
    ])
    lineitem = ray.data.from_items([
        {"l_orderkey": 1, "l_quantity": 2.0},
        {"l_orderkey": 9, "l_quantity": 5.0},  # dangling -> custkey -1
        {"l_orderkey": 9, "l_quantity": 1.0},
    ]).repartition(3)
    got = {r["o_orderkey"]: (r["o_custkey"], r["n_lines"], r["sum_qty"])
           for r in order_line_full_join(orders, lineitem).take_all()}
    assert got == {1: (7, 1, 2), 2: (8, 0, 0), 9: (-1, 2, 6)}


def test_small_quantity_revenue_crafted(ray_session):
    import ray.data

    from webtext.pipelines.tpch import small_quantity_revenue

    # part 1 (Brand#1): quantities 1, 10, 10, 10 -> avg 7.75, 20% =
    # 1.55 -> only qty 1 qualifies.  part 2 (other brand): ignored.
    lineitem = ray.data.from_items([
        {"l_partkey": 1, "l_quantity": 1.0, "l_extendedprice": 5.00},
        {"l_partkey": 1, "l_quantity": 10.0, "l_extendedprice": 1.00},
        {"l_partkey": 1, "l_quantity": 10.0, "l_extendedprice": 1.00},
        {"l_partkey": 1, "l_quantity": 10.0, "l_extendedprice": 1.00},
        {"l_partkey": 2, "l_quantity": 1.0, "l_extendedprice": 9.00},
        {"l_partkey": 2, "l_quantity": 50.0, "l_extendedprice": 9.00},
    ]).repartition(3)
    part = ray.data.from_items([
        {"p_partkey": 1, "p_brand": "Brand#1"},
        {"p_partkey": 2, "p_brand": "Brand#9"},
    ])
    rows = small_quantity_revenue(lineitem, part).take_all()
    assert rows == [{"n_small_lines": 1, "revenue_cents": 500}]

    # threshold is strict: qty exactly at 20% of avg does NOT qualify
    lineitem2 = ray.data.from_items([
        {"l_partkey": 1, "l_quantity": 2.0, "l_extendedprice": 3.00},
        {"l_partkey": 1, "l_quantity": 18.0, "l_extendedprice": 1.00},
    ])  # avg 10, 20% = 2.0 -> 2.0 not < 2.0
    rows2 = small_quantity_revenue(lineitem2, part).take_all()
    assert rows2 == [{"n_small_lines": 0, "revenue_cents": 0}]


def test_pricing_cube_grouping_sets(ray_session):
    import ray.data

    from webtext.pipelines.tpch import pricing_cube

    lineitem = ray.data.from_items([
        {"l_returnflag": "A", "l_linestatus": "F",
         "l_quantity": 1.0, "l_extendedprice": 1.00},
        {"l_returnflag": "A", "l_linestatus": "O",
         "l_quantity": 2.0, "l_extendedprice": 2.00},
        {"l_returnflag": "R", "l_linestatus": "F",
         "l_quantity": 4.0, "l_extendedprice": 4.00},
    ]).repartition(2)
    got = {(r["l_returnflag"], r["l_linestatus"]):
           (r["sum_qty"], r["n_rows"])
           for r in pricing_cube(lineitem).take_all()}
    # 2^2 grouping sets: base cells, flag margins, STATUS margins
    # (the set rollup lacks), grand total
    assert got[("A", "F")] == (1, 1)
    assert got[("A", "ALL")] == (3, 2)
    assert got[("ALL", "F")] == (5, 2)     # cube-only margin
    assert got[("ALL", "O")] == (2, 1)
    assert got[("ALL", "ALL")] == (7, 3)
    assert len(got) == 3 + 2 + 2 + 1


# -- global quantiles (histogram refinement) ---------------------------------

def test_global_quantiles_matches_sorted_rank(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from webtext.pipelines.relational import global_quantiles

    rng = np.random.RandomState(7)
    vals = np.round(rng.lognormal(3, 1, size=20000), 2)
    ds = ray.data.from_arrow(pa.table({"value": vals})).repartition(9)
    out = {r["q_permille"]: r["value"]
           for r in global_quantiles(ds, "value",
                                     (0.01, 0.5, 0.99)).to_pylist()}
    s = np.sort(vals)
    for q in (0.01, 0.5, 0.99):
        want = float(s[max(0, int(np.ceil(q * len(s))) - 1)])
        assert out[int(round(q * 1000))] == want


def test_global_quantiles_duplicate_heavy_and_collapsed(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from webtext.pipelines.relational import global_quantiles

    # one float repeated past the collect cap: the stuck-bin path must
    # still terminate (per-batch uniques, not raw rows)
    vals = np.concatenate([np.full(120000, 7.25), [1.0, 99.0]])
    ds = ray.data.from_arrow(pa.table({"value": vals})).repartition(5)
    out = global_quantiles(ds, "value", (0.5,)).to_pylist()
    assert out == [{"q_permille": 500, "value": 7.25}]


def test_global_quantiles_rank_mode(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from webtext.pipelines.relational import global_quantiles

    rng = np.random.RandomState(11)
    vals = rng.randint(0, 10**6, size=30000).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"value": vals})).repartition(7)
    ranks = (0, 9999, 29999, 10**9)     # last clamps to n-1
    got = global_quantiles(ds, "value", ranks=ranks)
    s = np.sort(vals)
    want = [float(s[min(max(r, 0), len(s) - 1)]) for r in ranks]
    assert got == want


def test_source_quota_sample_caps_and_split_invariance(ray_session):
    import ray.data

    from webtext.pipelines.relational import source_quota_sample

    rows = ([{"doc_id": i, "source": "hot"} for i in range(100)]
            + [{"doc_id": 1000 + i, "source": f"cold{i}"}
               for i in range(5)])
    ds = ray.data.from_items(rows)
    out = source_quota_sample(ds, k=10).take_all()
    by_src = {}
    for r in out:
        by_src.setdefault(r["source"], []).append(r["doc_id"])
    assert sorted(by_src["hot"]) == list(range(10))   # k smallest ids
    assert all(len(v) == 1 for s, v in by_src.items() if s != "hot")
    b = source_quota_sample(ds.repartition(13), k=10).take_all()
    assert sorted((r["doc_id"], r["source"]) for r in out) \
        == sorted((r["doc_id"], r["source"]) for r in b)


def test_token_budget_sample_combiner_invariance(ray_session):
    """The block-local budget prune is a valid combiner: survivors are
    identical however the corpus is split into blocks, and each
    source's kept prefix is exactly the greedy biggest-docs-first fill
    of the budget."""
    import ray.data

    from webtext.pipelines.relational import token_budget_sample

    rows = [
        {"doc_id": 1, "source": "a", "text": "w " * 9 + "w"},   # 10 tok
        {"doc_id": 2, "source": "a", "text": "w " * 7 + "w"},   # 8
        {"doc_id": 3, "source": "a", "text": "w " * 4 + "w"},   # 5
        {"doc_id": 4, "source": "b", "text": "w " * 99 + "w"},  # 100
        {"doc_id": 5, "source": "b", "text": "w"},              # 1
    ]
    for parts in (1, 3, 5):
        got = sorted(r["doc_id"] for r in token_budget_sample(
            ray.data.from_items(rows).repartition(parts),
            budget=18).take_all())
        # a: 10+8=18 <= 18 (doc 3 would overflow); b: 100 > 18, 1 fits?
        # order is n_tokens DESC -> doc 4 first with cum 100 > 18 drops,
        # doc 5 cum 101 > 18 drops too (prefix cumsum is inclusive and
        # monotone — once over budget nothing later re-enters)
        assert got == [1, 2], (parts, got)


def test_forecast_revenue_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import forecast_revenue

    sf = "/root/testdata/sf0.001"
    got = forecast_revenue(
        ray.data.read_parquet(f"{sf}/lineitem.parquet")).take_all()
    want = duckdb.sql(f"""
        SELECT CAST(COALESCE(SUM(
                 CAST(round(l_extendedprice*100) AS BIGINT)
                 * CAST(round(l_discount*100) AS BIGINT)), 0) AS BIGINT),
               count(*)::BIGINT
        FROM read_parquet('{sf}/lineitem.parquet')
        WHERE l_shipdate >= TIMESTAMP '2000-01-01'
          AND l_shipdate < TIMESTAMP '2001-01-01'
          AND CAST(round(l_discount*100) AS BIGINT) BETWEEN 5 AND 7
          AND l_quantity < 24""").fetchall()
    assert len(got) == 1
    assert (got[0]["revenue_micro"], got[0]["n_lines"]) == want[0]


def test_promo_revenue_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import promo_revenue

    sf = "/root/testdata/sf0.001"
    got = promo_revenue(
        ray.data.read_parquet(f"{sf}/lineitem.parquet"),
        ray.data.read_parquet(f"{sf}/part.parquet")).take_all()
    want = duckdb.sql(f"""
        SELECT CAST(COALESCE(SUM(CASE WHEN p.p_type='PROMO' THEN r
                 ELSE 0 END), 0) AS BIGINT),
               CAST(COALESCE(SUM(r), 0) AS BIGINT)
        FROM (SELECT l_partkey,
                     CAST(round(l_extendedprice*(1-l_discount)*100)
                       AS BIGINT) AS r
              FROM read_parquet('{sf}/lineitem.parquet')
              WHERE l_shipdate >= TIMESTAMP '2000-09-01'
                AND l_shipdate < TIMESTAMP '2000-10-01') l
        JOIN read_parquet('{sf}/part.parquet') p
          ON p.p_partkey = l.l_partkey""").fetchall()
    assert len(got) == 1
    assert (got[0]["promo_cents"], got[0]["total_cents"]) == want[0]


def test_large_volume_orders_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import large_volume_orders

    sf = "/root/testdata/sf0.001"
    got = sorted(
        (r["o_orderkey"], r["o_custkey"], r["o_orderdate"],
         r["total_qty"])
        for r in large_volume_orders(
            ray.data.read_parquet(f"{sf}/orders.parquet"),
            ray.data.read_parquet(f"{sf}/lineitem.parquet")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        SELECT o.o_orderkey, o.o_custkey, o.o_orderdate, t.q
        FROM (SELECT l_orderkey,
                     SUM(CAST(l_quantity AS BIGINT))::BIGINT AS q
              FROM read_parquet('{sf}/lineitem.parquet')
              GROUP BY 1
              HAVING SUM(CAST(l_quantity AS BIGINT)) > 150) t
        JOIN read_parquet('{sf}/orders.parquet') o
          ON o.o_orderkey = t.l_orderkey""").fetchall()))
    assert got == want and len(got) > 0


def test_large_volume_orders_having_before_join(ray_session):
    """Crafted: an order below the threshold never reaches the join;
    a dangling heavy aggregate (no matching order row) drops with
    inner semantics."""
    import ray.data

    from webtext.pipelines.tpch import large_volume_orders

    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_custkey": 7,
         "o_orderdate": __import__("datetime").datetime(2000, 1, 2)},
        {"o_orderkey": 2, "o_custkey": 8,
         "o_orderdate": __import__("datetime").datetime(2000, 2, 3)},
    ])
    lineitem = ray.data.from_items(
        [{"l_orderkey": 1, "l_quantity": 60.0} for _ in range(3)]
        + [{"l_orderkey": 2, "l_quantity": 10.0}]
        + [{"l_orderkey": 9, "l_quantity": 999.0}])
    got = large_volume_orders(orders, lineitem,
                              min_total_qty=150).take_all()
    assert [(r["o_orderkey"], r["o_custkey"], r["total_qty"])
            for r in got] == [(1, 7, 180)]


def test_customer_order_counts_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import customer_order_counts

    sf = "/root/testdata/sf0.001"
    got = sorted((r["c_count"], r["custdist"])
                 for r in customer_order_counts(
        ray.data.read_parquet(f"{sf}/customer.parquet"),
        ray.data.read_parquet(f"{sf}/orders.parquet")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        SELECT c_count, count(*)::BIGINT FROM (
          SELECT c.c_custkey, count(o.o_orderkey)::BIGINT AS c_count
          FROM read_parquet('{sf}/customer.parquet') c
          LEFT JOIN read_parquet('{sf}/orders.parquet') o
            ON o.o_custkey = c.c_custkey
          GROUP BY 1) GROUP BY 1""").fetchall()))
    assert got == want and len(got) > 0


def test_customer_order_counts_zero_bucket(ray_session):
    """Crafted: a customer with no orders lands in the c_count=0 cell;
    order rows for unknown custkeys are ignored (left semantics)."""
    import ray.data

    from webtext.pipelines.tpch import customer_order_counts

    customer = ray.data.from_items(
        [{"c_custkey": k} for k in (1, 2, 3)])
    orders = ray.data.from_items(
        [{"o_custkey": 1}, {"o_custkey": 1}, {"o_custkey": 3},
         {"o_custkey": 99}])
    got = sorted((r["c_count"], r["custdist"])
                 for r in customer_order_counts(customer,
                                                orders).take_all())
    assert got == [(0, 1), (1, 1), (2, 1)]


def test_top_supplier_keeps_all_ties(ray_session):
    import datetime

    import ray.data

    from webtext.pipelines.tpch import top_supplier

    d = datetime.datetime(1999, 2, 1)
    lineitem = ray.data.from_items([
        {"l_suppkey": 1, "l_shipdate": d, "l_extendedprice": 100.0,
         "l_discount": 0.0},
        {"l_suppkey": 2, "l_shipdate": d, "l_extendedprice": 60.0,
         "l_discount": 0.0},
        {"l_suppkey": 2, "l_shipdate": d, "l_extendedprice": 40.0,
         "l_discount": 0.0},
        {"l_suppkey": 3, "l_shipdate": d, "l_extendedprice": 99.0,
         "l_discount": 0.0},
        # out of window — would break the tie if counted
        {"l_suppkey": 3,
         "l_shipdate": datetime.datetime(1999, 6, 1),
         "l_extendedprice": 50.0, "l_discount": 0.0},
    ])
    got = sorted((r["s_suppkey"], r["total_revenue_cents"])
                 for r in top_supplier(lineitem).take_all())
    assert got == [(1, 10000), (2, 10000)]


def test_idle_rich_customers_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import idle_rich_customers

    sf = "/root/testdata/sf0.001"
    got = sorted((r["c_mktsegment"], r["n_cust"],
                  r["sum_acctbal_cents"])
                 for r in idle_rich_customers(
        ray.data.read_parquet(f"{sf}/customer.parquet"),
        ray.data.read_parquet(f"{sf}/orders.parquet")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        WITH t AS (SELECT SUM(CAST(round(c_acctbal*100) AS BIGINT))
                     AS s, count(*)::BIGINT AS n
                   FROM read_parquet('{sf}/customer.parquet')
                   WHERE c_acctbal > 0.0)
        SELECT c_mktsegment, count(*)::BIGINT,
               CAST(SUM(CAST(round(c_acctbal*100) AS BIGINT))
                 AS BIGINT)
        FROM read_parquet('{sf}/customer.parquet') c, t
        WHERE CAST(round(c_acctbal*100) AS BIGINT) * t.n > t.s
          AND NOT EXISTS (
            SELECT 1 FROM read_parquet('{sf}/orders.parquet') o
            WHERE o.o_custkey = c.c_custkey
              AND o.o_orderdate >= TIMESTAMP '2000-07-01')
        GROUP BY 1""").fetchall()))
    assert got == want and len(got) > 0


def test_idle_rich_exact_rational_threshold(ray_session):
    """Crafted: the avg predicate is the exact rational compare —
    bal*n > s.  avg of (10.00, 20.00) = 15.00; a 15.00 customer is NOT
    above average, a 15.01 customer is."""
    import datetime

    import ray.data

    from webtext.pipelines.tpch import idle_rich_customers

    # positive bals 10, 20, 15, 16, 15.25 -> avg exactly 15.25
    customer = ray.data.from_items([
        {"c_custkey": 1, "c_acctbal": 10.0, "c_mktsegment": "A"},
        {"c_custkey": 2, "c_acctbal": 20.0, "c_mktsegment": "A"},
        {"c_custkey": 3, "c_acctbal": 15.0, "c_mktsegment": "B"},
        {"c_custkey": 4, "c_acctbal": 16.0, "c_mktsegment": "B"},
        {"c_custkey": 5, "c_acctbal": 15.25, "c_mktsegment": "B"},
        # negative balance: excluded from the average entirely
        {"c_custkey": 6, "c_acctbal": -500.0, "c_mktsegment": "B"},
    ])
    orders = ray.data.from_items([
        {"o_custkey": 2,
         "o_orderdate": datetime.datetime(2001, 1, 1)}])
    got = sorted((r["c_mktsegment"], r["n_cust"],
                  r["sum_acctbal_cents"])
                 for r in idle_rich_customers(customer,
                                              orders).take_all())
    # above 15.25 strictly: 20.00 (recent order -> dropped) and
    # 16.00 (kept); 15.25 itself sits exactly ON the average -> out
    assert got == [("B", 1, 1600)]


def test_volume_shipping_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import volume_shipping

    sf = "/root/testdata/sf0.001"
    rp = lambda t: ray.data.read_parquet(f"{sf}/{t}.parquet")  # noqa: E731
    got = sorted((r["supp_nation"], r["cust_nation"], r["l_year"],
                  r["revenue_cents"])
                 for r in volume_shipping(
        rp("customer"), rp("orders"), rp("lineitem"), rp("supplier"),
        rp("nation")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        SELECT sn.n_name, cn.n_name,
               EXTRACT(year FROM l.l_shipdate)::BIGINT,
               CAST(SUM(CAST(round(
                 l.l_extendedprice*(1-l.l_discount)*100) AS BIGINT))
                 AS BIGINT)
        FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN read_parquet('{sf}/orders.parquet') o
          ON o.o_orderkey = l.l_orderkey
        JOIN read_parquet('{sf}/customer.parquet') c
          ON c.c_custkey = o.o_custkey
        JOIN read_parquet('{sf}/supplier.parquet') s
          ON s.s_suppkey = l.l_suppkey
        JOIN read_parquet('{sf}/nation.parquet') sn
          ON sn.n_nationkey = s.s_nationkey
        JOIN read_parquet('{sf}/nation.parquet') cn
          ON cn.n_nationkey = c.c_nationkey
        WHERE s.s_nationkey <> c.c_nationkey
        GROUP BY 1, 2, 3""").fetchall()))
    assert got == want and len(got) > 0


def test_market_share_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import market_share

    sf = "/root/testdata/sf0.001"
    rp = lambda t: ray.data.read_parquet(f"{sf}/{t}.parquet")  # noqa: E731
    got = sorted((r["o_year"], r["nation_cents"], r["total_cents"])
                 for r in market_share(
        rp("customer"), rp("orders"), rp("lineitem"), rp("supplier"),
        rp("part"), rp("nation")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        SELECT EXTRACT(year FROM o.o_orderdate)::BIGINT,
               CAST(SUM(CASE WHEN s.s_nationkey = 19 THEN r ELSE 0
                 END) AS BIGINT),
               CAST(SUM(r) AS BIGINT)
        FROM (SELECT l_orderkey, l_suppkey, l_partkey,
                     CAST(round(l_extendedprice*(1-l_discount)*100)
                       AS BIGINT) AS r
              FROM read_parquet('{sf}/lineitem.parquet')) l
        JOIN read_parquet('{sf}/part.parquet') p
          ON p.p_partkey = l.l_partkey AND p.p_type = 'ECONOMY'
        JOIN read_parquet('{sf}/orders.parquet') o
          ON o.o_orderkey = l.l_orderkey
        JOIN read_parquet('{sf}/customer.parquet') c
          ON c.c_custkey = o.o_custkey
        JOIN read_parquet('{sf}/supplier.parquet') s
          ON s.s_suppkey = l.l_suppkey
        JOIN read_parquet('{sf}/nation.parquet') cn
          ON cn.n_nationkey = c.c_nationkey
        WHERE cn.n_regionkey = 2
        GROUP BY 1""").fetchall()))
    assert got == want and len(got) > 0
    assert any(n > 0 for _, n, _ in got), "numerator degenerate"


def test_market_share_pack_roundtrip(ray_session):
    """Crafted: the custkey/year int64 pack survives the attach chain
    — a single selected line lands in the right (year, nation) cell."""
    import datetime

    import ray.data

    from webtext.pipelines.tpch import market_share

    customer = ray.data.from_items(
        [{"c_custkey": 5, "c_nationkey": 2}])
    orders = ray.data.from_items(
        [{"o_orderkey": 1, "o_custkey": 5,
          "o_orderdate": datetime.datetime(1997, 3, 9)}])
    lineitem = ray.data.from_items([
        {"l_orderkey": 1, "l_suppkey": 3, "l_partkey": 11,
         "l_extendedprice": 100.0, "l_discount": 0.0},
        # non-selected part type: dropped before the orders attach
        {"l_orderkey": 1, "l_suppkey": 3, "l_partkey": 12,
         "l_extendedprice": 999.0, "l_discount": 0.0},
    ])
    supplier = ray.data.from_items(
        [{"s_suppkey": 3, "s_nationkey": 19}])
    part = ray.data.from_items([
        {"p_partkey": 11, "p_type": "ECONOMY"},
        {"p_partkey": 12, "p_type": "LARGE"},
    ])
    nation = ray.data.from_items(
        [{"n_nationkey": 2, "n_regionkey": 2},
         {"n_nationkey": 19, "n_regionkey": 4}])
    got = market_share(customer, orders, lineitem, supplier, part,
                       nation).take_all()
    assert [(r["o_year"], r["nation_cents"], r["total_cents"])
            for r in got] == [(1997, 10000, 10000)]


def test_order_priority_check_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import order_priority_check

    sf = "/root/testdata/sf0.001"
    got = sorted((r["o_orderpriority"], r["n_orders"])
                 for r in order_priority_check(
        ray.data.read_parquet(f"{sf}/orders.parquet"),
        ray.data.read_parquet(f"{sf}/lineitem.parquet")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        SELECT o_orderpriority, count(*)::BIGINT
        FROM read_parquet('{sf}/orders.parquet') o
        WHERE o.o_orderdate >= TIMESTAMP '1998-01-01'
          AND o.o_orderdate < TIMESTAMP '1998-04-01'
          AND EXISTS (
            SELECT 1 FROM read_parquet('{sf}/lineitem.parquet') l
            WHERE l.l_orderkey = o.o_orderkey
              AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY)
        GROUP BY 1""").fetchall()))
    assert got == want and len(got) > 0


def test_order_priority_check_nonequi_boundary(ray_session):
    """Crafted: EXISTS compares against the OUTER row's date — a line
    shipped exactly 60 days after is NOT late (strict >); 61 days is;
    an order with no lines never counts."""
    import datetime

    import ray.data

    from webtext.pipelines.tpch import order_priority_check

    d0 = datetime.datetime(1998, 2, 1)
    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_orderdate": d0, "o_orderpriority": "HI"},
        {"o_orderkey": 2, "o_orderdate": d0, "o_orderpriority": "HI"},
        {"o_orderkey": 3, "o_orderdate": d0, "o_orderpriority": "LO"},
    ])
    lineitem = ray.data.from_items([
        {"l_orderkey": 1,
         "l_shipdate": d0 + datetime.timedelta(days=60)},   # on time
        {"l_orderkey": 2,
         "l_shipdate": d0 + datetime.timedelta(days=61)},   # late
        {"l_orderkey": 2,
         "l_shipdate": d0 + datetime.timedelta(days=1)},    # irrelevant
    ])
    got = sorted((r["o_orderpriority"], r["n_orders"])
                 for r in order_priority_check(orders,
                                               lineitem).take_all())
    assert got == [("HI", 1)]


def test_brand_size_revenue_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import brand_size_revenue

    sf = "/root/testdata/sf0.001"
    got = [(r["n_lines"], r["revenue_cents"])
           for r in brand_size_revenue(
        ray.data.read_parquet(f"{sf}/lineitem.parquet"),
        ray.data.read_parquet(f"{sf}/part.parquet")).take_all()]
    want = list(map(tuple, duckdb.sql(f"""
        SELECT count(*)::BIGINT,
               CAST(COALESCE(SUM(CAST(round(
                 l.l_extendedprice*(1-l.l_discount)*100) AS BIGINT)),
                 0) AS BIGINT)
        FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN read_parquet('{sf}/part.parquet') p
          ON p.p_partkey = l.l_partkey
        WHERE (p.p_brand='Brand#1' AND p.p_size BETWEEN 1 AND 10
               AND l.l_quantity BETWEEN 1 AND 11)
           OR (p.p_brand='Brand#2' AND p.p_size BETWEEN 11 AND 20
               AND l.l_quantity BETWEEN 10 AND 20)
           OR (p.p_brand='Brand#3' AND p.p_size BETWEEN 21 AND 30
               AND l.l_quantity BETWEEN 20 AND 30)""").fetchall()))
    assert got == want and got[0][0] > 0


def test_brand_size_revenue_arm_boundaries(ray_session):
    """Crafted: each arm's size AND quantity edges are inclusive; a
    row matching brand of one arm but size of another never passes."""
    import ray.data

    from webtext.pipelines.tpch import brand_size_revenue

    part = ray.data.from_items([
        {"p_partkey": 1, "p_brand": "Brand#1", "p_size": 10},
        {"p_partkey": 2, "p_brand": "Brand#1", "p_size": 11},
        {"p_partkey": 3, "p_brand": "Brand#2", "p_size": 11},
    ])
    lineitem = ray.data.from_items([
        # arm 1 hit: size 10 in [1,10], qty 11 in [1,11]
        {"l_partkey": 1, "l_quantity": 11.0,
         "l_extendedprice": 10.0, "l_discount": 0.0},
        # qty 12 outside arm 1
        {"l_partkey": 1, "l_quantity": 12.0,
         "l_extendedprice": 10.0, "l_discount": 0.0},
        # Brand#1 size 11: matches no arm (size 11 belongs to arm 2's
        # range but arm 2 needs Brand#2)
        {"l_partkey": 2, "l_quantity": 10.0,
         "l_extendedprice": 10.0, "l_discount": 0.0},
        # arm 2 hit: Brand#2, size 11, qty 10
        {"l_partkey": 3, "l_quantity": 10.0,
         "l_extendedprice": 20.0, "l_discount": 0.5},
    ])
    got = [(r["n_lines"], r["revenue_cents"])
           for r in brand_size_revenue(lineitem, part).take_all()]
    assert got == [(2, 2000)]


def test_waiting_suppliers_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import waiting_suppliers

    sf = "/root/testdata/sf0.001"
    got = sorted((r["s_suppkey"], r["n_waiting"])
                 for r in waiting_suppliers(
        ray.data.read_parquet(f"{sf}/lineitem.parquet")).take_all())
    want = sorted(map(tuple, duckdb.sql(f"""
        WITH per AS (
          SELECT l_orderkey, l_suppkey, max(l_shipdate) AS ms
          FROM read_parquet('{sf}/lineitem.parquet') GROUP BY 1, 2),
        ostat AS (
          SELECT l_orderkey, max(ms) AS m, count(*) AS ns
          FROM per GROUP BY 1)
        SELECT p.l_suppkey, count(*)::BIGINT
        FROM per p JOIN ostat o ON o.l_orderkey = p.l_orderkey
        WHERE o.ns >= 2 AND p.ms = o.m
          AND (SELECT count(*) FROM per p2
               WHERE p2.l_orderkey = p.l_orderkey
                 AND p2.ms = o.m) = 1
        GROUP BY 1""").fetchall()))
    assert got == want and len(got) > 0


def test_waiting_suppliers_unique_argmax_rules(ray_session):
    """Crafted: two suppliers tied on the latest date -> nobody
    blamed; single-supplier order -> nobody blamed; clean unique
    latest on a 2-supplier order -> one strike.  Cross-batch partial
    recombination: the same (order, supplier) pair split over two
    input blocks must still reduce to one max."""
    import datetime

    import ray.data

    d = lambda n: datetime.datetime(2000, 1, n)  # noqa: E731
    rows = [
        # order 1: suppliers 1, 2 tie on latest day 5 -> no blame
        {"l_orderkey": 1, "l_suppkey": 1, "l_shipdate": d(5)},
        {"l_orderkey": 1, "l_suppkey": 2, "l_shipdate": d(5)},
        # order 2: single supplier -> no blame
        {"l_orderkey": 2, "l_suppkey": 3, "l_shipdate": d(9)},
        # order 3: supplier 4 latest (day 8 via two split lines),
        # supplier 5 earlier -> supplier 4 blamed
        {"l_orderkey": 3, "l_suppkey": 4, "l_shipdate": d(2)},
        {"l_orderkey": 3, "l_suppkey": 4, "l_shipdate": d(8)},
        {"l_orderkey": 3, "l_suppkey": 5, "l_shipdate": d(7)},
    ]
    from webtext.pipelines.tpch import waiting_suppliers

    ds = ray.data.from_items(rows).repartition(3)
    got = sorted((r["s_suppkey"], r["n_waiting"])
                 for r in waiting_suppliers(ds).take_all())
    assert got == [(4, 1)]


def test_corr_by_group_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from webtext.pipelines.tpch import corr_by_group

    sf = "/root/testdata/sf0.001"
    got = corr_by_group(ray.data.read_parquet(
        f"{sf}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"]))
    got = got.sort_values("l_returnflag").reset_index(drop=True)
    want = duckdb.sql(f"""
        WITH s AS (
          SELECT l_returnflag, count(*)::BIGINT AS n,
                 SUM(CAST(round(l_quantity*100) AS BIGINT)) AS sx,
                 SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS sy,
                 SUM(CAST(round(l_quantity*100) AS BIGINT)
                     * CAST(round(l_quantity*100) AS BIGINT)) AS sxx,
                 SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                     * CAST(round(l_extendedprice*100) AS BIGINT))
                   AS syy,
                 SUM(CAST(round(l_quantity*100) AS BIGINT)
                     * CAST(round(l_extendedprice*100) AS BIGINT))
                   AS sxy
          FROM read_parquet('{sf}/lineitem.parquet')
          GROUP BY l_returnflag)
        SELECT l_returnflag, n,
               CASE WHEN n > 1 AND n*sxx - sx*sx > 0
                         AND n*syy - sy*sy > 0
                    THEN CAST(floor(
                      CAST(n*sxy - sx*sy AS DOUBLE) * 1000000.0
                      / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                             * CAST(n*syy - sy*sy AS DOUBLE)) + 0.5)
                      AS BIGINT)
                    ELSE 0 END AS corr_micro
        FROM s ORDER BY l_returnflag""").fetchdf()
    assert got["l_returnflag"].tolist() == want["l_returnflag"].tolist()
    assert got["n"].tolist() == want["n"].tolist()
    assert got["corr_micro"].tolist() == want["corr_micro"].tolist()


def test_limb_sum_exact_past_int64(ray_session):
    import numpy as np

    from webtext.pipelines.tpch import _limb_sum

    # values whose naive int64 sum wraps: 2^62 twice
    v = np.array([1 << 62, 1 << 62, 5], dtype=np.int64)
    hi, lo = _limb_sum(v, 1 << 62)
    assert hi * 1_000_000_000 + lo == (1 << 63) + 5


def test_corr_degenerate_groups(ray_session):
    import ray.data

    from webtext.pipelines.tpch import corr_by_group

    rows = [
        # group a: perfectly correlated -> 1e6
        {"l_returnflag": "a", "l_quantity": 1.0, "l_extendedprice": 2.0},
        {"l_returnflag": "a", "l_quantity": 2.0, "l_extendedprice": 4.0},
        {"l_returnflag": "a", "l_quantity": 3.0, "l_extendedprice": 6.0},
        # group b: single row -> 0
        {"l_returnflag": "b", "l_quantity": 9.0, "l_extendedprice": 1.0},
        # group c: zero variance in x -> 0
        {"l_returnflag": "c", "l_quantity": 5.0, "l_extendedprice": 1.0},
        {"l_returnflag": "c", "l_quantity": 5.0, "l_extendedprice": 9.0},
    ]
    got = corr_by_group(ray.data.from_items(rows).repartition(2))
    vals = dict(zip(got["l_returnflag"], got["corr_micro"]))
    assert vals == {"a": 1_000_000, "b": 0, "c": 0}


def test_winsorize_clamps_to_group_band(ray_session):
    import ray.data

    from webtext.pipelines.relational import winsorize

    # 20 ordered values 1..20 in one group: q5 -> rank ceil(.05*20)-1=0
    # (value 1.0), q95 -> rank ceil(.95*20)-1=18 (value 19.0)
    rows = [{"event_id": i, "event_type": "t", "value": float(i + 1)}
            for i in range(20)]
    out = {r["event_id"]: r["w_value"]
           for r in winsorize(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert out[19] == 19.0          # 20.0 clamped down to q95
    assert out[0] == 1.0            # q5 is the min -> unchanged
    assert out[10] == 11.0          # interior passes through


def test_pareto_front_dominance_and_ties(ray_session):
    import datetime as dt

    import ray.data

    from webtext.pipelines.relational import pareto_front

    D = lambda n: dt.datetime(2000, 1, n)  # noqa: E731
    rows = [
        # skyline: (100, day1); duplicates of a skyline point both kept
        {"o_orderkey": 1, "o_totalprice": 100.0, "o_orderdate": D(1)},
        {"o_orderkey": 2, "o_totalprice": 100.0, "o_orderdate": D(1)},
        # dominated: same price, later date
        {"o_orderkey": 3, "o_totalprice": 100.0, "o_orderdate": D(5)},
        # dominated: lower price, same date
        {"o_orderkey": 4, "o_totalprice": 50.0, "o_orderdate": D(1)},
        # skyline: higher price, later date (incomparable with key 1)
        {"o_orderkey": 5, "o_totalprice": 200.0, "o_orderdate": D(9)},
        # dominated by 5
        {"o_orderkey": 6, "o_totalprice": 150.0, "o_orderdate": D(9)},
    ]
    got = sorted(r["o_orderkey"] for r in pareto_front(
        ray.data.from_items(rows).repartition(3)).take_all())
    assert got == [1, 2, 5]
    # block-split invariance
    got2 = sorted(r["o_orderkey"] for r in pareto_front(
        ray.data.from_items(rows).repartition(6)).take_all())
    assert got2 == got


def test_important_parts_strict_threshold(ray_session):
    import ray.data

    from webtext.pipelines.tpch import important_parts

    # total = 10000 cents; 1bp threshold = 1 cent (strict >):
    # part 1: 1 cent  -> NOT kept (1 > 1 false)
    # part 2: 2 cents -> kept
    # part 3: 9997 cents (two lines) -> kept
    rows = [
        {"l_partkey": 1, "l_extendedprice": 0.01},
        {"l_partkey": 2, "l_extendedprice": 0.02},
        {"l_partkey": 3, "l_extendedprice": 90.00},
        {"l_partkey": 3, "l_extendedprice": 9.97},
    ]
    got = {r["l_partkey"]: r["rev_cents"]
           for r in important_parts(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {2: 2, 3: 9997}


def test_cheapest_supplier_argmin_ties(ray_session):
    import ray.data

    from webtext.pipelines.tpch import cheapest_supplier_per_part

    rows = [
        # part 1: supp 5 total 300, supp 2 total 300 -> tie, keep 2
        {"l_partkey": 1, "l_suppkey": 5, "l_extendedprice": 1.00},
        {"l_partkey": 1, "l_suppkey": 5, "l_extendedprice": 2.00},
        {"l_partkey": 1, "l_suppkey": 2, "l_extendedprice": 3.00},
        # part 2: supp 9 cheapest
        {"l_partkey": 2, "l_suppkey": 9, "l_extendedprice": 0.50},
        {"l_partkey": 2, "l_suppkey": 1, "l_extendedprice": 0.60},
    ]
    got = {r["l_partkey"]: (r["l_suppkey"], r["cost_cents"])
           for r in cheapest_supplier_per_part(
               ray.data.from_items(rows).repartition(3)).take_all()}
    assert got == {1: (2, 300), 2: (9, 50)}


def test_brand_supplier_counts_distinct_across_blocks(ray_session):
    import ray.data

    from webtext.pipelines.tpch import brand_supplier_counts

    part = ray.data.from_items([
        {"p_partkey": 1, "p_brand": "B1", "p_type": "T1"},
        {"p_partkey": 2, "p_brand": "B1", "p_type": "T1"},
        {"p_partkey": 3, "p_brand": "B2", "p_type": "T2"},
    ])
    lineitem = ray.data.from_items([
        # supplier 7 ships parts 1 AND 2 (same brand/type) from
        # different blocks -> must count ONCE
        {"l_partkey": 1, "l_suppkey": 7},
        {"l_partkey": 2, "l_suppkey": 7},
        {"l_partkey": 1, "l_suppkey": 8},
        {"l_partkey": 3, "l_suppkey": 7},
        # orphan part: dropped by the inner join
        {"l_partkey": 9, "l_suppkey": 7},
    ]).repartition(4)
    got = {(r["p_brand"], r["p_type"]): r["n_supp"]
           for r in brand_supplier_counts(lineitem, part).take_all()}
    assert got == {("B1", "T1"): 2, ("B2", "T2"): 1}


def test_nation_profit_five_table_join(ray_session):
    """Q9 shape: substring part filter, per-line profit = revenue −
    retail·qty, rolled up per (nation, order-year); non-matching parts
    and dangling keys drop (inner semantics)."""
    import ray.data

    from webtext.pipelines.tpch import nation_profit

    lineitem = ray.data.from_items([
        # part 1 matches 'widget': rev = round(100.00*(1-0.1)*100)
        # = 9000, cost = 500 * 2 = 1000 → profit 8000 (order 1, 1997)
        {"l_orderkey": 1, "l_partkey": 1, "l_suppkey": 1,
         "l_quantity": 2.0, "l_extendedprice": 100.0,
         "l_discount": 0.1},
        # same (order, part, supp) triple — combiner folds them:
        # rev 5000, cost 500 → profit 4500
        {"l_orderkey": 1, "l_partkey": 1, "l_suppkey": 1,
         "l_quantity": 1.0, "l_extendedprice": 50.0,
         "l_discount": 0.0},
        # part 2 does NOT match → dropped
        {"l_orderkey": 1, "l_partkey": 2, "l_suppkey": 1,
         "l_quantity": 1.0, "l_extendedprice": 999.0,
         "l_discount": 0.0},
        # order 2 (1998), supplier 2 → nation 1
        {"l_orderkey": 2, "l_partkey": 1, "l_suppkey": 2,
         "l_quantity": 4.0, "l_extendedprice": 30.0,
         "l_discount": 0.5},
    ])
    part = ray.data.from_items([
        {"p_partkey": 1, "p_name": "small widget", "p_retailprice": 5.0},
        {"p_partkey": 2, "p_name": "large bolt", "p_retailprice": 1.0},
    ])
    supplier = ray.data.from_items([
        {"s_suppkey": 1, "s_nationkey": 0},
        {"s_suppkey": 2, "s_nationkey": 1},
    ])
    orders = ray.data.from_items([
        {"o_orderkey": 1,
         "o_orderdate": np.datetime64("1997-06-01", "us")},
        {"o_orderkey": 2,
         "o_orderdate": np.datetime64("1998-01-15", "us")},
    ])
    nation = ray.data.from_items([
        {"n_nationkey": 0, "n_name": "ALPHA"},
        {"n_nationkey": 1, "n_name": "BETA"},
    ])
    got = {(r["n_name"], r["o_year"]): r["profit_cents"] for r in
           nation_profit(lineitem, part, supplier, orders,
                         nation).take_all()}
    # order 2: rev = round(30*(1-0.5)*100) = 1500, cost = 500*4 = 2000
    # → profit −500
    assert got == {("ALPHA", 1997): 12500, ("BETA", 1998): -500}


def test_promo_part_suppliers_threshold_and_window(ray_session):
    """Q20 shape: prefix part filter, ship-date window, strict
    > threshold, nation attach."""
    import ray.data

    from webtext.pipelines.tpch import promo_part_suppliers

    lineitem = ray.data.from_items([
        # supplier 1: 40 + 20 = 60 units of prefix parts in-window
        {"l_partkey": 1, "l_suppkey": 1, "l_quantity": 40.0,
         "l_shipdate": np.datetime64("2000-03-01", "us")},
        {"l_partkey": 1, "l_suppkey": 1, "l_quantity": 20.0,
         "l_shipdate": np.datetime64("2000-07-01", "us")},
        # supplier 2: exactly 50 → NOT > 50 → dropped
        {"l_partkey": 1, "l_suppkey": 2, "l_quantity": 50.0,
         "l_shipdate": np.datetime64("2000-03-01", "us")},
        # supplier 3: 100 units but OUT of window → dropped
        {"l_partkey": 1, "l_suppkey": 3, "l_quantity": 100.0,
         "l_shipdate": np.datetime64("1999-12-31", "us")},
        # supplier 4: 100 units of a NON-prefix part → dropped
        {"l_partkey": 2, "l_suppkey": 4, "l_quantity": 100.0,
         "l_shipdate": np.datetime64("2000-03-01", "us")},
    ])
    part = ray.data.from_items([
        {"p_partkey": 1, "p_name": "small widget"},
        {"p_partkey": 2, "p_name": "large widget"},
    ])
    supplier = ray.data.from_items([
        {"s_suppkey": k, "s_nationkey": 0} for k in (1, 2, 3, 4)])
    nation = ray.data.from_items([{"n_nationkey": 0, "n_name": "ALPHA"}])
    got = [(r["s_suppkey"], r["n_name"], r["sum_qty"]) for r in
           promo_part_suppliers(lineitem, part, supplier,
                                nation).take_all()]
    assert got == [(1, "ALPHA", 60)]


def test_customer_order_gaps_lag_semantics(ray_session):
    """Single-order customers drop; gaps are whole-day deltas in
    (date, orderkey) order; same-day orders contribute zero gaps."""
    import ray.data

    from webtext.pipelines.tpch import customer_order_gaps

    orders = ray.data.from_items([
        {"o_custkey": 1, "o_orderkey": 10,
         "o_orderdate": np.datetime64("2000-01-01", "us")},
        {"o_custkey": 1, "o_orderkey": 11,
         "o_orderdate": np.datetime64("2000-01-04", "us")},
        {"o_custkey": 1, "o_orderkey": 12,
         "o_orderdate": np.datetime64("2000-01-14", "us")},
        # customer 2: one order → dropped
        {"o_custkey": 2, "o_orderkey": 13,
         "o_orderdate": np.datetime64("2000-05-01", "us")},
        # customer 3: two same-day orders → gap 0
        {"o_custkey": 3, "o_orderkey": 14,
         "o_orderdate": np.datetime64("2000-06-01", "us")},
        {"o_custkey": 3, "o_orderkey": 15,
         "o_orderdate": np.datetime64("2000-06-01", "us")},
    ])
    got = {r["o_custkey"]: (r["n_orders"], r["sum_gap_days"],
                            r["max_gap_days"])
           for r in customer_order_gaps(orders).take_all()}
    assert got == {1: (3, 13, 10), 3: (2, 0, 0)}


def test_join_pps_sample_weight_needs_join(ray_session):
    """Zero-weight rows never survive; a saturating weight always
    does; blocking-invariant (content-addressed membership)."""
    import ray.data

    from webtext.pipelines.tpch import join_pps_sample

    orders = ray.data.from_items([
        {"o_orderkey": 1, "o_orderpriority": "1-URGENT"},   # mult 5
        {"o_orderkey": 2, "o_orderpriority": "5-LOW"},      # mult 1
    ])
    lines = ray.data.from_items([
        # rev 0 → weight 0 → can never be kept
        {"l_orderkey": 1, "l_linenumber": 1,
         "l_extendedprice": 0.0, "l_discount": 0.0},
        # dominant weight with k=2 → bound > 2^63 → always kept
        {"l_orderkey": 1, "l_linenumber": 2,
         "l_extendedprice": 1000.0, "l_discount": 0.0},
        {"l_orderkey": 2, "l_linenumber": 1,
         "l_extendedprice": 10.0, "l_discount": 0.0},
        # dangling order key → dropped by the inner attach
        {"l_orderkey": 99, "l_linenumber": 1,
         "l_extendedprice": 500.0, "l_discount": 0.0},
    ])
    a = sorted((r["l_orderkey"], r["l_linenumber"], r["prio_mult"],
                r["rev_cents"])
               for r in join_pps_sample(orders, lines, k=2).take_all())
    b = sorted((r["l_orderkey"], r["l_linenumber"], r["prio_mult"],
                r["rev_cents"])
               for r in join_pps_sample(
                   orders.repartition(2), lines.repartition(3),
                   k=2).take_all())
    assert a == b
    kept = {(o, n) for o, n, _, _ in a}
    assert (1, 2) in kept           # saturating weight always kept
    assert (1, 1) not in kept       # zero weight never kept
    assert (99, 1) not in kept      # dangling key dropped by the join


def test_zorder_stats_brute_force(ray_session):
    import random

    import ray.data

    from webtext.pipelines.relational import zorder_stats

    rng = random.Random("zorder")
    a = [rng.randrange(0, 4000) for _ in range(600)]
    b = [rng.randrange(0, 250) for _ in range(600)]
    ds = ray.data.from_arrow(pa.table(
        {"l_partkey": pa.array(a, pa.int64()),
         "l_suppkey": pa.array(b, pa.int64())})).repartition(5)
    got = {int(r["zbucket"]): (r["n_rows"], r["a_min"], r["a_max"],
                               r["b_min"], r["b_max"])
           for r in zorder_stats(ds).take_all()}

    w = max(max(a).bit_length(), max(b).bit_length())
    shift = max(2 * w - 8, 0)

    def z(x, y):
        out = 0
        for i in range(16):
            out |= ((x >> i) & 1) << (2 * i + 1)
            out |= ((y >> i) & 1) << (2 * i)
        return out >> shift

    want = {}
    for x, y in zip(a, b):
        k = z(x, y)
        n, amin, amax, bmin, bmax = want.get(
            k, (0, 1 << 60, -1, 1 << 60, -1))
        want[k] = (n + 1, min(amin, x), max(amax, x),
                   min(bmin, y), max(bmax, y))
    assert got == want
    assert len(got) > 4          # the layout actually fans out


def test_ref_integrity_detects_orphans(ray_session, tmp_path):
    """Planted orphan keys are counted exactly; clean edges audit to
    zero."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webtext.pipelines.relational import ref_integrity

    d = str(tmp_path)
    pq.write_table(pa.table({"c_custkey": [1, 2],
                             "c_nationkey": [0, 99]}),
                   f"{d}/customer.parquet")
    pq.write_table(pa.table({"o_orderkey": [10, 11, 12],
                             "o_custkey": [1, 2, 7]}),
                   f"{d}/orders.parquet")
    pq.write_table(pa.table({"l_orderkey": [10, 13],
                             "l_partkey": [5, 5],
                             "l_suppkey": [3, 3]}),
                   f"{d}/lineitem.parquet")
    pq.write_table(pa.table({"p_partkey": [5]}), f"{d}/part.parquet")
    pq.write_table(pa.table({"s_suppkey": [3],
                             "s_nationkey": [0]}),
                   f"{d}/supplier.parquet")
    pq.write_table(pa.table({"n_nationkey": [0]}),
                   f"{d}/nation.parquet")
    got = {r["relationship"]: (r["n_rows"], r["n_orphans"])
           for r in ref_integrity(d, n_buckets=4).to_pylist()}
    assert got["orders->customer"] == (3, 1)      # custkey 7
    assert got["lineitem->orders"] == (2, 1)      # orderkey 13
    assert got["lineitem->part"] == (2, 0)
    assert got["lineitem->supplier"] == (2, 0)
    assert got["customer->nation"] == (2, 1)      # nationkey 99


def test_ref_integrity_exchange_fallback_matches(ray_session,
                                                 tmp_path, monkeypatch):
    """Forcing the gate to zero routes every edge through the
    one-exchange fallback; the audit must be identical to the
    broadcast path (same planted-orphan fixture as above)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import webtext.pipelines.relational as R

    d = str(tmp_path)
    pq.write_table(pa.table({"c_custkey": [1, 2],
                             "c_nationkey": [0, 99]}),
                   f"{d}/customer.parquet")
    pq.write_table(pa.table({"o_orderkey": [10, 11, 12],
                             "o_custkey": [1, 2, 7]}),
                   f"{d}/orders.parquet")
    pq.write_table(pa.table({"l_orderkey": [10, 13],
                             "l_partkey": [5, 5],
                             "l_suppkey": [3, 3]}),
                   f"{d}/lineitem.parquet")
    pq.write_table(pa.table({"p_partkey": [5]}), f"{d}/part.parquet")
    pq.write_table(pa.table({"s_suppkey": [3],
                             "s_nationkey": [0]}),
                   f"{d}/supplier.parquet")
    pq.write_table(pa.table({"n_nationkey": [0]}),
                   f"{d}/nation.parquet")
    want = {r["relationship"]: (r["n_rows"], r["n_orphans"])
            for r in R.ref_integrity(d, n_buckets=4).to_pylist()}
    monkeypatch.setattr(R, "REF_PARENT_BROADCAST_MAX", 0)
    got = {r["relationship"]: (r["n_rows"], r["n_orphans"])
           for r in R.ref_integrity(d, n_buckets=4).to_pylist()}
    assert got == want
    assert got["orders->customer"] == (3, 1)


def test_attach_routed_fallback_matches_broadcast(ray_session,
                                                  monkeypatch):
    """Forcing exchange.BROADCAST_MAX_ROWS to zero routes every
    dimension attach through the bucketed exchange; volume_shipping
    must produce the identical table either way (the routed-attach
    equality pin for the whole Q5/Q7/Q8/Q9 family)."""
    import ray.data

    import webtext.exchange as X
    import webtext.pipelines.tpch as T

    sf = "/root/testdata/sf0.001"
    rp = lambda t: ray.data.read_parquet(f"{sf}/{t}.parquet")  # noqa: E731

    def run():
        return sorted(
            (r["supp_nation"], r["cust_nation"], r["l_year"],
             r["revenue_cents"])
            for r in T.volume_shipping(
                rp("customer"), rp("orders"), rp("lineitem"),
                rp("supplier"), rp("nation")).take_all())

    want = run()
    monkeypatch.setattr(X, "BROADCAST_MAX_ROWS", 0)
    got = run()
    assert got == want and len(got) > 0


def test_attach_routed_empty_filtered_dimension(ray_session):
    """A dimension filtered down to nothing comes back as zero-column
    blocks only; the broadcast attach must give an empty join, not
    raise ArrowInvalid from an empty concat."""
    import ray.data

    import webtext.pipelines.tpch as T

    fact = ray.data.from_items([{"k": i, "c": 10 * i} for i in range(6)])
    dim = ray.data.from_items([{"k": 1, "v": 2}, {"k": 3, "v": 4}]) \
        .filter(lambda r: r["k"] < 0)
    assert T._attach_routed(fact, dim, "k", "v", ("c",), 2).take_all() \
        == []


def test_tpch_family_plans_hold_no_all_to_all(ray_session):
    """Every tpch-family query, run at sf0.001 and read back, executes
    no Ray Data plan with an all-to-all operator: its joins, per-group
    cells and global combines all run on the hash exchange."""
    import sys

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod
    from tools.count_plans import count_query, tpch_family

    names = tpch_family(entrymod)
    assert len(names) == 34
    qs = entrymod.queries()
    found = {}
    for name in names:
        _, counts = count_query(qs[name], "/root/testdata/sf0.001")
        assert counts["executions"] > 0, name
        found.update({f"{name} {k}": v for k, v in counts.items()
                      if k.startswith("a2a:")})
    assert found == {}


def test_one_row_totals_over_an_empty_window(ray_session):
    """A one-row total whose window matches nothing still gives its one
    row of zeros, as SQL's SUM without GROUP BY gives one row."""
    import ray.data

    import webtext.pipelines.tpch as T

    sf = "/root/testdata/sf0.001"
    rp = lambda t: ray.data.read_parquet(f"{sf}/{t}.parquet")  # noqa: E731
    none = dict(date_from="1900-01-01", date_to="1900-02-01")
    assert T.forecast_revenue(rp("lineitem"), **none).take_all() \
        == [{"revenue_micro": 0, "n_lines": 0}]
    assert T.promo_revenue(rp("lineitem"), rp("part"), **none).take_all() \
        == [{"promo_cents": 0, "total_cents": 0}]
    assert T.brand_size_revenue(
        rp("lineitem"), rp("part"),
        rules=(("Brand#none", 1, 10, 1, 11),)).take_all() \
        == [{"n_lines": 0, "revenue_cents": 0}]
    assert T.small_quantity_revenue(
        rp("lineitem"), rp("part"), brand="Brand#none").take_all() \
        == [{"n_small_lines": 0, "revenue_cents": 0}]


_JOINED_QUERIES = ("order_line_join", "order_line_left", "order_line_full",
                   "supplier_shipments", "brand_volume", "shipping_priority",
                   "small_quantity_revenue", "customer_order_counts",
                   "idle_rich_customers", "order_priority_check",
                   "late_line_priority", "brand_supplier_counts")


@pytest.mark.parametrize("parts", ["one", "cpus"])
def test_tpch_joins_match_on_the_bucketed_route(ray_session, monkeypatch,
                                                 parts):
    """Each tpch query built on ``exchange.join`` gives the same rows
    when exchange.BROADCAST_MAX_ROWS = 0 forces every join onto the
    bucketed route, with one partition and with one per CPU."""
    import sys

    import webtext.exchange as X

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sf = "/root/testdata/sf0.001"

    def rows(name):
        return sorted((tuple(r.values()) for r in qs[name](sf).take_all()),
                      key=repr)

    want = {name: rows(name) for name in _JOINED_QUERIES}
    monkeypatch.setattr(X, "BROADCAST_MAX_ROWS", 0)
    if parts == "cpus":
        monkeypatch.setattr(X, "_size_parts", lambda nbytes, cpus: cpus)
    for name in _JOINED_QUERIES:
        assert rows(name) == want[name] and want[name], name
