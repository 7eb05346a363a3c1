"""TPC-H-style relational queries over the driver tables — the three
canonical distributed-join/aggregate shapes a data engine must get
right, each expressed on the one exchange (``webtext.exchange``) with
an exact SQL oracle:

* pricing_summary   — Q1-shaped multi-aggregate with the COMBINER
                      pattern (per-batch partial aggregates inside
                      map_batches; the exchange ships one row per
                      (batch, group), never lineitems).  Money sums are
                      integer cents (half-away-from-zero per element,
                      matching DuckDB's round()) so float summation
                      order can never skew the value hash.
* order_line_join   — large-large equi-join (orders ⋈ lineitem):
                      lineitem is pre-aggregated per orderkey FIRST
                      (one keyed aggregate), and ``exchange.join``
                      attaches the per-order totals to the orders.
* region_customer_counts — dimension enrichment via BROADCAST: the
                      nation→region map (a few hundred rows) is
                      ray.put once and read inside each task; customers
                      never shuffle, only per-batch partial counts do.

Every join is ``exchange.join``: a side whose row count is free (a
parquet footer, a materialized aggregate) is passed as ``right_rows``,
so it broadcasts as a sorted LUT under ``exchange.BROADCAST_MAX_ROWS``
and rides the bucketed exchange above it.  Cells that are not joins run
on ``exchange.group_map``, and each global combine (a top-k merge, a
one-row total) is ``group_map`` with no key: one task.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import _ibucket, aggregate, group_map, join  # module
# scope: worker code is shipped by value and cannot lazy-import webtext


def _cents(x: np.ndarray) -> np.ndarray:
    """Positive-domain half-away-from-zero integer cents — DuckDB's
    CAST(round(x*100) AS BIGINT) for x ≥ 0."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _qty_i64(x: np.ndarray) -> np.ndarray:
    """Positive-domain DuckDB CAST(double AS BIGINT): round half away
    from zero (CAST(2.5)→3, CAST(2.6)→3) — NOT numpy's truncating
    astype, which would diverge from every SQL oracle on non-integral
    quantities."""
    return np.floor(x + 0.5).astype(np.int64)


def _keyed_qty_partial(batch: pa.Table, key_col: str) -> pa.Table:
    """Shared per-batch combiner: lineitem rows → one (key_col, qty, n)
    row per distinct key in the batch.  Every lineitem-side
    join/aggregate here funnels through this one helper so the
    quantity-cast contract cannot drift between queries."""
    keys = batch.column(key_col).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    qty = _qty_i64(batch.column("l_quantity")
                   .to_numpy(zero_copy_only=False))
    t = pa.Table.from_arrays(
        [pa.array(keys), pa.array(qty),
         pa.array(np.ones(len(keys), dtype=np.int64))],
        names=["key", "qty", "n"])
    agg = t.group_by(["key"]).aggregate([("qty", "sum"), ("n", "sum")])
    return agg.rename_columns([key_col, "qty", "n"])


def _qty_per_key(lineitem, key_col: str, names: list):
    """(key, n_lines, sum_qty) per distinct ``key_col`` of lineitem, one
    row per key, renamed to ``names``: the per-batch combiner, then one
    keyed aggregate."""
    partial = lineitem.select_columns([key_col, "l_quantity"]).map_batches(
        _keyed_qty_partial, fn_kwargs={"key_col": key_col},
        batch_format="pyarrow", zero_copy_batch=True)
    return aggregate(partial, key_col, ("sum", "n"), ("sum", "qty"),
                     names=names)


def _pricing_partial(batch: pa.Table) -> pa.Table:
    qty = _qty_i64(batch.column("l_quantity")
                   .to_numpy(zero_copy_only=False))
    price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
    t = pa.Table.from_arrays(
        [batch.column("l_returnflag"), batch.column("l_linestatus"),
         pa.array(qty), pa.array(_cents(price)),
         pa.array(np.ones(batch.num_rows, dtype=np.int64))],
        names=["l_returnflag", "l_linestatus", "q", "cents", "one"])
    agg = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("q", "sum"), ("cents", "sum"), ("one", "sum")])
    return agg.rename_columns(
        ["l_returnflag", "l_linestatus", "sum_qty",
         "sum_base_cents", "n_rows"])


def _pricing_totals(lineitem, partial):
    """The Q1 sums (l_returnflag, l_linestatus, sum_qty, sum_base_cents,
    n_rows) over the rows of the per-batch combiner ``partial``."""
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_cents",
            "n_rows"]
    return aggregate(
        lineitem.select_columns(
            ["l_returnflag", "l_linestatus", "l_quantity",
             "l_extendedprice"]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        cols[:2], *(("sum", c) for c in cols[2:]), names=cols)


def pricing_summary(lineitem):
    """(l_returnflag, l_linestatus, sum_qty, sum_base_cents, n_rows)."""
    return _pricing_totals(lineitem, _pricing_partial)


def _lines_per_order(lineitem):
    return _qty_per_key(lineitem, "l_orderkey",
                        ["o_orderkey", "n_lines", "sum_qty"])


def _zero_fill(batch: pa.Table, cols: list) -> pa.Table:
    """A left join's unmatched rows count 0 in its attached ``cols``."""
    for c in cols:
        batch = batch.set_column(batch.schema.get_field_index(c), c,
                                 pc.fill_null(batch.column(c), 0))
    return batch


def _orders_with_lines(orders, lines, how: str):
    """Orders ⋈ per-order lineitem totals, ``how`` inner or left (an
    order with no lines then counts zeros)."""
    out = join(orders.select_columns(["o_orderkey", "o_custkey"]), lines,
               "o_orderkey", how=how, attach=["n_lines", "sum_qty"],
               right_rows=lines.count())
    return out if how == "inner" else out.map_batches(
        _zero_fill, fn_kwargs={"cols": ["n_lines", "sum_qty"]},
        batch_format="pyarrow", zero_copy_batch=True)


def order_line_join(orders, lineitem):
    """(o_orderkey, o_custkey, n_lines, sum_qty) — inner equi-join of
    orders to per-order lineitem aggregates."""
    return _orders_with_lines(orders, _lines_per_order(lineitem), "inner")


def region_customer_counts(customer, nation, region):
    """(r_name, n_customers) — customers counted per region name via a
    BROADCAST of the nation→region-name map: the dimension tables are
    collected once (they are constant-size — 25 nations, 5 regions at
    every TPC-H scale), shipped via ray.put, and looked up inside each
    customer batch; only per-batch partial counts reach the shuffle."""
    import ray

    n_rows = nation.select_columns(
        ["n_nationkey", "n_regionkey"]).take_all()
    r_rows = region.select_columns(["r_regionkey", "r_name"]).take_all()
    rname = {r["r_regionkey"]: r["r_name"] for r in r_rows}
    nat2region = {r["n_nationkey"]: rname[r["n_regionkey"]]
                  for r in n_rows}
    ref = ray.put(nat2region)

    class CountPerRegion:
        def __init__(self, mapref):
            m = ray.get(mapref)
            # dense vectorized lookup table (nationkeys are small
            # ints); None marks missing so unknown keys DROP like the
            # oracle's inner join instead of crashing or miscounting
            self.lut = np.array([m.get(i) for i in
                                 range(max(m) + 1)], dtype=object)

        def __call__(self, batch: pa.Table) -> pa.Table:
            nk = batch.column("c_nationkey").to_numpy(
                zero_copy_only=False).astype(np.int64)
            in_range = (nk >= 0) & (nk < len(self.lut))
            names = np.full(len(nk), None, dtype=object)
            names[in_range] = self.lut[nk[in_range]]
            keep = names != None  # noqa: E711 - elementwise
            names = names[keep]
            t = pa.Table.from_arrays(
                [pa.array(names.tolist(), pa.string()),
                 pa.array(np.ones(len(names), dtype=np.int64))],
                names=["r_name", "n"])
            agg = t.group_by(["r_name"]).aggregate([("n", "sum")])
            return agg.rename_columns(["r_name", "n_customers"])

    partial = customer.select_columns(["c_nationkey"]).map_batches(
        CountPerRegion, batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 4), fn_constructor_args=(ref,))
    return aggregate(partial, "r_name", ("sum", "n_customers"),
                     names=["r_name", "n_customers"])


def supplier_shipments(lineitem, supplier):
    """(s_suppkey, n_lines, sum_qty, s_name) — per-supplier shipped
    volume: lineitem pre-aggregated per batch (combiner), summed with
    one small keyed aggregate, supplier names attached by
    ``exchange.join`` (inner semantics: suppliers with no lines and
    keys with no supplier row both drop, matching the oracle's join).

    Unlike nation/region (constant 25/5 rows at every TPC-H scale),
    supplier is sf-PROPORTIONAL (10k·sf rows): its footer count routes
    the join, so the name table broadcasts at the tested scales and
    rides the bucketed exchange past ``exchange.BROADCAST_MAX_ROWS``."""
    summed = _qty_per_key(lineitem, "l_suppkey",
                          ["s_suppkey", "n_lines", "sum_qty"])
    return join(summed, supplier.select_columns(["s_suppkey", "s_name"]),
                "s_suppkey", attach=["s_name"], right_rows=supplier.count())


def order_line_left_join(orders, lineitem):
    """(o_orderkey, o_custkey, n_lines, sum_qty) — LEFT OUTER join:
    the plan of order_line_join, but orders with no lineitem rows
    survive with zero counts."""
    return _orders_with_lines(orders, _lines_per_order(lineitem), "left")


ROLLUP_ALL = "ALL"


def _rollup_partial(batch: pa.Table) -> pa.Table:
    """Combiner with level replication: each lineitem batch emits
    partial aggregates at all three ROLLUP levels — (flag, status),
    (flag, ALL), (ALL, ALL) — so the shuffle ships 3 × the tiny
    per-batch group count and the final groupby is level-agnostic."""
    agg = _pricing_partial(batch)
    flag = agg.column("l_returnflag")
    status = agg.column("l_linestatus")
    alls = pa.array([ROLLUP_ALL] * agg.num_rows, pa.string())
    levels = []
    for f, s in ((flag, status), (flag, alls), (alls, alls)):
        levels.append(pa.Table.from_arrays(
            [f, s, agg.column("sum_qty"), agg.column("sum_base_cents"),
             agg.column("n_rows")],
            names=["l_returnflag", "l_linestatus", "sum_qty",
                   "sum_base_cents", "n_rows"]))
    t = pa.concat_tables(levels)
    out = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("sum_qty", "sum"), ("sum_base_cents", "sum"),
         ("n_rows", "sum")])
    return out.rename_columns(
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_cents",
         "n_rows"])


def pricing_rollup(lineitem):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) with 'ALL' standing
    in for SQL's NULL super-aggregate rows (keeps the value-hash
    comparison NULL-free).  Pure combiner pattern — the rollup levels
    are replicated inside the per-batch partial, so no extra shuffle
    vs the plain pricing_summary."""
    return _pricing_totals(lineitem, _rollup_partial)


def profile_columns(ds, columns: tuple[str, ...]):
    """(column, n_rows, n_null, min_v, max_v) per numeric column — the
    schema-profiling pass a data engine runs before planning.  One
    combiner map (per-batch min/max/count per column — a few rows per
    batch regardless of width) + one tiny groupby; min/max are exact
    element values (no accumulation), so the oracle comparison is
    float-exact."""

    def partial(batch: pa.Table) -> pa.Table:
        names, n_rows, n_null, mn, mx = [], [], [], [], []
        for c in columns:
            col = batch.column(c)
            v = col.to_numpy(zero_copy_only=False).astype(np.float64)
            null_mask = np.isnan(v) if col.null_count else \
                np.zeros(len(v), dtype=bool)
            ok = v[~null_mask]
            names.append(c)
            n_rows.append(len(v))
            n_null.append(int(null_mask.sum()))
            mn.append(float(ok.min()) if len(ok) else np.inf)
            mx.append(float(ok.max()) if len(ok) else -np.inf)
        return pa.Table.from_arrays(
            [pa.array(names, pa.string()),
             pa.array(n_rows, pa.int64()), pa.array(n_null, pa.int64()),
             pa.array(mn, pa.float64()), pa.array(mx, pa.float64())],
            names=["column", "n_rows", "n_null", "min_v", "max_v"])

    return aggregate(
        ds.select_columns(list(columns))
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "column", ("sum", "n_rows"), ("sum", "n_null"),
        ("min", "min_v"), ("max", "max_v"),
        names=["column", "n_rows", "n_null", "min_v", "max_v"])


def _limb_sum(v: np.ndarray, per_row_max: int) -> tuple[int, int]:
    """Exact sum of an int64 array whose per-row magnitude is bounded by
    ``per_row_max``, returned as base-1e9 limbs (hi, lo).  Chunked
    ``add.reduceat`` keeps every partial below 2^62 (no silent int64
    wrap — the failure mode ADVICE r3 flagged in zscore), then the few
    chunk totals are summed in Python arbitrary-precision ints.  One
    vector op + O(n_chunks) Python — not per-row."""
    if len(v) == 0:
        return 0, 0
    chunk = max(1, (1 << 62) // max(per_row_max, 1))
    if len(v) <= chunk:
        total = int(v.sum())
    else:
        idx = np.arange(0, len(v), chunk, dtype=np.int64)
        total = int(sum(int(x) for x in np.add.reduceat(v, idx)))
    return total // 1_000_000_000, total % 1_000_000_000


def corr_by_group(ds, group_col: str = "l_returnflag",
                  x_col: str = "l_quantity",
                  y_col: str = "l_extendedprice"):
    """(group, n, corr_micro): per-group Pearson correlation of two
    numeric columns in integer cents — the feature-correlation pass of
    a dataset-profiling stage — micro-quantized so the distributed
    reduce is order-invariant and bit-equal to the SQL oracle.

    Combiner shape: per-batch EXACT integer moment partials (n, Σx, Σy,
    Σx², Σy², Σxy) with every square/cross sum carried as base-1e9
    limbs (hi, lo) — Σy² per row reaches ~1.2e14 cents², so a naive
    int64 groupby sum wraps near 10^5 max-value rows; the limb encoding
    holds exactly to ~10^13 rows per group (documented bound) while the
    DuckDB oracle's SUM() promotes to HUGEINT.  The tiny per-group
    stats table reduces via one groupby (constant rows = distinct
    groups), and the final r = (nΣxy − ΣxΣy) / √((nΣx²−Σx²)(nΣy²−Σy²))
    runs driver-side in Python big ints then ONE double divide/sqrt in
    the same IEEE order as the SQL expression — bit-identical micros."""
    import pandas as pd

    # per-row magnitude bounds for the chunked exact sums (cents):
    # quantity ≤ 50.00 → 5e3, price ≤ ~1.1e5.00 → 2e7 (generous)
    XMAX, YMAX = 100_000, 100_000_000

    def partial(batch: pa.Table) -> pa.Table:
        x = np.floor(batch.column(x_col)
                     .to_numpy(zero_copy_only=False) * 100.0
                     + 0.5).astype(np.int64)
        y = np.floor(batch.column(y_col)
                     .to_numpy(zero_copy_only=False) * 100.0
                     + 0.5).astype(np.int64)
        codes, uniq = pd.factorize(
            batch.column(group_col).to_pandas(), sort=False)
        rows = {k: [] for k in (
            "grp", "n", "sx", "sy", "sxx_hi", "sxx_lo", "syy_hi",
            "syy_lo", "sxy_hi", "sxy_lo")}
        for c, grp in enumerate(uniq):
            m = codes == c
            xi, yi = x[m], y[m]
            rows["grp"].append(str(grp))
            rows["n"].append(int(m.sum()))
            rows["sx"].append(int(xi.sum()))
            rows["sy"].append(int(yi.sum()))
            for key, v, bound in (
                    ("sxx", xi * xi, XMAX * XMAX),
                    ("syy", yi * yi, YMAX * YMAX),
                    ("sxy", xi * yi, XMAX * YMAX)):
                hi, lo = _limb_sum(v, bound)
                rows[f"{key}_hi"].append(hi)
                rows[f"{key}_lo"].append(lo)
        return pa.Table.from_pydict(
            {k: pa.array(v, pa.string() if k == "grp" else pa.int64())
             for k, v in rows.items()})

    import math

    stats = aggregate(
        ds.select_columns([group_col, x_col, y_col])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "grp", *(("sum", c) for c in (
            "n", "sx", "sy", "sxx_hi", "sxx_lo", "syy_hi", "syy_lo",
            "sxy_hi", "sxy_lo"))) \
        .take_all()                      # constant rows: distinct groups
    out = {group_col: [], "n": [], "corr_micro": []}
    for r in sorted(stats, key=lambda r: r["grp"]):
        n = int(r["sum(n)"])
        sx, sy = int(r["sum(sx)"]), int(r["sum(sy)"])
        sxx = int(r["sum(sxx_hi)"]) * 1_000_000_000 + int(r["sum(sxx_lo)"])
        syy = int(r["sum(syy_hi)"]) * 1_000_000_000 + int(r["sum(syy_lo)"])
        sxy = int(r["sum(sxy_hi)"]) * 1_000_000_000 + int(r["sum(sxy_lo)"])
        num = n * sxy - sx * sy          # exact big ints
        den_x = n * sxx - sx * sx
        den_y = n * syy - sy * sy
        if n > 1 and den_x > 0 and den_y > 0:
            cm = int(math.floor(
                float(num) * 1000000.0
                / math.sqrt(float(den_x) * float(den_y)) + 0.5))
        else:
            cm = 0
        out[group_col].append(r["grp"])
        out["n"].append(n)
        out["corr_micro"].append(cm)
    return pd.DataFrame(out)


def _rev_cents(price: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """DuckDB CAST(round(l_extendedprice*(1-l_discount)*100) AS BIGINT)
    for the positive domain — identical double-op order, so bit-equal."""
    return np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)


def _column_totals(table: pa.Table, cols: list) -> pa.Table:
    """One int64 row: each of ``cols`` summed over ``table``."""
    return pa.Table.from_arrays(
        [pa.array([int(pc.sum(table.column(c)).as_py() or 0)], pa.int64())
         for c in cols], names=cols)


def _one_row_total(partials, cols: list):
    """The global combine of per-block partials: one row of the sums of
    ``cols``, on one ``group_map`` task with no key — a row of zeros
    when there are no partial rows (a window that matches nothing), as
    a SQL aggregate without GROUP BY gives."""
    total = group_map(partials, (),
                      functools.partial(_column_totals, cols=cols))
    if total.count():
        return total
    import ray

    return ray.data.from_arrow(
        pa.table({c: pa.array([0], pa.int64()) for c in cols}))


def shipping_priority(customer, orders, lineitem,
                      segment: str = "BUILDING",
                      cutoff: str = "1998-06-01", k: int = 10):
    """TPC-H Q3 shape: top-k orders by revenue among a market segment's
    orders placed before ``cutoff`` with lines shipped after it.
    Output: (l_orderkey, o_orderdate, o_orderpriority, revenue_cents).

    Two joins, no broadcast of a side past the join gate:

    1. semi-join the early orders to the segment's customers on custkey
       (customers ship only their custkey);
    2. attach per-order lineitem revenue to the surviving orders — the
       revenue is one keyed aggregate over per-batch combiner partials,
       so the exchange carries one row per (batch, orderkey), never
       lineitems;
    3. top-k: each block keeps its local top-k, and one ``group_map``
       with no key picks the global top-k (k × blocks rows — driver-safe
       at any corpus size)."""
    cut_us = np.datetime64(cutoff, "us").astype(np.int64)

    def in_segment(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("c_mktsegment"),
                                     segment)).select(["c_custkey"])

    def placed_early(batch: pa.Table) -> pa.Table:
        odate = batch.column("o_orderdate").cast(pa.timestamp("us"))
        keep = odate.cast(pa.int64()).to_numpy(zero_copy_only=False) \
            < cut_us
        return pa.Table.from_arrays(
            [batch.column("o_orderkey").cast(pa.int64()),
             batch.column("o_custkey").cast(pa.int64()), odate,
             batch.column("o_orderpriority")],
            names=["l_orderkey", "o_custkey", "o_orderdate",
                   "o_orderpriority"]).filter(pa.array(keep))

    def line_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = ship > cut_us
        okey = batch.column("l_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        rev = _rev_cents(
            batch.column("l_extendedprice")
            .to_numpy(zero_copy_only=False)[keep],
            batch.column("l_discount")
            .to_numpy(zero_copy_only=False)[keep])
        t = pa.Table.from_arrays([pa.array(okey), pa.array(rev)],
                                 names=["l_orderkey", "rev"])
        return t.group_by(["l_orderkey"]).aggregate([("rev", "sum")]) \
            .rename_columns(["l_orderkey", "rev"])

    def top_k(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        rev = batch.column("revenue_cents") \
            .to_numpy(zero_copy_only=False)
        return batch.select(["l_orderkey", "o_orderdate", "o_orderpriority",
                             "revenue_cents"]) \
            .take(pa.array(np.lexsort((okey, -rev))[:k]))

    surviving = join(
        orders.select_columns(["o_orderkey", "o_custkey", "o_orderdate",
                               "o_orderpriority"])
        .map_batches(placed_early, batch_format="pyarrow",
                     zero_copy_batch=True),
        customer.select_columns(["c_custkey", "c_mktsegment"])
        .map_batches(in_segment, batch_format="pyarrow",
                     zero_copy_batch=True),
        "o_custkey", right_on="c_custkey", how="semi",
        right_rows=customer.count())
    revenue = aggregate(
        lineitem.select_columns(
            ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "l_orderkey", ("sum", "rev"), names=["l_orderkey", "revenue_cents"])
    joined = join(surviving, revenue, "l_orderkey",
                  attach=["revenue_cents"], right_rows=revenue.count())
    return group_map(joined.map_batches(top_k, batch_format="pyarrow",
                                        zero_copy_batch=True), (), top_k)


def brand_volume(lineitem, part):
    """(p_brand, n_lines, sum_qty) — join-then-reaggregate: lineitem
    partials summed per partkey, part brands attached by
    ``exchange.join`` (part is corpus-sized at real scale, so its
    footer count routes it), then one keyed aggregate per brand."""
    per_part = _qty_per_key(lineitem, "l_partkey", ["p_partkey", "n", "qty"])
    branded = join(per_part, part.select_columns(["p_partkey", "p_brand"]),
                   "p_partkey", attach=["p_brand"], right_rows=part.count())
    return aggregate(branded, "p_brand", ("sum", "n"), ("sum", "qty"),
                     names=["p_brand", "n_lines", "sum_qty"])


def _attach_routed(fact, dim, key_col: str, attach_cols,
                   carry_cols: tuple[str, ...],
                   n_dim_rows: int | None = None):
    """Dimension attach (inner join) on ``exchange.join``: fact rows
    (key, *carry) pick up ``attach_cols`` (one name or a tuple) from the
    dim row with their key; unmatched fact rows drop, and a duplicate
    dim key raises.  The output is (*attach_cols, *carry_cols), all
    int64.

    ``n_dim_rows`` routes it: at or under ``exchange.BROADCAST_MAX_ROWS``
    (read at call time) the dim is collected once and broadcast as a
    sorted LUT, with no exchange — what turned the Q5/Q7/Q8/Q9
    deep-join chains from 3-4 sort shuffles each into one (or zero) at
    bench scales; above it, or None (a corpus-sized dim), one bucketed
    exchange runs.  At every tested sf the TPC-H dimension tables
    (nation/supplier/customer/part/orders) fit the gate, while a 100-TB
    orders or customer table routes to the exchange.
    CONTRACT: compute it on the SOURCE read (e.g. ``orders.count()``
    straight off read_parquet, where Ray answers from parquet
    metadata).  Counting a derived/filtered dataset instead would
    execute its plan once for the count and again for the collect —
    pass the upstream count, or the known cardinality, in that case."""
    attach_cols = (attach_cols,) if isinstance(attach_cols, str) \
        else tuple(attach_cols)
    out_names = list(attach_cols) + list(carry_cols)

    def project(batch: pa.Table) -> pa.Table:
        if not batch.num_columns:
            return pa.table({c: pa.array([], pa.int64())
                             for c in out_names})
        return pa.Table.from_arrays(
            [batch.column(c).cast(pa.int64()) for c in out_names],
            names=out_names)

    return join(fact.select_columns(list(dict.fromkeys(
                    [key_col, *carry_cols]))),
                dim, key_col, attach=attach_cols, right_rows=n_dim_rows) \
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def local_supplier_volume(customer, orders, lineitem, supplier, nation):
    """TPC-H Q5 shape: revenue per nation from lineitems whose supplier
    and customer share that nation.  Output (n_name, revenue_cents).

    Deep-join pipeline: three ROUTED dimension attaches chained on
    DIFFERENT keys — orderkey → custkey → suppkey — each broadcast as
    a sorted LUT under ``exchange.BROADCAST_MAX_ROWS`` (all three fit
    at every tested sf) and a bucketed exchange past it (orders /
    customer / supplier all scale with the corpus, so the gate is what
    keeps the 100-TB plan a shuffle).  The lineitem side
    enters pre-combined per (orderkey, suppkey)."""
    import ray

    n_orders = orders.count()       # metadata-only on source reads
    n_cust = customer.count()
    n_supp = supplier.count()

    def line_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64())
        skey = batch.column("l_suppkey").cast(pa.int64())
        rev = _rev_cents(
            batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False),
            batch.column("l_discount").to_numpy(zero_copy_only=False))
        t = pa.Table.from_arrays([okey, skey, pa.array(rev)],
                                 names=["l_orderkey", "suppkey", "rev"])
        agg = t.group_by(["l_orderkey", "suppkey"]).aggregate(
            [("rev", "sum")])
        return agg.rename_columns(["l_orderkey", "suppkey", "rev"])

    lines = lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]) \
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True)
    with_cust = _attach_routed(
        lines, orders.select_columns(["o_orderkey", "o_custkey"])
        .map_batches(lambda b: b.rename_columns(
            ["l_orderkey", "custkey"]), batch_format="pyarrow",
            zero_copy_batch=True),
        "l_orderkey", "custkey", ("suppkey", "rev"), n_orders)
    with_cnat = _attach_routed(
        with_cust, customer.select_columns(["c_custkey", "c_nationkey"])
        .map_batches(lambda b: b.rename_columns(["custkey", "c_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "custkey", "c_nat", ("suppkey", "rev"), n_cust)
    with_snat = _attach_routed(
        with_cnat, supplier.select_columns(["s_suppkey", "s_nationkey"])
        .map_batches(lambda b: b.rename_columns(["suppkey", "s_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "suppkey", "s_nat", ("c_nat", "rev"), n_supp)

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"]).take_all()}
    ref = ray.put(names)

    def local_partial(batch: pa.Table) -> pa.Table:
        s_nat = batch.column("s_nat").to_numpy(zero_copy_only=False)
        c_nat = batch.column("c_nat").to_numpy(zero_copy_only=False)
        rev = batch.column("rev").to_numpy(zero_copy_only=False)
        keep = s_nat == c_nat
        t = pa.Table.from_arrays(
            [pa.array(s_nat[keep]), pa.array(rev[keep])],
            names=["nat", "rev"])
        agg = t.group_by("nat").aggregate([("rev", "sum")])
        return agg.rename_columns(["nat", "revenue_cents"])

    summed = aggregate(
        with_snat.map_batches(
            local_partial, batch_format="pyarrow", zero_copy_batch=True),
        "nat", ("sum", "revenue_cents"), names=["nat", "revenue_cents"])

    def attach_name(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        nats = batch.column("nat").to_numpy(zero_copy_only=False)
        nm = [m.get(int(n)) for n in nats]
        keep = pa.array([x is not None for x in nm])
        return pa.Table.from_arrays(
            [pa.array([x or "" for x in nm], pa.string()),
             batch.column("revenue_cents")],
            names=["n_name", "revenue_cents"]).filter(keep)

    return summed.map_batches(attach_name, batch_format="pyarrow",
                              zero_copy_batch=True)


def order_line_full_join(orders, lineitem):
    """(o_orderkey, o_custkey, n_lines, sum_qty) — FULL OUTER join:
    the left join of order_line_left_join plus the anti join of the
    per-order lineitem aggregates to orders — lines with no order
    survive with o_custkey = -1 (NULL sentinel, keeps the output
    int64)."""
    lines = _lines_per_order(lineitem)

    def no_order(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("o_orderkey"),
             pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
             batch.column("n_lines"), batch.column("sum_qty")],
            names=["o_orderkey", "o_custkey", "n_lines", "sum_qty"])

    dangling = join(lines, orders.select_columns(["o_orderkey"]),
                    "o_orderkey", how="anti", right_rows=orders.count())
    return _orders_with_lines(orders, lines, "left").union(
        dangling.map_batches(no_order, batch_format="pyarrow",
                             zero_copy_batch=True))


def small_quantity_revenue(lineitem, part, brand: str = "Brand#1"):
    """TPC-H Q17 shape: one-row (n_small_lines, revenue_cents) over
    lineitems of the given brand's parts whose quantity is below 20% of
    that part's average lineitem quantity — the correlated-aggregate
    filter (price impact of small-lot orders).

    The correlated avg must see ALL lineitems of a part, so lineitem
    rows pre-combine per (partkey, qty-cents) — quantities are discrete,
    so the combiner collapses the fact side hard — and a semi join
    keeps the partials of the brand's parts.  One ``group_map`` over
    hash(partkey) buckets then runs the per-part threshold, the row
    filter and the partial sums in each bucket, with the threshold in
    integers (5 * qc * n < sum_qc  ⟺  qc < 0.2 * avg_qc), and a one-row
    total finalizes."""

    def line_partial(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        qc = _cents(batch.column("l_quantity")
                    .to_numpy(zero_copy_only=False))
        price = _cents(batch.column("l_extendedprice")
                       .to_numpy(zero_copy_only=False))
        t = pa.Table.from_arrays(
            [pa.array(pk), pa.array(qc),
             pa.array(np.ones(len(pk), dtype=np.int64)),
             pa.array(price)],
            names=["partkey", "qc", "n_lines", "price"])
        agg = t.group_by(["partkey", "qc"]).aggregate(
            [("n_lines", "sum"), ("price", "sum")])
        agg = agg.rename_columns(["partkey", "qc", "n_lines", "price"])
        return agg.append_column("bucket", pa.array(_ibucket(
            agg.column("partkey").to_numpy(zero_copy_only=False))))

    def of_brand(batch: pa.Table, *, _brand=brand) -> pa.Table:
        return batch.filter(pc.equal(batch.column("p_brand"), _brand)) \
            .select(["p_partkey"])

    def small_lines(group: pa.Table) -> pa.Table:
        pk, qc, nl, price = (
            group.column(c).to_numpy(zero_copy_only=False)
            for c in ("partkey", "qc", "n_lines", "price"))
        # per-part totals over ALL lineitems (avg sees everything)
        pk_u, inv = np.unique(pk, return_inverse=True)
        n_part = np.zeros(len(pk_u), dtype=np.int64)
        sq_part = np.zeros(len(pk_u), dtype=np.int64)
        np.add.at(n_part, inv, nl)
        np.add.at(sq_part, inv, qc * nl)
        keep = 5 * qc * n_part[inv] < sq_part[inv]
        return pa.Table.from_arrays(
            [pa.array([int(nl[keep].sum())], pa.int64()),
             pa.array([int(price[keep].sum())], pa.int64())],
            names=["n_small_lines", "revenue_cents"])

    lines = join(
        lineitem.select_columns(
            ["l_partkey", "l_quantity", "l_extendedprice"])
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        part.select_columns(["p_partkey", "p_brand"])
        .map_batches(of_brand, batch_format="pyarrow", zero_copy_batch=True),
        "partkey", right_on="p_partkey", how="semi",
        right_rows=part.count())
    return _one_row_total(group_map(lines, "bucket", small_lines),
                          ["n_small_lines", "revenue_cents"])


def pricing_cube(lineitem):
    """GROUP BY CUBE(l_returnflag, l_linestatus): the ROLLUP combiner
    plus the fourth (ALL, status) level — all 2^2 grouping sets
    replicated inside the per-batch partial, so the full cube still
    costs exactly one shuffle of tiny partial rows."""

    def cube_partial(batch: pa.Table) -> pa.Table:
        agg = _pricing_partial(batch)
        flag = agg.column("l_returnflag")
        status = agg.column("l_linestatus")
        alls = pa.array([ROLLUP_ALL] * agg.num_rows, pa.string())
        levels = []
        for f, s in ((flag, status), (flag, alls),
                     (alls, status), (alls, alls)):
            levels.append(pa.Table.from_arrays(
                [f, s, agg.column("sum_qty"),
                 agg.column("sum_base_cents"), agg.column("n_rows")],
                names=["l_returnflag", "l_linestatus", "sum_qty",
                       "sum_base_cents", "n_rows"]))
        t = pa.concat_tables(levels)
        out = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_base_cents", "sum"),
             ("n_rows", "sum")])
        return out.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty",
             "sum_base_cents", "n_rows"])

    return _pricing_totals(lineitem, cube_partial)


def returned_item_report(customer, orders, lineitem, nation,
                         date_from: str = "1995-07-01",
                         date_to: str = "1995-10-01", k: int = 20):
    """TPC-H Q10 shape: top-k customers by revenue lost to RETURNED
    items ('R' lines) on orders placed in a quarter, with the
    customer's nation attached.  Output: (c_custkey, n_name,
    revenue_cents), revenue desc / custkey asc.

    Plan (no sf-proportional broadcast anywhere):
    1. lineitem pre-aggregates returned-line revenue per (batch,
       orderkey) — the combiner bounds the first exchange;
    2. revenue partials pick up o_custkey through the generic
       bucketed `_attach_routed` on orderkey (orders filtered to the
       quarter; inner semantics drop out-of-window revenue);
    3. one sum aggregate by custkey;
    4. per-customer totals pick up c_nationkey through a second
       bucketed `_attach_routed` on custkey — customer is
       sf-proportional, so it rides the exchange, never ray.put;
    5. nation names (constant 25 rows) broadcast; top-k is the usual
       per-block partial + one keyless ``group_map`` final."""
    import ray

    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def line_partial(batch: pa.Table) -> pa.Table:
        flag = batch.column("l_returnflag").to_numpy(
            zero_copy_only=False)
        keep = flag == "R"
        okey = batch.column("l_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        rev = _rev_cents(
            batch.column("l_extendedprice")
            .to_numpy(zero_copy_only=False)[keep],
            batch.column("l_discount")
            .to_numpy(zero_copy_only=False)[keep])
        t = pa.Table.from_arrays([pa.array(okey), pa.array(rev)],
                                 names=["l_orderkey", "rev"])
        agg = t.group_by(["l_orderkey"]).aggregate([("rev", "sum")])
        return agg.rename_columns(["l_orderkey", "rev"])

    def orders_window(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (od >= lo) & (od < hi)
        # key column renamed to the fact side's name (_attach_routed
        # uses ONE key_col for both sides)
        return batch.filter(pa.array(keep)).select(
            ["o_orderkey", "o_custkey"]) \
            .rename_columns(["l_orderkey", "o_custkey"])

    rev_parts = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount",
         "l_returnflag"]).map_batches(
        line_partial, batch_format="pyarrow", zero_copy_batch=True)
    in_window = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        orders_window, batch_format="pyarrow", zero_copy_batch=True)
    with_cust = _attach_routed(rev_parts, in_window, "l_orderkey",
                               "o_custkey", ("rev",))
    per_cust = aggregate(with_cust, "o_custkey", ("sum", "rev"),
                         names=["c_custkey", "rev"]).map_batches(
        lambda b: b.append_column("ckey", b.column(0).cast(pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)
    # _attach_routed keeps only (attach, carry) — the custkey rides as
    # an explicit carry copy
    with_nat = _attach_routed(
        per_cust, customer.select_columns(["c_custkey", "c_nationkey"]),
        "c_custkey", "c_nationkey", ("rev", "ckey"))

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"])
             .take_all()}                       # constant 25 rows
    ref = ray.put(names)

    def attach_name_topk(batch: pa.Table, *, _ref=ref) -> pa.Table:
        nm = _ref if isinstance(_ref, dict) else ray.get(_ref)
        nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
        ck = batch.column("ckey").to_numpy(zero_copy_only=False)
        rev = batch.column("rev").to_numpy(zero_copy_only=False)
        top = np.lexsort((ck, -rev))[:k]
        return pa.Table.from_arrays(
            [pa.array(ck[top]),
             pa.array([nm[int(x)] for x in nk[top]], pa.string()),
             pa.array(rev[top])],
            names=["c_custkey", "n_name", "revenue_cents"])

    def final_topk(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        rev = batch.column("revenue_cents") \
            .to_numpy(zero_copy_only=False)
        return batch.take(pa.array(np.lexsort((ck, -rev))[:k]))

    # partial top-k per block, then one keyless group_map final
    return group_map(with_nat.map_batches(attach_name_topk,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True),
                     (), final_topk)


def forecast_revenue(lineitem, date_from: str = "2000-01-01",
                     date_to: str = "2001-01-01",
                     disc_lo_c: int = 5, disc_hi_c: int = 7,
                     qty_lt: float = 24.0):
    """TPC-H Q6 shape: revenue increase from dropping small discounts —
    one global filtered aggregate.  Output: a single row
    (revenue_micro, n_lines) where revenue_micro is
    Σ price_cents × disc_cents (unit 10^-4 dollars — the product of two
    exact integer quantizations, so the distributed sum is
    order-invariant and bit-equal to the SQL oracle; reference for the
    predicate ladder style: web_text_extractor_ver1.5.py:1011-1031's
    chained keep/drop filters).

    Scale shape: the purest combiner pipeline — each batch collapses to
    ONE partial row inside map_batches, so the only exchange is
    n_blocks rows into one keyless ``group_map`` task.  Discounts are
    compared in integer cents (round(l_discount*100)), never raw
    floats, so the BETWEEN edges cannot flake on float
    representation."""
    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        disc_c = _cents(disc)
        keep = ((ship >= lo) & (ship < hi)
                & (disc_c >= disc_lo_c) & (disc_c <= disc_hi_c)
                & (qty < qty_lt))
        price_c = _cents(batch.column("l_extendedprice")
                         .to_numpy(zero_copy_only=False)[keep])
        rev = int((price_c * disc_c[keep]).sum())
        return pa.Table.from_arrays(
            [pa.array([rev], pa.int64()),
             pa.array([int(keep.sum())], pa.int64())],
            names=["revenue_micro", "n_lines"])

    return _one_row_total(lineitem.select_columns(
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["revenue_micro", "n_lines"])


def promo_revenue(lineitem, part, date_from: str = "2000-09-01",
                  date_to: str = "2000-10-01"):
    """TPC-H Q14 shape: what share of one month's revenue came from
    promotional parts.  Output: a single row
    (promo_cents, total_cents) — both exact integer cents; the caller
    divides (the ratio itself is irrational, so shipping the two exact
    integers is the only bit-stable contract).

    Scale shape: lineitem pre-aggregates revenue per (batch, partkey)
    — the combiner bounds the exchange to one row per distinct partkey
    per batch — then picks up the is-promo flag from part via the
    bucketed `_attach_routed` (part is corpus-sized at real scale:
    NEVER broadcast), and the flagged partials collapse through a
    second one-row-per-batch combiner and a one-row total."""
    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def line_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ship >= lo) & (ship < hi)
        pk = batch.column("l_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        rev = _rev_cents(
            batch.column("l_extendedprice")
            .to_numpy(zero_copy_only=False)[keep],
            batch.column("l_discount")
            .to_numpy(zero_copy_only=False)[keep])
        t = pa.Table.from_arrays([pa.array(pk), pa.array(rev)],
                                 names=["l_partkey", "rev"])
        agg = t.group_by(["l_partkey"]).aggregate([("rev", "sum")])
        return agg.rename_columns(["l_partkey", "rev"])

    def part_emit(batch: pa.Table) -> pa.Table:
        promo = pc.equal(batch.column("p_type"), "PROMO") \
            .cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("p_partkey").cast(pa.int64()), promo],
            names=["l_partkey", "is_promo"])

    flagged = _attach_routed(
        lineitem.select_columns(
            ["l_partkey", "l_extendedprice", "l_discount",
             "l_shipdate"]).map_batches(
            line_partial, batch_format="pyarrow",
            zero_copy_batch=True),
        part.select_columns(["p_partkey", "p_type"]).map_batches(
            part_emit, batch_format="pyarrow", zero_copy_batch=True),
        "l_partkey", "is_promo", ("rev",))

    def split_partial(batch: pa.Table) -> pa.Table:
        promo = batch.column("is_promo").to_numpy(
            zero_copy_only=False).astype(bool)
        rev = batch.column("rev").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array([int(rev[promo].sum())], pa.int64()),
             pa.array([int(rev.sum())], pa.int64())],
            names=["promo_cents", "total_cents"])

    return _one_row_total(
        flagged.map_batches(split_partial, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["promo_cents", "total_cents"])


def large_volume_orders(orders, lineitem, min_total_qty: int = 150):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds a
    threshold, with the order's customer and date attached.  Output:
    (o_orderkey, o_custkey, o_orderdate, total_qty), unordered.

    Scale shape: the HAVING filter runs BEFORE the join — lineitem
    pre-aggregates quantity per (batch, orderkey), one keyed
    aggregate(okey).sum totals them, and only the surviving heavy orders
    (a tiny fraction of all orders at any scale) enter the bucketed
    attach that picks up (o_custkey, o_orderdate) from the orders
    table via bucketed `_attach_routed` — orders is corpus-sized, so it
    rides the bucketed exchange on orderkey, never a broadcast."""
    totals = _qty_per_key(lineitem, "l_orderkey", ["okey", "n", "qty"])

    def heavy(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch.column("qty"),
                          pa.scalar(min_total_qty, pa.int64()))
        return batch.filter(keep)

    def orders_emit(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("o_orderkey").cast(pa.int64()),
             batch.column("o_custkey").cast(pa.int64()), od],
            names=["okey", "custkey", "odate_us"])

    joined = _attach_routed(
        totals.map_batches(heavy, batch_format="pyarrow",
                           zero_copy_batch=True)
        .map_batches(lambda b: b.append_column(
            "okey2", b.column("okey")), batch_format="pyarrow",
            zero_copy_batch=True),
        orders.select_columns(
            ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
            orders_emit, batch_format="pyarrow", zero_copy_batch=True),
        "okey", ("custkey", "odate_us"), ("okey2", "qty"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("okey2"), batch.column("custkey"),
             batch.column("odate_us").cast(pa.timestamp("us")),
             batch.column("qty")],
            names=["o_orderkey", "o_custkey", "o_orderdate",
                   "total_qty"])

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def _cents_signed(x: np.ndarray) -> np.ndarray:
    """Half-away-from-zero integer cents over the FULL domain —
    DuckDB's CAST(round(x*100) AS BIGINT) including negatives (account
    balances can be negative; `_cents` is positive-domain only)."""
    s = x * 100.0
    return np.where(s >= 0, np.floor(s + 0.5),
                    np.ceil(s - 0.5)).astype(np.int64)


def customer_order_counts(customer, orders):
    """TPC-H Q13 shape: the distribution of orders-per-customer,
    INCLUDING zero-order customers.  Output: (c_count, custdist).

    Scale shape: one keyed aggregate counts the orders per custkey, a
    left ``exchange.join`` attaches the counts to the customers
    (customers with no orders get 0), and one more keyed aggregate
    counts the customers per order count.  Customer rows never leave
    their block as rows — only count cells do."""
    per_cust = aggregate(orders.select_columns(["o_custkey"]), "o_custkey",
                         ("count",), names=["c_custkey", "c_count"])

    counted = join(customer.select_columns(["c_custkey"]), per_cust,
                   "c_custkey", how="left", attach=["c_count"],
                   right_rows=per_cust.count())
    return aggregate(counted, "c_count", ("count",),
                     pre=functools.partial(_zero_fill, cols=["c_count"]),
                     names=["c_count", "custdist"])


def top_supplier(lineitem, date_from: str = "1999-01-01",
                 date_to: str = "1999-04-01"):
    """TPC-H Q15 shape: the supplier(s) with the maximum revenue in a
    quarter — ALL ties survive, per the reference view semantics.
    Output: (s_suppkey, total_revenue_cents).

    Scale shape: per-(batch, suppkey) revenue combiner → one keyed
    aggregate(suppkey).sum → the per-supplier table is materialized ONCE
    (it fans out to two consumers — the global max and the equality
    filter — and the single-consumption rule says a lazy plan would
    re-execute the whole lineage per consumer); the global max travels
    as per-block 1-row partials into a single final block, and only
    that one constant-size scalar crosses the driver."""

    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def line_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ship >= lo) & (ship < hi)
        sk = batch.column("l_suppkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        rev = _rev_cents(
            batch.column("l_extendedprice")
            .to_numpy(zero_copy_only=False)[keep],
            batch.column("l_discount")
            .to_numpy(zero_copy_only=False)[keep])
        t = pa.Table.from_arrays([pa.array(sk), pa.array(rev)],
                                 names=["s_suppkey", "rev"])
        agg = t.group_by(["s_suppkey"]).aggregate([("rev", "sum")])
        return agg.rename_columns(["s_suppkey", "rev"])

    revs = aggregate(
        lineitem.select_columns(
            ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "s_suppkey", ("sum", "rev"),
        names=["s_suppkey", "total_revenue_cents"])

    def block_max(batch: pa.Table) -> pa.Table:
        r = batch.column("total_revenue_cents") \
            .to_numpy(zero_copy_only=False)
        m = int(r.max()) if len(r) else np.iinfo(np.int64).min
        return pa.Table.from_arrays([pa.array([m], pa.int64())],
                                    names=["m"])

    parts = revs.map_batches(block_max, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    best = max(r["m"] for r in parts) if parts else 0

    def keep_max(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(
            batch.column("total_revenue_cents"),
            pa.scalar(best, pa.int64())))

    return revs.map_batches(keep_max, batch_format="pyarrow",
                            zero_copy_batch=True)


def idle_rich_customers(customer, orders,
                        inactive_since: str = "2000-07-01"):
    """TPC-H Q22 shape: customers with an above-average positive
    account balance with no order placed on or after ``inactive_since``,
    grouped by market segment (segment stands in for the reference's
    phone country code; the recency predicate keeps the anti-join
    non-vacuous on corpora where every customer has SOME order).
    Output: (c_mktsegment, n_cust, sum_acctbal_cents).

    Exactness: "above average" is decided as
    acctbal_cents × n_positive > Σ positive_cents — the rational
    comparison in exact int64, so the distributed filter is bit-equal
    to the SQL AVG() predicate with NO float division anywhere.

    Scale shape: the two-integer threshold reduces through one-row
    per-batch partials (constant driver traffic); rich customers are
    filtered BEFORE the anti join (they are a small fraction), then
    ``exchange.join`` anti-joins the recent orders' custkeys (each
    block ships a key once); survivors collapse through one tiny keyed
    aggregate per segment."""

    def bal_partial(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        pos = bal > 0.0
        c = _cents_signed(bal[pos])
        return pa.Table.from_arrays(
            [pa.array([int(c.sum())], pa.int64()),
             pa.array([int(pos.sum())], pa.int64())],
            names=["s", "n"])

    parts = customer.select_columns(["c_acctbal"]).map_batches(
        bal_partial, batch_format="pyarrow",
        zero_copy_batch=True).take_all()
    s_total = sum(r["s"] for r in parts)
    n_total = sum(r["n"] for r in parts)

    def rich_only(batch: pa.Table) -> pa.Table:
        bal_c = _cents_signed(batch.column("c_acctbal")
                              .to_numpy(zero_copy_only=False))
        # exact rational AVG() compare: bal > s/n  <=>  bal*n > s
        rich = pa.array(bal_c * n_total > s_total)
        return pa.Table.from_arrays(
            [batch.column("c_custkey").filter(rich),
             pa.array(bal_c).filter(rich),
             batch.column("c_mktsegment").filter(rich)],
            names=["c_custkey", "bal_c", "c_mktsegment"])

    cut_us = np.datetime64(inactive_since, "us").astype(np.int64)

    def recent_only(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(od >= cut_us)).select(["o_custkey"])

    lonely = join(
        customer.select_columns(["c_custkey", "c_acctbal", "c_mktsegment"])
        .map_batches(rich_only, batch_format="pyarrow", zero_copy_batch=True),
        orders.select_columns(["o_custkey", "o_orderdate"])
        .map_batches(recent_only, batch_format="pyarrow",
                     zero_copy_batch=True),
        "c_custkey", right_on="o_custkey", how="anti",
        right_rows=orders.count())
    return aggregate(lonely, "c_mktsegment", ("count",), ("sum", "bal_c"),
                     names=["c_mktsegment", "n_cust", "sum_acctbal_cents"])


def _ship_year(ts_us: np.ndarray) -> np.ndarray:
    """Calendar year from int64 microsecond timestamps, vectorized
    (datetime64 truncation — no per-row Python)."""
    return (ts_us.astype("datetime64[us]").astype("datetime64[Y]")
            .astype(np.int64) + 1970)


def volume_shipping(customer, orders, lineitem, supplier, nation):
    """TPC-H Q7 shape: revenue flowing between every ordered pair of
    DIFFERENT nations (supplier nation → customer nation), per ship
    year.  Output: (supp_nation, cust_nation, l_year, revenue_cents).

    Scale shape: the Q5 deep-join chain with the ship year carried as
    an extra int64 through three ROUTED attaches (orderkey → custkey
    → suppkey; each broadcasts a sorted LUT under
    ``exchange.BROADCAST_MAX_ROWS``, and rides the bucketed exchange
    past it — orders/customer/supplier all scale with the corpus, so
    the gate keeps the 100-TB plan honest); the pair ×
    year aggregate is a keyed aggregate over ≤ nations² × years rows,
    and the constant 25-row nation name table broadcasts."""
    import ray

    n_orders = orders.count()       # metadata-only on source reads
    n_cust = customer.count()
    n_supp = supplier.count()

    def line_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64())
        skey = batch.column("l_suppkey").cast(pa.int64())
        yr = _ship_year(batch.column("l_shipdate")
                        .cast(pa.timestamp("us")).cast(pa.int64())
                        .to_numpy(zero_copy_only=False))
        rev = _rev_cents(
            batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False),
            batch.column("l_discount").to_numpy(zero_copy_only=False))
        t = pa.Table.from_arrays(
            [okey, skey, pa.array(yr), pa.array(rev)],
            names=["l_orderkey", "suppkey", "l_year", "rev"])
        agg = t.group_by(["l_orderkey", "suppkey", "l_year"]) \
            .aggregate([("rev", "sum")])
        return agg.rename_columns(
            ["l_orderkey", "suppkey", "l_year", "rev"])

    lines = lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice",
         "l_discount"]).map_batches(
        line_partial, batch_format="pyarrow", zero_copy_batch=True)
    with_cust = _attach_routed(
        lines, orders.select_columns(["o_orderkey", "o_custkey"])
        .map_batches(lambda b: b.rename_columns(
            ["l_orderkey", "custkey"]), batch_format="pyarrow",
            zero_copy_batch=True),
        "l_orderkey", "custkey", ("suppkey", "l_year", "rev"),
        n_orders)
    with_cnat = _attach_routed(
        with_cust, customer.select_columns(["c_custkey", "c_nationkey"])
        .map_batches(lambda b: b.rename_columns(["custkey", "c_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "custkey", "c_nat", ("suppkey", "l_year", "rev"), n_cust)
    with_snat = _attach_routed(
        with_cnat, supplier.select_columns(["s_suppkey", "s_nationkey"])
        .map_batches(lambda b: b.rename_columns(["suppkey", "s_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "suppkey", "s_nat", ("c_nat", "l_year", "rev"), n_supp)

    def pair_partial(batch: pa.Table) -> pa.Table:
        s_nat = batch.column("s_nat").to_numpy(zero_copy_only=False)
        c_nat = batch.column("c_nat").to_numpy(zero_copy_only=False)
        keep = s_nat != c_nat
        t = pa.Table.from_arrays(
            [pa.array(s_nat[keep]), pa.array(c_nat[keep]),
             batch.column("l_year").filter(pa.array(keep)),
             batch.column("rev").filter(pa.array(keep))],
            names=["s_nat", "c_nat", "l_year", "rev"])
        agg = t.group_by(["s_nat", "c_nat", "l_year"]).aggregate(
            [("rev", "sum")])
        return agg.rename_columns(["s_nat", "c_nat", "l_year", "rev"])

    summed = aggregate(
        with_snat.map_batches(
            pair_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["s_nat", "c_nat", "l_year"], ("sum", "rev"),
        names=["s_nat", "c_nat", "l_year", "revenue_cents"])

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"])
             .take_all()}                       # constant 25 rows
    ref = ray.put(names)

    def attach_names(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        s = batch.column("s_nat").to_numpy(zero_copy_only=False)
        c = batch.column("c_nat").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array([m[int(x)] for x in s], pa.string()),
             pa.array([m[int(x)] for x in c], pa.string()),
             batch.column("l_year"), batch.column("revenue_cents")],
            names=["supp_nation", "cust_nation", "l_year",
                   "revenue_cents"])

    return summed.map_batches(attach_names, batch_format="pyarrow",
                              zero_copy_batch=True)


def market_share(customer, orders, lineitem, supplier, part, nation,
                 region_key: int = 2, target_nation: int = 19,
                 part_type: str = "ECONOMY"):
    """TPC-H Q8 shape: of each year's revenue from ``part_type`` parts
    sold into region ``region_key``'s market (the CUSTOMER's region),
    how much was supplied by ``target_nation``.  Output:
    (o_year, nation_cents, total_cents) — the exact integer numerator
    and denominator; the share itself is irrational, so shipping the
    two integers is the bit-stable contract (same rule as
    promo_revenue).

    Scale shape — the repo's deepest join (6 tables), all ROUTED
    (LUT broadcast under ``exchange.BROADCAST_MAX_ROWS``, bucketed
    exchange past it):
    1. lineitem pre-aggregates per (batch, orderkey, suppkey, partkey);
    2. is-selected flag attaches from part and non-selected rows drop
       BEFORE any further shuffle or attach;
    3. (custkey, order year) attach from orders — PACKED into one
       int64 (custkey*64 + year-1970) so the single-attach join
       carries it in one column, unpacked in the next emit (years are
       bounded by the 64 pack base, asserted);
    4. customer nation then supplier nation attach;
    5. the constant 25-row nation→region map broadcasts; per-year
       numerator/denominator collapse through one-row-per-batch
       combiners and a keyed aggregate."""
    import ray

    n_part = part.count()           # metadata-only on source reads
    n_orders = orders.count()
    n_cust = customer.count()
    n_supp = supplier.count()

    def line_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64())
        skey = batch.column("l_suppkey").cast(pa.int64())
        pkey = batch.column("l_partkey").cast(pa.int64())
        rev = _rev_cents(
            batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False),
            batch.column("l_discount").to_numpy(zero_copy_only=False))
        t = pa.Table.from_arrays(
            [pkey, okey, skey, pa.array(rev)],
            names=["partkey", "okey", "suppkey", "rev"])
        agg = t.group_by(["partkey", "okey", "suppkey"]).aggregate(
            [("rev", "sum")])
        return agg.rename_columns(["partkey", "okey", "suppkey",
                                   "rev"])

    def part_emit(batch: pa.Table) -> pa.Table:
        sel = pc.equal(batch.column("p_type"), part_type) \
            .cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("p_partkey").cast(pa.int64()), sel],
            names=["partkey", "is_sel"])

    flagged = _attach_routed(
        lineitem.select_columns(
            ["l_orderkey", "l_suppkey", "l_partkey", "l_extendedprice",
             "l_discount"]).map_batches(
            line_partial, batch_format="pyarrow",
            zero_copy_batch=True),
        part.select_columns(["p_partkey", "p_type"]).map_batches(
            part_emit, batch_format="pyarrow", zero_copy_batch=True),
        "partkey", "is_sel", ("okey", "suppkey", "rev"), n_part)

    def keep_selected(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("is_sel"),
                                     pa.scalar(1, pa.int64()))) \
            .select(["okey", "suppkey", "rev"])

    selected = flagged.map_batches(keep_selected,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)

    def orders_emit(batch: pa.Table) -> pa.Table:
        yr = _ship_year(batch.column("o_orderdate")
                        .cast(pa.timestamp("us")).cast(pa.int64())
                        .to_numpy(zero_copy_only=False))
        assert ((yr >= 1970) & (yr < 1970 + 64)).all(), \
            "order year outside the 64-year pack base"
        cust = batch.column("o_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        packed = cust * 64 + (yr - 1970)
        return pa.Table.from_arrays(
            [batch.column("o_orderkey").cast(pa.int64()),
             pa.array(packed)],
            names=["okey", "cust_year"])

    with_cy = _attach_routed(
        selected, orders.select_columns(
            ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
            orders_emit, batch_format="pyarrow", zero_copy_batch=True),
        "okey", "cust_year", ("suppkey", "rev"), n_orders)

    def unpack(batch: pa.Table) -> pa.Table:
        packed = batch.column("cust_year").to_numpy(
            zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(packed // 64), pa.array(packed % 64 + 1970),
             batch.column("suppkey"), batch.column("rev")],
            names=["custkey", "o_year", "suppkey", "rev"])

    with_cnat = _attach_routed(
        with_cy.map_batches(unpack, batch_format="pyarrow",
                            zero_copy_batch=True),
        customer.select_columns(["c_custkey", "c_nationkey"])
        .map_batches(lambda b: b.rename_columns(["custkey", "c_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "custkey", "c_nat", ("o_year", "suppkey", "rev"), n_cust)
    with_snat = _attach_routed(
        with_cnat, supplier.select_columns(["s_suppkey", "s_nationkey"])
        .map_batches(lambda b: b.rename_columns(["suppkey", "s_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "suppkey", "s_nat", ("c_nat", "o_year", "rev"), n_supp)

    regions = {r["n_nationkey"]: r["n_regionkey"] for r in
               nation.select_columns(["n_nationkey", "n_regionkey"])
               .take_all()}                     # constant 25 rows
    ref = ray.put(regions)

    def share_partial(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        c_nat = batch.column("c_nat").to_numpy(zero_copy_only=False)
        s_nat = batch.column("s_nat").to_numpy(zero_copy_only=False)
        yr = batch.column("o_year").to_numpy(zero_copy_only=False)
        rev = batch.column("rev").to_numpy(zero_copy_only=False)
        lut = np.full(max(m, default=0) + 1, -1, dtype=np.int64)
        for k, v in m.items():
            lut[k] = v
        in_mkt = lut[c_nat] == region_key
        num = np.where(s_nat == target_nation, rev, 0)
        t = pa.Table.from_arrays(
            [pa.array(yr[in_mkt]), pa.array(num[in_mkt]),
             pa.array(rev[in_mkt])],
            names=["o_year", "nation_cents", "total_cents"])
        agg = t.group_by(["o_year"]).aggregate(
            [("nation_cents", "sum"), ("total_cents", "sum")])
        return agg.rename_columns(
            ["o_year", "nation_cents", "total_cents"])

    return aggregate(
        with_snat.map_batches(
            share_partial, batch_format="pyarrow", zero_copy_batch=True),
        "o_year", ("sum", "nation_cents"), ("sum", "total_cents"),
        names=["o_year", "nation_cents", "total_cents"])


def order_priority_check(orders, lineitem,
                         date_from: str = "1998-01-01",
                         date_to: str = "1998-04-01",
                         late_days: int = 60):
    """TPC-H Q4 shape: per order priority, how many of a quarter's
    orders had at least one line shipped more than ``late_days`` after
    the order date.  Output: (o_orderpriority, n_orders).

    The EXISTS predicate is NON-EQUI (it compares l_shipdate against
    the outer row's o_orderdate), so it cannot ride a key-only
    semi-join: lineitem instead reduces to max(l_shipdate) per
    orderkey in one keyed aggregate — EXISTS(ship > cutoff) ≡
    max(ship) > cutoff — and ``exchange.join`` attaches it to the
    quarter's orders, so the date comparison runs with both values in
    hand.  Priorities leave each block pre-counted."""
    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)
    late_us = late_days * 86_400_000_000

    def us(batch: pa.Table, col: str) -> np.ndarray:
        return batch.column(col).cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)

    def in_quarter(batch: pa.Table) -> pa.Table:
        od = us(batch, "o_orderdate")
        return batch.filter(pa.array((od >= lo) & (od < hi)))

    def late_counts(batch: pa.Table) -> pa.Table:
        late = batch.filter(pa.array(
            us(batch, "ship") > us(batch, "o_orderdate") + late_us))
        t = pa.Table.from_arrays(
            [late.column("o_orderpriority"),
             pa.array(np.ones(late.num_rows, dtype=np.int64))],
            names=["o_orderpriority", "n"])
        return t.group_by(["o_orderpriority"]).aggregate([("n", "sum")]) \
            .rename_columns(["o_orderpriority", "n"])

    last_ship = aggregate(
        lineitem.select_columns(["l_orderkey", "l_shipdate"]),
        "l_orderkey", ("max", "l_shipdate"), names=["o_orderkey", "ship"])
    joined = join(
        orders.select_columns(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])
        .map_batches(in_quarter, batch_format="pyarrow",
                     zero_copy_batch=True),
        last_ship, "o_orderkey", attach=["ship"],
        right_rows=last_ship.count())
    return aggregate(
        joined.map_batches(late_counts, batch_format="pyarrow",
                           zero_copy_batch=True),
        "o_orderpriority", ("sum", "n"),
        names=["o_orderpriority", "n_orders"])


_Q19_RULES = (
    # (brand, size_lo, size_hi, qty_lo, qty_hi) — disjunctive arms
    ("Brand#1", 1, 10, 1, 11),
    ("Brand#2", 11, 20, 10, 20),
    ("Brand#3", 21, 30, 20, 30),
)


def brand_size_revenue(lineitem, part, rules=_Q19_RULES):
    """TPC-H Q19 shape: revenue from lines matching ANY of several
    (brand, size range, quantity range) predicate arms — the
    disjunctive multi-column join filter.  Output: a single row
    (n_lines, revenue_cents).

    The quantity predicate lives on the FACT side and brand/size on
    the dimension side, so neither side can evaluate the disjunction
    alone.  Quantities are integral units here, so lineitem pre-sums
    per (batch, partkey, qty_units) — bounded fan-out because qty has
    ≤ ~50 distinct units per key — and part ships (brand_id, size)
    PACKED into one int64 through the generic attach; each arm is then
    one vectorized conjunction over the joined partials."""

    brand_ids = {b: i for i, b in
                 enumerate(sorted({r[0] for r in rules}))}

    def line_partial(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        qty = _qty_i64(batch.column("l_quantity")
                       .to_numpy(zero_copy_only=False))
        rev = _rev_cents(
            batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False),
            batch.column("l_discount").to_numpy(zero_copy_only=False))
        t = pa.Table.from_arrays(
            [pa.array(pk), pa.array(qty), pa.array(rev),
             pa.array(np.ones(len(pk), dtype=np.int64))],
            names=["partkey", "qty", "rev", "n"])
        agg = t.group_by(["partkey", "qty"]).aggregate(
            [("rev", "sum"), ("n", "sum")])
        return agg.rename_columns(["partkey", "qty", "rev", "n"])

    def part_emit(batch: pa.Table) -> pa.Table:
        brands = batch.column("p_brand").to_numpy(zero_copy_only=False)
        size = batch.column("p_size").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        bid = np.array([brand_ids.get(b, -1) for b in brands],
                       dtype=np.int64)
        assert (size < 1 << 32).all() and (size >= 0).all()
        packed = bid * (1 << 32) + size
        return pa.Table.from_arrays(
            [batch.column("p_partkey").cast(pa.int64()),
             pa.array(packed)],
            names=["partkey", "brand_size"])

    joined = _attach_routed(
        lineitem.select_columns(
            ["l_partkey", "l_quantity", "l_extendedprice",
             "l_discount"]).map_batches(
            line_partial, batch_format="pyarrow",
            zero_copy_batch=True),
        part.select_columns(["p_partkey", "p_brand", "p_size"])
        .map_batches(part_emit, batch_format="pyarrow",
                     zero_copy_batch=True),
        "partkey", "brand_size", ("qty", "rev", "n"))

    def arm_partial(batch: pa.Table) -> pa.Table:
        packed = batch.column("brand_size").to_numpy(
            zero_copy_only=False)
        bid, size = packed >> 32, packed & ((1 << 32) - 1)
        qty = batch.column("qty").to_numpy(zero_copy_only=False)
        rev = batch.column("rev").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(packed), dtype=bool)
        for brand, s_lo, s_hi, q_lo, q_hi in rules:
            keep |= ((bid == brand_ids[brand])
                     & (size >= s_lo) & (size <= s_hi)
                     & (qty >= q_lo) & (qty <= q_hi))
        return pa.Table.from_arrays(
            [pa.array([int(n[keep].sum())], pa.int64()),
             pa.array([int(rev[keep].sum())], pa.int64())],
            names=["n_lines", "revenue_cents"])

    return _one_row_total(
        joined.map_batches(arm_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["n_lines", "revenue_cents"])


def waiting_suppliers(lineitem, min_suppliers: int = 2):
    """TPC-H Q21 shape: for every multi-supplier order, if exactly ONE
    supplier's lines carry the order's latest ship date, that supplier
    "kept the order waiting" and takes a strike.  Output: every
    supplier's strike count (s_suppkey, n_waiting).

    One exchange: lineitem pre-reduces max(l_shipdate) per (batch,
    orderkey, suppkey), partials meet in one ``group_map`` keyed on a
    hash bucket of the orderkey, and each bucket's cell runs the whole
    per-order analysis VECTORIZED —
    lexsort + reduceat segment reduces (re-combine cross-batch
    partials, per-order max, distinct-supplier count, unique-argmax
    test) — never a Python loop over orders.  Buckets emit pre-counted
    (suppkey, n) partials into one tiny keyed aggregate."""

    def line_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64())
        skey = batch.column("l_suppkey").cast(pa.int64())
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64())
        t = pa.Table.from_arrays([okey, skey, ship],
                                 names=["okey", "suppkey", "ship"])
        agg = t.group_by(["okey", "suppkey"]).aggregate(
            [("ship", "max")])
        keys = agg.column("okey").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys)), agg.column("okey"),
             agg.column("suppkey"), agg.column("ship_max")],
            names=["bucket", "okey", "suppkey", "ship"])

    def blame_bucket(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy(zero_copy_only=False)
        supp = group.column("suppkey").to_numpy(zero_copy_only=False)
        ship = group.column("ship").to_numpy(zero_copy_only=False)
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["s_suppkey", "n_waiting"])
        if not len(okey):
            return empty
        # 1. re-combine cross-batch partials: max ship per (okey, supp)
        order = np.lexsort((supp, okey))
        okey, supp, ship = okey[order], supp[order], ship[order]
        pair_start = np.ones(len(okey), dtype=bool)
        pair_start[1:] = (okey[1:] != okey[:-1]) | (supp[1:] != supp[:-1])
        starts = np.flatnonzero(pair_start)
        okey, supp = okey[starts], supp[starts]
        ship = np.maximum.reduceat(ship, starts)
        # 2. per-order segments (already okey-sorted)
        seg = np.flatnonzero(np.r_[True, okey[1:] != okey[:-1]])
        n_supp = np.diff(np.r_[seg, len(okey)])
        omax = np.maximum.reduceat(ship, seg)
        seg_id = np.cumsum(np.r_[True, okey[1:] != okey[:-1]]) - 1
        is_max = ship == omax[seg_id]
        n_max = np.add.reduceat(is_max.astype(np.int64), seg)
        # 3. unique latest supplier on a multi-supplier order
        blame = is_max & (n_supp[seg_id] >= min_suppliers) \
            & (n_max[seg_id] == 1)
        if not blame.any():
            return empty
        sk, cnt = np.unique(supp[blame], return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(sk), pa.array(cnt.astype(np.int64))],
            names=["s_suppkey", "n_waiting"])

    per_bucket = lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(
        line_partial, batch_format="pyarrow", zero_copy_batch=True)
    return aggregate(group_map(per_bucket, "bucket", blame_bucket),
                     "s_suppkey", ("sum", "n_waiting"),
                     names=["s_suppkey", "n_waiting"])


def late_line_priority(lineitem, orders, late_days: int = 60):
    """TPC-H Q12 shape (shipmode priority check, adapted to this
    schema's columns — the synthetic lineitem carries no l_shipmode,
    so l_linestatus plays the grouping role): per line status, how
    many LATE lines (shipped more than ``late_days`` after the order
    date) belong to high-priority orders (1-URGENT / 2-HIGH) vs the
    rest.  Output: (l_linestatus, high_line_count, low_line_count).
    Reference has no relational ops; shape per SURVEY §2.4 note.

    The late predicate is NON-EQUI (l_shipdate vs the joined row's
    o_orderdate), and the grouping key lives on the fact side while
    the priority lives on the dimension side, so ``exchange.join``
    attaches each order's (odate, high) to the lineitem rows (okey,
    status, shipdate) — three narrow columns, never the money columns;
    orders' footer count routes it.  Each block then evaluates the
    date comparison and leaves pre-counted (status, high, low)
    partials; the final aggregate is constant-size (|statuses| rows)."""
    late_us = late_days * 86_400_000_000
    HIGH = ("1-URGENT", "2-HIGH")

    def order_side(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64())
        high = pc.is_in(batch.column("o_orderpriority"),
                        value_set=pa.array(HIGH))
        return pa.Table.from_arrays(
            [batch.column("o_orderkey").cast(pa.int64()), od, high],
            names=["o_orderkey", "odate_us", "high"])

    def late_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        od = batch.column("odate_us").to_numpy(zero_copy_only=False)
        late = pa.array(ship > od + late_us)
        high = batch.column("high").filter(late) \
            .to_numpy(zero_copy_only=False)
        t = pa.Table.from_arrays(
            [batch.column("l_linestatus").filter(late),
             pa.array(high.astype(np.int64)),
             pa.array((~high).astype(np.int64))],
            names=["l_linestatus", "high_n", "low_n"])
        agg = t.group_by(["l_linestatus"]).aggregate(
            [("high_n", "sum"), ("low_n", "sum")])
        return agg.rename_columns(["l_linestatus", "high_n", "low_n"])

    joined = join(
        lineitem.select_columns(["l_orderkey", "l_shipdate", "l_linestatus"]),
        orders.select_columns(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])
        .map_batches(order_side, batch_format="pyarrow",
                     zero_copy_batch=True),
        "l_orderkey", right_on="o_orderkey", attach=["odate_us", "high"],
        right_rows=orders.count())
    return aggregate(
        joined.map_batches(late_partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        "l_linestatus", ("sum", "high_n"), ("sum", "low_n"),
        names=["l_linestatus", "high_line_count", "low_line_count"])


def important_parts(lineitem, frac_bp: int = 1):
    """TPC-H Q11 shape (important-stock identification, adapted: the
    synthetic schema has no partsupp, so lineitem revenue plays the
    value role): parts whose total revenue exceeds ``frac_bp``
    basis-points (1/10000) of GLOBAL revenue.  Output (l_partkey,
    rev_cents), the value-concentration report behind "which SKUs /
    domains dominate the corpus" audits.  Reference has no relational
    ops; shape per SURVEY §2.4 note.

    Fraction-of-global filters need one scalar, not a join: per-part
    cents pre-sum per batch (combiner), one sum aggregate gives
    the sf-proportional per-part table (materialized, as every
    aggregate is), and the global total is summed on the driver from
    its blocks — the lineitem lineage runs once.  The strict
    threshold is exact in integers: for integer
    rev and total, rev > total·frac_bp/10⁴ ⟺ rev > total·frac_bp // 10⁴
    (driver-side Python big-int — no int64 overflow at any scale, no
    float comparison), shipped as one scalar into a vectorized filter."""
    import ray

    def part_partial(batch: pa.Table) -> pa.Table:
        k = batch.column("l_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cents = _cents(batch.column("l_extendedprice")
                       .to_numpy(zero_copy_only=False))
        order = np.argsort(k)
        ks = k[order]
        starts = np.nonzero(np.append(True, ks[1:] != ks[:-1]))[0]
        sums = np.add.reduceat(cents[order], starts)
        return pa.Table.from_arrays(
            [pa.array(ks[starts]), pa.array(sums)],
            names=["l_partkey", "rev_cents"])

    partial = lineitem.select_columns(
        ["l_partkey", "l_extendedprice"]) \
        .map_batches(part_partial, batch_format="pyarrow",
                     zero_copy_batch=True)
    per_part = aggregate(partial, "l_partkey", ("sum", "rev_cents"),
                         names=["l_partkey", "rev_cents"])
    # one scalar: the per-part sums summed block by block in Python
    # ints, exact at any corpus size
    total = sum(int(pc.sum(t.column("rev_cents")).as_py())
                for t in ray.get(per_part.to_arrow_refs()) if t.num_rows)
    thr = (total * frac_bp) // 10_000

    def keep(batch: pa.Table) -> pa.Table:
        rev = batch.column("rev_cents").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(rev > thr))

    return per_part.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True)


def cheapest_supplier_per_part(lineitem):
    """TPC-H Q2 shape (min-cost supplier per part; adapted — the
    synthetic schema has no partsupp, so total shipped lineitem cents
    play the supply-cost role): for every part, the supplier with the
    SMALLEST total shipped value, ties to the smallest suppkey.
    Output (l_partkey, l_suppkey, cost_cents).  The correlated
    min-subquery becomes a per-part argmin.  Reference has no
    relational ops; shape per SURVEY §2.4 note.

    ONE exchange: batches pre-sum per (part, supplier) pair
    (combiner — bounded fan-out, a batch's distinct pairs), one
    ``group_map`` keys by a hash bucket of the partkey so every
    (part, supplier) partial of a part lands in one cell, and the cell
    finishes with two
    lexsort passes: segment-reduce the cross-block partials per
    (part, supp), then keep each part run's first row under
    (cost, supp) order.  No per-part groups, no dimension table."""
    def pair_partial(batch: pa.Table) -> pa.Table:
        p = batch.column("l_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        s = batch.column("l_suppkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cents = _cents(batch.column("l_extendedprice")
                       .to_numpy(zero_copy_only=False))
        order = np.lexsort((s, p))
        ps, ss, cs = p[order], s[order], cents[order]
        new = np.append(True, (ps[1:] != ps[:-1]) | (ss[1:] != ss[:-1]))
        starts = np.nonzero(new)[0]
        sums = np.add.reduceat(cs, starts)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ps[starts])), pa.array(ps[starts]),
             pa.array(ss[starts]), pa.array(sums)],
            names=["bucket", "l_partkey", "l_suppkey", "cost_cents"])

    def argmin_cell(group: pa.Table) -> pa.Table:
        p = group.column("l_partkey").to_numpy(zero_copy_only=False)
        s = group.column("l_suppkey").to_numpy(zero_copy_only=False)
        c = group.column("cost_cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((s, p))
        ps, ss, cs = p[order], s[order], c[order]
        new = np.append(True, (ps[1:] != ps[:-1]) | (ss[1:] != ss[:-1]))
        starts = np.nonzero(new)[0]
        psum = np.add.reduceat(cs, starts)
        pp, sp = ps[starts], ss[starts]
        pick = np.lexsort((sp, psum, pp))
        ppk = pp[pick]
        first = np.nonzero(np.append(True, ppk[1:] != ppk[:-1]))[0]
        idx = pick[first]
        return pa.Table.from_arrays(
            [pa.array(pp[idx]), pa.array(sp[idx]),
             pa.array(psum[idx])],
            names=["l_partkey", "l_suppkey", "cost_cents"])

    return group_map(lineitem.select_columns(
        ["l_partkey", "l_suppkey", "l_extendedprice"])
        .map_batches(pair_partial, batch_format="pyarrow",
                     zero_copy_batch=True), "bucket", argmin_cell)


def brand_supplier_counts(lineitem, part):
    """TPC-H Q16 shape (parts/supplier relationship, adapted — no
    partsupp in the synthetic schema, so "supplier can supply part" =
    "supplier shipped the part"): per (p_brand, p_type), how many
    DISTINCT suppliers shipped parts of that brand and type.  Output
    (p_brand, p_type, n_supp).  Reference has no relational ops; shape
    per SURVEY §2.4 note.

    Distinct-count-after-join without ever carrying duplicates: blocks
    pre-distinct lineitem to (partkey, suppkey) pairs (combiner),
    ``exchange.join`` attaches brand/type (part is corpus-sized — its
    footer count routes it), one keyed aggregate on (brand, type,
    supplier) makes the triples globally unique, and a second counts
    them per (brand, type).  Both exchanges ship fixed-width rows
    bounded by |distinct triples|, not lineitem."""

    def pairs(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("l_partkey").cast(pa.int64()),
             batch.column("l_suppkey").cast(pa.int64())],
            names=["p_partkey", "supp"]) \
            .group_by(["p_partkey", "supp"]).aggregate([])

    branded = join(
        lineitem.select_columns(["l_partkey", "l_suppkey"])
        .map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        part.select_columns(["p_partkey", "p_brand", "p_type"]),
        "p_partkey", attach=["p_brand", "p_type"], right_rows=part.count())
    triples = aggregate(branded, ["p_brand", "p_type", "supp"], ("count",))
    return aggregate(triples, ["p_brand", "p_type"], ("count",),
                     names=["p_brand", "p_type", "n_supp"])


def nation_profit(lineitem, part, supplier, orders, nation,
                  name_substr: str = "widget"):
    """TPC-H Q9 shape: profit per (nation, order-year) from lineitems
    whose part name contains ``name_substr``.  Profit per line is
    revenue minus a retail-price cost proxy (the driver tables carry
    no partsupp/ps_supplycost; p_retailprice·quantity plays its role —
    reference Q9 semantics are the 5-table join + substring filter +
    (nation, year) rollup, all preserved).  Output
    (n_name, o_year, profit_cents), exact integer cents.

    Scale shape (the deepest join chain in the suite, same posture as
    local_supplier_volume, tpch.py:852): lineitem pre-combines per
    (orderkey, partkey, suppkey) inside map_batches, then THREE chained
    ROUTED dimension attaches on DIFFERENT keys — part (name-filtered
    BEFORE the attach, so non-matching parts never ship) → supplier →
    orders — each a broadcast LUT under ``exchange.BROADCAST_MAX_ROWS``
    and a bucketed exchange past it; the 25-row nation name table
    always broadcasts.  The (nat,
    year) rollup is a per-batch combiner + one tiny keyed aggregate."""
    import ray

    n_part = part.count()           # metadata-only on source reads
    n_supp = supplier.count()
    n_orders = orders.count()

    def line_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64())
        pkey = batch.column("l_partkey").cast(pa.int64())
        skey = batch.column("l_suppkey").cast(pa.int64())
        rev = _rev_cents(
            batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False),
            batch.column("l_discount").to_numpy(zero_copy_only=False))
        qty = _qty_i64(batch.column("l_quantity").to_numpy(
            zero_copy_only=False))
        t = pa.Table.from_arrays(
            [okey, pkey, skey, pa.array(rev), pa.array(qty)],
            names=["okey", "pkey", "skey", "rev", "qty"])
        agg = t.group_by(["okey", "pkey", "skey"]).aggregate(
            [("rev", "sum"), ("qty", "sum")])
        return agg.rename_columns(["okey", "pkey", "skey", "rev",
                                   "qty"])

    lines = lineitem.select_columns(
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"]) \
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True)

    def part_emit(batch: pa.Table, *, _sub=name_substr) -> pa.Table:
        keep = pc.match_substring(batch.column("p_name"), _sub)
        kept = batch.filter(keep)
        retail = _cents(kept.column("p_retailprice").to_numpy(
            zero_copy_only=False))
        return pa.Table.from_arrays(
            [kept.column("p_partkey").cast(pa.int64()),
             pa.array(retail)],
            names=["pkey", "retail"])

    with_retail = _attach_routed(
        lines, part.select_columns(["p_partkey", "p_name",
                                    "p_retailprice"])
        .map_batches(part_emit, batch_format="pyarrow",
                     zero_copy_batch=True),
        "pkey", "retail", ("okey", "skey", "rev", "qty"), n_part)

    def profit_fold(batch: pa.Table) -> pa.Table:
        rev = batch.column("rev").to_numpy(zero_copy_only=False)
        qty = batch.column("qty").to_numpy(zero_copy_only=False)
        retail = batch.column("retail").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [batch.column("okey"), batch.column("skey"),
             pa.array(rev - retail * qty)],
            names=["okey", "skey", "profit"])

    folded = with_retail.map_batches(profit_fold,
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)
    with_nat = _attach_routed(
        folded, supplier.select_columns(["s_suppkey", "s_nationkey"])
        .map_batches(lambda b: b.rename_columns(["skey", "s_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "skey", "s_nat", ("okey", "profit"), n_supp)

    def orders_emit(batch: pa.Table) -> pa.Table:
        dt = batch.column("o_orderdate").cast(pa.timestamp("us"))
        years = pc.year(dt).cast(pa.int64())
        return pa.Table.from_arrays(
            [batch.column("o_orderkey").cast(pa.int64()), years],
            names=["okey", "o_year"])

    with_year = _attach_routed(
        with_nat, orders.select_columns(["o_orderkey", "o_orderdate"])
        .map_batches(orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True),
        "okey", "o_year", ("s_nat", "profit"), n_orders)

    def rollup_partial(batch: pa.Table) -> pa.Table:
        nat = batch.column("s_nat").to_numpy(zero_copy_only=False)
        yr = batch.column("o_year").to_numpy(zero_copy_only=False)
        t = pa.Table.from_arrays(
            [pa.array(nat * 10000 + yr), batch.column("profit")],
            names=["ny", "profit"])
        agg = t.group_by("ny").aggregate([("profit", "sum")])
        return agg.rename_columns(["ny", "profit_cents"])

    summed = aggregate(
        with_year.map_batches(
            rollup_partial, batch_format="pyarrow", zero_copy_batch=True),
        "ny", ("sum", "profit_cents"), names=["ny", "profit_cents"])

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"]).take_all()}
    ref = ray.put(names)

    def attach_name(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        ny = batch.column("ny").to_numpy(zero_copy_only=False)
        nm = [m.get(int(n) // 10000) for n in ny]
        keep = pa.array([x is not None for x in nm])
        return pa.Table.from_arrays(
            [pa.array([x or "" for x in nm], pa.string()),
             pa.array(ny % 10000),
             batch.column("profit_cents")],
            names=["n_name", "o_year", "profit_cents"]).filter(keep)

    return summed.map_batches(attach_name, batch_format="pyarrow",
                              zero_copy_batch=True)


def promo_part_suppliers(lineitem, part, supplier, nation,
                         name_prefix: str = "small",
                         date_from: str = "2000-01-01",
                         date_to: str = "2001-01-01",
                         min_qty: int = 50):
    """TPC-H Q20 shape: suppliers who shipped more than ``min_qty``
    units of parts whose name starts with ``name_prefix`` inside a
    date window (the driver tables carry no partsupp availqty; the
    HAVING threshold plays the availability-excess role — the Q20
    semantics preserved are prefix-filtered part semi-join + windowed
    per-supplier volume + threshold + nation enrichment).  Output
    (s_suppkey, n_name, sum_qty).

    Scale shape: lineitem date-filters and pre-combines per
    (partkey, suppkey) inside map_batches; the prefix-filtered part
    keys attach via one bucketed ``exchange.join`` on partkey (filter
    BEFORE the exchange — non-matching parts never ship); the
    per-supplier rollup is a combiner + keyed aggregate + vectorized
    threshold; supplier→nation attaches bucketed (supplier is
    sf-proportional, never broadcast) and only the 25-row nation name
    table broadcasts."""
    import ray

    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)

    def line_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ship >= lo) & (ship < hi)
        kept = batch.filter(pa.array(keep))
        qty = _qty_i64(kept.column("l_quantity").to_numpy(
            zero_copy_only=False))
        t = pa.Table.from_arrays(
            [kept.column("l_partkey").cast(pa.int64()),
             kept.column("l_suppkey").cast(pa.int64()),
             pa.array(qty)],
            names=["pkey", "skey", "qty"])
        agg = t.group_by(["pkey", "skey"]).aggregate([("qty", "sum")])
        return agg.rename_columns(["pkey", "skey", "qty"])

    lines = lineitem.select_columns(
        ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]) \
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True)

    def part_emit(batch: pa.Table, *, _pre=name_prefix) -> pa.Table:
        keep = pc.starts_with(batch.column("p_name"), _pre)
        kept = batch.filter(keep)
        k = kept.column("p_partkey").cast(pa.int64())
        return pa.Table.from_arrays(
            [k, pa.array(np.ones(len(k), dtype=np.int64))],
            names=["pkey", "is_promo"])

    matched = _attach_routed(
        lines, part.select_columns(["p_partkey", "p_name"])
        .map_batches(part_emit, batch_format="pyarrow",
                     zero_copy_batch=True),
        "pkey", "is_promo", ("skey", "qty"))

    def supp_partial(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [batch.column("skey"), batch.column("qty")],
            names=["skey", "qty"])
        agg = t.group_by("skey").aggregate([("qty", "sum")])
        return agg.rename_columns(["skey", "sum_qty"])

    per_supp = aggregate(
        matched.map_batches(supp_partial,
                            batch_format="pyarrow",
                            zero_copy_batch=True),
        "skey", ("sum", "sum_qty"), names=["skey", "sum_qty"])

    def threshold(batch: pa.Table, *, _min=min_qty) -> pa.Table:
        return batch.filter(pc.greater(batch.column("sum_qty"),
                                       pa.scalar(_min, pa.int64())))

    big = per_supp.map_batches(threshold, batch_format="pyarrow",
                               zero_copy_batch=True)

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"]).take_all()}
    ref = ray.put(names)

    # _attach_routed's output carries only (attach, carry) columns, so
    # the suppkey rides along as an explicit duplicate carry column
    with_nat = _attach_routed(
        big.map_batches(lambda b: pa.Table.from_arrays(
            [b.column("skey"), b.column("skey"), b.column("sum_qty")],
            names=["skey", "s_suppkey", "sum_qty"]),
            batch_format="pyarrow", zero_copy_batch=True),
        supplier.select_columns(["s_suppkey", "s_nationkey"])
        .map_batches(lambda b: b.rename_columns(["skey", "s_nat"]),
                     batch_format="pyarrow", zero_copy_batch=True),
        "skey", "s_nat", ("s_suppkey", "sum_qty"))

    def attach_name(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        nat = batch.column("s_nat").to_numpy(zero_copy_only=False)
        nm = [m.get(int(n)) for n in nat]
        keep = pa.array([x is not None for x in nm])
        return pa.Table.from_arrays(
            [batch.column("s_suppkey"),
             pa.array([x or "" for x in nm], pa.string()),
             batch.column("sum_qty")],
            names=["s_suppkey", "n_name", "sum_qty"]).filter(keep)

    return with_nat.map_batches(attach_name, batch_format="pyarrow",
                                zero_copy_batch=True)


def customer_order_gaps(orders):
    """Per-customer inter-order cadence: for every customer with ≥ 2
    orders, (o_custkey, n_orders, sum_gap_days, max_gap_days) where a
    gap is the whole-day delta between consecutive orders in
    (o_orderdate, o_orderkey) order — the repeat-purchase-latency twin
    of events.lag_deltas/conversion_latency over the relational side.

    Scale shape: ONE ``group_map`` keyed on a hash bucket of the
    custkey, then one lexsort + np.diff pass per bucket vectorized
    across every customer in the bucket (no per-customer Python
    groups); each customer lands wholly in one bucket, so the in-cell
    Arrow group_by aggregate is final — nothing re-shuffles."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        dt = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        ok = batch.column("o_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ck)), pa.array(ck),
             pa.array(dt), pa.array(ok)],
            names=["bucket", "cust", "dt_us", "okey"])

    US_PER_DAY = 86_400_000_000

    def gaps_cell(group: pa.Table) -> pa.Table:
        cust = group.column("cust").to_numpy(zero_copy_only=False)
        dt = group.column("dt_us").to_numpy(zero_copy_only=False)
        ok = group.column("okey").to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, dt, cust))
        cust, dt = cust[order], dt[order]
        same = np.concatenate([[False], cust[1:] == cust[:-1]])
        gap = np.empty(len(dt), dtype=np.int64)
        gap[1:] = (dt[1:] - dt[:-1]) // US_PER_DAY
        # per-customer totals (vectorized across the bucket)
        t_all = pa.Table.from_arrays([pa.array(cust)], names=["cust"])
        n_ord = t_all.group_by("cust").aggregate([("cust", "count")]) \
            .rename_columns(["cust", "n_orders"])
        if not same.any():
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["o_custkey", "n_orders", "sum_gap_days",
                       "max_gap_days"])
        t_gap = pa.Table.from_arrays(
            [pa.array(cust[same]), pa.array(gap[same])],
            names=["cust", "gap"])
        agg = t_gap.group_by("cust").aggregate(
            [("gap", "sum"), ("gap", "max")]) \
            .rename_columns(["cust", "sum_gap_days", "max_gap_days"])
        # inner attach n_orders (every cust in agg has ≥2 orders and
        # is present in n_ord by construction)
        a_cust = agg.column("cust").to_numpy(zero_copy_only=False)
        n_cust = n_ord.column("cust").to_numpy(zero_copy_only=False)
        n_val = n_ord.column("n_orders").to_numpy(zero_copy_only=False)
        o2 = np.argsort(n_cust)
        pos = np.searchsorted(n_cust[o2], a_cust)
        return pa.Table.from_arrays(
            [pa.array(a_cust),
             pa.array(n_val[o2][pos].astype(np.int64)),
             agg.column("sum_gap_days").cast(pa.int64()),
             agg.column("max_gap_days").cast(pa.int64())],
            names=["o_custkey", "n_orders", "sum_gap_days",
                   "max_gap_days"])

    return group_map(orders.select_columns(
        ["o_custkey", "o_orderdate", "o_orderkey"])
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True), "bucket", gaps_cell)


def join_pps_sample(orders, lineitem, k: int = 200,
                    salt: str = "jpps"):
    """Deterministic PPS sample over a JOIN result — the streaming
    weighted-sampling-over-joins shape: keep each (order ⋈ line) row
    with probability min(1, k·wᵢ/W) where the weight
    w = rev_cents · prio_mult only exists AFTER the join (prio_mult =
    6 − priority digit from orders, rev from lineitem), so naive
    sampling of either input alone cannot produce it.  Output
    (l_orderkey, l_linenumber, prio_mult, rev_cents);
    E[sample size] = k when no weight saturates.

    Scale shape: the join ships ONLY (orderkey, linenumber, rev)
    triples through one bucketed attach on orderkey (payload
    columns never ride the exchange); the joined weight table is
    materialized ONCE (two consumers: the exact int64 ΣW scalar and
    the membership filter); membership is content-addressed —
    h = md5-u63(orderkey:linenumber‖salt) < (w·k/W)·2^63 with the
    float bound evaluated in the same left-to-right IEEE order as the
    SQL oracle — no RNG, reproducible under any blocking."""
    from ..functions.curation import _did63

    def line_emit(batch: pa.Table) -> pa.Table:
        rev = _rev_cents(
            batch.column("l_extendedprice").to_numpy(
                zero_copy_only=False),
            batch.column("l_discount").to_numpy(zero_copy_only=False))
        okey = batch.column("l_orderkey").cast(pa.int64())
        # _attach_routed's output carries only (attach, carry) columns
        # — the sample key needs the orderkey, so it rides twice
        return pa.Table.from_arrays(
            [okey, okey,
             batch.column("l_linenumber").cast(pa.int64()),
             pa.array(rev)],
            names=["okey", "okey_c", "ln", "rev"])

    def orders_emit(batch: pa.Table) -> pa.Table:
        digit = pc.utf8_slice_codeunits(
            batch.column("o_orderpriority"), 0, 1)
        mult = pc.subtract(pa.scalar(6, pa.int64()),
                           digit.cast(pa.int64()))
        return pa.Table.from_arrays(
            [batch.column("o_orderkey").cast(pa.int64()), mult],
            names=["okey", "prio_mult"])

    joined = _attach_routed(
        lineitem.select_columns(["l_orderkey", "l_linenumber",
                                 "l_extendedprice", "l_discount"])
        .map_batches(line_emit, batch_format="pyarrow",
                     zero_copy_batch=True),
        orders.select_columns(["o_orderkey", "o_orderpriority"])
        .map_batches(orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True),
        "okey", "prio_mult", ("okey_c", "ln", "rev")).materialize()

    def w_partial(batch: pa.Table) -> pa.Table:
        w = batch.column("rev").to_numpy(zero_copy_only=False) \
            * batch.column("prio_mult").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array([int(w.sum())], pa.int64())], names=["w"])

    parts = joined.map_batches(w_partial, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    total = sum(r["w"] for r in parts)    # exact python-int fold
    if total <= 0:
        return joined.limit(0).map_batches(
            lambda b: pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 4,
                names=["l_orderkey", "l_linenumber", "prio_mult",
                       "rev_cents"]),
            batch_format="pyarrow", zero_copy_batch=True)
    w_double = float(total)
    k_double = float(k)

    def keep(batch: pa.Table) -> pa.Table:
        okey = batch.column("okey_c").to_numpy(zero_copy_only=False)
        ln = batch.column("ln").to_numpy(zero_copy_only=False)
        keys = [f"{o}:{n}{salt}" for o, n in zip(okey, ln)]
        h = _did63(keys).astype(np.float64)
        w = (batch.column("rev").to_numpy(zero_copy_only=False)
             * batch.column("prio_mult").to_numpy(
                 zero_copy_only=False)).astype(np.float64)
        bound = w * k_double / w_double * 9223372036854775808.0
        kept = batch.filter(pa.array(h < bound))
        return pa.Table.from_arrays(
            [kept.column("okey_c"), kept.column("ln"),
             kept.column("prio_mult"), kept.column("rev")],
            names=["l_orderkey", "l_linenumber", "prio_mult",
                   "rev_cents"])

    return joined.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)
