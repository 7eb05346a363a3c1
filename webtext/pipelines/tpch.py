"""TPC-H-style relational queries over the driver tables — the three
canonical distributed-join/aggregate shapes a data engine must get
right, each expressed Ray-Data-first with an exact SQL oracle:

* pricing_summary   — Q1-shaped multi-aggregate with the COMBINER
                      pattern (per-batch partial aggregates inside
                      map_batches; the shuffle ships one row per
                      (batch, group), never lineitems).  Money sums are
                      integer cents (half-away-from-zero per element,
                      matching DuckDB's round()) so float summation
                      order can never skew the value hash.
* order_line_join   — large-large equi-join (orders ⋈ lineitem) as the
                      constant-fan-out join-by-groupby: lineitem is
                      per-batch pre-aggregated by orderkey FIRST, both
                      sides emit into hash(orderkey) % 256 buckets, and
                      one vectorized in-bucket merge joins them.
* region_customer_counts — dimension enrichment via BROADCAST: the
                      nation→region map (a few hundred rows) is
                      ray.put once and read inside each task; customers
                      never shuffle, only per-batch partial counts do.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..exchange import _ibucket, aggregate, join  # module scope: worker
# code is shipped by value and cannot lazy-import webtext


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
    """Shared per-batch combiner: lineitem rows → one (key, qty, n) row
    per distinct key in the batch.  Every lineitem-side join/aggregate
    here funnels through this one helper so the quantity-cast contract
    cannot drift between queries."""
    keys = batch.column(key_col).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    qty = _qty_i64(batch.column("l_quantity")
                   .to_numpy(zero_copy_only=False))
    t = pa.Table.from_arrays(
        [pa.array(keys), pa.array(qty),
         pa.array(np.ones(len(keys), dtype=np.int64))],
        names=["key", "qty", "n"])
    agg = t.group_by(["key"]).aggregate([("qty", "sum"), ("n", "sum")])
    return agg.rename_columns(["key", "qty", "n"])


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


def pricing_summary(lineitem):
    """(l_returnflag, l_linestatus, sum_qty, sum_base_cents, n_rows)."""
    partial = lineitem.select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity",
         "l_extendedprice"]).map_batches(
        _pricing_partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = aggregate(partial, ["l_returnflag", "l_linestatus"],
                       ("sum", "sum_qty"), ("sum", "sum_base_cents"),
                       ("sum", "n_rows"))
    return summed.map_batches(
        lambda b: b.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty",
             "sum_base_cents", "n_rows"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _line_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: lineitem rows → one (orderkey, n, qty) row
    per distinct orderkey in the batch."""
    agg = _keyed_qty_partial(batch, "l_orderkey")
    keys2 = agg.column("key").to_numpy(zero_copy_only=False)
    return pa.Table.from_arrays(
        [pa.array(_ibucket(keys2)), pa.array(keys2),
         pa.array(np.full(len(keys2), -1, dtype=np.int64)),
         agg.column("qty"), agg.column("n")],
        names=["bucket", "okey", "custkey", "qty", "n"])


def _orders_emit(batch: pa.Table) -> pa.Table:
    keys = batch.column("o_orderkey").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    cust = batch.column("o_custkey").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    zero = pa.array(np.zeros(len(keys), dtype=np.int64))
    return pa.Table.from_arrays(
        [pa.array(_ibucket(keys)), pa.array(keys), pa.array(cust),
         zero, zero],
        names=["bucket", "okey", "custkey", "qty", "n"])


def _join_bucket(group: pa.Table) -> pa.Table:
    """Vectorized in-bucket merge: sum the lineitem partials per
    orderkey, attach o_custkey from the orders row, keep matched keys
    (inner join)."""
    okey = group.column("okey").to_numpy(zero_copy_only=False)
    cust = group.column("custkey").to_numpy(zero_copy_only=False)
    qty = group.column("qty").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    is_order = cust != -1
    o_keys, o_cust = okey[is_order], cust[is_order]
    oorder = np.argsort(o_keys)
    o_keys, o_cust = o_keys[oorder], o_cust[oorder]
    l_keys, l_qty, l_n = okey[~is_order], qty[~is_order], n[~is_order]
    if len(o_keys) == 0 or len(l_keys) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["o_orderkey", "o_custkey", "n_lines", "sum_qty"])
    pos = np.clip(np.searchsorted(o_keys, l_keys), 0, len(o_keys) - 1)
    hit = o_keys[pos] == l_keys
    pos, l_qty, l_n = pos[hit], l_qty[hit], l_n[hit]
    sum_qty = np.zeros(len(o_keys), dtype=np.int64)
    n_lines = np.zeros(len(o_keys), dtype=np.int64)
    np.add.at(sum_qty, pos, l_qty)
    np.add.at(n_lines, pos, l_n)
    matched = n_lines > 0
    return pa.Table.from_arrays(
        [pa.array(o_keys[matched]), pa.array(o_cust[matched]),
         pa.array(n_lines[matched]), pa.array(sum_qty[matched])],
        names=["o_orderkey", "o_custkey", "n_lines", "sum_qty"])


def order_line_join(orders, lineitem):
    """(o_orderkey, o_custkey, n_lines, sum_qty) — inner equi-join of
    orders to per-order lineitem aggregates."""
    u = lineitem.select_columns(["l_orderkey", "l_quantity"]) \
        .map_batches(_line_partial, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        orders.select_columns(["o_orderkey", "o_custkey"])
        .map_batches(_orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    return u.groupby("bucket").map_groups(_join_bucket,
                                          batch_format="pyarrow")


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
    summed = aggregate(partial, "r_name", ("sum", "n_customers"))
    return summed.map_batches(
        lambda b: b.rename_columns(["r_name", "n_customers"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _supp_partial(batch: pa.Table) -> pa.Table:
    agg = _keyed_qty_partial(batch, "l_suppkey")
    return agg.rename_columns(["s_suppkey", "sum_qty", "n_lines"])


def supplier_shipments(lineitem, supplier):
    """(s_suppkey, s_name, n_lines, sum_qty) — per-supplier shipped
    volume: lineitem pre-aggregated per batch (combiner), summed with
    one small groupby, supplier names attached via the bucketed
    emit-union join (the _attach_routed shape with a string payload).

    Unlike nation/region (constant 25/5 rows at every TPC-H scale,
    broadcast-safe), supplier is sf-PROPORTIONAL (10k·sf rows): at
    100-TB lineitem a take_all+ray.put of the name table is GBs into
    every actor, so the dimension rides the shuffle instead — both
    sides key by hash(s_suppkey) % 256, one map_groups per bucket does
    a vectorized searchsorted attach (inner semantics: suppliers with
    no lines and keys with no supplier row both drop, matching the
    oracle's join)."""

    partial = lineitem.select_columns(["l_suppkey", "l_quantity"]) \
        .map_batches(_supp_partial, batch_format="pyarrow",
                     zero_copy_batch=True)
    summed = aggregate(partial, "s_suppkey",
                       ("sum", "sum_qty"), ("sum", "n_lines"))

    def fact_emit(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(["s_suppkey", "sum_qty", "n_lines"])
        k = batch.column("s_suppkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(k)), pa.array(k),
             pa.array(np.zeros(len(k), dtype=np.int8)),
             pa.array([""] * len(k), pa.string()),
             batch.column("sum_qty").cast(pa.int64()),
             batch.column("n_lines").cast(pa.int64())],
            names=["bucket", "key", "is_dim", "s_name",
                   "sum_qty", "n_lines"])

    def dim_emit(batch: pa.Table) -> pa.Table:
        k = batch.column("s_suppkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        zeros = pa.array(np.zeros(len(k), dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(k)), pa.array(k),
             pa.array(np.ones(len(k), dtype=np.int8)),
             batch.column("s_name").cast(pa.string()),
             zeros, zeros],
            names=["bucket", "key", "is_dim", "s_name",
                   "sum_qty", "n_lines"])

    def join(group: pa.Table) -> pa.Table:
        is_dim = group.column("is_dim").to_numpy(
            zero_copy_only=False).astype(bool)
        k = group.column("key").to_numpy(zero_copy_only=False)
        names = np.asarray(group.column("s_name").to_pylist(),
                           dtype=object)
        dk, dn = k[is_dim], names[is_dim]
        order = np.argsort(dk)
        dk, dn = dk[order], dn[order]
        fk = k[~is_dim]
        out_names = ["s_suppkey", "s_name", "n_lines", "sum_qty"]
        if len(dk) == 0 or len(fk) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string()),
                 pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=out_names)
        pos = np.clip(np.searchsorted(dk, fk), 0, len(dk) - 1)
        hit = dk[pos] == fk
        fact = group.filter(pa.array(~is_dim)).filter(pa.array(hit))
        return pa.Table.from_arrays(
            [pa.array(fk[hit]), pa.array(dn[pos[hit]].tolist(),
                                         pa.string()),
             fact.column("n_lines"), fact.column("sum_qty")],
            names=out_names)

    u = summed.map_batches(fact_emit, batch_format="pyarrow",
                           zero_copy_batch=True).union(
        supplier.select_columns(["s_suppkey", "s_name"]).map_batches(
            dim_emit, batch_format="pyarrow", zero_copy_batch=True))
    return u.groupby("bucket").map_groups(join, batch_format="pyarrow")


def _brand_line_partial(batch: pa.Table) -> pa.Table:
    agg = _keyed_qty_partial(batch, "l_partkey")
    keys2 = agg.column("key").to_numpy(zero_copy_only=False)
    return pa.Table.from_arrays(
        [pa.array(_ibucket(keys2)), pa.array(keys2),
         pa.array([""] * len(keys2), pa.string()),
         agg.column("qty"), agg.column("n")],
        names=["bucket", "pkey", "brand", "qty", "n"])


def _part_emit(batch: pa.Table) -> pa.Table:
    keys = batch.column("p_partkey").cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    zero = pa.array(np.full(len(keys), -1, dtype=np.int64))
    return pa.Table.from_arrays(
        [pa.array(_ibucket(keys)), pa.array(keys),
         batch.column("p_brand"), zero, zero],
        names=["bucket", "pkey", "brand", "qty", "n"])


def _brand_bucket(group: pa.Table) -> pa.Table:
    """Attach brand to the lineitem partials (searchsorted against the
    bucket's part rows, marked by qty = -1) and pre-sum per brand."""
    pkey = group.column("pkey").to_numpy(zero_copy_only=False)
    qty = group.column("qty").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    brand = np.asarray(group.column("brand").to_pylist(), dtype=object)
    is_part = qty == -1
    p_keys, p_brand = pkey[is_part], brand[is_part]
    order = np.argsort(p_keys)
    p_keys, p_brand = p_keys[order], p_brand[order]
    l_keys, l_qty, l_n = pkey[~is_part], qty[~is_part], n[~is_part]
    if len(p_keys) == 0 or len(l_keys) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64()),
             pa.array([], pa.int64())],
            names=["p_brand", "qty", "n"])
    pos = np.clip(np.searchsorted(p_keys, l_keys), 0, len(p_keys) - 1)
    hit = p_keys[pos] == l_keys
    brands = p_brand[pos[hit]]
    t = pa.Table.from_arrays(
        [pa.array(brands.tolist(), pa.string()),
         pa.array(l_qty[hit]), pa.array(l_n[hit])],
        names=["p_brand", "qty", "n"])
    agg = t.group_by(["p_brand"]).aggregate([("qty", "sum"),
                                             ("n", "sum")])
    return agg.rename_columns(["p_brand", "qty", "n"])


def _left_join_bucket(group: pa.Table) -> pa.Table:
    """Left-outer variant of _join_bucket: every orders row in the
    bucket survives; unmatched orders get n_lines = 0, sum_qty = 0."""
    okey = group.column("okey").to_numpy(zero_copy_only=False)
    cust = group.column("custkey").to_numpy(zero_copy_only=False)
    qty = group.column("qty").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    is_order = cust != -1
    o_keys, o_cust = okey[is_order], cust[is_order]
    oorder = np.argsort(o_keys)
    o_keys, o_cust = o_keys[oorder], o_cust[oorder]
    sum_qty = np.zeros(len(o_keys), dtype=np.int64)
    n_lines = np.zeros(len(o_keys), dtype=np.int64)
    l_keys, l_qty, l_n = okey[~is_order], qty[~is_order], n[~is_order]
    if len(o_keys) and len(l_keys):
        pos = np.clip(np.searchsorted(o_keys, l_keys), 0,
                      len(o_keys) - 1)
        hit = o_keys[pos] == l_keys
        np.add.at(sum_qty, pos[hit], l_qty[hit])
        np.add.at(n_lines, pos[hit], l_n[hit])
    return pa.Table.from_arrays(
        [pa.array(o_keys), pa.array(o_cust), pa.array(n_lines),
         pa.array(sum_qty)],
        names=["o_orderkey", "o_custkey", "n_lines", "sum_qty"])


def order_line_left_join(orders, lineitem):
    """(o_orderkey, o_custkey, n_lines, sum_qty) — LEFT OUTER join:
    same constant-fan-out bucketed plan as order_line_join, but orders
    with no lineitem rows survive with zero counts."""
    u = lineitem.select_columns(["l_orderkey", "l_quantity"]) \
        .map_batches(_line_partial, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        orders.select_columns(["o_orderkey", "o_custkey"])
        .map_batches(_orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    return u.groupby("bucket").map_groups(_left_join_bucket,
                                          batch_format="pyarrow")


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
    partial = lineitem.select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity",
         "l_extendedprice"]).map_batches(
        _rollup_partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = aggregate(partial, ["l_returnflag", "l_linestatus"],
                       ("sum", "sum_qty"), ("sum", "sum_base_cents"),
                       ("sum", "n_rows"))
    return summed.map_batches(
        lambda b: b.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty",
             "sum_base_cents", "n_rows"]),
        batch_format="pyarrow", zero_copy_batch=True)


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

    agg = aggregate(
        ds.select_columns(list(columns))
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "column", ("sum", "n_rows"), ("sum", "n_null"),
        ("min", "min_v"), ("max", "max_v"))
    return agg.map_batches(
        lambda b: b.rename_columns(
            ["column", "n_rows", "n_null", "min_v", "max_v"]),
        batch_format="pyarrow", zero_copy_batch=True)


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


def shipping_priority(customer, orders, lineitem,
                      segment: str = "BUILDING",
                      cutoff: str = "1998-06-01", k: int = 10):
    """TPC-H Q3 shape: top-k orders by revenue among a market segment's
    orders placed before ``cutoff`` with lines shipped after it.
    Output: (l_orderkey, o_orderdate, o_orderpriority, revenue_cents).

    Two constant-fan-out shuffles, no broadcast of any large side:

    1. semi-join orders→customer in hash(custkey) % 256 buckets —
       customers ship only their custkey (filtered marker rows), orders
       ship (custkey, okey, date, priority);
    2. join the surviving orders to per-order lineitem revenue partials
       in hash(orderkey) % 256 buckets — lineitem is pre-aggregated per
       batch (combiner), so the shuffle carries one row per
       (batch, orderkey), never lineitems;
    3. top-k: each bucket emits its local top-k, a single-block final
       pass selects the global top-k (k × 256 rows max — driver-safe at
       any corpus size)."""
    cut_us = np.datetime64(cutoff, "us").astype(np.int64)

    def cust_emit(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("c_mktsegment"), segment)
        keys = batch.filter(mask).column("c_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        neg = pa.array(np.full(len(keys), -1, dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys)), pa.array(keys), neg, neg,
             pa.array([""] * len(keys), pa.string())],
            names=["bucket", "custkey", "okey", "odate_us", "prio"])

    def orders_emit(batch: pa.Table) -> pa.Table:
        odate = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = odate < cut_us
        cust = batch.column("o_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        okey = batch.column("o_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        prio = batch.column("o_orderpriority").filter(pa.array(keep))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(cust)), pa.array(cust), pa.array(okey),
             pa.array(odate[keep]), prio],
            names=["bucket", "custkey", "okey", "odate_us", "prio"])

    def semi_bucket(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy(zero_copy_only=False)
        cust = group.column("custkey").to_numpy(zero_copy_only=False)
        is_cust = okey == -1
        ckeys = np.sort(cust[is_cust])
        o = ~is_cust
        if len(ckeys) == 0 or not o.any():
            return group.slice(0, 0).select(
                ["okey", "odate_us", "prio"])
        pos = np.searchsorted(ckeys, cust[o])
        hit = (pos < len(ckeys)) & (ckeys[np.minimum(
            pos, len(ckeys) - 1)] == cust[o])
        keep = np.zeros(len(okey), dtype=bool)
        keep[np.flatnonzero(o)[hit]] = True
        return group.filter(pa.array(keep)).select(
            ["okey", "odate_us", "prio"])

    surviving = customer.select_columns(["c_custkey", "c_mktsegment"]) \
        .map_batches(cust_emit, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        orders.select_columns(["o_orderkey", "o_custkey", "o_orderdate",
                               "o_orderpriority"])
        .map_batches(orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True)) \
        .groupby("bucket").map_groups(semi_bucket,
                                      batch_format="pyarrow")

    def order_mark(batch: pa.Table) -> pa.Table:
        okey = batch.column("okey").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(okey)), batch.column("okey"),
             batch.column("odate_us"), batch.column("prio"),
             pa.array(np.full(len(okey), -1, dtype=np.int64))],
            names=["bucket", "okey", "odate_us", "prio", "rev"])

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
                                 names=["okey", "rev"])
        agg = t.group_by(["okey"]).aggregate([("rev", "sum")])
        keys2 = agg.column("okey").to_numpy(zero_copy_only=False)
        zero = pa.array(np.zeros(len(keys2), dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys2)), agg.column("okey"), zero,
             pa.array([""] * len(keys2), pa.string()),
             agg.column("rev_sum")],
            names=["bucket", "okey", "odate_us", "prio", "rev"])

    def join_topk(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy(zero_copy_only=False)
        rev = group.column("rev").to_numpy(zero_copy_only=False)
        odate = group.column("odate_us").to_numpy(zero_copy_only=False)
        prio = np.asarray(group.column("prio").to_pylist(), dtype=object)
        is_order = rev == -1
        o_keys, o_date, o_prio = (okey[is_order], odate[is_order],
                                  prio[is_order])
        order = np.argsort(o_keys)
        o_keys, o_date, o_prio = o_keys[order], o_date[order], \
            o_prio[order]
        l_keys, l_rev = okey[~is_order], rev[~is_order]
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()),
             pa.array([], pa.timestamp("us")),
             pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["l_orderkey", "o_orderdate", "o_orderpriority",
                   "revenue_cents"])
        if len(o_keys) == 0 or len(l_keys) == 0:
            return empty
        pos = np.clip(np.searchsorted(o_keys, l_keys), 0,
                      len(o_keys) - 1)
        hit = o_keys[pos] == l_keys
        revenue = np.zeros(len(o_keys), dtype=np.int64)
        np.add.at(revenue, pos[hit], l_rev[hit])
        matched = np.zeros(len(o_keys), dtype=bool)
        matched[pos[hit]] = True
        if not matched.any():
            return empty
        o_keys, o_date, o_prio, revenue = (o_keys[matched],
                                           o_date[matched],
                                           o_prio[matched],
                                           revenue[matched])
        top = np.lexsort((o_keys, -revenue))[:k]
        return pa.Table.from_arrays(
            [pa.array(o_keys[top]),
             pa.array(o_date[top]).cast(pa.timestamp("us")),
             pa.array(o_prio[top].tolist(), pa.string()),
             pa.array(revenue[top])],
            names=["l_orderkey", "o_orderdate", "o_orderpriority",
                   "revenue_cents"])

    line_side = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]) \
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True)
    per_bucket = surviving.map_batches(
        order_mark, batch_format="pyarrow", zero_copy_batch=True) \
        .union(line_side) \
        .groupby("bucket").map_groups(join_topk, batch_format="pyarrow")

    def final_topk(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        rev = batch.column("revenue_cents") \
            .to_numpy(zero_copy_only=False)
        top = np.lexsort((okey, -rev))[:k]
        return batch.take(pa.array(top))

    # per_bucket is ≤ 256 × k rows at any corpus size
    return per_bucket.repartition(1).map_batches(
        final_topk, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True)


def brand_volume(lineitem, part):
    """(p_brand, n_lines, sum_qty) — join-then-reaggregate: lineitem
    partials join part brands in hash(partkey) % 256 buckets (part is
    corpus-sized at real scale — NOT broadcast), brands pre-summed in
    the bucket, then one tiny groupby-sum over brands."""
    u = lineitem.select_columns(["l_partkey", "l_quantity"]) \
        .map_batches(_brand_line_partial, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        part.select_columns(["p_partkey", "p_brand"])
        .map_batches(_part_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    per_bucket = u.groupby("bucket").map_groups(
        _brand_bucket, batch_format="pyarrow")
    # Final cross-bucket sum: per_bucket is ≤ n_buckets × n_brands rows
    # at ANY corpus size (each bucket pre-summed per brand), so a
    # single-block Arrow group_by replaces a second sort-based
    # all-to-all whose 128×128 tiny-partition coordination dominated
    # wall time (~2× query cost at sf0.1, measured in ds.stats()).
    def total(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["p_brand"]).aggregate(
            [("n", "sum"), ("qty", "sum")])
        return agg.rename_columns(["p_brand", "n_lines", "sum_qty"])

    return per_bucket.repartition(1).map_batches(
        total, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True)


# routed-attach gate: a dimension side of ≤ this many rows broadcasts
# once as a sorted LUT (≤ ~64 MB of int64 (key, value) via ray.put,
# one copy per node, read zero-copy in every task); a larger side rides
# the bucketed exchange.  At every tested sf the TPC-H dimension tables
# (nation/supplier/customer/part/orders) fit the gate, while a 100-TB
# orders or customer table routes to the shuffle plan automatically.
# Both routes are inner joins over unique dim keys, pinned
# row-identical by test.
DIM_BROADCAST_MAX_ROWS = 4_000_000


def _attach_routed(fact, dim, key_col: str, attach_cols,
                   carry_cols: tuple[str, ...],
                   n_dim_rows: int | None = None):
    """Dimension attach (inner join) on ``exchange.join``: fact rows
    (key, *carry) pick up ``attach_cols`` (one name or a tuple) from the
    dim row with their key; unmatched fact rows drop, and a duplicate
    dim key raises.  The output is (*attach_cols, *carry_cols), all
    int64.

    ``n_dim_rows`` routes it: at or under ``DIM_BROADCAST_MAX_ROWS``
    (read now) the dim is collected once and broadcast as a sorted LUT,
    with no exchange — what turned the Q5/Q7/Q8/Q9 deep-join chains
    from 3-4 sort shuffles each into one (or zero) at bench scales;
    above it, or None (a corpus-sized dim), one bucketed exchange runs.
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
                dim, key_col, attach=attach_cols, right_rows=n_dim_rows,
                broadcast_max_rows=DIM_BROADCAST_MAX_ROWS) \
        .map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def local_supplier_volume(customer, orders, lineitem, supplier, nation):
    """TPC-H Q5 shape: revenue per nation from lineitems whose supplier
    and customer share that nation.  Output (n_name, revenue_cents).

    Deep-join pipeline: three ROUTED dimension attaches chained on
    DIFFERENT keys — orderkey → custkey → suppkey — each broadcast as
    a sorted LUT under the DIM_BROADCAST_MAX_ROWS gate (all three fit
    at every tested sf) and a constant-fan-out emit-union groupby past
    it (orders / customer / supplier all scale with the corpus, so the
    gate is what keeps the 100-TB plan a shuffle).  The lineitem side
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
        "nat", ("sum", "revenue_cents"))

    def attach_name(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        batch = batch.rename_columns(["nat", "revenue_cents"])
        nats = batch.column("nat").to_numpy(zero_copy_only=False)
        nm = [m.get(int(n)) for n in nats]
        keep = pa.array([x is not None for x in nm])
        return pa.Table.from_arrays(
            [pa.array([x or "" for x in nm], pa.string()),
             batch.column("revenue_cents")],
            names=["n_name", "revenue_cents"]).filter(keep)

    return summed.map_batches(attach_name, batch_format="pyarrow",
                              zero_copy_batch=True)


def _full_join_bucket(group: pa.Table) -> pa.Table:
    """Full-outer variant of _join_bucket: unmatched orders keep zeros
    (left side), dangling lineitem aggregates survive with
    o_custkey = -1 (right side) — the SQL NULL stands in as a sentinel
    so the output stays int64/hashable."""
    okey = group.column("okey").to_numpy(zero_copy_only=False)
    cust = group.column("custkey").to_numpy(zero_copy_only=False)
    qty = group.column("qty").to_numpy(zero_copy_only=False)
    n = group.column("n").to_numpy(zero_copy_only=False)
    is_order = cust != -1
    o_keys, o_cust = okey[is_order], cust[is_order]
    oorder = np.argsort(o_keys)
    o_keys, o_cust = o_keys[oorder], o_cust[oorder]
    l_keys, l_qty, l_n = okey[~is_order], qty[~is_order], n[~is_order]
    sum_qty = np.zeros(len(o_keys), dtype=np.int64)
    n_lines = np.zeros(len(o_keys), dtype=np.int64)
    dangling = np.zeros(len(l_keys), dtype=bool)
    if len(o_keys) and len(l_keys):
        pos = np.clip(np.searchsorted(o_keys, l_keys), 0,
                      len(o_keys) - 1)
        hit = o_keys[pos] == l_keys
        np.add.at(sum_qty, pos[hit], l_qty[hit])
        np.add.at(n_lines, pos[hit], l_n[hit])
        dangling = ~hit
    elif len(l_keys):
        dangling[:] = True
    # dangling lineitem partials may repeat per source block: pre-sum
    d_keys, d_qty, d_n = l_keys[dangling], l_qty[dangling], n[
        ~is_order][dangling]
    if len(d_keys):
        t = pa.Table.from_arrays(
            [pa.array(d_keys), pa.array(d_qty), pa.array(d_n)],
            names=["k", "q", "n"])
        agg = t.group_by("k").aggregate([("q", "sum"), ("n", "sum")])
        d_keys = agg.column("k").to_numpy(zero_copy_only=False)
        d_qty = agg.column("q_sum").to_numpy(zero_copy_only=False)
        d_n = agg.column("n_sum").to_numpy(zero_copy_only=False)
    return pa.Table.from_arrays(
        [pa.array(np.concatenate([o_keys, d_keys])),
         pa.array(np.concatenate([o_cust,
                                  np.full(len(d_keys), -1,
                                          dtype=np.int64)])),
         pa.array(np.concatenate([n_lines, d_n])),
         pa.array(np.concatenate([sum_qty, d_qty]))],
        names=["o_orderkey", "o_custkey", "n_lines", "sum_qty"])


def order_line_full_join(orders, lineitem):
    """(o_orderkey, o_custkey, n_lines, sum_qty) — FULL OUTER join:
    orders with no lines keep zeros, lineitem aggregates with no order
    survive with o_custkey = -1 (NULL sentinel).  Same bucketed plan as
    order_line_join."""
    u = lineitem.select_columns(["l_orderkey", "l_quantity"]) \
        .map_batches(_line_partial, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        orders.select_columns(["o_orderkey", "o_custkey"])
        .map_batches(_orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    return u.groupby("bucket").map_groups(_full_join_bucket,
                                          batch_format="pyarrow")


def small_quantity_revenue(lineitem, part, brand: str = "Brand#1"):
    """TPC-H Q17 shape: one-row (n_small_lines, revenue_cents) over
    lineitems of the given brand's parts whose quantity is below 20% of
    that part's average lineitem quantity — the correlated-aggregate
    filter (price impact of small-lot orders).

    The correlated avg must see ALL lineitems of a part, so lineitem
    rows pre-combine per (partkey, qty-cents) — quantities are discrete,
    so the combiner collapses the fact side hard — and the per-part
    threshold, brand membership, row filter, and partial sums all
    happen inside one hash(partkey) bucket: threshold as integers
    (5 * qc * n < sum_qc  ⟺  qc < 0.2 * avg_qc), one constant-key sum
    finalizes.  The brand's part list scales with the part table, so it
    rides the same bucketed shuffle — never a broadcast."""

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
        out = agg.append_column(
            "bucket", pa.array(_ibucket(
                agg.column("partkey").to_numpy(zero_copy_only=False))))
        return out.append_column(
            "is_dim", pa.array(np.zeros(agg.num_rows, dtype=np.int64)))

    def part_emit(batch: pa.Table, *, _brand=brand) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(batch.column("p_brand"), _brand)
        pk = batch.filter(keep).column("p_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        z = pa.array(np.zeros(len(pk), dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(pk), z, z, z, pa.array(_ibucket(pk)),
             pa.array(np.ones(len(pk), dtype=np.int64))],
            names=["partkey", "qc", "n_lines", "price", "bucket",
                   "is_dim"])

    def filter_bucket(group: pa.Table) -> pa.Table:
        is_dim = group.column("is_dim").to_numpy(
            zero_copy_only=False).astype(bool)
        pk = group.column("partkey").to_numpy(zero_copy_only=False)
        qc = group.column("qc").to_numpy(zero_copy_only=False)
        nl = group.column("n_lines").to_numpy(zero_copy_only=False)
        price = group.column("price").to_numpy(zero_copy_only=False)
        brand_keys = np.sort(pk[is_dim])
        fpk, fqc, fnl, fprice = (a[~is_dim]
                                 for a in (pk, qc, nl, price))
        one = pa.Table.from_arrays(
            [pa.array([0], pa.int64()), pa.array([0], pa.int64()),
             pa.array([0], pa.int64())],
            names=["k", "n_small_lines", "revenue_cents"])
        if len(fpk) == 0:
            return one
        # per-part totals over ALL lineitems (avg sees everything)
        pk_u, inv = np.unique(fpk, return_inverse=True)
        n_part = np.zeros(len(pk_u), dtype=np.int64)
        sq_part = np.zeros(len(pk_u), dtype=np.int64)
        np.add.at(n_part, inv, fnl)
        np.add.at(sq_part, inv, fqc * fnl)
        in_brand = np.zeros(len(pk_u), dtype=bool)
        if len(brand_keys):
            pos = np.clip(np.searchsorted(brand_keys, pk_u), 0,
                          len(brand_keys) - 1)
            in_brand = brand_keys[pos] == pk_u
        keep = in_brand[inv] & (5 * fqc * n_part[inv] < sq_part[inv])
        return pa.Table.from_arrays(
            [pa.array([0], pa.int64()),
             pa.array([int(fnl[keep].sum())], pa.int64()),
             pa.array([int(fprice[keep].sum())], pa.int64())],
            names=["k", "n_small_lines", "revenue_cents"])

    u = lineitem.select_columns(
        ["l_partkey", "l_quantity", "l_extendedprice"]) \
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        part.select_columns(["p_partkey", "p_brand"])
        .map_batches(part_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    summed = aggregate(
        u.groupby("bucket").map_groups(
            filter_bucket, batch_format="pyarrow"),
        "k", ("sum", "n_small_lines"), ("sum", "revenue_cents"))
    return summed.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("sum(n_small_lines)").cast(pa.int64()),
             b.column("sum(revenue_cents)").cast(pa.int64())],
            names=["n_small_lines", "revenue_cents"]),
        batch_format="pyarrow", zero_copy_batch=True)


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

    partial = lineitem.select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity",
         "l_extendedprice"]).map_batches(
        cube_partial, batch_format="pyarrow", zero_copy_batch=True)
    summed = aggregate(partial, ["l_returnflag", "l_linestatus"],
                       ("sum", "sum_qty"), ("sum", "sum_base_cents"),
                       ("sum", "n_rows"))
    return summed.map_batches(
        lambda b: b.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty",
             "sum_base_cents", "n_rows"]),
        batch_format="pyarrow", zero_copy_batch=True)


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
       bucketed `_attach_routed` on hash(orderkey) % 256 (orders filtered to
       the quarter; inner semantics drop out-of-window revenue);
    3. one sum aggregate by custkey;
    4. per-customer totals pick up c_nationkey through a second
       bucketed `_attach_routed` on hash(custkey) % 256 — customer is
       sf-proportional, so it rides the shuffle, never ray.put;
    5. nation names (constant 25 rows) broadcast; top-k is the usual
       per-block partial + single-block final."""
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
    per_cust = aggregate(with_cust, "o_custkey",
                         ("sum", "rev")).map_batches(
        lambda b: b.rename_columns(["c_custkey", "rev"]).append_column(
            "ckey", b.column(0).cast(pa.int64())),
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

    # partial top-k per block, then one single-block final pass
    partial = with_nat.map_batches(attach_name_topk,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)

    def final_topk(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        rev = batch.column("revenue_cents") \
            .to_numpy(zero_copy_only=False)
        top = np.lexsort((ck, -rev))[:k]
        return batch.take(pa.array(top))

    return partial.repartition(1).map_batches(
        final_topk, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True)


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
    n_blocks rows into a single final block.  Discounts are compared in
    integer cents (round(l_discount*100)), never raw floats, so the
    BETWEEN edges cannot flake on float representation."""
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

    def total(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array([int(batch.column("revenue_micro")
                           .to_numpy(zero_copy_only=False).sum())],
                      pa.int64()),
             pa.array([int(batch.column("n_lines")
                           .to_numpy(zero_copy_only=False).sum())],
                      pa.int64())],
            names=["revenue_micro", "n_lines"])

    return lineitem.select_columns(
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .repartition(1).map_batches(total, batch_size=None,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)


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
    second one-row-per-batch combiner."""
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

    def total(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array([int(batch.column("promo_cents")
                           .to_numpy(zero_copy_only=False).sum())],
                      pa.int64()),
             pa.array([int(batch.column("total_cents")
                           .to_numpy(zero_copy_only=False).sum())],
                      pa.int64())],
            names=["promo_cents", "total_cents"])

    return flagged.map_batches(split_partial, batch_format="pyarrow",
                               zero_copy_batch=True) \
        .repartition(1).map_batches(total, batch_size=None,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)


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
    rides the hash(orderkey) % 256 shuffle, never a broadcast."""

    def line_partial(batch: pa.Table) -> pa.Table:
        agg = _keyed_qty_partial(batch, "l_orderkey")
        return agg.select(["key", "qty"]) \
            .rename_columns(["okey", "qty"])

    totals = aggregate(
        lineitem.select_columns(["l_orderkey", "l_quantity"])
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        "okey", ("sum", "qty"))

    def heavy(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(["okey", "qty"])
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

    Scale shape: orders pre-count per (batch, custkey) — the combiner
    bounds the exchange — then customers and count-partials meet in
    hash(custkey) % 256 buckets; each bucket left-joins (customers
    with no orders get 0), collapses straight to a histogram partial
    (c_count, n_cust), and one tiny keyed aggregate sums the ≤256
    partial histograms.  Customer rows never leave their bucket as
    rows — only histogram cells do."""

    def orders_partial(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        uk, counts = np.unique(keys, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(uk)), pa.array(uk),
             pa.array(np.zeros(len(uk), dtype=np.int64)),
             pa.array(counts.astype(np.int64))],
            names=["bucket", "key", "is_cust", "n"])

    def cust_emit(batch: pa.Table) -> pa.Table:
        keys = batch.column("c_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys)), pa.array(keys),
             pa.array(np.ones(len(keys), dtype=np.int64)),
             pa.array(np.zeros(len(keys), dtype=np.int64))],
            names=["bucket", "key", "is_cust", "n"])

    def bucket_hist(group: pa.Table) -> pa.Table:
        is_cust = group.column("is_cust").to_numpy(
            zero_copy_only=False).astype(bool)
        k = group.column("key").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        ck = np.sort(k[is_cust])
        totals = np.zeros(len(ck), dtype=np.int64)
        ok, on = k[~is_cust], n[~is_cust]
        if len(ck) and len(ok):
            pos = np.clip(np.searchsorted(ck, ok), 0, len(ck) - 1)
            hit = ck[pos] == ok
            np.add.at(totals, pos[hit], on[hit])
        cc, dist = np.unique(totals, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(cc), pa.array(dist.astype(np.int64))],
            names=["c_count", "n_cust"])

    u = orders.select_columns(["o_custkey"]).map_batches(
        orders_partial, batch_format="pyarrow",
        zero_copy_batch=True).union(
        customer.select_columns(["c_custkey"]).map_batches(
            cust_emit, batch_format="pyarrow", zero_copy_batch=True))
    hist = u.groupby("bucket").map_groups(bucket_hist,
                                          batch_format="pyarrow")
    return aggregate(hist, "c_count", ("sum", "n_cust")).map_batches(
        lambda b: b.rename_columns(["c_count", "custdist"]),
        batch_format="pyarrow", zero_copy_batch=True)


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
        "s_suppkey", ("sum", "rev")).map_batches(
        lambda b: b.rename_columns(["s_suppkey",
                                    "total_revenue_cents"]),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

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
    filtered BEFORE the anti-join shuffle (they are a small fraction),
    then anti-join orders' per-batch-distinct custkeys in
    hash(custkey) % 256 buckets; survivors collapse to per-segment
    partials and one tiny keyed aggregate."""

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

    def cust_emit(batch: pa.Table) -> pa.Table:
        bal_c = _cents_signed(batch.column("c_acctbal")
                              .to_numpy(zero_copy_only=False))
        # exact rational AVG() compare: bal > s/n  <=>  bal*n > s
        rich = bal_c * n_total > s_total
        keys = batch.column("c_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[rich]
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys)), pa.array(keys),
             pa.array(np.zeros(len(keys), dtype=np.int64)),
             pa.array(bal_c[rich]),
             batch.column("c_mktsegment").filter(pa.array(rich))],
            names=["bucket", "key", "is_order", "bal_c", "seg"])

    cut_us = np.datetime64(inactive_since, "us").astype(np.int64)

    def orders_emit(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        recent = od >= cut_us
        keys = np.unique(batch.column("o_custkey").cast(pa.int64())
                         .to_numpy(zero_copy_only=False)[recent])
        z = pa.array(np.zeros(len(keys), dtype=np.int64))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys)), pa.array(keys),
             pa.array(np.ones(len(keys), dtype=np.int64)), z,
             pa.array([""] * len(keys), pa.string())],
            names=["bucket", "key", "is_order", "bal_c", "seg"])

    def anti_bucket(group: pa.Table) -> pa.Table:
        is_order = group.column("is_order").to_numpy(
            zero_copy_only=False).astype(bool)
        k = group.column("key").to_numpy(zero_copy_only=False)
        ok = np.unique(k[is_order])
        ck = k[~is_order]
        if len(ok):
            pos = np.clip(np.searchsorted(ok, ck), 0, len(ok) - 1)
            lonely = ok[pos] != ck
        else:
            lonely = np.ones(len(ck), dtype=bool)
        keep = np.zeros(len(k), dtype=bool)
        keep[np.flatnonzero(~is_order)[lonely]] = True
        surv = group.filter(pa.array(keep))
        t = pa.Table.from_arrays(
            [surv.column("seg"), surv.column("bal_c"),
             pa.array(np.ones(surv.num_rows, dtype=np.int64))],
            names=["c_mktsegment", "bal", "one"])
        agg = t.group_by(["c_mktsegment"]).aggregate(
            [("one", "sum"), ("bal", "sum")])
        return agg.rename_columns(
            ["c_mktsegment", "n_cust", "sum_acctbal_cents"])

    u = customer.select_columns(
        ["c_custkey", "c_acctbal", "c_mktsegment"]).map_batches(
        cust_emit, batch_format="pyarrow", zero_copy_batch=True) \
        .union(orders.select_columns(["o_custkey", "o_orderdate"]).map_batches(
            orders_emit, batch_format="pyarrow", zero_copy_batch=True))
    per_bucket = u.groupby("bucket").map_groups(
        anti_bucket, batch_format="pyarrow")
    return aggregate(per_bucket, "c_mktsegment", ("sum", "n_cust"),
                     ("sum", "sum_acctbal_cents")).map_batches(
        lambda b: b.rename_columns(
            ["c_mktsegment", "n_cust", "sum_acctbal_cents"]),
        batch_format="pyarrow", zero_copy_batch=True)


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
    → suppkey; each broadcasts a sorted LUT under the
    DIM_BROADCAST_MAX_ROWS gate, and rides the bucketed emit-union
    shuffle past it — orders/customer/supplier all scale with the
    corpus, so the gate keeps the 100-TB plan honest); the pair ×
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
        ["s_nat", "c_nat", "l_year"], ("sum", "rev"))

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"])
             .take_all()}                       # constant 25 rows
    ref = ray.put(names)

    def attach_names(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        batch = batch.rename_columns(
            ["s_nat", "c_nat", "l_year", "revenue_cents"])
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
    (LUT broadcast under the DIM_BROADCAST_MAX_ROWS gate, bucketed
    emit-union shuffle past it):
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
        "o_year", ("sum", "nation_cents"), ("sum", "total_cents")) \
        .map_batches(lambda b: b.rename_columns(
            ["o_year", "nation_cents", "total_cents"]),
            batch_format="pyarrow", zero_copy_batch=True)


def order_priority_check(orders, lineitem,
                         date_from: str = "1998-01-01",
                         date_to: str = "1998-04-01",
                         late_days: int = 60):
    """TPC-H Q4 shape: per order priority, how many of a quarter's
    orders had at least one line shipped more than ``late_days`` after
    the order date.  Output: (o_orderpriority, n_orders).

    The EXISTS predicate is NON-EQUI (it compares l_shipdate against
    the outer row's o_orderdate), so it cannot ride a key-only
    semi-join: lineitem instead pre-reduces to max(l_shipdate) per
    (batch, orderkey) — EXISTS(ship > cutoff) ≡ max(ship) > cutoff —
    and the bucketed join evaluates the date comparison with both
    sides' values in hand.  The combiner bounds the exchange to one
    row per distinct orderkey per batch; priorities leave each bucket
    pre-counted."""
    lo = np.datetime64(date_from, "us").astype(np.int64)
    hi = np.datetime64(date_to, "us").astype(np.int64)
    late_us = late_days * 86_400_000_000

    def line_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        t = pa.Table.from_arrays([pa.array(okey), pa.array(ship)],
                                 names=["okey", "ship"])
        agg = t.group_by(["okey"]).aggregate([("ship", "max")])
        keys = agg.column("okey").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(keys)), agg.column("okey"),
             pa.array(np.full(len(keys), -1, dtype=np.int64)),
             agg.column("ship_max"),
             pa.array([""] * len(keys), pa.string())],
            names=["bucket", "okey", "odate_us", "ship_us", "prio"])

    def orders_emit(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (od >= lo) & (od < hi)
        okey = batch.column("o_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        prio = batch.column("o_orderpriority").filter(pa.array(keep))
        return pa.Table.from_arrays(
            [pa.array(_ibucket(okey)), pa.array(okey),
             pa.array(od[keep]),
             pa.array(np.full(len(okey), -1, dtype=np.int64)), prio],
            names=["bucket", "okey", "odate_us", "ship_us", "prio"])

    def check_bucket(group: pa.Table) -> pa.Table:
        odate = group.column("odate_us").to_numpy(zero_copy_only=False)
        is_order = odate != -1
        k = group.column("okey").to_numpy(zero_copy_only=False)
        ship = group.column("ship_us").to_numpy(zero_copy_only=False)
        ok = k[is_order]
        order = np.argsort(ok)
        ok, od = ok[order], odate[is_order][order]
        prio = group.column("prio").filter(
            pa.array(is_order)).take(pa.array(order))
        # max ship per order across this bucket's lineitem partials
        ms = np.full(len(ok), np.iinfo(np.int64).min, dtype=np.int64)
        lk, ls = k[~is_order], ship[~is_order]
        if len(ok) and len(lk):
            pos = np.clip(np.searchsorted(ok, lk), 0, len(ok) - 1)
            hit = ok[pos] == lk
            np.maximum.at(ms, pos[hit], ls[hit])
        late = ms > od + late_us
        t = pa.Table.from_arrays(
            [prio.filter(pa.array(late)),
             pa.array(np.ones(int(late.sum()), dtype=np.int64))],
            names=["o_orderpriority", "one"])
        agg = t.group_by(["o_orderpriority"]).aggregate([("one", "sum")])
        return agg.rename_columns(["o_orderpriority", "n_orders"])

    u = lineitem.select_columns(["l_orderkey", "l_shipdate"]) \
        .map_batches(line_partial, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        orders.select_columns(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])
        .map_batches(orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    per_bucket = u.groupby("bucket").map_groups(
        check_bucket, batch_format="pyarrow")
    return aggregate(per_bucket, "o_orderpriority", ("sum", "n_orders")) \
        .map_batches(lambda b: b.rename_columns(
            ["o_orderpriority", "n_orders"]),
            batch_format="pyarrow", zero_copy_batch=True)


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

    def total(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array([int(batch.column("n_lines")
                           .to_numpy(zero_copy_only=False).sum())],
                      pa.int64()),
             pa.array([int(batch.column("revenue_cents")
                           .to_numpy(zero_copy_only=False).sum())],
                      pa.int64())],
            names=["n_lines", "revenue_cents"])

    return joined.map_batches(arm_partial, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .repartition(1).map_batches(total, batch_size=None,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)


def waiting_suppliers(lineitem, min_suppliers: int = 2):
    """TPC-H Q21 shape: for every multi-supplier order, if exactly ONE
    supplier's lines carry the order's latest ship date, that supplier
    "kept the order waiting" and takes a strike.  Output: every
    supplier's strike count (s_suppkey, n_waiting).

    One all-to-all: lineitem pre-reduces max(l_shipdate) per (batch,
    orderkey, suppkey), partials meet in hash(orderkey) % 256 buckets,
    and each bucket runs the whole per-order analysis VECTORIZED —
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
        line_partial, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby("bucket").map_groups(blame_bucket,
                                      batch_format="pyarrow")
    return aggregate(per_bucket, "s_suppkey", ("sum", "n_waiting")) \
        .map_batches(lambda b: b.rename_columns(
            ["s_suppkey", "n_waiting"]),
            batch_format="pyarrow", zero_copy_batch=True)


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
    the priority lives on the dimension side, so one all-to-all keyed
    by hash(orderkey) is unavoidable: lineitem ships (okey, status,
    ship_us) — three narrow columns, never the money columns — and
    orders ships one (okey, odate, prio) row each.  Buckets evaluate
    the date comparison with both sides in hand via sorted-key
    searchsorted gather and leave pre-counted (status, high, n)
    partials; the final groupby is constant-size (|statuses| rows)."""
    late_us = late_days * 86_400_000_000
    HIGH = ("1-URGENT", "2-HIGH")

    def line_emit(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ship = batch.column("l_shipdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(okey)), pa.array(okey),
             pa.array(np.full(len(okey), -1, dtype=np.int64)),
             pa.array(ship), batch.column("l_linestatus"),
             pa.array(np.zeros(len(okey), dtype=bool))],
            names=["bucket", "okey", "odate_us", "ship_us", "status",
                   "high"])

    def orders_emit(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        od = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        high = pc.is_in(batch.column("o_orderpriority"),
                        value_set=pa.array(HIGH)) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(okey)), pa.array(okey), pa.array(od),
             pa.array(np.full(len(okey), -1, dtype=np.int64)),
             pa.array([""] * len(okey), pa.string()),
             pa.array(high)],
            names=["bucket", "okey", "odate_us", "ship_us", "status",
                   "high"])

    def join_bucket(group: pa.Table) -> pa.Table:
        odate = group.column("odate_us").to_numpy(zero_copy_only=False)
        is_order = odate != -1
        k = group.column("okey").to_numpy(zero_copy_only=False)
        ok = k[is_order]
        order = np.argsort(ok)
        ok = ok[order]
        od = odate[is_order][order]
        hi = group.column("high").to_numpy(zero_copy_only=False)[
            is_order][order]
        lk = k[~is_order]
        ship = group.column("ship_us") \
            .to_numpy(zero_copy_only=False)[~is_order]
        status = group.column("status").filter(pa.array(~is_order))
        if not len(ok) or not len(lk):
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["l_linestatus", "high_n", "low_n"])
        pos = np.clip(np.searchsorted(ok, lk), 0, len(ok) - 1)
        hit = ok[pos] == lk
        late = hit & (ship > od[pos] + late_us)
        lhigh = hi[pos] & late
        t = pa.Table.from_arrays(
            [status.filter(pa.array(late)),
             lhigh[late].astype(np.int64),
             (~lhigh[late]).astype(np.int64)],
            names=["l_linestatus", "high_n", "low_n"])
        agg = t.group_by(["l_linestatus"]).aggregate(
            [("high_n", "sum"), ("low_n", "sum")])
        return agg.rename_columns(["l_linestatus", "high_n", "low_n"])

    u = lineitem.select_columns(
        ["l_orderkey", "l_shipdate", "l_linestatus"]) \
        .map_batches(line_emit, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        orders.select_columns(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])
        .map_batches(orders_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    per_bucket = u.groupby("bucket").map_groups(
        join_bucket, batch_format="pyarrow")
    return aggregate(per_bucket, "l_linestatus",
                     ("sum", "high_n"), ("sum", "low_n")) \
        .map_batches(lambda b: b.rename_columns(
            ["l_linestatus", "high_line_count", "low_line_count"]),
            batch_format="pyarrow", zero_copy_batch=True)


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
    the sf-proportional per-part table (stays distributed), and the
    global total is a second combiner pass over the same two narrow
    columns reduced to ONE scalar (no groupby, no shuffle — cheaper
    than materializing the per-part table to reuse it).  The strict
    threshold is exact in integers: for integer
    rev and total, rev > total·frac_bp/10⁴ ⟺ rev > total·frac_bp // 10⁴
    (driver-side Python big-int — no int64 overflow at any scale, no
    float comparison), shipped as one scalar into a vectorized filter."""
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
    per_part = aggregate(partial, "l_partkey", ("sum", "rev_cents")) \
        .map_batches(lambda b: b.rename_columns(
            ["l_partkey", "rev_cents"]),
            batch_format="pyarrow", zero_copy_batch=True)
    # one scalar: sum of the SAME combiner partials (constant-size
    # driver result; Python ints, exact at any corpus size)
    total = int(partial.sum("rev_cents"))
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

    ONE all-to-all: batches pre-sum per (part, supplier) pair
    (combiner — bounded fan-out, a batch's distinct pairs), the
    exchange keys by hash(partkey) so every (part, supplier) partial
    of a part lands in one cell, and the cell finishes with two
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

    return lineitem.select_columns(
        ["l_partkey", "l_suppkey", "l_extendedprice"]) \
        .map_batches(pair_partial, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(argmin_cell,
                                      batch_format="pyarrow")


def brand_supplier_counts(lineitem, part):
    """TPC-H Q16 shape (parts/supplier relationship, adapted — no
    partsupp in the synthetic schema, so "supplier can supply part" =
    "supplier shipped the part"): per (p_brand, p_type), how many
    DISTINCT suppliers shipped parts of that brand and type.  Output
    (p_brand, p_type, n_supp).  Reference has no relational ops; shape
    per SURVEY §2.4 note.

    Distinct-count-after-join without ever carrying duplicates: blocks
    pre-distinct lineitem to (partkey, suppkey) pairs (combiner), one
    hash(partkey) exchange attaches brand/type (part is corpus-sized —
    never broadcast), each cell re-distincts its (brand, type, supp)
    triples, and a SECOND hash(triple) exchange makes triples globally
    unique before constant-size per-(brand, type) count partials feed
    the tiny final sum.  Both exchanges ship fixed-width rows bounded
    by |distinct triples|, not lineitem."""
    import pandas as pd

    def fact_emit(batch: pa.Table) -> pa.Table:
        p = batch.column("l_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        s = batch.column("l_suppkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([p, s], axis=1), axis=0)
        k = pairs[:, 0]
        return pa.Table.from_arrays(
            [pa.array(_ibucket(k)), pa.array(k),
             pa.array(np.zeros(len(k), dtype=np.int8)),
             pa.array([""] * len(k), pa.string()),
             pa.array([""] * len(k), pa.string()),
             pa.array(pairs[:, 1])],
            names=["bucket", "key", "is_dim", "p_brand", "p_type",
                   "supp"])

    def dim_emit(batch: pa.Table) -> pa.Table:
        k = batch.column("p_partkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(k)), pa.array(k),
             pa.array(np.ones(len(k), dtype=np.int8)),
             batch.column("p_brand").cast(pa.string()),
             batch.column("p_type").cast(pa.string()),
             pa.array(np.zeros(len(k), dtype=np.int64))],
            names=["bucket", "key", "is_dim", "p_brand", "p_type",
                   "supp"])

    def attach_cell(group: pa.Table) -> pa.Table:
        import pandas as pd

        is_dim = group.column("is_dim").to_numpy(
            zero_copy_only=False).astype(bool)
        k = group.column("key").to_numpy(zero_copy_only=False)
        dk = k[is_dim]
        order = np.argsort(dk)
        dk = dk[order]
        fk = k[~is_dim]
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()),
             pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["bucket2", "p_brand", "p_type", "supp"])
        if not len(dk) or not len(fk):
            return empty
        dim_idx = np.nonzero(is_dim)[0][order]
        supp = group.column("supp").to_numpy(
            zero_copy_only=False)[~is_dim]
        pos = np.clip(np.searchsorted(dk, fk), 0, len(dk) - 1)
        hit = dk[pos] == fk
        gat = pa.array(dim_idx[pos[hit]])
        b = group.column("p_brand").take(gat)   # Arrow C gathers
        t = group.column("p_type").take(gat)
        s = supp[hit]
        if not len(s):
            return empty
        # cell-local distinct triples via factorized code packing —
        # no string concatenation, exact
        bcodes, _bu = pd.factorize(b.to_pandas(), sort=False)
        tcodes, tu = pd.factorize(t.to_pandas(), sort=False)
        pair = bcodes.astype(np.int64) * len(tu) + tcodes
        m = np.int64(s.max()) + 1
        packed, first = np.unique(pair * m + s, return_index=True)
        fi = pa.array(first)
        sb = group.column("p_brand").take(gat.take(fi))
        st = group.column("p_type").take(gat.take(fi))
        kb = pd.util.hash_array(
            np.asarray(sb.to_pylist(), dtype=object)).astype(np.int64)
        kt = pd.util.hash_array(
            np.asarray(st.to_pylist(), dtype=object)).astype(np.int64)
        h = (kb * np.int64(31) + kt * np.int64(7)
             + packed % m) % np.int64(256)
        return pa.Table.from_arrays(
            [pa.array(h), sb, st, pa.array(s[first])],
            names=["bucket2", "p_brand", "p_type", "supp"])

    def count_cell(group: pa.Table) -> pa.Table:
        import pandas as pd

        s = group.column("supp").to_numpy(zero_copy_only=False)
        bcodes, _bu = pd.factorize(
            group.column("p_brand").to_pandas(), sort=False)
        tcodes, tu = pd.factorize(
            group.column("p_type").to_pandas(), sort=False)
        pair = bcodes.astype(np.int64) * len(tu) + tcodes
        m = np.int64(s.max()) + 1
        packed, first = np.unique(pair * m + s, return_index=True)
        ci = packed // m
        cu, cinv = np.unique(ci, return_inverse=True)
        n = np.bincount(cinv).astype(np.int64)
        rep = pa.array(first[np.unique(ci, return_index=True)[1]])
        return pa.Table.from_arrays(
            [group.column("p_brand").take(rep),
             group.column("p_type").take(rep), pa.array(n)],
            names=["p_brand", "p_type", "n"])

    u = lineitem.select_columns(["l_partkey", "l_suppkey"]) \
        .map_batches(fact_emit, batch_format="pyarrow",
                     zero_copy_batch=True).union(
        part.select_columns(["p_partkey", "p_brand", "p_type"])
        .map_batches(dim_emit, batch_format="pyarrow",
                     zero_copy_batch=True))
    return aggregate(
        u.groupby("bucket").map_groups(
            attach_cell, batch_format="pyarrow")
        .groupby("bucket2").map_groups(count_cell,
                                       batch_format="pyarrow"),
        ["p_brand", "p_type"], ("sum", "n")) \
        .map_batches(lambda b: b.rename_columns(
            ["p_brand", "p_type", "n_supp"]),
            batch_format="pyarrow", zero_copy_batch=True)


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
    orders — each a broadcast LUT under the DIM_BROADCAST_MAX_ROWS
    gate and a constant-fan-out hash(key)%256 emit-union groupby past
    it; the 25-row nation name table always broadcasts.  The (nat,
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
        "ny", ("sum", "profit_cents"))

    names = {r["n_nationkey"]: r["n_name"] for r in
             nation.select_columns(["n_nationkey", "n_name"]).take_all()}
    ref = ray.put(names)

    def attach_name(batch: pa.Table, *, _ref=ref) -> pa.Table:
        m = _ref if isinstance(_ref, dict) else ray.get(_ref)
        batch = batch.rename_columns(["ny", "profit_cents"])
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
    keys attach via one bucketed hash(partkey)%256 emit-union groupby
    (filter BEFORE the shuffle — non-matching parts never ship); the
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
        "skey", ("sum", "sum_qty"))

    def threshold(batch: pa.Table, *, _min=min_qty) -> pa.Table:
        batch = batch.rename_columns(["skey", "sum_qty"])
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


def customer_order_gaps(orders, n_buckets: int = 256):
    """Per-customer inter-order cadence: for every customer with ≥ 2
    orders, (o_custkey, n_orders, sum_gap_days, max_gap_days) where a
    gap is the whole-day delta between consecutive orders in
    (o_orderdate, o_orderkey) order — the repeat-purchase-latency twin
    of events.lag_deltas/conversion_latency over the relational side.

    Scale shape: ONE shuffle by hash(custkey) % n_buckets, then one
    lexsort + np.diff pass per bucket vectorized across every customer
    in the bucket (no per-customer Python groups); each customer lands
    wholly in one bucket, so the in-cell Arrow group_by aggregate is
    final — nothing re-shuffles."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        dt = batch.column("o_orderdate").cast(pa.timestamp("us")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        ok = batch.column("o_orderkey").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(_ibucket(ck, n_buckets)), pa.array(ck),
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

    return orders.select_columns(
        ["o_custkey", "o_orderdate", "o_orderkey"]) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("bucket").map_groups(gaps_cell, batch_format="pyarrow")


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
    triples through one bucketed hash(orderkey)%256 attach (payload
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
