"""Driver contract: entry() smoke, queries() vs oracle_sql() correctness.

Ray is initialised by the driver BEFORE this module is imported — nothing
here (or in the webtext library) calls ray.init()/ray.shutdown().

Every queries() entry maps to an operator/pipeline from SURVEY.md §2 or a
training-data op (dedup / similarity / text analysis / media).  SQL
oracles share exact column names and integer/string-only outputs with the
Ray implementations wherever the op is SQL-expressible; non-expressible
ops (the extraction pipeline itself, LSH/simhash/IVF, media stubs) are
rows-only by design.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# make the webtext package importable regardless of the driver's cwd
_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

_EN = "('the','a','of','and','in','to')"
_ES = "('el','la','de','y','en','que')"
_DE = "('der','die','das','und','ist','von')"
_FR = "('le','la','et','les','des','un')"


def _docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet")


def _docs_cols(sf_dir: str, cols: list[str]):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=cols)


def _docs_mod10(sf_dir: str):
    """Deterministic doc_id % 10 == 0 slice of (doc_id, text)."""
    import pyarrow as pa

    def f(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 10 == 0))

    return _docs_cols(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


def _emb(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def _emb_mod(sf_dir: str, lt: int, invert: bool = False):
    """Deterministic vec_id % 100 slice of the embeddings table (the
    decontaminate/incremental split convention)."""
    import pyarrow as pa

    def f(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = (ids % 100) < lt
        return batch.filter(pa.array(~m if invert else m))

    return _emb(sf_dir).map_batches(f, batch_format="pyarrow",
                                    zero_copy_batch=True)


def _incremental_dedup(sf_dir: str):
    """Daily-crawl split: docs with doc_id % 100 < 50 are the
    historical index, the rest are the new crawl."""
    from webtext.functions.curation import split_by_mod
    from webtext.pipelines.dedup_pipeline import incremental_dedup

    docs = _docs_cols(sf_dir, ["doc_id", "text"])
    return incremental_dedup(
        split_by_mod(docs, mod=100, lt=50, invert=True),
        split_by_mod(docs, mod=100, lt=50))


def _incremental_dedup_indexed(sf_dir: str):
    """Same rows as _incremental_dedup through the PERSISTED distinct-
    fingerprint index (build-once/query-many) — only the new crawl
    hashes per run."""
    from webtext.functions.curation import split_by_mod
    from webtext.pipelines.dedup_pipeline import (
        build_fingerprint_index, incremental_dedup)

    docs = _docs_cols(sf_dir, ["doc_id", "text"])
    path = _fp_index_path(sf_dir)
    if not os.path.exists(path):
        build_fingerprint_index(
            split_by_mod(docs, mod=100, lt=50), path)
    return incremental_dedup(
        split_by_mod(docs, mod=100, lt=50, invert=True),
        split_by_mod(docs, mod=100, lt=50), hist_fp_path=path)


def _bloom_dedup(sf_dir: str):
    """Same daily-crawl split as _incremental_dedup, screened through
    the constant-memory Bloom filter instead of the exact anti-join."""
    from webtext.functions.curation import split_by_mod
    from webtext.functions.sketches import bloom_dedup

    docs = _docs_cols(sf_dir, ["doc_id", "text"])
    return bloom_dedup(
        split_by_mod(docs, mod=100, lt=50, invert=True),
        split_by_mod(docs, mod=100, lt=50))


def _incremental_near_dedup(sf_dir: str):
    """Daily-crawl near-dup shape: same historical/new split as
    incremental_dedup, MinHash-LSH + Jaccard instead of exact md5.
    The historical side queries through the PERSISTED band index
    (built once per corpus+code version, IVF-index lifecycle) — the
    daily run only bands the new crawl."""
    from webtext.functions.curation import split_by_mod
    from webtext.pipelines.dedup_pipeline import (build_near_dedup_index,
                                                  incremental_near_dedup)

    docs = _docs_cols(sf_dir, ["doc_id", "text"])
    new = split_by_mod(docs, mod=100, lt=50, invert=True)
    hist = split_by_mod(docs, mod=100, lt=50)
    path = _near_band_index_path(sf_dir)
    if not os.path.exists(path):
        build_near_dedup_index(hist, path)
    return incremental_near_dedup(new, hist, hist_band_path=path)


def _events_windowed(sf_dir: str):
    import ray.data

    from webtext.functions.events import windowed_counts

    return windowed_counts(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]))


def _events_hopping(sf_dir: str):
    import ray.data

    from webtext.functions.events import hopping_counts

    return hopping_counts(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]))


def _events_funnel(sf_dir: str):
    import ray.data

    from webtext.functions.events import funnel_stages

    return funnel_stages(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"]))


def _events_retention(sf_dir: str):
    import ray.data

    from webtext.functions.events import retention_cohorts

    return retention_cohorts(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))


def _events_transitions(sf_dir: str):
    import ray.data

    from webtext.functions.events import event_transitions

    return event_transitions(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"]))


def _events_props(sf_dir: str):
    import ray.data

    from webtext.functions.events import props_field_stats

    return props_field_stats(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]))


def _heavy_hitters(sf_dir: str):
    from webtext.functions.sketches import heavy_hitters

    return heavy_hitters(_docs_cols(sf_dir, ["text"]), threshold=20)


def _events_sessionize(sf_dir: str):
    import ray.data

    from webtext.functions.events import sessionize

    return sessionize(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id"]))


def _events_rolling(sf_dir: str):
    import ray.data

    from webtext.functions.events import rolling_sums

    return rolling_sums(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"]))


def _events_distinct_users(sf_dir: str):
    import ray.data

    from webtext.functions.events import distinct_users

    return distinct_users(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]))


def _events_pivot(sf_dir: str):
    import ray.data

    from webtext.functions.events import pivot_events

    return pivot_events(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]))


def _events_dd_quantiles(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import dd_quantiles_by_group

    return dd_quantiles_by_group(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]))


def _events_mode(sf_dir: str):
    import ray.data

    from webtext.functions.events import mode_by_type

    return mode_by_type(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]))


def _events_mad(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import mad_by_group

    return mad_by_group(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]))


def _events_kmv(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import kmv_distinct

    return kmv_distinct(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]), "user_id")


def _events_hll_audit(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import hll_error_audit

    return hll_error_audit(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]), "user_id")


def _cms_audit(sf_dir: str):
    from webtext.functions.sketches import cms_error_audit

    return cms_error_audit(_docs_cols(sf_dir, ["text"]))


def _bloom_audit(sf_dir: str):
    from webtext.functions.curation import split_by_mod
    from webtext.functions.sketches import bloom_fp_audit

    docs = _docs_cols(sf_dir, ["doc_id", "text"])
    return bloom_fp_audit(split_by_mod(docs, mod=100, lt=50),
                          split_by_mod(docs, mod=100, lt=50,
                                       invert=True))


def _quantile_audit(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import quantile_sketch_audit

    return quantile_sketch_audit(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]))


def _events_hll(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import hll_distinct

    return hll_distinct(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]), "user_id")


def _events_hll_by_type(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import hll_distinct_by_group

    return hll_distinct_by_group(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_type", "user_id"]),
        "event_type", "user_id")


def _cms_estimates(sf_dir: str):
    from webtext.functions.sketches import cms_token_estimates

    return cms_token_estimates(_docs_cols(sf_dir, ["doc_id", "text"]))


def _events_running(sf_dir: str):
    import ray.data

    from webtext.functions.events import running_totals

    return running_totals(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"]))


def _events_lag(sf_dir: str):
    import ray.data

    from webtext.functions.events import lag_deltas

    return lag_deltas(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"]))


def _events_ntile(sf_dir: str):
    import ray.data

    from webtext.functions.events import ntile_events

    return ntile_events(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"]))


def _events_zscore(sf_dir: str):
    import ray.data

    from webtext.functions.events import zscore_events

    return zscore_events(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"]))


def _events_dense_rank(sf_dir: str):
    import ray.data

    from webtext.functions.events import dense_rank_events

    return dense_rank_events(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value"]))


def _events_active_spans(sf_dir: str):
    import ray.data

    from webtext.functions.events import active_spans

    return active_spans(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"]))


def _events_winsorize(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import winsorize

    return winsorize(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"]))


def _orders_pareto(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import pareto_front

    return pareto_front(ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"]))


def _events_percent_rank(sf_dir: str):
    import ray.data

    from webtext.functions.events import percent_rank_events

    return percent_rank_events(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value"]))


def _events_growth(sf_dir: str):
    import ray.data

    from webtext.functions.events import user_growth

    return user_growth(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]))


def _tpch_shipping(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import shipping_priority

    return shipping_priority(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_mktsegment"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate",
                                       "o_orderpriority"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_extendedprice",
                                       "l_discount", "l_shipdate"]))


def _tpch_pricing(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import pricing_summary

    return pricing_summary(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice"]))


def _tpch_rollup(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import pricing_rollup

    return pricing_rollup(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice"]))


def _tpch_left_join(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import order_line_left_join

    return order_line_left_join(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_quantity"]))


def _tpch_full_join(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import order_line_full_join

    return order_line_full_join(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_quantity"]))


def _tpch_q5(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import local_supplier_volume

    return local_supplier_volume(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_suppkey",
                                       "l_extendedprice", "l_discount"]),
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"]))


def _tpch_q10(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import returned_item_report

    return returned_item_report(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_extendedprice",
                                       "l_discount", "l_returnflag"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"]))


def _tpch_cube(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import pricing_cube

    return pricing_cube(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice"]))


def _tpch_q17(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import small_quantity_revenue

    return small_quantity_revenue(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_quantity",
                                       "l_extendedprice"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_brand"]))


def _tpch_q6(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import forecast_revenue

    return forecast_revenue(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_shipdate", "l_discount",
                                       "l_quantity", "l_extendedprice"]))


def _tpch_q14(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import promo_revenue

    return promo_revenue(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_extendedprice",
                                       "l_discount", "l_shipdate"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_type"]))


def _tpch_q18(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import large_volume_orders

    return large_volume_orders(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_quantity"]))


def _tpch_q13(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import customer_order_counts

    return customer_order_counts(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey"]))


def _tpch_q15(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import top_supplier

    return top_supplier(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_suppkey", "l_shipdate",
                                       "l_extendedprice",
                                       "l_discount"]))


def _tpch_q9(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import nation_profit

    return nation_profit(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_partkey",
                                       "l_suppkey", "l_quantity",
                                       "l_extendedprice",
                                       "l_discount"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_name",
                                       "p_retailprice"]),
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderdate"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"]))


def _tpch_q20(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import promo_part_suppliers

    return promo_part_suppliers(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_suppkey",
                                       "l_quantity", "l_shipdate"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_name"]),
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"]))


def _join_pps(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import join_pps_sample

    return join_pps_sample(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey",
                                       "o_orderpriority"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_linenumber",
                                       "l_extendedprice",
                                       "l_discount"]))


def _order_gaps(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import customer_order_gaps

    return customer_order_gaps(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey", "o_orderdate",
                                       "o_orderkey"]))


def _ivf_recall(sf_dir: str):
    from webtext.functions import ann

    path = _ivf_index_path(sf_dir)
    if not os.path.exists(path):
        ann.ivf_build_index(_emb(sf_dir), path, nlist=16)
    return ann.ivf_recall_audit(_emb(sf_dir), index_path=path)


def _cluster_census(sf_dir: str):
    from webtext.functions import ann

    path = _ivf_index_path(sf_dir)
    if not os.path.exists(path):
        ann.ivf_build_index(_emb(sf_dir), path, nlist=16)
    return ann.cluster_census(_emb(sf_dir), index_path=path)


def _ndcg_audit(sf_dir: str):
    from webtext.functions import ann

    path = _ivf_index_path(sf_dir)
    if not os.path.exists(path):
        ann.ivf_build_index(_emb(sf_dir), path, nlist=16)
    return ann.ndcg_audit(_emb(sf_dir), index_path=path)


def _pq_recall(sf_dir: str):
    from webtext.functions import ann

    path = _pq_index_path(sf_dir)
    if not os.path.exists(path):
        ann.pq_build_index(_emb(sf_dir), path)
    return ann.pq_recall_audit(_emb(sf_dir), index_path=path)


def _pagerank_weighted(sf_dir: str):
    import ray.data

    from webtext.functions.graph import pagerank_personalized

    def part_weights(sf):
        import numpy as np
        import pyarrow as pa

        def emit(batch: pa.Table) -> pa.Table:
            node = batch.column("p_partkey").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False) * 2
            cents = np.floor(batch.column("p_retailprice")
                             .to_numpy(zero_copy_only=False) * 100.0
                             + 0.5).astype(np.int64)
            return pa.Table.from_arrays(
                [pa.array(node), pa.array(cents)], names=["node", "w"])

        return ray.data.read_parquet(
            f"{sf}/part.parquet",
            columns=["p_partkey", "p_retailprice"]).map_batches(
            emit, batch_format="pyarrow", zero_copy_batch=True)

    return pagerank_personalized(_graph_edges(sf_dir),
                                 part_weights(sf_dir))


def _graph_butterflies(sf_dir: str):
    from webtext.functions.graph import butterfly_count

    return butterfly_count(_graph_edges(sf_dir))


def _webgraph_docs(sf_dir: str):
    """Interleaved corpus ∪ the deterministic multi-host link-web
    fixture (webgraph.linkweb_fixture_docs) as one Dataset — the
    extraction corpus's only anchor-bearing family is gen_link_page,
    so the fixture supplies real cross-host graph structure plus the
    parser edge cases."""
    import pyarrow as pa
    import ray.data

    from webtext.pipelines.webgraph import linkweb_fixture_docs
    from webtext.schema import INPUT_SCHEMA

    table = pa.Table.from_pylist(
        _synth_docs(sf_dir) + linkweb_fixture_docs(),
        schema=INPUT_SCHEMA)
    return ray.data.from_arrow(table).repartition(4)


def _webgraph_links(sf_dir: str):
    """(src, href, anchor) outlink table over the interleaved corpus
    (webtext/pipelines/webgraph.py) — distributed regex scan, golden =
    independent stdlib-HTMLParser walk in tools/gen_goldens.py."""
    from webtext.pipelines.webgraph import outlinks

    return outlinks(_webgraph_docs(sf_dir))


def _webgraph_anchor_stats(sf_dir: str):
    from webtext.pipelines.webgraph import anchor_stats

    return anchor_stats(_webgraph_links(sf_dir))


def _webgraph_cocitation(sf_dir: str):
    from webtext.pipelines.webgraph import host_cocitation

    return host_cocitation(_webgraph_links(sf_dir))


def _webgraph_coupling(sf_dir: str):
    from webtext.pipelines.webgraph import host_coupling

    return host_coupling(_webgraph_links(sf_dir))


def _webgraph_host_pagerank(sf_dir: str):
    from webtext.pipelines.webgraph import host_pagerank

    return host_pagerank(_webgraph_docs(sf_dir))


def _webgraph_doc_authority(sf_dir: str):
    from webtext.pipelines.webgraph import doc_authority, host_pagerank

    docs = _webgraph_docs(sf_dir)
    return doc_authority(docs, host_pagerank(docs))


def _webgraph_authority_sample(sf_dir: str):
    from webtext.pipelines.webgraph import authority_sample

    return authority_sample(_webgraph_docs(sf_dir))


def _tpch_q22(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import idle_rich_customers

    return idle_rich_customers(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_acctbal",
                                       "c_mktsegment"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey", "o_orderdate"]))


def _tpch_q7(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import volume_shipping

    return volume_shipping(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_suppkey",
                                       "l_shipdate", "l_extendedprice",
                                       "l_discount"]),
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"]))


def _tpch_q8(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import market_share

    return market_share(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_suppkey",
                                       "l_partkey", "l_extendedprice",
                                       "l_discount"]),
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_type"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_regionkey"]))


def _tpch_q4(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import order_priority_check

    return order_priority_check(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderdate",
                                       "o_orderpriority"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_shipdate"]))


def _tpch_q19(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import brand_size_revenue

    return brand_size_revenue(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_quantity",
                                       "l_extendedprice",
                                       "l_discount"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_brand",
                                       "p_size"]))


def _tpch_q21(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import waiting_suppliers

    return waiting_suppliers(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_suppkey",
                                       "l_shipdate"]))


def _tpch_q12(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import late_line_priority

    return late_line_priority(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_shipdate",
                                       "l_linestatus"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderdate",
                                       "o_orderpriority"]))


def _events_latest(sf_dir: str):
    import ray.data

    from webtext.functions.events import latest_events

    return latest_events(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"]))


def _events_cooccurrence(sf_dir: str):
    import ray.data

    from webtext.functions.events import event_cooccurrence

    return event_cooccurrence(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type"]))


def _lineage_report(sf_dir: str):
    from webtext.pipelines.integrate import lineage_report

    return lineage_report(_committed_run(sf_dir, seed=42))


def _events_hll_windowed(sf_dir: str):
    import ray.data

    from webtext.functions.sketches import hll_users_windowed

    return hll_users_windowed(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]))


def _events_user_paths(sf_dir: str):
    import ray.data

    from webtext.functions.events import user_paths

    return user_paths(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"]))


def _crawl_diff(sf_dir: str):
    """Two snapshot fixtures carved deterministically from the one
    documents table: old = even doc_ids, new = doc_id % 3 != 0 with
    every 7th doc's text uppercased (the 'changed' population)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from webtext.functions.dedup import crawl_diff

    def old_side(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 2 == 0))

    def new_side(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % 3 != 0))
        ids = ids[ids % 3 != 0]
        text = pc.if_else(pa.array(ids % 7 == 0),
                          pc.utf8_upper(batch.column("text")),
                          batch.column("text"))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), text], names=["doc_id", "text"])

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return crawl_diff(
        ds.map_batches(old_side, batch_format="pyarrow",
                       zero_copy_batch=True),
        ds.map_batches(new_side, batch_format="pyarrow",
                       zero_copy_batch=True))


def _events_cusum(sf_dir: str):
    import ray.data

    from webtext.functions.events import cusum_changepoints

    return cusum_changepoints(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "ts", "value"]))


def _events_top_trigrams(sf_dir: str):
    import ray.data

    from webtext.functions.events import top_event_trigrams

    return top_event_trigrams(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"]))


def _cms_join_estimate(sf_dir: str):
    from webtext.functions.sketches import cms_join_estimate

    return cms_join_estimate(_docs_cols(sf_dir, ["text"]))


def _ref_integrity(sf_dir: str):
    from webtext.pipelines.relational import ref_integrity

    return ref_integrity(sf_dir)


def _events_volume_spikes(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import volume_spikes

    return volume_spikes(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]))


def _events_session_table(sf_dir: str):
    import ray.data

    from webtext.functions.events import session_table

    return session_table(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id"]))


def _events_ab(sf_dir: str):
    import ray.data

    from webtext.functions.events import ab_test_summary

    return ab_test_summary(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"]))


def _events_rfm(sf_dir: str):
    import ray.data

    from webtext.functions.events import rfm_stats

    return rfm_stats(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"]))


def _events_ltv(sf_dir: str):
    import ray.data

    from webtext.functions.events import ltv_cohorts

    return ltv_cohorts(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"]))


def _events_attribution(sf_dir: str):
    import ray.data

    from webtext.functions.events import attribution_split

    return attribution_split(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"]))


def _events_bootstrap(sf_dir: str):
    import ray.data

    from webtext.functions.events import poisson_bootstrap

    return poisson_bootstrap(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]))


def _events_dow(sf_dir: str):
    import ray.data

    from webtext.functions.events import dow_profile

    return dow_profile(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "ts", "value"]))


def _events_conversion(sf_dir: str):
    import ray.data

    from webtext.functions.events import conversion_latency

    return conversion_latency(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"]))


def _events_ks_by_type(sf_dir: str):
    import ray.data

    from webtext.functions.events import ks_by_type

    return ks_by_type(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]))


def _events_ks_drift(sf_dir: str):
    import ray.data

    from webtext.functions.events import ks_drift

    return ks_drift(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]))


def _events_robust_outliers(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import robust_outliers

    return robust_outliers(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"]))


def _tpch_q11(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import important_parts

    return important_parts(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice"]))


def _tpch_q2(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import cheapest_supplier_per_part

    return cheapest_supplier_per_part(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"]))


def _lineitem_id_gaps(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import id_gaps

    return id_gaps(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]))


def _tpch_q16(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import brand_supplier_counts

    return brand_supplier_counts(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_suppkey"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_brand",
                                       "p_type"]))


def _tpch_profile(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import profile_columns

    return profile_columns(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_quantity", "l_extendedprice",
                                       "l_discount", "l_tax"]),
        ("l_quantity", "l_extendedprice", "l_discount", "l_tax"))


def _tpch_corr(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import corr_by_group

    return corr_by_group(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_returnflag", "l_quantity",
                                       "l_extendedprice"]))


def _tpch_join(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import order_line_join

    return order_line_join(
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey"]),
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_orderkey", "l_quantity"]))


def _cust_orders_semi(sf_dir: str, anti: bool):
    """Semi: customers with >=1 order.  Anti: customers with no
    FINISHED ('F') order — the right side is filtered so the anti set
    is non-empty in the synthetic data's dense foreign keys."""
    import ray.data

    from webtext.pipelines.relational import semi_join

    right = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey",
                                             "o_orderstatus"])
    if anti:
        right = right.filter(expr="o_orderstatus == 'F'")
    return semi_join(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_name"]),
        right.select_columns(["o_custkey"]),
        "c_custkey", "o_custkey", anti=anti)


def _tpch_regions(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import region_customer_counts

    return region_customer_counts(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_nationkey"]),
        ray.data.read_parquet(f"{sf_dir}/nation.parquet"),
        ray.data.read_parquet(f"{sf_dir}/region.parquet"))


def _tpch_suppliers(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import supplier_shipments

    return supplier_shipments(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_suppkey", "l_quantity"]),
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_name"]))


def _tpch_brands(sf_dir: str):
    import ray.data

    from webtext.pipelines.tpch import brand_volume

    return brand_volume(
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                              columns=["l_partkey", "l_quantity"]),
        ray.data.read_parquet(f"{sf_dir}/part.parquet",
                              columns=["p_partkey", "p_brand"]))


def _hash_embed_nn(sf_dir: str):
    """Documents → feature-hashing embeddings → exact nearest neighbor:
    the text→similarity composition with no pretrained model (the
    embedder is a pure map_batches stage feeding the ANN suite)."""
    import pyarrow as pa

    from webtext.functions import ann
    from webtext.functions.textstats import hash_embeddings

    emb = hash_embeddings(_docs_cols(sf_dir, ["doc_id", "text"]))
    emb = emb.map_batches(
        lambda b: b.rename_columns(["vec_id", "embedding"]),
        batch_format="pyarrow", zero_copy_batch=True)
    # materialize the DERIVED embeddings once: nearest_neighbor_ids
    # consumes its input more than once (gate count + broadcast gather
    # + scoring pass), and each consumption of a lazy dataset re-runs
    # the embedding transform
    return ann.nearest_neighbor_ids(emb.materialize(), method="exact",
                                    sim_quantum=1e-12)


def _global_quantiles(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import global_quantiles

    return global_quantiles(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"]))


def _events_quantiles(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import group_quantiles

    return group_quantiles(ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]))


def _events_outliers(sf_dir: str):
    import ray.data

    from webtext.pipelines.relational import outlier_filter

    return outlier_filter(ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"]))


def _events_asof(sf_dir: str):
    """Backward as-of join: each event matched to the user's latest
    order at or before the event time."""
    import ray.data

    from webtext.functions.events import asof_join

    return asof_join(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_id", "user_id", "ts"]),
        ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate"]))


def _events_range_join(sf_dir: str):
    """Attribution-style range join: every 'purchase' within 1 day
    after a 'view' by the same user."""
    import pyarrow.compute as pc
    import ray.data

    from webtext.functions.events import interval_join

    def typed(event_type):
        def keep(batch):
            mask = pc.equal(batch.column("event_type"), event_type)
            return batch.filter(mask).select(["event_id", "user_id", "ts"])
        return keep

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])
    views = ev.map_batches(typed("view"), batch_format="pyarrow",
                           zero_copy_batch=True)
    purchases = ev.map_batches(typed("purchase"), batch_format="pyarrow",
                               zero_copy_batch=True)
    return interval_join(views, purchases,
                         window_us=24 * 3600 * 1_000_000,
                         left_out="view_id", right_out="purchase_id")


def _graph_edges(sf_dir: str):
    """Weighted part->supplier digraph from lineitem (node ids
    2*partkey / 2*suppkey+1 keep the bipartite sides disjoint)."""
    import ray.data

    from webtext.functions.graph import lineitem_edges

    return lineitem_edges(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey"]))


def _graph_degrees_fused(sf_dir: str):
    import ray.data

    from webtext.functions.graph import lineitem_degrees

    return lineitem_degrees(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey"]))


def _copurchase_path(sf_dir: str) -> str:
    tag = _code_tag("webtext/functions/graph.py")
    return f"/tmp/webtext_copurchase_{_sf_tag(sf_dir)}_{tag}"


def _copurchase_edges(sf_dir: str):
    """Undirected co-purchase part graph: one edge per part pair that
    shares at least one order (weight = distinct shared orders).

    Seven graph queries consume this same table, so it is a per-corpus
    one-time artifact (the IVF-index lifecycle): prewarm() builds and
    persists it once under a code-tag-keyed path; queries read the
    stored parquet when present and fall back to an inline build (the
    build is deterministic, so both paths are row-identical)."""
    import ray.data

    from webtext.functions.graph import copurchase_edges

    path = _copurchase_path(sf_dir)
    if os.path.exists(path):
        return ray.data.read_parquet(path)
    return copurchase_edges(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey"]))


def _build_copurchase_index(sf_dir: str) -> None:
    """Persist the co-purchase edge table (atomic rename publish)."""
    import shutil

    path = _copurchase_path(sf_dir)
    if os.path.exists(path):
        return
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    _copurchase_edges(sf_dir).write_parquet(tmp)
    try:
        os.rename(tmp, path)
    except OSError:          # another builder won the race
        shutil.rmtree(tmp, ignore_errors=True)


def _part_triangles(sf_dir: str):
    """Exact per-part triangle census of the co-purchase graph
    (degree-oriented wedge algorithm, functions/graph.py)."""
    from webtext.functions.graph import triangle_census

    return triangle_census(_copurchase_edges(sf_dir))


def _part_coreness(sf_dir: str):
    """Exact k-core decomposition of the co-purchase graph (h-index
    fixed point with convergence witness; golden = literal peeling)."""
    from webtext.functions.graph import coreness

    return coreness(_copurchase_edges(sf_dir))


def _support2_edges(sf_dir: str):
    """Support->=2 co-purchase subgraph (edges sharing at least two
    orders): the >=1 graph is near-complete at every sf; requiring
    repeat co-purchase leaves real structure (depth, communities)."""
    import pyarrow.compute as pc

    return _copurchase_edges(sf_dir).map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n_orders"), 2))
        .select(["p1", "p2"]),
        batch_format="pyarrow", zero_copy_batch=True).materialize()


def _part_distances(sf_dir: str):
    """Multi-source BFS hop distance over the support->=2 co-purchase
    subgraph from the deterministic seed set node % 53 == 0.  Live
    recursive-CTE SQL oracle; unreached parts are absent on both sides
    (shared max_hops=32 truncation)."""
    from webtext.functions.graph import _edge_degrees, bfs_distances

    edges = _support2_edges(sf_dir)
    def seed_filter(b):
        import pyarrow as pa
        node = b.column("node").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(node % 53 == 0)).select(["node"])

    seeds = _edge_degrees(edges).map_batches(
        seed_filter, batch_format="pyarrow", zero_copy_batch=True)
    return bfs_distances(edges, seeds)


def _zorder_stats(sf_dir: str):
    """Z-order layout pruning witness over lineitem's (partkey,
    suppkey) plane: per-zbucket row count + both keys' min/max — the
    footer stats a 100-TB scan would prune files by."""
    import ray.data

    from webtext.pipelines.relational import zorder_stats

    return zorder_stats(ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey"]))


def _assoc_rules(sf_dir: str):
    """Market-basket association rules (directed confidence + lift in
    exact integer micros) over the order->part baskets, joint support
    >= 2; live SQL oracle."""
    import ray.data

    from webtext.functions.graph import association_rules

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_partkey"])
    return association_rules(li, _copurchase_edges(sf_dir))


def _part_communities(sf_dir: str):
    """Deterministic synchronous label propagation (10 rounds, most
    frequent neighbour label, ties -> min) over the support->=2
    co-purchase subgraph; golden = independent dense simulation."""
    from webtext.functions.graph import lpa_communities

    return lpa_communities(_support2_edges(sf_dir))


def _graph_walks(sf_dir: str):
    """Deterministic DeepWalk-style walk corpus over the co-purchase
    graph (content-addressed md5 neighbour choice; live SQL replay)."""
    from webtext.functions.graph import graph_walks

    return graph_walks(_copurchase_edges(sf_dir), steps=3)


def _part_assortativity(sf_dir: str):
    """Newman degree assortativity of the co-purchase graph (exact
    integer sums, IEEE-order-matched final expression)."""
    from webtext.functions.graph import degree_assortativity

    return degree_assortativity(_copurchase_edges(sf_dir))


def _synth_docs(sf_dir: str) -> list[dict]:
    """Deterministic interleaved corpus for the extraction queries,
    scaled by sf tag (the driver tables are flat text, not interleaved —
    FIXTURES.md)."""
    from webtext.synth import generate_docs

    n = 16 if sf_dir.rstrip("/").endswith("0.1") else 8
    return generate_docs(n_per_family=n, seed=42)


_EXTRACTED_CACHE: dict[str, tuple[str, Any]] = {}


def _ray_session_tag() -> str:
    """Identifier of the CURRENT Ray session — MaterializedDataset
    blocks die with their session, so the cache must not survive a
    driver-side ray.shutdown()/ray.init() cycle."""
    import ray

    try:
        # node id is random per Ray session; job id is NOT (the first
        # job of every local session reuses the same id)
        return ray.get_runtime_context().get_node_id()
    except Exception:  # noqa: BLE001 - not initialized yet
        return "no-session"


def _extracted(sf_dir: str):
    """In-memory extraction output, materialized once per (Ray session,
    sf_dir): five queries consume this same tiny corpus
    (spans/status/media×3), so re-running the extraction pipeline per
    query would pay 5× its job start-up for identical rows.  The cache
    holds a MaterializedDataset (object-store blocks, not driver heap)
    and is invalidated when the Ray session changes — a cached dataset
    from a dead session would reference freed object refs."""
    from webtext.pipelines import run_pipeline_in_memory

    tag = _ray_session_tag()
    hit = _EXTRACTED_CACHE.get(sf_dir)
    if hit is not None and hit[0] == tag:
        return hit[1]
    ds = run_pipeline_in_memory(
        _synth_docs(sf_dir), batch_size=32).materialize()
    _EXTRACTED_CACHE[sf_dir] = (tag, ds)
    return ds


def _sf_tag(sf_dir: str) -> str:
    return os.path.basename(sf_dir.rstrip("/")) or "sf"


def _code_tag(*patterns: str) -> str:
    """Cache key derived from the source bytes of the modules that
    define the cached artifact's semantics — a code edit auto-invalidates
    stale /tmp artifacts instead of letting them pass or fail checks
    spuriously."""
    import glob
    import hashlib

    h = hashlib.md5()
    for pat in patterns:
        for path in sorted(glob.glob(os.path.join(_REPO, pat))):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:8]


def _committed_run(sf_dir: str, seed: int = 42) -> str:
    """Materialized extraction run under /tmp for the output-side
    queries (rejects / integrate / error scan).  Keyed by a source hash
    of the synth + extraction code (stale-cache safe), built exactly
    once under an exclusive flock (parallel query runners safe), marked
    complete atomically."""
    import fcntl
    import shutil

    from webtext.pipelines import run_extraction
    from webtext.synth import write_corpus

    n = 16 if _sf_tag(sf_dir).endswith("0.1") else 8
    tag = _code_tag("webtext/synth.py", "webtext/oracle/*.py",
                    "webtext/stages/*.py",
                    "webtext/pipelines/extract_pipeline.py")
    base = f"/tmp/webtext_q_{_sf_tag(sf_dir)}_s{seed}_{tag}"
    inp, out, done = f"{base}/in", f"{base}/out", f"{base}/_DONE"
    if os.path.exists(done):
        return out
    os.makedirs(base, exist_ok=True)
    with open(f"{base}/.lock", "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        if not os.path.exists(done):
            if not os.path.exists(f"{inp}/_COMPLETE"):
                shutil.rmtree(inp, ignore_errors=True)
                write_corpus(inp, n_per_family=n, seed=seed,
                             rows_per_file=40)
                with open(f"{inp}/_COMPLETE", "w") as f:
                    f.write("ok")
            run_extraction(inp, out, shards_per_round=4)
            with open(done, "w") as f:
                f.write("ok")
    return out


def _keyword_fixture(sf_dir: str) -> str:
    """Deterministic keyword-file tree (S2/S3): 40 delivery files, the
    first 10 moved to completed — the reader must surface exactly the
    30 pending keywords.  Built once per code version under a flock."""
    import fcntl

    from webtext.sources.keywords import write_keyword_files

    tag = _code_tag("webtext/sources/keywords.py")
    base = f"/tmp/webtext_kw_{tag}"
    done = f"{base}/_DONE"
    if os.path.exists(done):
        return base
    os.makedirs(base, exist_ok=True)
    with open(f"{base}/.lock", "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        if not os.path.exists(done):
            kws = [f"topic {k} data" for k in range(40)]
            write_keyword_files(kws, f"{base}/delivery")
            write_keyword_files(kws[:10], f"{base}/completed")
            with open(done, "w") as f:
                f.write("ok")
    return base


def _jsonl_fixture(sf_dir: str) -> str:
    """Seed-42 interleaved corpus serialized as JSONL fragments once
    per code version (flock) — input for the format-agnostic read
    query (sources/io.py read_documents_jsonl)."""
    import fcntl
    import json

    tag = _code_tag("webtext/synth.py")
    base = f"/tmp/webtext_jsonl_{_sf_tag(sf_dir)}_{tag}"
    done = f"{base}/_DONE"
    if os.path.exists(done):
        return base
    os.makedirs(base, exist_ok=True)
    with open(f"{base}/.lock", "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        if not os.path.exists(done):
            docs = _synth_docs(sf_dir)
            half = (len(docs) + 1) // 2
            for i, chunk in enumerate((docs[:half], docs[half:])):
                with open(f"{base}/frag-{i}.jsonl", "w") as f:
                    for d in chunk:
                        f.write(json.dumps(
                            {"doc_id": d["doc_id"],
                             "spans": d["spans"]},
                            ensure_ascii=False) + "\n")
            with open(done, "w") as f:
                f.write("ok")
    return base


def _csv_fixture(sf_dir: str) -> str:
    """documents (doc_id, lang) as CSV fragments once per corpus —
    input for the flat-CSV read seam (sources/io.py read_flat_csv)."""
    import fcntl

    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    tag = _code_tag("webtext/sources/io.py")
    base = f"/tmp/webtext_csv_{_sf_tag(sf_dir)}_{tag}"
    done = f"{base}/_DONE"
    if os.path.exists(done):
        return base
    os.makedirs(base, exist_ok=True)
    with open(f"{base}/.lock", "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        if not os.path.exists(done):
            t = pq.read_table(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "lang"])
            half = (t.num_rows + 1) // 2
            pacsv.write_csv(t.slice(0, half), f"{base}/frag-0.csv")
            pacsv.write_csv(t.slice(half), f"{base}/frag-1.csv")
            with open(done, "w") as f:
                f.write("ok")
    return base


def _ivf_index_path(sf_dir: str) -> str:
    tag = _code_tag("webtext/functions/ann.py")
    return f"/tmp/webtext_ivf_{_sf_tag(sf_dir)}_{tag}.parquet"


def _pq_index_path(sf_dir: str) -> str:
    tag = _code_tag("webtext/functions/ann.py")
    return f"/tmp/webtext_pq_{_sf_tag(sf_dir)}_{tag}.parquet"


def _near_band_index_path(sf_dir: str) -> str:
    """Persisted historical LSH band table for incremental_near_dedup
    (a parquet DIRECTORY; code-tag keyed like every /tmp artifact)."""
    tag = _code_tag("webtext/functions/dedup.py",
                    "webtext/pipelines/dedup_pipeline.py")
    return f"/tmp/webtext_nearband_{_sf_tag(sf_dir)}_{tag}"


def _fp_index_path(sf_dir: str) -> str:
    """Persisted historical distinct-fingerprint table for
    incremental_dedup (parquet DIRECTORY, code-tag keyed)."""
    tag = _code_tag("webtext/pipelines/dedup_pipeline.py")
    return f"/tmp/webtext_fpindex_{_sf_tag(sf_dir)}_{tag}"


# ---------------------------------------------------------------------------


def _ivf_centroids(sf_dir: str):
    """Load (building if absent) the persisted nlist=16 IVF centroids —
    shared by knn_ivf_indexed and the SemDeDup queries."""
    from webtext.functions import ann

    path = _ivf_index_path(sf_dir)
    if not os.path.exists(path):
        ann.ivf_build_index(_emb(sf_dir), path, nlist=16)
    return ann.ivf_load_index(path)


def _bpe_merges_path(sf_dir: str) -> str:
    tag = _code_tag("webtext/functions/textstats.py")
    return f"/tmp/webtext_bpe_{_sf_tag(sf_dir)}_{tag}.parquet"


def _bpe_trained_merges(sf_dir: str):
    """Train-once/encode-many lifecycle (the IVF-index pattern): the
    merge table is persisted per (corpus, code) and reloaded by every
    encode query; prewarm() builds it untimed."""
    import pyarrow.parquet as _pq

    from webtext.functions import textstats

    path = _bpe_merges_path(sf_dir)
    if not os.path.exists(path):
        table = textstats.bpe_train(
            textstats.sample_by_hash(
                _docs_cols(sf_dir, ["doc_id", "text"]), 512, "s0"),
            n_merges=12)
        _pq.write_table(table, path)
    return _pq.read_table(path)


def prewarm(sf_dir: str) -> None:
    """Build the per-corpus one-time artifacts (persisted IVF index,
    committed extraction runs for seeds 42/43) so subsequent queries
    measure steady-state cost.  Idempotent — everything is keyed by a
    source hash and built under a flock."""
    from webtext.functions import ann

    path = _ivf_index_path(sf_dir)
    if not os.path.exists(path):
        ann.ivf_build_index(_emb(sf_dir), path, nlist=16)
    pq_path = _pq_index_path(sf_dir)
    if not os.path.exists(pq_path):
        ann.pq_build_index(_emb(sf_dir), pq_path)
    band_path = _near_band_index_path(sf_dir)
    if not os.path.exists(band_path):
        from webtext.functions.curation import split_by_mod
        from webtext.pipelines.dedup_pipeline import build_near_dedup_index
        build_near_dedup_index(
            split_by_mod(_docs_cols(sf_dir, ["doc_id", "text"]),
                         mod=100, lt=50), band_path)
    fp_path = _fp_index_path(sf_dir)
    if not os.path.exists(fp_path):
        from webtext.functions.curation import split_by_mod
        from webtext.pipelines.dedup_pipeline import \
            build_fingerprint_index
        build_fingerprint_index(
            split_by_mod(_docs_cols(sf_dir, ["doc_id", "text"]),
                         mod=100, lt=50), fp_path)
    _committed_run(sf_dir, seed=42)
    _committed_run(sf_dir, seed=43)
    _keyword_fixture(sf_dir)
    _bpe_trained_merges(sf_dir)
    _build_copurchase_index(sf_dir)
    # the in-session materialized extraction feeds five queries; build
    # it here so the first consumer's timing is steady-state
    _extracted(sf_dir)


def entry() -> Any:
    """Flagship: full extraction pipeline over the interleaved corpus at
    sf0.001 scale; returns the kept rows."""
    ds = _extracted("/root/testdata/sf0.001")
    return ds.filter(expr="status == 'ok' or status == 'timeout'")


def _pii_fixture(sf_dir: str):
    """documents with deterministic PII appended per row (email + IPv4 +
    phone derived from doc_id) so the redaction oracle actually fires on
    every row — built vectorized, mirrored exactly by the oracle's
    ``text || …`` concatenation."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def augment(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id")
        idn = ids.to_numpy(zero_copy_only=False)
        s = pc.cast(ids, pa.string())
        # no pc.modulo in this pyarrow — numpy mod, then string-cast
        ip = pa.array((idn % 256).astype("U"), pa.string())
        tel = pc.utf8_lpad(pa.array((idn % 10000).astype("U"), pa.string()),
                           width=4, padding="0")
        text = pc.binary_join_element_wise(
            batch.column("text"), " contact doc", s, "@example.com or 10.0.",
            ip, ".1 tel +1 555-000-", tel, "")
        return pa.Table.from_arrays([ids, text], names=["doc_id", "text"])

    return _docs_cols(sf_dir, ["doc_id", "text"]).map_batches(
        augment, batch_format="pyarrow", zero_copy_batch=True)


def _url_fixture(sf_dir: str):
    """documents with a deterministic MESSY url per row (mixed-case
    scheme/host, default ports, tracking params, fragments, trailing
    slashes — branch chosen by doc_id mods), mirrored exactly by the
    oracle's CASE/|| concatenation.  Ids are taken mod 25/50 so distinct
    raw urls collapse to shared canonical forms and url_dedup is
    non-trivial."""
    import numpy as np
    import pyarrow as pa

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        idn = ids.to_numpy(zero_copy_only=False)
        host_k = (idn % 3).astype("U")
        item = (idn % 25).astype("U")
        idq = (idn % 50).astype("U")
        b = idn % 4
        parts = [
            np.where(idn % 2 == 0, "HTTP", "HttpS"),
            "://WWW.Site", host_k, ".EXAMPLE.com",
            np.where(idn % 3 == 0,
                     np.where(idn % 2 == 0, ":80", ":443"), ""),
            "/Docs/Item", item,
            np.where(idn % 5 == 0, "/", ""),
            np.select(
                [b == 0, b == 1, b == 2],
                [np.char.add(np.char.add("?utm_source=feed&id=", idq),
                             "&utm_campaign=Crawl"),
                 np.char.add(np.char.add("?id=", idq), "&fbclid=XY"),
                 np.full(len(idn), "?gclid=g1&utm_x=2")],
                default=np.char.add("?id=", idq)),
            np.where(b == 0, "#Section-2", ""),
        ]
        url = parts[0].astype("U")
        for p in parts[1:]:
            url = np.char.add(url, p)
        return pa.Table.from_arrays(
            [ids, pa.array(url.tolist(), pa.string())],
            names=["doc_id", "url"])

    return _docs_cols(sf_dir, ["doc_id"]).map_batches(
        augment, batch_format="pyarrow", zero_copy_batch=True)


def _raw_payload_fixture(sf_dir: str):
    """documents re-encoded to bytes + a content-type header chosen
    deterministically by doc_id % 4, exercising every rung of the E5
    ladder: 0 → utf-8 + valid header; 1 → shift_jis + valid header;
    2 → bogus header (falls through to apparent_encoding); 3 → no
    header (apparent_encoding directly)."""
    import pyarrow as pa

    def encode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        raws, cts = [], []
        for i, txt in zip(ids, texts):
            branch = i % 4
            if branch == 1:
                try:
                    raws.append(txt.encode("shift_jis"))
                    cts.append("text/html; charset=shift_jis")
                    continue
                except UnicodeEncodeError:
                    pass  # not shift_jis-encodable → utf-8 header row
            raws.append(txt.encode("utf-8"))
            cts.append("text/html; charset=utf-8" if branch in (0, 1)
                       else ("text/html; charset=bogus-xyz"
                             if branch == 2 else None))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(raws, pa.binary()),
             pa.array(cts, pa.string())],
            names=["doc_id", "raw", "content_type"])

    return _docs_cols(sf_dir, ["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow", zero_copy_batch=True)


def _decode_bytes_q(sf_dir: str):
    """E5 ladder over the bytes fixture → (doc_id, text, used_header);
    used_header is the integer lineage bit the SQL oracle predicts."""
    import pyarrow as pa

    from webtext.oracle.encoding import decode_documents

    def project(batch: pa.Table) -> pa.Table:
        used = pa.array(
            [1 if s == "header" else 0
             for s in batch.column("enc_source").to_pylist()],
            pa.int64())
        return pa.Table.from_arrays(
            [batch.column("doc_id"), batch.column("text"), used],
            names=["doc_id", "text", "used_header"])

    return decode_documents(_raw_payload_fixture(sf_dir)).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True)


def queries() -> dict[str, Callable[[str], Any]]:
    from webtext.functions import (ann, curation, dedup, graph, lm,
                                   textstats)
    from webtext.functions.media import media_features
    from webtext.pipelines import relational as rel

    def extract_spans(sf_dir):
        """Flattened span output of the extraction pipeline — the span
        explode runs as a distributed map_batches, not a driver loop."""
        from webtext.pipelines.relational import flatten_spans

        return flatten_spans(_extracted(sf_dir))

    def span_kind_stats(sf_dir):
        """Per-(kind, status) span census over the flattened
        interleaved output — the audit a corpus operator reads after an
        extraction round (how much text vs media survived, per doc
        status).  Combiner partials in-batch, one tiny keyed
        aggregate; oracle = SQL aggregate over the independent
        extract_spans golden."""
        import numpy as np
        import pyarrow as pa

        from webtext.exchange import aggregate
        from webtext.pipelines.relational import flatten_spans

        def partial(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = pa.Table.from_arrays(
                [batch.column("kind"), batch.column("status"),
                 pc.utf8_length(batch.column("text")).cast(pa.int64())],
                names=["kind", "status", "text_chars"])
            t = t.append_column(
                "n", pa.array(np.ones(t.num_rows, dtype=np.int64)))
            agg = t.group_by(["kind", "status"]).aggregate(
                [("n", "sum"), ("text_chars", "sum")])
            return agg.rename_columns(
                ["kind", "status", "n", "text_chars"])

        return aggregate(
            flatten_spans(_extracted(sf_dir)).map_batches(
                partial, batch_format="pyarrow", zero_copy_batch=True),
            ["kind", "status"], ("sum", "n"), ("sum", "text_chars"),
            names=["kind", "status", "n", "text_chars"])

    def extract_status(sf_dir):
        """Per-status doc counts via one keyed aggregate (tiny
        result)."""
        import pyarrow as pa

        from webtext.exchange import aggregate

        agg = aggregate(_extracted(sf_dir), "status", ("count",)).take_all()
        agg.sort(key=lambda r: r["status"])
        return pa.Table.from_pydict({
            "status": [r["status"] for r in agg],
            "n": [r["count()"] for r in agg]})

    def media_feats(sf_dir):
        return media_features(_extracted(sf_dir))

    def extract_spans_jsonl(sf_dir):
        """Format-agnostic read seam under the driver harness: the
        SAME seed-42 corpus serialized as JSONL fragments, read back
        via read_documents_jsonl, extracted and flattened — must be
        row-identical to extract_spans (shares its golden)."""
        from webtext.pipelines.extract_pipeline import extract_dataset
        from webtext.pipelines.relational import flatten_spans
        from webtext.sources.io import read_documents_jsonl

        docs = read_documents_jsonl(_jsonl_fixture(sf_dir))
        return flatten_spans(extract_dataset(docs, batch_size=32))

    def group_counts_csv(sf_dir):
        """Flat-CSV read seam: documents (doc_id, lang) round-tripped
        through CSV fragments, grouped — shares group_counts' SQL
        oracle."""
        from webtext.sources.io import read_flat_csv

        base = _csv_fixture(sf_dir)
        paths = sorted(
            os.path.join(base, f) for f in os.listdir(base)
            if f.endswith(".csv"))
        return rel.group_counts(read_flat_csv(paths, columns=["lang"]))

    def media_feats_real(sf_dir):
        """REAL byte decode through the codec seam: inline-PNG fixture
        rows decoded by PngInlineDecoder (pure-stdlib chunk walk + CRC;
        PilDecoder takes over transparently when the wheel exists —
        identical output on these fixtures, pinned by a PIL-gated
        test).  Golden decoded independently in tools/gen_goldens.py
        via fixed-offset struct.unpack of the IHDR."""
        import ray.data

        from webtext.functions.media import (PilDecoder, PngInlineDecoder,
                                             inline_png_rows,
                                             media_features)

        try:
            PilDecoder()
            dec = PilDecoder
        except ImportError:
            dec = PngInlineDecoder
        n = 48 if _sf_tag(sf_dir).endswith("0.1") else 24
        return media_features(
            ray.data.from_items(inline_png_rows(n)), batch_size=8,
            decoder_cls=dec)

    def media_resize_q(sf_dir):
        from webtext.functions.media import media_resize

        return media_resize(_extracted(sf_dir))

    def frame_sample_q(sf_dir):
        from webtext.functions.media import frame_sample

        return frame_sample(_extracted(sf_dir))

    def media_phash_pairs_q(sf_dir):
        from webtext.functions.media import media_phash_pairs

        return media_phash_pairs(_extracted(sf_dir))

    def media_dedup_apply_q(sf_dir):
        from webtext.functions.media import media_dedup_apply

        return media_dedup_apply(_extracted(sf_dir))

    def edit1_names_q(sf_dir):
        """Record linkage: part-name pairs one edit apart."""
        import ray.data

        from webtext.functions.dedup import edit1_name_pairs

        return edit1_name_pairs(ray.data.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_name"]))

    def read_keywords_q(sf_dir):
        """S2 keyword-file intake: pending = delivery − completed."""
        from webtext.sources.keywords import read_keyword_files

        base = _keyword_fixture(sf_dir)
        return read_keyword_files(f"{base}/delivery",
                                  f"{base}/completed")

    def knn(sf_dir):
        ds = _emb(sf_dir)
        q = ann.get_query_vector(ds, 0)
        return ann.knn_brute(ds, q, k=10)

    def ivf(sf_dir):
        """Default = build-once/query-many: the persisted-index lifecycle
        IS the scale-correct default (the distributed fit is a multi-pass
        job you run once per corpus, not per query); the loaded index is
        bit-identical to an inline fit, so the golden is unchanged."""
        ds = _emb(sf_dir)
        q = ann.get_query_vector(ds, 0)
        path = _ivf_index_path(sf_dir)
        if not os.path.exists(path):
            ann.ivf_build_index(ds, path, nlist=16)
        return ann.knn_ivf(ds, q, k=10, index_path=path)

    def ivf_indexed(sf_dir):
        """Explicit persistence-lifecycle query: same versioned index
        file as knn_ivf (built at most once between them)."""
        ds = _emb(sf_dir)
        q = ann.get_query_vector(ds, 0)
        path = _ivf_index_path(sf_dir)
        if not os.path.exists(path):
            ann.ivf_build_index(ds, path, nlist=16)
        return ann.knn_ivf(ds, q, k=10, index_path=path)

    def pq_q(sf_dir):
        """PQ/ADC approximate top-k through the persisted codebook
        (build-once/query-many, same lifecycle as knn_ivf_indexed):
        vectors are matched via m uint8 sub-centroid codes — the
        memory-compression ANN path (64×4 B → 8 B per vector)."""
        ds = _emb(sf_dir)
        q = ann.get_query_vector(ds, 0)
        path = _pq_index_path(sf_dir)
        if not os.path.exists(path):
            ann.pq_build_index(ds, path)
        return ann.knn_pq(ds, q, k=10, index_path=path)

    def links_q(sf_dir):
        import pyarrow as pa
        import ray.data

        from webtext.pipelines.links import (
            dedup_links, extract_links, top_links_per_domain)
        from webtext.schema import INPUT_SCHEMA

        table = pa.Table.from_pylist(_synth_docs(sf_dir),
                                     schema=INPUT_SCHEMA)
        links = extract_links(ray.data.from_arrow(table))
        return top_links_per_domain(dedup_links(links))

    def rejects_q(sf_dir):
        """E14 reject manifest over a committed run; list column joined
        to a string so the driver's value-hash applies."""
        import pyarrow as pa

        from webtext.pipelines.integrate import read_rejects

        def join_msgs(batch: pa.Table) -> pa.Table:
            msgs = [";".join(m or []) for m in
                    batch.column("messages").to_pylist()]
            return pa.Table.from_arrays(
                [batch.column("doc_id"), batch.column("status"),
                 pa.array(msgs, pa.string())],
                names=["doc_id", "status", "messages_joined"])

        return read_rejects(_committed_run(sf_dir)).map_batches(
            join_msgs, batch_format="pyarrow", zero_copy_batch=True)

    def integrate_q(sf_dir):
        """S5/A3 integrator: append-union of two committed runs,
        flattened to span rows."""
        from webtext.pipelines.integrate import integrate_outputs
        from webtext.pipelines.relational import flatten_spans

        u = integrate_outputs(_committed_run(sf_dir, seed=42),
                              _committed_run(sf_dir, seed=43))
        return flatten_spans(u)

    def dedup_extracted_q(sf_dir):
        """End-to-end extraction → corpus dedup composition: surviving
        string doc_ids of a committed run after MinHash-LSH dedup over
        the joined text spans."""
        from webtext.pipelines.dedup_pipeline import dedup_extracted

        return dedup_extracted(_committed_run(sf_dir))

    def timeout_ids_q(sf_dir):
        """A2 timeout collect-aggregate: the timeout-sentinel doc ids
        from a committed run (the warning-preamble id list)."""
        from webtext.pipelines.extract_pipeline import read_output

        return read_output(_committed_run(sf_dir),
                           statuses=("timeout",)) \
            .select_columns(["doc_id", "status"])

    def scan_errors_q(sf_dir):
        """E15 retro error scan of kept output (clean corpus → 0 rows;
        the check pins schema + emptiness).  The repair list is bounded
        tiny, so collect it into a schema-stable Arrow table — an empty
        Dataset loses its schema on to_pandas."""
        import pyarrow as pa

        from webtext.pipelines.integrate import scan_output_for_errors

        rows = scan_output_for_errors(_committed_run(sf_dir)).take_all()
        return pa.Table.from_pydict(
            {"doc_id": [r["doc_id"] for r in rows],
             "pattern": [r["pattern"] for r in rows]},
            schema=pa.schema([("doc_id", pa.string()),
                              ("pattern", pa.string())]))

    def search_links_q(sf_dir):
        """U4/U6/U7/U8: engine-specific SERP miners over the
        deterministic SERP fixture corpus, one unioned table."""
        import pyarrow as pa
        import ray.data

        from webtext.pipelines.links import (
            extract_search_links, serp_fixture_docs)
        from webtext.schema import INPUT_SCHEMA

        table = pa.Table.from_pylist(serp_fixture_docs(),
                                     schema=INPUT_SCHEMA)
        parts = []
        for engine in ("google", "yahoo", "yahoo_related",
                       "google_related"):
            links = extract_search_links(ray.data.from_arrow(table),
                                         engine)
            parts.append(links.map_batches(
                lambda b, e=engine: b.append_column(
                    "engine", pa.array([e] * b.num_rows, pa.string())),
                batch_format="pyarrow", zero_copy_batch=True))
        return parts[0].union(*parts[1:])

    def union_q(sf_dir):
        a = _docs_cols(sf_dir, ["doc_id", "source"]).filter(
            expr="source == 'src0'")
        b = _docs_cols(sf_dir, ["doc_id", "source"]).filter(
            expr="source == 'src1'")
        return rel.union_sources(a, b)

    return {
        # extraction pipeline (non-SQL: rows-only driver check; the
        # span-equality gate is tests/test_pipeline.py vs the oracle)
        "extract_spans": extract_spans,
        "extract_status": extract_status,
        "span_kind_stats": span_kind_stats,
        "media_features": media_feats,
        "media_features_real": media_feats_real,
        "media_resize": media_resize_q,
        "frame_sample": frame_sample_q,
        "media_phash_pairs": media_phash_pairs_q,
        "media_dedup_apply": media_dedup_apply_q,
        "extract_links": links_q,
        "search_engine_links": search_links_q,
        "read_keywords": read_keywords_q,
        # per-partition lineage metrics from the commit manifest
        "lineage_report": lambda sf: _lineage_report(sf),
        "read_rejects": rejects_q,
        "integrate_outputs": integrate_q,
        "scan_output_for_errors": scan_errors_q,
        "timeout_ids": timeout_ids_q,
        "dedup_extracted": dedup_extracted_q,
        # corpus-level dedup
        "exact_dedup": lambda sf: dedup.exact_dedup(
            _docs_cols(sf, ["doc_id", "text"])),
        "ngram_jaccard_pairs": lambda sf: dedup.ngram_jaccard_pairs(
            _docs_cols(sf, ["doc_id", "text"])),
        # EXACT similarity self-join (prefix filtering, PPJoin family);
        # 0.9 on this corpus: the synthetic template vocabulary makes
        # looser thresholds match half the corpus to itself.  Driven on
        # the deterministic doc_id%10 slice: the TRUE pair set of the
        # full corpus is quadratic in its near-dup family sizes (965k
        # pairs at sf0.1) — any exact join is output-bound there, so
        # the registered query demos the operator where the answer is
        # readable; the operator itself takes any input
        "prefix_filter_pairs": lambda sf: dedup.prefix_filter_pairs(
            _docs_mod10(sf), threshold=0.9),
        # cross-source shared word-set contamination matrix
        "source_overlap": lambda sf: dedup.source_overlap(
            _docs_cols(sf, ["source", "text"])),
        # duplicate-lineage mapping: dropped member -> survivor
        "dup_mapping": lambda sf: dedup.dup_mapping(
            _docs_cols(sf, ["doc_id", "text"])),
        "minhash_lsh_pairs": lambda sf: dedup.minhash_lsh_pairs(
            _docs_cols(sf, ["doc_id", "text"])),
        # measured banding recall vs the exact prefix-filter join
        "minhash_recall_audit": lambda sf: dedup.minhash_recall_audit(
            _docs_mod10(sf), threshold=0.9),
        "simhash": lambda sf: dedup.simhash(
            _docs_cols(sf, ["doc_id", "text"])),
        "simhash_dup_pairs": lambda sf: dedup.simhash_dup_pairs(
            _docs_cols(sf, ["doc_id", "text"])),
        "dedup_apply": lambda sf: dedup.dedup_apply(
            _docs_cols(sf, ["doc_id", "text"])),
        # keep-LONGEST variant: the cluster member with the most
        # characters survives instead of the min-id one
        "dedup_keep_longest": lambda sf: dedup.dedup_keep_longest(
            _docs_cols(sf, ["doc_id", "text"])),
        # DEFLATE compressibility quality signal (boilerplate detector)
        "compression_ratio": lambda sf: textstats.compression_ratio(
            _docs_cols(sf, ["doc_id", "text"])),
        # character-class composition (symbol-ratio quality signal)
        "charclass_stats": lambda sf: textstats.charclass_stats(
            _docs_cols(sf, ["doc_id", "text"])),
        "exact_dedup_hashed": lambda sf: dedup.exact_dedup_hashed(
            _docs_cols(sf, ["doc_id", "text"])),
        # per-source duplication diagnostics (crawl health report)
        "dup_rate_by_source": lambda sf: dedup.dup_rate_by_source(
            _docs_cols(sf, ["source", "text"])),
        "edit1_name_pairs": edit1_names_q,
        # BPE tokenizer lifecycle: train on the deterministic 12.5%
        # md5-prefix sample (the 100-TB practice — tokenizers fit on a
        # sample), encode the FULL corpus with the learned merges
        "bpe_merges": lambda sf: textstats.bpe_train(
            textstats.sample_by_hash(
                _docs_cols(sf, ["doc_id", "text"]), 512, "s0"),
            n_merges=12),
        "bpe_token_count": lambda sf: textstats.bpe_encode_counts(
            _docs_cols(sf, ["doc_id", "text"]),
            [(int(r["left"]), int(r["right"]))
             for r in _bpe_trained_merges(sf).to_pylist()]),
        # SemDeDup (k-means-cell candidate geometry, least-central
        # keep-rule) — complements the LSH-bucketed embedding dedup
        # the k-means fit is deterministic fixed-point, so the persisted
        # IVF index (nlist=16, built once in prewarm) is bit-identical
        # to an inline fit — reuse it instead of refitting per query
        "semdedup_pairs": lambda sf: ann.semdedup_pairs(
            _emb(sf), centroids=_ivf_centroids(sf)),
        "semdedup_apply": lambda sf: ann.semdedup_apply(
            _emb(sf), centroids=_ivf_centroids(sf)),
        "dedup_apply_emb": lambda sf: ann.dedup_apply_embeddings(
            _emb(sf), 0.4),
        "cosine_dup_pairs": lambda sf: ann.cosine_dup_pairs(_emb(sf), 0.4),
        # similarity search
        "knn_cosine": knn,
        "knn_ivf": ivf,
        "knn_ivf_indexed": ivf_indexed,
        "knn_pq": pq_q,
        "cosine_nn": lambda sf: ann.nearest_neighbor_ids(_emb(sf)),
        # hybrid lexical+semantic retrieval fused by integer-micros RRF
        "hybrid_rrf": lambda sf: ann.hybrid_rrf(
            _docs_cols(sf, ["doc_id", "text"]), _emb(sf),
            textstats.BM25_QUERY),
        # greedy k-center diversity coreset (differential golden)
        "kcenter_select": lambda sf: ann.kcenter_select(_emb(sf)),
        # contrastive hard-negative mining (top-k wrong-label cosine)
        "hard_negatives": lambda sf: ann.hard_negatives(_emb(sf)),
        # segment drift: per-label centroid vs global, cosine micros
        "label_centroid_drift":
            lambda sf: ann.label_centroid_drift(_emb(sf)),
        # corpus map: per-IVF-cluster membership + inertia census
        "cluster_census": lambda sf: _cluster_census(sf),
        # embedding-space decontamination: corpus (id%100>=10) vs
        # benchmark slice (id%100<10), n-gram decontaminate's mod split
        "semantic_decontaminate": lambda sf: ann.semantic_decontaminate(
            _emb_mod(sf, lt=10, invert=True),
            _emb_mod(sf, lt=10), threshold=0.4),
        # exact per-dimension moments (feature-health audit)
        "embedding_dim_stats": lambda sf: ann.embedding_dim_stats(
            _emb(sf)),
        # text analysis
        "token_diversity": lambda sf: textstats.token_diversity(
            _docs_cols(sf, ["doc_id", "text"])),
        "token_count": lambda sf: textstats.token_count(
            _docs_cols(sf, ["doc_id", "text"])),
        "quality_score": lambda sf: textstats.quality_score(
            _docs_cols(sf, ["doc_id", "text"])),
        "lang_id": lambda sf: textstats.lang_id(
            _docs_cols(sf, ["doc_id", "text"])),
        "doc_fingerprint": lambda sf: textstats.fingerprint(
            _docs_cols(sf, ["doc_id", "text"])),
        "token_count_bpe": lambda sf: textstats.token_count_bpe(
            _docs_cols(sf, ["doc_id", "text"])),
        "winnow_fingerprint": lambda sf: textstats.winnow(
            _docs_cols(sf, ["doc_id", "text"])),
        "sample_by_hash": lambda sf: textstats.sample_by_hash(
            _docs_cols(sf, ["doc_id", "text"]), 512, "s0"),
        # content-addressed train/val/test holdout assignment
        "split_assign": lambda sf: textstats.split_assign(
            _docs_cols(sf, ["doc_id"])),
        "corpus_filter": lambda sf: dedup.exact_dedup(
            textstats.corpus_quality_filter(
                _docs_cols(sf, ["doc_id", "text"]))),
        # E5 fetch-side decode ladder over a deterministic bytes fixture
        "decode_bytes": lambda sf: _decode_bytes_q(sf),
        # corpus curation (PII / repetition / eval-set decontamination)
        "redact_pii": lambda sf: curation.redact_pii(_pii_fixture(sf)),
        "canonicalize_urls": lambda sf: curation.canonicalize_urls(
            _url_fixture(sf)),
        "url_dedup": lambda sf: curation.url_dedup(_url_fixture(sf)),
        "url_blocklist_filter": lambda sf: curation.url_blocklist_filter(
            _url_fixture(sf)),
        "normalize_text": lambda sf: curation.normalize_text(
            _docs_cols(sf, ["doc_id", "text"])),
        # CCNet-style corpus-wide line dedup over the deterministic
        # 4-word-window line view (the synthetic documents are
        # single-line; the window view gives the operator and its live
        # SQL oracle real cross-doc duplicate lines to drop)
        "line_dedup": lambda sf: curation.line_dedup_exploded(
            _docs_cols(sf, ["doc_id", "text"]).map_batches(
                curation.word_window_lines_batch,
                batch_format="pyarrow", zero_copy_batch=True)),
        "repetition_stats": lambda sf: curation.repetition_stats(
            _docs_cols(sf, ["doc_id", "text"])),
        # DSIR importance scores: target = the same deterministic
        # doc_id%100<3 slice decontaminate uses as its benchmark side
        "dsir_scores": lambda sf: curation.dsir_scores(
            _docs_cols(sf, ["doc_id", "text"]),
            curation.split_by_mod(
                _docs_cols(sf, ["doc_id", "text"]), mod=100, lt=3)),
        "temperature_sample": lambda sf: curation.temperature_sample(
            _docs_cols(sf, ["doc_id", "lang"])),
        "pps_sample": lambda sf: curation.pps_sample(
            _docs_cols(sf, ["doc_id", "source", "n_chars"])),
        "decontaminate": lambda sf: curation.decontaminate(
            curation.split_by_mod(
                _docs_cols(sf, ["doc_id", "text"]), invert=True),
            curation.split_by_mod(_docs_cols(sf, ["doc_id", "text"]))),
        "bigram_lm_scores": lambda sf: lm.bigram_lm_scores(
            _docs_cols(sf, ["doc_id", "text"])),
        "dup_ngram_flags": lambda sf: lm.dup_ngram_flags(
            _docs_cols(sf, ["doc_id", "text"])),
        # CCNet head/middle/tail quality buckets off the bigram LM
        "perplexity_buckets": lambda sf: lm.perplexity_buckets(
            _docs_cols(sf, ["doc_id", "text"])),
        # top-k Dice-coefficient collocations (overflow-safe PMI stand-in)
        "dice_collocations": lambda sf: lm.dice_collocations(
            _docs_cols(sf, ["doc_id", "text"])),
        # CCNet ship-policy: all of head, half of middle, 10% of tail
        "quality_stratified_sample": lambda sf:
            lm.quality_stratified_sample(
                _docs_cols(sf, ["doc_id", "text"])),
        # ExactSubstr removal (Lee et al. 2022): remove every token
        # covered by a corpus-duplicated 8-token window
        "dedup_substrings": lambda sf: lm.dedup_substrings(
            _docs_cols(sf, ["doc_id", "text"])),
        "dup_doc_filter": lambda sf: lm.dup_doc_filter(
            _docs_cols(sf, ["doc_id", "text"])),
        "gopher_quality": lambda sf: textstats.gopher_quality(
            _docs_cols(sf, ["doc_id", "text"])),
        "lang_mismatch": lambda sf: textstats.lang_mismatch(
            _docs_cols(sf, ["doc_id", "text", "lang"])),
        "tokenizer_fertility": lambda sf: textstats.tokenizer_fertility(
            _docs_cols(sf, ["text", "lang"])),
        "source_stats": lambda sf: textstats.source_stats(
            _docs_cols(sf, ["text", "lang", "source"])),
        "token_frequencies": lambda sf: textstats.token_frequencies(
            _docs_cols(sf, ["doc_id", "text"]), 50),
        "topk_tokens_per_lang": lambda sf: textstats
        .topk_tokens_per_group(_docs_cols(sf, ["lang", "text"])),
        "vocab_coverage": lambda sf: textstats.vocab_coverage(
            _docs_cols(sf, ["doc_id", "text"]), 50),
        # exact greedy max-coverage doc selection (submodular (1-1/e));
        # bigram units — the 31-token synthetic vocab saturates in one
        # pick, bigrams (916) exercise a real greedy trajectory
        "coverage_select": lambda sf: textstats.coverage_select(
            _docs_cols(sf, ["doc_id", "text"]), unit="bigram"),
        # per-document TF-IDF keyword extraction (rational idf)
        "tfidf_top_terms": lambda sf: textstats.tfidf_top_terms(
            _docs_cols(sf, ["doc_id", "text"])),
        # exactly-k content-addressed sample (partial top-k)
        "exact_k_sample": lambda sf: textstats.exact_k_sample(
            _docs_cols(sf, ["doc_id"]), 100),
        # exactly-k PER GROUP (balanced eval-set builder)
        "stratified_k_sample": lambda sf: textstats.stratified_k_sample(
            _docs_cols(sf, ["doc_id", "lang"]), "lang", 20),
        # corpus bigram census (collocation sibling of token_frequencies)
        "top_bigrams": lambda sf: textstats.top_bigrams(
            _docs_cols(sf, ["doc_id", "text"]), 50),
        # exact chi-square corpus comparison between source halves
        "vocab_divergence": lambda sf: textstats.vocab_divergence(
            _docs_cols(sf, ["source", "text"]), 50),
        # Church-Gale dispersion: topical vs boilerplate vocabulary
        "token_burstiness": lambda sf: textstats.token_burstiness(
            _docs_cols(sf, ["doc_id", "text"]), 50),
        # per-source length-concentration (Gini) audit
        "gini_by_source": lambda sf: textstats.gini_by_source(
            _docs_cols(sf, ["source", "n_chars", "doc_id"])),
        # exactly-k weighted sample (Efraimidis-Spirakis exp keys)
        "weighted_k_sample": lambda sf: textstats.weighted_k_sample(
            _docs_cols(sf, ["doc_id", "n_chars"])),
        # integer-rational ARI readability per doc (pure map)
        "readability": lambda sf: textstats.readability(
            _docs_cols(sf, ["doc_id", "n_chars", "text"])),
        # Borda rank-aggregation quality blend (top-k consensus docs)
        "borda_blend": lambda sf: textstats.borda_blend(
            _docs_cols(sf, ["doc_id", "n_chars", "text"])),
        # per-source token-concentration (Herfindahl) audit
        "hhi_by_source": lambda sf: textstats.hhi_by_source(
            _docs_cols(sf, ["source", "text"])),
        # k-anonymity release audit over (lang, source, length-bucket)
        "k_anonymity": lambda sf: curation.k_anonymity(
            _docs_cols(sf, ["lang", "source", "n_chars"])),
        # l-diversity: QI classes whose sensitive attr is near-constant
        "l_diversity": lambda sf: curation.l_diversity(
            _docs_cols(sf, ["source", "n_chars", "lang"])),
        # Heaps'-law vocabulary growth curve
        "vocab_growth": lambda sf: textstats.vocab_growth(
            _docs_cols(sf, ["doc_id", "text"])),
        # per-source hapax-legomena / vocabulary long-tail audit
        "hapax_stats": lambda sf: textstats.hapax_stats(
            _docs_cols(sf, ["source", "text"])),
        "incremental_dedup": lambda sf: _incremental_dedup(sf),
        "incremental_dedup_indexed":
            lambda sf: _incremental_dedup_indexed(sf),
        "crawl_diff": lambda sf: _crawl_diff(sf),
        "bloom_dedup": lambda sf: _bloom_dedup(sf),
        "nb_classify": lambda sf: lm.nb_classify(
            _docs_cols(sf, ["doc_id", "lang", "text"])),
        "incremental_near_dedup": lambda sf: _incremental_near_dedup(
            sf),
        "dup_cluster_stats": lambda sf: dedup.dup_cluster_stats(
            _docs_cols(sf, ["doc_id", "text"])),
        "inverted_index": lambda sf: textstats.inverted_index(
            _docs_cols(sf, ["doc_id", "text"])),
        "bm25_topk": lambda sf: textstats.bm25_topk(
            _docs_cols(sf, ["doc_id", "text"])),
        "containment_pairs": lambda sf: textstats.containment_pairs(
            _docs_cols(sf, ["doc_id", "text"])),
        "length_histogram": lambda sf: textstats.length_histogram(
            _docs_cols(sf, ["doc_id", "text"])),
        "pack_sequences": lambda sf: textstats.pack_sequences(
            _docs_cols(sf, ["doc_id", "text"])),
        "chunk_documents": lambda sf: textstats.chunk_documents(
            _docs_cols(sf, ["doc_id", "text"])),
        "training_pipeline": lambda sf: textstats.training_pipeline(
            _docs_cols(sf, ["doc_id", "text"])),
        # gopher filter -> keep-longest dedup -> epoch shuffle, whole
        # chain pinned by one independent golden
        "curation_pipeline": lambda sf: textstats.curation_pipeline(
            _docs_cols(sf, ["doc_id", "text"])),
        "hash_embed_nn": lambda sf: _hash_embed_nn(sf),
        "lsh_cosine_pairs": lambda sf: ann.lsh_cosine_dup_pairs(
            _emb(sf), 0.4),
        "lsh_nearest_neighbor": lambda sf: ann.lsh_nearest_neighbor_ids(
            _emb(sf)),
        "label_centroids": lambda sf: ann.label_centroids(_emb(sf)),
        # nearest-centroid classification confusion matrix
        "centroid_classify": lambda sf: ann.centroid_classify(_emb(sf)),
        "quantize_embeddings": lambda sf: ann.quantize_embeddings(
            _emb(sf)),
        # exact-Gram top principal direction (limb-encoded partials)
        "pca_top_component": lambda sf: ann.pca_top_component(_emb(sf)),
        # eigensolve-free exact spectral effective rank (trace ratio)
        "effective_rank": lambda sf: ann.effective_rank(_emb(sf)),
        # ZCA whitening (exact Gram + Newton-Schulz inverse sqrt)
        "whiten_embeddings": lambda sf: ann.whiten_embeddings(
            _emb(sf)),
        # measured recall@k of the IVF probe path vs exact (self-audit)
        "ivf_recall_audit": lambda sf: _ivf_recall(sf),
        # quantization-loss twin: PQ/ADC recall vs exact L2
        "pq_recall_audit": lambda sf: _pq_recall(sf),
        "ndcg_audit": lambda sf: _ndcg_audit(sf),
        # Matryoshka dimension-pruning recall audit (first-16-dims)
        "dim_truncation_audit":
            lambda sf: ann.dim_truncation_audit(_emb(sf)),
        # event-stream windows (beyond the reference: time-windowed ops)
        "windowed_events": lambda sf: _events_windowed(sf),
        "hopping_events": lambda sf: _events_hopping(sf),
        "sessionize": lambda sf: _events_sessionize(sf),
        "running_totals": lambda sf: _events_running(sf),
        "rolling_sums": lambda sf: _events_rolling(sf),
        "lag_deltas": lambda sf: _events_lag(sf),
        "ntile_events": lambda sf: _events_ntile(sf),
        "dense_rank_events": lambda sf: _events_dense_rank(sf),
        "percent_rank_events": lambda sf: _events_percent_rank(sf),
        "active_spans": lambda sf: _events_active_spans(sf),
        "winsorize_events": lambda sf: _events_winsorize(sf),
        "pareto_orders": lambda sf: _orders_pareto(sf),
        "zscore_events": lambda sf: _events_zscore(sf),
        "user_growth": lambda sf: _events_growth(sf),
        "distinct_users": lambda sf: _events_distinct_users(sf),
        "pivot_events": lambda sf: _events_pivot(sf),
        # sketch: no SQL can replicate HLL registers → rows-only check
        "hll_users": lambda sf: _events_hll(sf),
        # K-minimum-values cardinality sketch (differential golden)
        "kmv_distinct": lambda sf: _events_kmv(sf),
        # sketch-error audits: measured HLL error / CMS overestimate /
        # Bloom false-positive rate vs exact ground truth
        "hll_error_audit": lambda sf: _events_hll_audit(sf),
        "cms_join_estimate": lambda sf: _cms_join_estimate(sf),
        "cms_error_audit": lambda sf: _cms_audit(sf),
        "bloom_fp_audit": lambda sf: _bloom_audit(sf),
        "quantile_sketch_audit": lambda sf: _quantile_audit(sf),
        "dd_quantiles": lambda sf: _events_dd_quantiles(sf),
        "mode_by_type": lambda sf: _events_mode(sf),
        "mad_by_type": lambda sf: _events_mad(sf),
        "hll_users_by_type": lambda sf: _events_hll_by_type(sf),
        "funnel_stages": lambda sf: _events_funnel(sf),
        "retention_cohorts": lambda sf: _events_retention(sf),
        "event_transitions": lambda sf: _events_transitions(sf),
        "latest_events": lambda sf: _events_latest(sf),
        "event_cooccurrence": lambda sf: _events_cooccurrence(sf),
        "robust_outliers": lambda sf: _events_robust_outliers(sf),
        "volume_spikes": lambda sf: _events_volume_spikes(sf),
        # star-schema FK orphan audit (keys-only anti-joins)
        "ref_integrity": lambda sf: _ref_integrity(sf),
        "ks_drift": lambda sf: _events_ks_drift(sf),
        "ks_by_type": lambda sf: _events_ks_by_type(sf),
        "conversion_latency": lambda sf: _events_conversion(sf),
        "user_paths": lambda sf: _events_user_paths(sf),
        "cusum_changepoints": lambda sf: _events_cusum(sf),
        "dow_profile": lambda sf: _events_dow(sf),
        "poisson_bootstrap": lambda sf: _events_bootstrap(sf),
        "attribution_split": lambda sf: _events_attribution(sf),
        "ltv_cohorts": lambda sf: _events_ltv(sf),
        "rfm_stats": lambda sf: _events_rfm(sf),
        "ab_test_summary": lambda sf: _events_ab(sf),
        "session_table": lambda sf: _events_session_table(sf),
        "top_event_trigrams": lambda sf: _events_top_trigrams(sf),
        # daily-active-users HLL (window x sketch composition)
        "hll_users_windowed": lambda sf: _events_hll_windowed(sf),
        # semi-structured JSON props field extraction + aggregate
        "props_field_stats": lambda sf: _events_props(sf),
        "cms_token_estimates": lambda sf: _cms_estimates(sf),
        # sketch-guided exact heavy hitters (CMS prunes the shuffle)
        "heavy_hitters": lambda sf: _heavy_hitters(sf),
        "asof_join": lambda sf: _events_asof(sf),
        "range_join": lambda sf: _events_range_join(sf),
        # graph ops over the lineitem part->supplier digraph
        # fused one-exchange path (edge-collapse cancels algebraically
        # against the degree sum; same oracle as degrees∘lineitem_edges)
        "graph_degrees": lambda sf: _graph_degrees_fused(sf),
        # exact bipartite butterfly (2x2 biclique) motif census
        "butterfly_count": lambda sf: _graph_butterflies(sf),
        # market-basket projection of the order<->part bipartite graph
        "copurchase_edges": lambda sf: _copurchase_edges(sf),
        # exact per-part triangle census (degree-oriented wedges)
        "part_triangles": lambda sf: _part_triangles(sf),
        # degree-mixing health check of the co-purchase graph
        "part_assortativity": lambda sf: _part_assortativity(sf),
        # deterministic DeepWalk corpus (graph-embedding training data)
        "graph_walks": lambda sf: _graph_walks(sf),
        # exact k-core decomposition (link-farm / cohesion signal)
        "part_coreness": lambda sf: _part_coreness(sf),
        # multi-source BFS trust distance (live recursive-CTE oracle)
        "part_distances": lambda sf: _part_distances(sf),
        # label-propagation communities (link-farm cluster signal)
        "part_communities": lambda sf: _part_communities(sf),
        # market-basket association rules (confidence + lift, micros)
        "association_rules": lambda sf: _assoc_rules(sf),
        # per-customer repeat-purchase cadence (relational LAG rollup)
        "customer_order_gaps": lambda sf: _order_gaps(sf),
        # weighted sampling over a JOIN (weight exists only post-join)
        "join_pps_sample": lambda sf: _join_pps(sf),
        "pagerank": lambda sf: graph.pagerank(_graph_edges(sf)),
        # quality-weighted teleport (personalized) authority pass
        "pagerank_weighted": lambda sf: _pagerank_weighted(sf),
        "hits_scores": lambda sf: graph.hits(_graph_edges(sf)),
        # web-graph family over the interleaved corpus's html anchors
        # (regex scan vs HTMLParser differential goldens — webgraph.py)
        "outlinks": lambda sf: _webgraph_links(sf),
        "anchor_stats": lambda sf: _webgraph_anchor_stats(sf),
        # co-citation over target hosts (mirror/topic-affinity signal)
        "host_cocitation": lambda sf: _webgraph_cocitation(sf),
        # bibliographic coupling + Jaccard (host-level mirror detector)
        "host_coupling": lambda sf: _webgraph_coupling(sf),
        "host_pagerank": lambda sf: _webgraph_host_pagerank(sf),
        # host authority as a per-doc quality prior + PPS corpus draw
        "doc_authority": lambda sf: _webgraph_doc_authority(sf),
        "authority_sample": lambda sf: _webgraph_authority_sample(sf),
        "group_quantiles": lambda sf: _events_quantiles(sf),
        # corpus-wide exact quantiles with ZERO all-to-all (iterative
        # histogram refinement; sorting a column for 4 ranks is the
        # wrong plan at 100 TB)
        "global_quantiles": lambda sf: _global_quantiles(sf),
        "outlier_events": lambda sf: _events_outliers(sf),
        # TPC-H-shaped relational: combiner aggregate, large-large
        # bucketed join, broadcast dimension enrichment
        "pricing_summary": lambda sf: _tpch_pricing(sf),
        "order_line_join": lambda sf: _tpch_join(sf),
        "region_customers": lambda sf: _tpch_regions(sf),
        "customers_with_orders": lambda sf: _cust_orders_semi(sf, False),
        "customers_without_f_orders": lambda sf: _cust_orders_semi(
            sf, True),
        "supplier_shipments": lambda sf: _tpch_suppliers(sf),
        "brand_volume": lambda sf: _tpch_brands(sf),
        "shipping_priority": lambda sf: _tpch_shipping(sf),
        "pricing_rollup": lambda sf: _tpch_rollup(sf),
        "pricing_cube": lambda sf: _tpch_cube(sf),
        "local_supplier_volume": lambda sf: _tpch_q5(sf),
        "returned_item_report": lambda sf: _tpch_q10(sf),
        "order_line_left": lambda sf: _tpch_left_join(sf),
        "small_quantity_revenue": lambda sf: _tpch_q17(sf),
        "order_line_full": lambda sf: _tpch_full_join(sf),
        "profile_columns": lambda sf: _tpch_profile(sf),
        "price_qty_corr": lambda sf: _tpch_corr(sf),
        "forecast_revenue": lambda sf: _tpch_q6(sf),
        "promo_revenue": lambda sf: _tpch_q14(sf),
        "large_volume_orders": lambda sf: _tpch_q18(sf),
        "customer_order_counts": lambda sf: _tpch_q13(sf),
        "top_supplier": lambda sf: _tpch_q15(sf),
        "idle_rich_customers": lambda sf: _tpch_q22(sf),
        "volume_shipping": lambda sf: _tpch_q7(sf),
        "market_share": lambda sf: _tpch_q8(sf),
        "order_priority_check": lambda sf: _tpch_q4(sf),
        "late_line_priority": lambda sf: _tpch_q12(sf),
        "important_parts": lambda sf: _tpch_q11(sf),
        # sequence-completeness audit: order-id ranges with no lines
        "id_gaps": lambda sf: _lineitem_id_gaps(sf),
        "cheapest_supplier": lambda sf: _tpch_q2(sf),
        "brand_supplier_counts": lambda sf: _tpch_q16(sf),
        "brand_size_revenue": lambda sf: _tpch_q19(sf),
        "waiting_suppliers": lambda sf: _tpch_q21(sf),
        # Q9 shape: 5-table profit rollup per (nation, order-year)
        "nation_profit": lambda sf: _tpch_q9(sf),
        # Q20 shape: prefix-part windowed supplier volume threshold
        "promo_part_suppliers": lambda sf: _tpch_q20(sf),
        "sample_stratified": lambda sf: textstats.sample_stratified(
            _docs_cols(sf, ["doc_id", "lang"])),
        # deterministic per-epoch sharded shuffle (training data order)
        "epoch_shuffle": lambda sf: textstats.epoch_shuffle(
            _docs_cols(sf, ["doc_id"]), epoch=1),
        "source_quota_sample": lambda sf: rel.source_quota_sample(
            _docs_cols(sf, ["doc_id", "source"])),
        # per-source TOKEN-budgeted selection (mixture building)
        "token_budget_sample": lambda sf: rel.token_budget_sample(
            _docs_cols(sf, ["doc_id", "source", "text"]), budget=500),
        # relational skeleton (U5/U9/A1/A2/A3/E12 shapes)
        "topk_per_group": lambda sf: rel.topk_per_group(_docs(sf)),
        "ordered_dedup": lambda sf: rel.ordered_dedup(_docs(sf)),
        # Z-order layout pruning witness (Delta/Iceberg OPTIMIZE ZORDER)
        "zorder_stats": lambda sf: _zorder_stats(sf),
        "union_sources": union_q,
        "token_intersect": lambda sf: rel.string_intersect(
            rel.tokens_of(curation.split_by_mod(
                _docs_cols(sf, ["doc_id", "text"]), mod=2, lt=1)),
            rel.tokens_of(curation.split_by_mod(
                _docs_cols(sf, ["doc_id", "text"]), mod=2, lt=1,
                invert=True))),
        "sort_limit": lambda sf: rel.sort_limit(_docs(sf)),
        "group_counts": lambda sf: rel.group_counts(_docs(sf)),
        "group_counts_csv": group_counts_csv,
        "extract_spans_jsonl": extract_spans_jsonl,
        "failure_filter": lambda sf: rel.failure_filter(_docs(sf)),
    }


# shared CTE: the messy-url fixture (mirrors _url_fixture exactly) and
# the canonicalization chain (mirrors curation.URL_CANON_STEPS exactly)
_URL_CANON_SQL = r"""
    WITH aug AS (
      SELECT doc_id,
        (CASE WHEN doc_id % 2 = 0 THEN 'HTTP' ELSE 'HttpS' END)
        || '://WWW.Site' || (doc_id % 3) || '.EXAMPLE.com'
        || (CASE WHEN doc_id % 3 = 0 THEN
              (CASE WHEN doc_id % 2 = 0 THEN ':80' ELSE ':443' END)
            ELSE '' END)
        || '/Docs/Item' || (doc_id % 25)
        || (CASE WHEN doc_id % 5 = 0 THEN '/' ELSE '' END)
        || (CASE doc_id % 4
              WHEN 0 THEN '?utm_source=feed&id=' || (doc_id % 50)
                          || '&utm_campaign=Crawl'
              WHEN 1 THEN '?id=' || (doc_id % 50) || '&fbclid=XY'
              WHEN 2 THEN '?gclid=g1&utm_x=2'
              ELSE '?id=' || (doc_id % 50) END)
        || (CASE WHEN doc_id % 4 = 0 THEN '#Section-2' ELSE '' END)
          AS url
      FROM documents),
    s AS (SELECT doc_id,
            lower(regexp_extract(url, '^[A-Za-z]+://[^/?#]*', 0)) ||
            regexp_replace(url, '^[A-Za-z]+://[^/?#]*', '') AS u0
          FROM aug),
    c AS (SELECT doc_id,
      regexp_replace(regexp_replace(regexp_replace(regexp_replace(
      regexp_replace(regexp_replace(regexp_replace(regexp_replace(
      regexp_replace(u0,
        '#.*$', '', 'g'),
        '([?&])(utm_[A-Za-z0-9_]*|gclid|fbclid)=[^&#]*', '\1', 'g'),
        '\?&+', '?', 'g'),
        '&&+', '&', 'g'),
        '[?&]+$', '', 'g'),
        '^(http://[^/:?#]+):80(/|\?|#|$)', '\1\2', 'g'),
        '^(https://[^/:?#]+):443(/|\?|#|$)', '\1\2', 'g'),
        '/+(\?)', '\1', 'g'),
        '/+$', '', 'g') AS canon_url
      FROM s)
"""


def oracle_sql() -> dict[str, str]:
    # Golden expected-output tables (committed parquet under
    # goldens/<sf>/, generated by tools/gen_goldens.py from independent
    # single-process reimplementations — see that file's docstring).
    # The driver runs at sf0.01; tools/check_queries.py rewrites the tag
    # when validating other scale factors locally.
    gold = {
        name: ("SELECT * FROM read_parquet("
               f"'{_REPO}/goldens/sf0.01/{name}.parquet')")
        for name in (
            "extract_spans", "extract_status", "media_features",
            "media_features_real",
            "extract_links", "minhash_lsh_pairs", "simhash",
            "simhash_dup_pairs", "dedup_apply", "knn_ivf", "knn_pq",
            "winnow_fingerprint", "lsh_cosine_pairs",
            "training_pipeline", "curation_pipeline", "hash_embed_nn",
            "lsh_nearest_neighbor", "semdedup_pairs", "semdedup_apply",
            "bpe_merges", "bpe_token_count", "dsir_scores",
            "dedup_substrings",
            "read_rejects",
            "integrate_outputs", "scan_output_for_errors",
            "search_engine_links", "dedup_apply_emb", "timeout_ids",
            "dedup_keep_longest", "compression_ratio",
            "centroid_classify",
            "pagerank", "containment_pairs",
            "outlinks", "anchor_stats", "host_pagerank",
            "host_cocitation", "host_coupling",
            "doc_authority", "authority_sample",
            "nb_classify", "bloom_dedup", "hits_scores",
            "dd_quantiles", "kcenter_select", "coverage_select",
            "hard_negatives", "cluster_census", "dup_mapping",
            "lineage_report", "hll_users_windowed",
            "pack_sequences", "media_resize", "frame_sample",
            "media_phash_pairs", "media_dedup_apply",
            "dedup_extracted", "dup_cluster_stats", "hll_users",
            "hll_users_by_type", "incremental_near_dedup",
            "pca_top_component", "kmv_distinct", "part_coreness",
            "part_communities",
            "effective_rank", "pagerank_weighted",
            "whiten_embeddings", "ivf_recall_audit",
            "minhash_recall_audit", "hll_error_audit",
            "cms_error_audit", "bloom_fp_audit",
            "quantile_sketch_audit", "pq_recall_audit",
            "ndcg_audit", "dim_truncation_audit",
            "weighted_k_sample", "label_centroid_drift",
            "poisson_bootstrap", "cms_join_estimate")
    }
    # the indexed IVF path is bit-identical to the inline fit by
    # construction — same golden table
    gold["knn_ivf_indexed"] = gold["knn_ivf"]
    # the JSONL round-trip must reproduce the parquet-path extraction
    # exactly — same golden table
    gold["extract_spans_jsonl"] = gold["extract_spans"]
    # span_kind_stats aggregates the engine's interleaved output; the
    # oracle aggregates the SAME independent extract_spans golden in
    # SQL, so the census is checked without being circular on the
    # engine's own aggregate.
    gold["span_kind_stats"] = (
        "SELECT kind, status, COUNT(*)::BIGINT AS n, "
        "SUM(length(text))::BIGINT AS text_chars "
        f"FROM read_parquet('{_REPO}/goldens/sf0.01/extract_spans.parquet') "
        "GROUP BY kind, status")
    return gold | {
        "exact_dedup":
            "SELECT min(doc_id) AS doc_id, text FROM documents "
            "GROUP BY text",
        "exact_dedup_hashed":
            "SELECT min(doc_id) AS doc_id, md5(text) AS fp "
            "FROM documents GROUP BY fp",
        "edit1_name_pairs": """
            WITH names AS (SELECT DISTINCT p_name FROM part)
            SELECT a.p_name AS left_name, b.p_name AS right_name
            FROM names a JOIN names b ON a.p_name < b.p_name
            WHERE levenshtein(a.p_name, b.p_name) = 1""",
        "ngram_jaccard_pairs": f"""
            SELECT * FROM (
              SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                len(list_filter(list_distinct(string_split(a.text,' ')),
                    x -> list_contains(string_split(b.text,' '), x)))::BIGINT
                    AS inter_n,
                len(list_distinct(list_concat(string_split(a.text,' '),
                    string_split(b.text,' '))))::BIGINT AS union_n
              FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 1
            ) t WHERE inter_n * 10 >= union_n * 3""",
        # brute-force ALL-pairs Jaccard via the posting-list join; the
        # Ray side must find exactly these (completeness is the prefix
        # filter's guarantee, unlike LSH banding)
        "prefix_filter_pairs": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_distinct(string_split(text, ' ')))
                       AS tok
              FROM documents WHERE doc_id % 10 = 0),
            sizes AS (SELECT doc_id, count(*)::BIGINT AS n
                      FROM toks GROUP BY 1),
            inter AS (SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                             count(*)::BIGINT AS i
                      FROM toks a JOIN toks b USING (tok)
                      WHERE a.doc_id < b.doc_id GROUP BY 1, 2)
            SELECT left_id, right_id FROM inter
            JOIN sizes sa ON sa.doc_id = left_id
            JOIN sizes sb ON sb.doc_id = right_id
            WHERE i * 10 >= (sa.n + sb.n - i) * 9""",
        # RRF: ranks re-derived with row_number over the same orderings
        # the component oracles pin; integer-micros contributions
        "hybrid_rrf": """
            WITH lex AS (
            WITH stats AS (
              SELECT count(*)::DOUBLE AS n,
                     sum(len(string_split(text, ' ')))::DOUBLE AS tot
              FROM documents),
            dl AS (SELECT doc_id,
                     len(string_split(text, ' '))::DOUBLE AS dl
                   FROM documents),
            posting AS (
              SELECT doc_id, token, count(*)::DOUBLE AS tf FROM (
                SELECT doc_id, unnest(string_split(text, ' ')) AS token
                FROM documents) u
              WHERE token IN ('hash', 'join', 'merge', 'sort')
              GROUP BY doc_id, token),
            df AS (SELECT token, count(*)::DOUBLE AS df
                   FROM posting GROUP BY token),
            contrib AS (
              SELECT p.doc_id, CAST(floor(
                ((((s.n - d.df) + 0.5) / (d.df + 0.5)) *
                 ((p.tf * (1.2 + 1.0)) /
                  (p.tf + 1.2 * ((1.0 - 0.75) +
                                 0.75 * (l.dl / (s.tot / s.n))))))
                * 1000000.0 + 0.5) AS BIGINT) AS c
              FROM posting p JOIN df d ON p.token = d.token
              JOIN dl l ON l.doc_id = p.doc_id CROSS JOIN stats s)
            SELECT doc_id, SUM(c)::BIGINT AS score_micro FROM contrib
            GROUP BY doc_id ORDER BY score_micro DESC, doc_id
            LIMIT 20),
            lexr AS (
              SELECT doc_id, row_number() OVER (
                ORDER BY score_micro DESC, doc_id) AS r
              FROM lex),
            semr AS (
              SELECT vec_id AS doc_id, r FROM (
                SELECT e.vec_id, row_number() OVER (
                  ORDER BY list_cosine_similarity(
                    e.embedding, q.embedding) DESC, e.vec_id) AS r
                FROM embeddings e,
                  (SELECT embedding FROM embeddings
                   WHERE vec_id = 0) q
                WHERE e.vec_id <> 0) t
              WHERE r <= 10),
            u AS (
              SELECT doc_id, 1000000 // (60 + r) AS c FROM lexr
              UNION ALL
              SELECT doc_id, 1000000 // (60 + r) FROM semr)
            SELECT doc_id, SUM(c)::BIGINT AS rrf_micro FROM u
            GROUP BY doc_id
            ORDER BY rrf_micro DESC, doc_id LIMIT 10""",
        "knn_cosine": """
            SELECT e.vec_id, e.label FROM embeddings e,
              (SELECT embedding FROM embeddings WHERE vec_id = 0) q
            WHERE e.vec_id <> 0
            ORDER BY list_cosine_similarity(e.embedding, q.embedding)
              DESC, e.vec_id
            LIMIT 10""",
        "cosine_nn": """
            SELECT vec_id, nn_id FROM (
              SELECT a.vec_id, b.vec_id AS nn_id,
                row_number() OVER (PARTITION BY a.vec_id
                  ORDER BY list_cosine_similarity(a.embedding, b.embedding)
                    DESC, b.vec_id) AS rn
              FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
            ) t WHERE rn = 1""",
        "cosine_dup_pairs": """
            SELECT a.vec_id AS left_id, b.vec_id AS right_id
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4""",
        # signed micros (round half away from zero); sum-of-squares as
        # base-1e9 limbs so the output never overflows BIGINT
        "embedding_dim_stats": """
            WITH e AS (SELECT unnest(embedding) AS v,
                              generate_subscripts(embedding, 1) AS d
                       FROM embeddings),
            q AS (SELECT d - 1 AS dim,
                         CAST(round(CAST(v AS DOUBLE) * 1000000)
                              AS BIGINT) AS q
                  FROM e),
            s AS (SELECT dim, count(*)::BIGINT AS n,
                         SUM(q)::BIGINT AS sum_q,
                         SUM(q::HUGEINT * q)::HUGEINT AS ss
                  FROM q GROUP BY 1)
            SELECT dim, n, sum_q,
                   CAST(ss // 1000000000 AS BIGINT) AS sumsq_hi,
                   CAST(ss % 1000000000 AS BIGINT) AS sumsq_lo
            FROM s""",
        "semantic_decontaminate": """
            SELECT c.vec_id FROM embeddings c
            WHERE c.vec_id % 100 >= 10
              AND NOT EXISTS (
                SELECT 1 FROM embeddings b
                WHERE b.vec_id % 100 < 10
                  AND list_cosine_similarity(c.embedding, b.embedding)
                      >= 0.4)""",
        "token_count":
            "SELECT doc_id, len(string_split(text, ' '))::BIGINT "
            "AS n_tokens FROM documents",
        "chunk_documents": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t
                          FROM documents),
            starts AS (SELECT doc_id, t,
                              unnest(range(0, len(t), 48)) AS s FROM toks)
            SELECT doc_id, (s//48)::INT AS chunk_id,
                   array_to_string(t[s+1 : least(s+64, len(t))], ' ')
                     AS chunk_text,
                   (least(s+64, len(t)) - s)::BIGINT AS n_chunk_tokens
            FROM starts""",
        "quality_score": f"""
            SELECT doc_id,
              length(text)::BIGINT AS n_chars_q,
              len(string_split(text,' '))::BIGINT AS n_tokens,
              len(list_filter(string_split(text,' '),
                  x -> x IN {_EN}))::BIGINT AS n_stop,
              len(list_distinct(string_split(text,' ')))::BIGINT AS n_uniq
            FROM documents""",
        "lang_id": f"""
            SELECT doc_id, CASE
              WHEN en > 0 AND en >= es AND en >= de AND en >= fr THEN 'en'
              WHEN es > 0 AND es >= de AND es >= fr THEN 'es'
              WHEN de > 0 AND de >= fr THEN 'de'
              WHEN fr > 0 THEN 'fr'
              ELSE 'und' END AS pred_lang
            FROM (
              SELECT doc_id,
                len(list_filter(w, x -> x IN {_EN})) AS en,
                len(list_filter(w, x -> x IN {_ES})) AS es,
                len(list_filter(w, x -> x IN {_DE})) AS de,
                len(list_filter(w, x -> x IN {_FR})) AS fr
              FROM (SELECT doc_id, string_split(text,' ') AS w
                    FROM documents) s
            ) c""",
        "doc_fingerprint":
            "SELECT doc_id, md5(text) AS fp FROM documents",
        # Gopher-family rules: same integer comparisons as
        # textstats.gopher_quality_batch, bit for bit
        "gopher_quality": f"""
            SELECT doc_id, n_tokens,
              (CASE WHEN n_tokens < 20 OR n_tokens > 90
                    THEN 1 ELSE 0 END
               + CASE WHEN 10*tot < 42*n_tokens OR tot > 10*n_tokens
                      THEN 2 ELSE 0 END
               + CASE WHEN 50*n_stop < n_tokens THEN 4 ELSE 0 END
               + CASE WHEN 10*n_uniq < 4*n_tokens THEN 8 ELSE 0 END
              )::BIGINT AS fail_mask,
              (CASE WHEN n_tokens >= 20 AND n_tokens <= 90
                     AND 10*tot >= 42*n_tokens AND tot <= 10*n_tokens
                     AND 50*n_stop >= n_tokens
                     AND 10*n_uniq >= 4*n_tokens
                    THEN 1 ELSE 0 END)::BIGINT AS keep
            FROM (
              SELECT doc_id,
                len(string_split(text,' '))::BIGINT AS n_tokens,
                (length(text) - len(string_split(text,' '))
                 + 1)::BIGINT AS tot,
                len(list_filter(string_split(text,' '),
                    x -> x IN {_EN}))::BIGINT AS n_stop,
                len(list_distinct(string_split(text,' ')))::BIGINT
                  AS n_uniq
              FROM documents) q""",
        "lang_mismatch": f"""
            SELECT doc_id, lang, pred_lang FROM (
              SELECT doc_id, lang, CASE
                WHEN en > 0 AND en >= es AND en >= de AND en >= fr
                  THEN 'en'
                WHEN es > 0 AND es >= de AND es >= fr THEN 'es'
                WHEN de > 0 AND de >= fr THEN 'de'
                WHEN fr > 0 THEN 'fr'
                ELSE 'und' END AS pred_lang
              FROM (
                SELECT doc_id, lang,
                  len(list_filter(w, x -> x IN {_EN})) AS en,
                  len(list_filter(w, x -> x IN {_ES})) AS es,
                  len(list_filter(w, x -> x IN {_DE})) AS de,
                  len(list_filter(w, x -> x IN {_FR})) AS fr
                FROM (SELECT doc_id, lang, string_split(text,' ') AS w
                      FROM documents) s) c) p
            WHERE pred_lang <> lang""",
        "tokenizer_fertility": """
            SELECT lang, count(*)::BIGINT AS n_docs,
              sum(len(string_split(text,' ')))::BIGINT AS ws_tokens,
              sum(len(regexp_extract_all(text,
                  ' ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+')))::BIGINT
                AS bpe_tokens,
              (sum(len(regexp_extract_all(text,
                   ' ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+'))) * 1000000
               // sum(len(string_split(text,' '))))::BIGINT
                AS fertility_micro
            FROM documents GROUP BY lang""",
        "source_stats": """
            SELECT source, count(*)::BIGINT AS n_docs,
              sum(len(string_split(text,' ')))::BIGINT AS sum_tokens,
              sum(length(text))::BIGINT AS sum_chars,
              count(DISTINCT lang)::BIGINT AS n_langs
            FROM documents GROUP BY source""",
        "sample_by_hash":
            "SELECT doc_id, text FROM documents WHERE "
            "substr(md5(CAST(doc_id AS VARCHAR) || 's0'), 1, 3) < '200'",
        "split_assign": """
            SELECT doc_id,
              CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)
                     || 'split'), 1, 4) < 'cccc' THEN 'train'
                   WHEN substr(md5(CAST(doc_id AS VARCHAR)
                     || 'split'), 1, 4) < 'e666' THEN 'val'
                   ELSE 'test' END AS split
            FROM documents""",
        # decode must round-trip the text and attribute rows with a
        # valid header charset to the 'header' rung; the encoding NAME
        # on the apparent rungs is charset_normalizer's business and is
        # pinned by unit tests, not the oracle
        "decode_bytes": """
            SELECT doc_id, text,
              (CASE WHEN doc_id % 4 IN (0, 1) THEN 1 ELSE 0 END)::BIGINT
                AS used_header
            FROM documents""",
        "redact_pii": r"""
            WITH aug AS (
              SELECT doc_id,
                text || ' contact doc' || doc_id || '@example.com or 10.0.'
                     || (doc_id % 256) || '.1 tel +1 555-000-'
                     || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                  AS text
              FROM documents),
            e AS (SELECT doc_id, text AS t0,
                    regexp_replace(text,
                      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                      '<EMAIL>', 'g') AS t1
                  FROM aug),
            i AS (SELECT *, regexp_replace(t1,
                    '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                    '<IP>', 'g') AS t2
                  FROM e)
            SELECT doc_id,
              regexp_replace(t2, '\+?\d[\d -]{7,}\d', '<PHONE>', 'g')
                AS clean_text,
              len(regexp_extract_all(t0,
                '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT
                AS n_email,
              len(regexp_extract_all(t1,
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))::BIGINT AS n_ip,
              len(regexp_extract_all(t2,
                '\+?\d[\d -]{7,}\d'))::BIGINT AS n_phone
            FROM i""",
        "repetition_stats": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            g2 AS (SELECT doc_id,
                     array_to_string(list_slice(w, i, i+1), ' ') AS g
                   FROM toks, unnest(generate_series(1,
                     greatest(len(w)-1,0))) AS t(i)),
            g3 AS (SELECT doc_id,
                     array_to_string(list_slice(w, i, i+2), ' ') AS g
                   FROM toks, unnest(generate_series(1,
                     greatest(len(w)-2,0))) AS t(i))
            SELECT t.doc_id, len(w)::BIGINT AS n_toks,
              len(list_distinct(w))::BIGINT AS n_uniq_toks,
              greatest(len(w)-1,0)::BIGINT AS n_2grams,
              (SELECT count(DISTINCT g) FROM g2
               WHERE g2.doc_id = t.doc_id)::BIGINT AS n_uniq_2grams,
              greatest(len(w)-2,0)::BIGINT AS n_3grams,
              (SELECT count(DISTINCT g) FROM g3
               WHERE g3.doc_id = t.doc_id)::BIGINT AS n_uniq_3grams
            FROM toks t""",
        "decontaminate": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            grams AS (SELECT doc_id,
                        array_to_string(list_slice(w, i, i+3), ' ') AS g
                      FROM toks, unnest(generate_series(1,
                        greatest(len(w)-3,0))) AS t(i)),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 100 < 3)
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id % 100 >= 3
              AND NOT EXISTS (SELECT 1 FROM grams gr
                              JOIN bench b ON gr.g = b.g
                              WHERE gr.doc_id = d.doc_id)""",
        # rational idf (N-df+0.5)/(df+0.5), micros before ranking —
        # identical IEEE ops on both engines, no libm log anywhere
        "tfidf_top_terms": """
            WITH toks AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS term
              FROM documents),
            tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
                   FROM toks GROUP BY 1, 2),
            n AS (SELECT count(*)::BIGINT AS n FROM documents),
            df AS (SELECT term, count(*)::BIGINT AS df
                   FROM tf GROUP BY 1),
            scored AS (
              SELECT tf.doc_id, tf.term,
                     CAST(floor(tf.tf * ((n.n - df.df + 0.5)
                                         / (df.df + 0.5))
                                * 1000000 + 0.5) AS BIGINT)
                       AS score_micro
              FROM tf JOIN df USING (term), n)
            SELECT doc_id, term, score_micro FROM scored
            QUALIFY row_number() OVER (
              PARTITION BY doc_id
              ORDER BY score_micro DESC, term) <= 3""",
        "vocab_coverage": """
            WITH vocab AS (
              SELECT token FROM (
                SELECT unnest(string_split(text, ' ')) AS token
                FROM documents) t
              GROUP BY token
              ORDER BY count(*) DESC, token LIMIT 50)
            SELECT doc_id,
                   sum(CASE WHEN token IN (SELECT token FROM vocab)
                       THEN 1 ELSE 0 END)::BIGINT AS n_in_vocab,
                   sum(CASE WHEN token IN (SELECT token FROM vocab)
                       THEN 0 ELSE 1 END)::BIGINT AS n_unk
            FROM (SELECT doc_id, unnest(string_split(text, ' '))
                    AS token FROM documents) t
            GROUP BY doc_id""",
        "label_centroids": """
            SELECT label::BIGINT AS label, i::BIGINT AS dim,
                   CAST(SUM(CAST(round(CAST(embedding[i] AS DOUBLE)
                     * 1000000000) AS BIGINT)) AS BIGINT) AS sum_fp,
                   count(*)::BIGINT AS n
            FROM embeddings, generate_series(1, 64) s(i)
            GROUP BY label, i""",
        # abs / one multiply / one divide / +0.5 / floor in the same
        # IEEE order as the numpy kernel — positive domain, bit-exact
        "quantize_embeddings": """
            WITH m AS (
              SELECT vec_id, embedding,
                     list_aggregate(list_transform(embedding,
                       x -> abs(x)), 'max') AS mx
              FROM embeddings)
            SELECT vec_id,
                   CAST(floor(CAST(mx AS DOUBLE) * 1000000000 + 0.5)
                     AS BIGINT) AS scale_fp,
                   CAST(SUM(CASE WHEN mx = 0 THEN 0 ELSE
                     CAST(floor(abs(CAST(embedding[i] AS DOUBLE)) * 127
                                / mx + 0.5) AS BIGINT) END) AS BIGINT)
                     AS sum_absq
            FROM m, generate_series(1, 64) s(i)
            GROUP BY vec_id, mx""",
        # three-way snapshot diff over the deterministic old/new
        # fixtures; 'changed' = full-md5 inequality (Ray compares the
        # 63-bit truncation — collision-equivalent in practice, the
        # md5-key convention of incremental_dedup)
        "crawl_diff": """
            WITH old AS (SELECT doc_id, md5(text) AS fp
                         FROM documents WHERE doc_id % 2 = 0),
                 noo AS (SELECT doc_id,
                                md5(CASE WHEN doc_id % 7 = 0
                                         THEN upper(text)
                                         ELSE text END) AS fp
                         FROM documents WHERE doc_id % 3 <> 0)
            SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS change
            FROM old o FULL JOIN noo n ON o.doc_id = n.doc_id
            WHERE o.doc_id IS NULL OR n.doc_id IS NULL
               OR o.fp <> n.fp""",
        "incremental_dedup": """
            SELECT min(doc_id) AS doc_id, fp FROM (
              SELECT doc_id, md5(text) AS fp FROM documents
              WHERE doc_id % 100 >= 50) n
            WHERE fp NOT IN (SELECT md5(text) FROM documents
                             WHERE doc_id % 100 < 50)
            GROUP BY fp""",
        # the indexed path is row-identical to the inline pass by
        # construction (fingerprints are pure functions of the text) —
        # same oracle
        "incremental_dedup_indexed": """
            SELECT min(doc_id) AS doc_id, fp FROM (
              SELECT doc_id, md5(text) AS fp FROM documents
              WHERE doc_id % 100 >= 50) n
            WHERE fp NOT IN (SELECT md5(text) FROM documents
                             WHERE doc_id % 100 < 50)
            GROUP BY fp""",
        # CMS estimates equal exact counts when the vocabulary's load
        # factor on the 8192-wide sketch is ≪ 1 (true for every driver
        # table); the ≥-bound under forced collisions is pytest-pinned
        "cms_token_estimates":
            "SELECT token, count(*)::BIGINT AS est_n FROM ("
            "SELECT unnest(string_split(text, ' ')) AS token "
            "FROM documents) t GROUP BY token "
            "ORDER BY est_n DESC, token LIMIT 50",
        "topk_tokens_per_lang": """
            SELECT lang AS "group", token, n FROM (
              SELECT lang, token, count(*)::BIGINT AS n,
                     row_number() OVER (PARTITION BY lang
                       ORDER BY count(*) DESC, token) AS rn
              FROM (SELECT lang, unnest(string_split(text, ' '))
                      AS token FROM documents) t
              GROUP BY lang, token) s
            WHERE rn <= 10""",
        "token_frequencies":
            "SELECT token, count(*)::BIGINT AS n FROM ("
            "SELECT unnest(string_split(text, ' ')) AS token "
            "FROM documents) t GROUP BY token "
            "ORDER BY n DESC, token LIMIT 50",
        "hapax_stats": """
            WITH tf AS (
              SELECT source, token, count(*)::BIGINT AS c FROM (
                SELECT source,
                       unnest(string_split(text, ' ')) AS token
                FROM documents) t
              GROUP BY source, token)
            SELECT source, count(*)::BIGINT AS vocab_size,
                   CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_hapax,
                   CAST(SUM(c) AS BIGINT) AS n_tokens
            FROM tf GROUP BY source""",
        "inverted_index":
            "SELECT token, doc_id, count(*)::BIGINT AS tf FROM ("
            "SELECT doc_id, unnest(string_split(text, ' ')) AS token "
            "FROM documents) t GROUP BY token, doc_id",
        # parenthesization mirrors the numpy kernel exactly — every op
        # is an IEEE +,-,*,/ (rational idf, no log), so double results
        # are bit-identical and the micro-quantized scores match
        "bm25_topk": """
            WITH stats AS (
              SELECT count(*)::DOUBLE AS n,
                     sum(len(string_split(text, ' ')))::DOUBLE AS tot
              FROM documents),
            dl AS (SELECT doc_id,
                     len(string_split(text, ' '))::DOUBLE AS dl
                   FROM documents),
            posting AS (
              SELECT doc_id, token, count(*)::DOUBLE AS tf FROM (
                SELECT doc_id, unnest(string_split(text, ' ')) AS token
                FROM documents) u
              WHERE token IN ('hash', 'join', 'merge', 'sort')
              GROUP BY doc_id, token),
            df AS (SELECT token, count(*)::DOUBLE AS df
                   FROM posting GROUP BY token),
            contrib AS (
              SELECT p.doc_id, CAST(floor(
                ((((s.n - d.df) + 0.5) / (d.df + 0.5)) *
                 ((p.tf * (1.2 + 1.0)) /
                  (p.tf + 1.2 * ((1.0 - 0.75) +
                                 0.75 * (l.dl / (s.tot / s.n))))))
                * 1000000.0 + 0.5) AS BIGINT) AS c
              FROM posting p JOIN df d ON p.token = d.token
              JOIN dl l ON l.doc_id = p.doc_id CROSS JOIN stats s)
            SELECT doc_id, SUM(c)::BIGINT AS score_micro FROM contrib
            GROUP BY doc_id ORDER BY score_micro DESC, doc_id
            LIMIT 20""",
        "length_histogram":
            "SELECT length(text)::BIGINT // 100 AS len_bucket, "
            "count(*)::BIGINT AS n FROM documents GROUP BY len_bucket",
        "corpus_filter": f"""
            WITH feat AS (
              SELECT doc_id, text,
                len(string_split(text,' '))::BIGINT AS n_tokens,
                len(list_filter(string_split(text,' '),
                    x -> x IN {_EN}))::BIGINT AS n_stop,
                len(list_distinct(string_split(text,' ')))::BIGINT
                    AS n_uniq,
                len(list_filter(string_split(text,' '),
                    x -> x IN {_ES}))::BIGINT AS c_es,
                len(list_filter(string_split(text,' '),
                    x -> x IN {_DE}))::BIGINT AS c_de,
                len(list_filter(string_split(text,' '),
                    x -> x IN {_FR}))::BIGINT AS c_fr
              FROM documents),
            kept AS (
              SELECT * FROM feat
              WHERE n_stop > 0 AND n_stop >= c_es AND n_stop >= c_de
                AND n_stop >= c_fr
                AND n_tokens >= 10 AND n_stop * 50 >= n_tokens
                AND n_uniq * 10 >= n_tokens * 3)
            SELECT min(doc_id) AS doc_id, text FROM kept
            GROUP BY text""",
        # fixture keywords are 'topic <k> data' for k 0..39 with the
        # first 10 completed; quote_plus only touches the spaces
        "read_keywords": """
            SELECT 'topic ' || k || ' data' AS keyword,
                   'https://www.google.com/search?q=topic+' || k
                     || '+data' AS google_url,
                   'https://search.yahoo.co.jp/search?p=topic+' || k
                     || '+data' AS yahoo_url
            FROM (SELECT unnest(generate_series(10, 39)) AS k)""",
        # quantized conditional probabilities are pure integer math
        # ((c2 * 1e6) // c1) on both engines — bit-exact parity; the
        # Ray side keys grams by 64-bit hashes (collisions
        # oracle-negligible, see functions/lm.py docstring)
        "bigram_lm_scores": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            big AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM toks, unnest(generate_series(1,
                      greatest(len(w)-1,0))) AS t(i)),
            c2 AS (SELECT w1, w2, count(*)::BIGINT AS c2
                   FROM big GROUP BY w1, w2),
            c1 AS (SELECT w1, sum(c2)::BIGINT AS c1
                   FROM c2 GROUP BY w1),
            q AS (SELECT c2.w1, c2.w2,
                         (c2.c2 * 1000000) // c1.c1 AS q
                  FROM c2 JOIN c1 ON c1.w1 = c2.w1)
            SELECT b.doc_id, count(*)::BIGINT AS n_bigrams,
                   sum(q.q)::BIGINT AS lm_score_micro
            FROM big b JOIN q ON q.w1 = b.w1 AND q.w2 = b.w2
            GROUP BY b.doc_id""",
        "dice_collocations": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            big AS (SELECT w[i] AS w1, w[i+1] AS w2
                    FROM toks, unnest(generate_series(1,
                      greatest(len(w)-1,0))) AS t(i)),
            c2 AS (SELECT w1, w2, count(*)::BIGINT AS c2
                   FROM big GROUP BY w1, w2),
            m AS (SELECT w1, w2, c2,
                    sum(c2) OVER (PARTITION BY w1) AS u1,
                    sum(c2) OVER (PARTITION BY w2) AS u2
                  FROM c2)
            SELECT w1, w2, c2,
                   (2 * c2 * 1000000 // (u1 + u2))::BIGINT
                     AS dice_micro
            FROM m WHERE c2 >= 2
            ORDER BY dice_micro DESC, w1, w2 LIMIT 50""",
        # same bigram model as bigram_lm_scores; thresholds read by
        # row_number over the same ascending order the Ray side ranks
        "perplexity_buckets": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            big AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM toks, unnest(generate_series(1,
                      greatest(len(w)-1,0))) AS t(i)),
            c2 AS (SELECT w1, w2, count(*)::BIGINT AS c2
                   FROM big GROUP BY w1, w2),
            c1 AS (SELECT w1, sum(c2)::BIGINT AS c1
                   FROM c2 GROUP BY w1),
            q AS (SELECT c2.w1, c2.w2,
                         (c2.c2 * 1000000) // c1.c1 AS q
                  FROM c2 JOIN c1 ON c1.w1 = c2.w1),
            s AS (SELECT b.doc_id,
                         (sum(q.q) // count(*))::BIGINT AS lm_avg_micro
                  FROM big b JOIN q ON q.w1 = b.w1 AND q.w2 = b.w2
                  GROUP BY b.doc_id),
            r AS (SELECT lm_avg_micro AS a, row_number() OVER (
                    ORDER BY lm_avg_micro) AS rn FROM s),
            n AS (SELECT count(*)::BIGINT AS c FROM s),
            t1 AS (SELECT a FROM r
                   WHERE rn = (SELECT (c+2)//3 FROM n)),
            t2 AS (SELECT a FROM r
                   WHERE rn = (SELECT (2*c+2)//3 FROM n))
            SELECT doc_id, lm_avg_micro,
              CASE WHEN lm_avg_micro <= (SELECT a FROM t1) THEN 'tail'
                   WHEN lm_avg_micro <= (SELECT a FROM t2)
                     THEN 'middle'
                   ELSE 'head' END AS bucket
            FROM s""",
        "quality_stratified_sample": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            big AS (SELECT doc_id, w[i] AS w1, w[i+1] AS w2
                    FROM toks, unnest(generate_series(1,
                      greatest(len(w)-1,0))) AS t(i)),
            c2 AS (SELECT w1, w2, count(*)::BIGINT AS c2
                   FROM big GROUP BY w1, w2),
            c1 AS (SELECT w1, sum(c2)::BIGINT AS c1
                   FROM c2 GROUP BY w1),
            q AS (SELECT c2.w1, c2.w2,
                         (c2.c2 * 1000000) // c1.c1 AS q
                  FROM c2 JOIN c1 ON c1.w1 = c2.w1),
            s AS (SELECT b.doc_id,
                         (sum(q.q) // count(*))::BIGINT AS lm_avg_micro
                  FROM big b JOIN q ON q.w1 = b.w1 AND q.w2 = b.w2
                  GROUP BY b.doc_id),
            r AS (SELECT lm_avg_micro AS a, row_number() OVER (
                    ORDER BY lm_avg_micro) AS rn FROM s),
            n AS (SELECT count(*)::BIGINT AS c FROM s),
            t1 AS (SELECT a FROM r
                   WHERE rn = (SELECT (c+2)//3 FROM n)),
            t2 AS (SELECT a FROM r
                   WHERE rn = (SELECT (2*c+2)//3 FROM n)),
            lab AS (SELECT doc_id, lm_avg_micro,
              CASE WHEN lm_avg_micro <= (SELECT a FROM t1) THEN 'tail'
                   WHEN lm_avg_micro <= (SELECT a FROM t2)
                     THEN 'middle'
                   ELSE 'head' END AS bucket
              FROM s)
            SELECT doc_id, lm_avg_micro, bucket FROM lab
            WHERE CASE bucket
              WHEN 'head' THEN TRUE
              WHEN 'middle' THEN substr(md5(doc_id::VARCHAR || 's0'),
                                        1, 3) < '800'
              ELSE substr(md5(doc_id::VARCHAR || 's0'), 1, 3) < '19a'
              END""",
        "dup_ngram_flags": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            grams AS (SELECT doc_id,
                        array_to_string(list_slice(w, i, i+7), ' ') AS g
                      FROM toks, unnest(generate_series(1,
                        greatest(len(w)-7,0))) AS t(i)),
            gd AS (SELECT doc_id, g, count(*)::BIGINT AS cnt
                   FROM grams GROUP BY doc_id, g),
            nd AS (SELECT g, count(*)::BIGINT AS n_docs
                   FROM gd GROUP BY g)
            SELECT gd.doc_id, sum(cnt)::BIGINT AS n_windows,
                   sum(CASE WHEN n_docs > 1 THEN cnt ELSE 0
                       END)::BIGINT AS n_dup_windows
            FROM gd JOIN nd ON nd.g = gd.g
            GROUP BY gd.doc_id""",
        "dup_doc_filter": """
            WITH toks AS (SELECT doc_id, string_split(text,' ') AS w
                          FROM documents),
            grams AS (SELECT doc_id,
                        array_to_string(list_slice(w, i, i+7), ' ') AS g
                      FROM toks, unnest(generate_series(1,
                        greatest(len(w)-7,0))) AS t(i)),
            gd AS (SELECT doc_id, g, count(*)::BIGINT AS cnt
                   FROM grams GROUP BY doc_id, g),
            nd AS (SELECT g, count(*)::BIGINT AS n_docs
                   FROM gd GROUP BY g),
            f AS (SELECT gd.doc_id, sum(cnt)::BIGINT AS nw,
                         sum(CASE WHEN n_docs > 1 THEN cnt ELSE 0
                             END)::BIGINT AS nd
                  FROM gd JOIN nd ON nd.g = gd.g GROUP BY gd.doc_id)
            SELECT doc_id FROM f WHERE nd * 100 <= nw * 50
            UNION ALL
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM f)""",
        "token_count_bpe":
            "SELECT doc_id, len(regexp_extract_all(text, "
            "' ?[A-Za-z]+| ?[0-9]+| ?[^ A-Za-z0-9]+'))::BIGINT "
            "AS n_bpe_tokens FROM documents",
        "windowed_events":
            "SELECT event_type, "
            "strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS w, "
            "count(*)::BIGINT AS n FROM events GROUP BY event_type, w",
        "hopping_events":
            "SELECT event_type, "
            "strftime(time_bucket(INTERVAL 15 MINUTE, ts) "
            "- to_minutes(15*j), '%Y-%m-%d %H:%M:%S') AS w, "
            "count(*)::BIGINT AS n "
            "FROM events CROSS JOIN generate_series(0,3) s(j) "
            "GROUP BY event_type, w",
        "event_transitions": """
            SELECT prev_type, event_type, count(*)::BIGINT AS n
            FROM (SELECT lag(event_type) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id)
                    AS prev_type, event_type
                  FROM events) t
            WHERE prev_type IS NOT NULL
            GROUP BY prev_type, event_type""",
        "props_field_stats": """
            SELECT event_type,
                   sum(CASE WHEN regexp_matches(props,
                              '"k":\\s*(-?[0-9]+)')
                            THEN 1 ELSE 0 END)::BIGINT
                     AS n_with_field,
                   sum(CASE WHEN regexp_matches(props,
                              '"k":\\s*(-?[0-9]+)')
                            THEN regexp_extract(props,
                              '"k":\\s*(-?[0-9]+)', 1)::BIGINT
                            ELSE 0 END)::BIGINT AS field_sum
            FROM events GROUP BY event_type""",
        "heavy_hitters": """
            SELECT token, count(*)::BIGINT AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS token
                  FROM documents) t
            GROUP BY token HAVING count(*) >= 20""",
        "retention_cohorts": """
            WITH f AS (SELECT user_id,
                              min(date_trunc('day', ts)) AS d0
                       FROM events GROUP BY user_id),
            a AS (SELECT DISTINCT user_id,
                         date_trunc('day', ts) AS d FROM events)
            SELECT strftime(f.d0, '%Y-%m-%d') AS cohort,
                   date_diff('day', f.d0, a.d)::BIGINT AS day_offset,
                   count(*)::BIGINT AS n_users
            FROM a JOIN f ON f.user_id = a.user_id
            GROUP BY 1, 2""",
        "funnel_stages": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            v AS (SELECT user_id, min(ts) AS t FROM events
                  WHERE event_type = 'view' GROUP BY user_id),
            c AS (SELECT e.user_id, min(e.ts) AS t FROM events e
                  JOIN v ON v.user_id = e.user_id
                  WHERE e.event_type = 'click' AND e.ts > v.t
                  GROUP BY e.user_id),
            p AS (SELECT e.user_id, min(e.ts) AS t FROM events e
                  JOIN c ON c.user_id = e.user_id
                  WHERE e.event_type = 'purchase' AND e.ts > c.t
                  GROUP BY e.user_id)
            SELECT u.user_id,
              (CASE WHEN p.user_id IS NOT NULL THEN 3
                    WHEN c.user_id IS NOT NULL THEN 2
                    WHEN v.user_id IS NOT NULL THEN 1
                    ELSE 0 END)::BIGINT AS stage
            FROM u
            LEFT JOIN v ON v.user_id = u.user_id
            LEFT JOIN c ON c.user_id = u.user_id
            LEFT JOIN p ON p.user_id = u.user_id""",
        "sessionize": """
            SELECT user_id,
                   (1 + coalesce(sum(CASE WHEN gap_us > 30*60*1000000
                                          THEN 1 ELSE 0 END), 0))::BIGINT
                   AS n_sessions
            FROM (
              SELECT user_id,
                epoch_us(ts) - lag(epoch_us(ts)) OVER (
                  PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
              FROM events) t
            GROUP BY user_id""",
        "rolling_sums": """
            SELECT event_id, user_id,
                   CAST(SUM(CAST(round(value*100) AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                   AS BIGINT) AS roll_cents
            FROM events""",
        "lag_deltas": """
            SELECT * FROM (
              SELECT event_id, user_id,
                     CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id)
                     AS BIGINT) AS gap_us
              FROM events) t
            WHERE gap_us IS NOT NULL""",
        "ntile_events": """
            SELECT event_id, user_id,
                   CAST(ntile(4) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id)
                   AS BIGINT) AS tile
            FROM events""",
        # z derived from EXACT integer sums in the same IEEE order as
        # the numpy kernel (int64 difference cast to double, one sqrt,
        # one divide) — bit-exact micro-quantized parity
        "zscore_events": """
            WITH s AS (
              SELECT event_type, count(*)::BIGINT AS n,
                     SUM(CAST(round(value*100) AS BIGINT)) AS s1,
                     SUM(CAST(round(value*100) AS BIGINT)
                         * CAST(round(value*100) AS BIGINT)) AS s2
              FROM events GROUP BY event_type)
            SELECT e.event_id, e.event_type,
                   (CASE WHEN s.n <= 1 OR s.s2*s.n - s.s1*s.s1 <= 0
                    THEN 0 ELSE CAST(floor(
                      (CAST(round(e.value*100) AS BIGINT)*s.n - s.s1)
                      * 1000000.0
                      / (s.n * sqrt(CAST(s.s2*s.n - s.s1*s.s1
                                         AS DOUBLE)
                                    / (s.n * (s.n - 1.0))))
                      + 0.5) AS BIGINT) END)::BIGINT AS z_micro
            FROM events e JOIN s ON s.event_type = e.event_type""",
        "dense_rank_events": """
            SELECT event_id, user_id,
                   CAST(dense_rank() OVER (
                     PARTITION BY user_id
                     ORDER BY CAST(round(value*100) AS BIGINT))
                     AS BIGINT) AS dense_rank
            FROM events""",
        # gaps-and-islands: lag-delta window replayed in epoch micros;
        # 1800000000 us = the 30-minute session gap
        "active_spans": """
            WITH d AS (
              SELECT user_id,
                     epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id)
                       AS delta
              FROM events)
            SELECT user_id,
                   CAST(1 + COALESCE(SUM(CASE WHEN delta > 1800000000
                     THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_spans,
                   CAST(COALESCE(SUM(CASE WHEN delta <= 1800000000
                     THEN delta END), 0) AS BIGINT) AS active_us
            FROM d GROUP BY user_id""",
        # clamp bounds are quantile_disc (existing elements) and
        # unclamped values pass through untouched -> float-exact
        "winsorize_events": """
            WITH th AS (
              SELECT event_type,
                     quantile_disc(value, 0.05) AS lo,
                     quantile_disc(value, 0.95) AS hi
              FROM events GROUP BY event_type)
            SELECT e.event_id, e.event_type,
                   LEAST(GREATEST(e.value, th.lo), th.hi) AS w_value
            FROM events e JOIN th USING (event_type)""",
        # skyline via NOT EXISTS dominance; both engines compare in
        # integer cents so tie semantics agree
        "pareto_orders": """
            SELECT r.o_orderkey,
                   CAST(round(r.o_totalprice*100) AS BIGINT)
                     AS price_cents,
                   r.o_orderdate
            FROM orders r
            WHERE NOT EXISTS (
              SELECT 1 FROM orders s
              WHERE CAST(round(s.o_totalprice*100) AS BIGINT)
                      >= CAST(round(r.o_totalprice*100) AS BIGINT)
                AND s.o_orderdate <= r.o_orderdate
                AND (CAST(round(s.o_totalprice*100) AS BIGINT)
                       > CAST(round(r.o_totalprice*100) AS BIGINT)
                     OR s.o_orderdate < r.o_orderdate))""",
        # both passes are quantile_disc over integers -> exact parity
        "mad_by_type": """
            WITH med AS (
              SELECT event_type,
                     quantile_disc(CAST(round(value*100) AS BIGINT),
                                   0.5) AS m
              FROM events GROUP BY event_type)
            SELECT e.event_type,
                   quantile_disc(abs(CAST(round(e.value*100) AS BIGINT)
                                     - med.m), 0.5)::BIGINT AS mad_cents
            FROM events e JOIN med USING (event_type)
            GROUP BY e.event_type""",
        # exact mode, ties to the smallest value on both engines
        "mode_by_type": """
            WITH c AS (
              SELECT event_type,
                     CAST(round(value*100) AS BIGINT) AS cents,
                     count(*)::BIGINT AS n
              FROM events GROUP BY event_type, cents)
            SELECT event_type, cents AS mode_cents, n
            FROM c
            QUALIFY row_number() OVER (
              PARTITION BY event_type ORDER BY n DESC, cents) = 1""",
        # percent_rank() is (rank-1)/(n-1) in double — the same IEEE
        # divide the numpy kernel runs — then one multiply + floor, so
        # the micro values are bit-identical; single-row partitions
        # emit 0 on both sides
        "percent_rank_events": """
            SELECT event_id, user_id,
                   CAST(floor(percent_rank() OVER (
                     PARTITION BY user_id
                     ORDER BY CAST(round(value*100) AS BIGINT))
                     * 1000000.0 + 0.5) AS BIGINT) AS pr_micro
            FROM events""",
        "user_growth": """
            SELECT d, new_users,
                   CAST(SUM(new_users) OVER (ORDER BY d) AS BIGINT)
                     AS cum_users
            FROM (
              SELECT first_day AS d, count(*)::BIGINT AS new_users
              FROM (SELECT user_id, min(date_trunc('day', ts))
                      AS first_day
                    FROM events GROUP BY user_id)
              GROUP BY first_day)""",
        "distinct_users":
            "SELECT event_type, count(DISTINCT user_id)::BIGINT "
            "AS n_users FROM events GROUP BY event_type",
        "pivot_events": """
            SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   sum(CASE WHEN event_type='click' THEN 1 ELSE 0
                       END)::BIGINT AS n_click,
                   sum(CASE WHEN event_type='error' THEN 1 ELSE 0
                       END)::BIGINT AS n_error,
                   sum(CASE WHEN event_type='purchase' THEN 1 ELSE 0
                       END)::BIGINT AS n_purchase,
                   sum(CASE WHEN event_type='signup' THEN 1 ELSE 0
                       END)::BIGINT AS n_signup,
                   sum(CASE WHEN event_type='view' THEN 1 ELSE 0
                       END)::BIGINT AS n_view
            FROM events GROUP BY day""",
        "running_totals": """
            SELECT event_id, user_id,
                   CAST(SUM(CAST(round(value*100) AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id)
                   AS BIGINT) AS running_cents
            FROM events""",
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS
                     BIGINT)) AS BIGINT) AS sum_base_cents,
                   count(*)::BIGINT AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "order_line_join": """
            SELECT o.o_orderkey, o.o_custkey,
                   count(*)::BIGINT AS n_lines,
                   CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty
            FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderkey, o.o_custkey""",
        "supplier_shipments": """
            SELECT s.s_suppkey, s.s_name, count(*)::BIGINT AS n_lines,
                   CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty
            FROM lineitem l JOIN supplier s
              ON s.s_suppkey = l.l_suppkey
            GROUP BY s.s_suppkey, s.s_name""",
        "brand_volume": """
            SELECT p.p_brand, count(*)::BIGINT AS n_lines,
                   CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            GROUP BY p.p_brand""",
        "shipping_priority": """
            SELECT l_orderkey, o_orderdate, o_orderpriority,
                   revenue_cents
            FROM (
              SELECT l.l_orderkey, o.o_orderdate, o.o_orderpriority,
                     CAST(SUM(CAST(round(
                       l.l_extendedprice * (1 - l.l_discount) * 100)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
              FROM customer c
              JOIN orders o ON o.o_custkey = c.c_custkey
              JOIN lineitem l ON l.l_orderkey = o.o_orderkey
              WHERE c.c_mktsegment = 'BUILDING'
                AND o.o_orderdate < TIMESTAMP '1998-06-01'
                AND l.l_shipdate > TIMESTAMP '1998-06-01'
              GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority)
            ORDER BY revenue_cents DESC, l_orderkey LIMIT 10""",
        # same RE2 chain as URL_CANON_STEPS (curation.py) over the same
        # deterministic messy-url fixture — both engines are RE2, so
        # the rewrite is bit-exact
        "canonicalize_urls": _URL_CANON_SQL + """
            SELECT doc_id, canon_url FROM c""",
        "url_dedup": _URL_CANON_SQL + """
            SELECT min(doc_id) AS doc_id, canon_url FROM c
            GROUP BY canon_url""",
        "url_blocklist_filter": _URL_CANON_SQL + """
            SELECT doc_id, canon_url,
              regexp_extract(canon_url,
                             '^[a-z]+://([^/:?#]+)', 1) AS host
            FROM c
            WHERE NOT (
              regexp_extract(canon_url, '^[a-z]+://([^/:?#]+)', 1)
                = 'site1.example.com'
              OR regexp_extract(canon_url, '^[a-z]+://([^/:?#]+)', 1)
                LIKE '%.site1.example.com')""",
        # Simpson diversity stays in exact integer arithmetic on both
        # engines (no log anywhere); // is DuckDB integer floor division
        "token_diversity": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(string_split(text, ' ')) AS w
              FROM documents),
            tc AS (SELECT doc_id, w, count(*)::BIGINT AS c
                   FROM toks GROUP BY doc_id, w),
            agg AS (SELECT doc_id, SUM(c)::BIGINT AS n,
                           SUM(c*c)::BIGINT AS s2
                    FROM tc GROUP BY doc_id)
            SELECT doc_id, n AS n_tokens,
                   CAST((1000000 * (n*n - s2)) // (n*n) AS BIGINT)
                     AS simpson_micro
            FROM agg""",
        "normalize_text": r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(text), '\s+', ' ', 'g'))
                     AS norm
            FROM documents""",
        # sqrt is IEEE correctly-rounded, so floor(4096·sqrt(nmin/n))
        # is bit-identical across engines; md5 hex-prefix compare is
        # the sample_by_hash convention
        "temperature_sample": """
            WITH counts AS (
              SELECT lang, count(*) AS n FROM documents GROUP BY lang),
            mn AS (SELECT min(n) AS n_min FROM counts),
            th AS (
              SELECT lang,
                     CAST(floor(4096 * sqrt(
                       CAST(n_min AS DOUBLE) / CAST(n AS DOUBLE)))
                       AS BIGINT) AS t
              FROM counts, mn)
            SELECT d.doc_id, d.lang
            FROM documents d JOIN th USING (lang)
            WHERE th.t >= 4096
               OR substr(md5(CAST(d.doc_id AS VARCHAR) || 'ts'), 1, 3)
                  < printf('%03x', th.t)""",
        # h and the keep bound evaluate in the identical left-to-right
        # IEEE double order as the numpy kernel (w·k → /W → ·2^63), so
        # PPS membership is bit-exact; md5_number_upper & 63-bit mask
        # is the _did63 convention
        "pps_sample": """
            WITH w AS (SELECT CAST(SUM(n_chars) AS DOUBLE) AS total
                       FROM documents)
            SELECT doc_id, source, n_chars
            FROM documents, w
            WHERE CAST(md5_number_upper(
                    CAST(doc_id AS VARCHAR) || 'pps')
                    & 9223372036854775807 AS DOUBLE)
                < CAST(n_chars AS DOUBLE) * 100.0 / w.total
                  * 9223372036854775808.0""",
        # winner = min (did, idx, doc_id) per distinct line where
        # did = md5_number_upper & 63-bit mask, the same little-endian
        # md5-prefix the Ray side computes — no engine-order assumption
        "line_dedup": """
            WITH words AS (
              SELECT CAST(doc_id AS VARCHAR) AS doc_id,
                     unnest(string_split(text, ' ')) AS w,
                     generate_subscripts(string_split(text, ' '), 1) - 1
                       AS i
              FROM documents),
            lines AS (
              SELECT doc_id, i // 4 AS idx,
                     string_agg(w, ' ' ORDER BY i) AS line
              FROM words GROUP BY doc_id, i // 4),
            lines2 AS (
              SELECT doc_id, idx, line,
                     CAST(md5_number_upper(doc_id)
                          & 9223372036854775807 AS BIGINT) AS did
              FROM lines),
            winners AS (
              SELECT doc_id, idx FROM (
                SELECT doc_id, idx, line,
                       row_number() OVER (
                         PARTITION BY line
                         ORDER BY did, idx, doc_id) AS rn
                FROM lines2) t
              WHERE rn = 1 OR line = ''),
            kept AS (
              SELECT l.doc_id,
                     string_agg(l.line, chr(10) ORDER BY l.idx) AS text,
                     count(*) AS n_kept
              FROM lines2 l
              JOIN winners w ON l.doc_id = w.doc_id AND l.idx = w.idx
              GROUP BY l.doc_id),
            totals AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines
              FROM lines2 GROUP BY doc_id)
            SELECT t.doc_id, coalesce(k.text, '') AS text, t.n_lines,
                   CAST(coalesce(k.n_kept, 0) AS BIGINT) AS n_kept
            FROM totals t LEFT JOIN kept k USING (doc_id)""",
        "pricing_rollup": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS
                     BIGINT)) AS BIGINT) AS sum_base_cents,
                   count(*)::BIGINT AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)""",
        "pricing_cube": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS sum_qty,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS
                     BIGINT)) AS BIGINT) AS sum_base_cents,
                   count(*)::BIGINT AS n_rows
            FROM lineitem
            GROUP BY CUBE(l_returnflag, l_linestatus)""",
        "returned_item_report": """
            SELECT c_custkey, n_name, revenue_cents FROM (
              SELECT c.c_custkey, n.n_name,
                     CAST(SUM(CAST(round(
                       l.l_extendedprice * (1 - l.l_discount) * 100)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
              FROM customer c
              JOIN orders o ON o.o_custkey = c.c_custkey
              JOIN lineitem l ON l.l_orderkey = o.o_orderkey
              JOIN nation n ON n.n_nationkey = c.c_nationkey
              WHERE o.o_orderdate >= TIMESTAMP '1995-07-01'
                AND o.o_orderdate < TIMESTAMP '1995-10-01'
                AND l.l_returnflag = 'R'
              GROUP BY c.c_custkey, n.n_name)
            ORDER BY revenue_cents DESC, c_custkey LIMIT 20""",
        "local_supplier_volume": """
            SELECT n.n_name,
                   CAST(SUM(CAST(round(
                     l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM customer c
            JOIN orders o ON o.o_custkey = c.c_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            WHERE s.s_nationkey = c.c_nationkey
            GROUP BY n.n_name""",
        "order_line_left": """
            SELECT o.o_orderkey, o.o_custkey,
                   count(l.l_orderkey)::BIGINT AS n_lines,
                   CAST(COALESCE(SUM(CAST(l.l_quantity AS BIGINT)), 0)
                     AS BIGINT) AS sum_qty
            FROM orders o LEFT JOIN lineitem l
              ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderkey, o.o_custkey""",
        "small_quantity_revenue": """
            SELECT count(*)::BIGINT AS n_small_lines,
                   CAST(COALESCE(SUM(CAST(round(l.l_extendedprice * 100)
                     AS BIGINT)), 0) AS BIGINT) AS revenue_cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
                       AND p.p_brand = 'Brand#1'
            JOIN (SELECT l_partkey, count(*)::BIGINT AS n,
                         SUM(CAST(round(l_quantity * 100) AS BIGINT))
                           AS sq
                  FROM lineitem GROUP BY l_partkey) t
              ON t.l_partkey = l.l_partkey
            WHERE 5 * CAST(round(l.l_quantity * 100) AS BIGINT) * t.n
                  < t.sq""",
        "forecast_revenue": """
            SELECT CAST(COALESCE(SUM(
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * CAST(round(l_discount * 100) AS BIGINT)), 0)
                     AS BIGINT) AS revenue_micro,
                   count(*)::BIGINT AS n_lines
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '2000-01-01'
              AND l_shipdate < TIMESTAMP '2001-01-01'
              AND CAST(round(l_discount * 100) AS BIGINT)
                  BETWEEN 5 AND 7
              AND l_quantity < 24""",
        "promo_revenue": """
            SELECT CAST(COALESCE(SUM(CASE WHEN p.p_type = 'PROMO'
                     THEN r ELSE 0 END), 0) AS BIGINT) AS promo_cents,
                   CAST(COALESCE(SUM(r), 0) AS BIGINT) AS total_cents
            FROM (SELECT l_partkey,
                         CAST(round(l_extendedprice * (1 - l_discount)
                           * 100) AS BIGINT) AS r
                  FROM lineitem
                  WHERE l_shipdate >= TIMESTAMP '2000-09-01'
                    AND l_shipdate < TIMESTAMP '2000-10-01') l
            JOIN part p ON p.p_partkey = l.l_partkey""",
        "large_volume_orders": """
            SELECT o.o_orderkey, o.o_custkey, o.o_orderdate,
                   t.q AS total_qty
            FROM (SELECT l_orderkey,
                         SUM(CAST(l_quantity AS BIGINT))::BIGINT AS q
                  FROM lineitem GROUP BY 1
                  HAVING SUM(CAST(l_quantity AS BIGINT)) > 150) t
            JOIN orders o ON o.o_orderkey = t.l_orderkey""",
        "waiting_suppliers": """
            WITH per AS (
              SELECT l_orderkey, l_suppkey, max(l_shipdate) AS ms
              FROM lineitem GROUP BY 1, 2),
            ostat AS (
              SELECT l_orderkey, max(ms) AS m, count(*) AS ns
              FROM per GROUP BY 1)
            SELECT p.l_suppkey AS s_suppkey,
                   count(*)::BIGINT AS n_waiting
            FROM per p JOIN ostat o ON o.l_orderkey = p.l_orderkey
            WHERE o.ns >= 2 AND p.ms = o.m
              AND (SELECT count(*) FROM per p2
                   WHERE p2.l_orderkey = p.l_orderkey
                     AND p2.ms = o.m) = 1
            GROUP BY 1""",
        # Q12 shape: the late predicate and the high/low split run on
        # the joined row, grouping on the fact side
        "late_line_priority": """
            SELECT l_linestatus,
                   SUM(CASE WHEN o.o_orderpriority IN
                         ('1-URGENT', '2-HIGH') THEN 1 ELSE 0
                       END)::BIGINT AS high_line_count,
                   SUM(CASE WHEN o.o_orderpriority IN
                         ('1-URGENT', '2-HIGH') THEN 0 ELSE 1
                       END)::BIGINT AS low_line_count
            FROM lineitem l JOIN orders o
              ON l.l_orderkey = o.o_orderkey
            WHERE l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
            GROUP BY l_linestatus""",
        # latest row per key: max ts, ties to the largest event_id on
        # both engines
        "latest_events": """
            SELECT user_id, event_id, event_type,
                   CAST(round(value*100) AS BIGINT) AS cents
            FROM events
            QUALIFY row_number() OVER (
              PARTITION BY user_id
              ORDER BY ts DESC, event_id DESC) = 1""",
        # exact 2x2 chi-square in HUGEINT (matches the engine's Python
        # big-ints; HUGEINT headroom to ~sf1 — (ad-bc)^2*N*1e6 < 1.7e38)
        "vocab_divergence": """
            WITH toks AS (
              SELECT CASE WHEN CAST(substr(source, 4) AS INT) < 10
                          THEN 0 ELSE 1 END AS side,
                     unnest(string_split(text, ' ')) AS token
              FROM documents),
            g AS (SELECT token,
                         SUM(CASE WHEN side=0 THEN 1 ELSE 0
                             END)::HUGEINT AS a,
                         SUM(CASE WHEN side=1 THEN 1 ELSE 0
                             END)::HUGEINT AS b
                  FROM toks GROUP BY 1),
            tot AS (SELECT SUM(a) AS na, SUM(b) AS nb FROM g),
            x AS (SELECT token, a, b, na - a AS c, nb - b AS d
                  FROM g, tot)
            SELECT token,
                   CASE WHEN (a+b)=0 OR (c+d)=0 OR (a+c)=0 OR (b+d)=0
                        THEN 0
                        ELSE CAST(((a+b+c+d) * (a*d - b*c)
                                   * (a*d - b*c) * 1000000)
                             // ((a+b)*(c+d)*(a+c)*(b+d)) AS BIGINT)
                   END AS chi2_micro,
                   CAST(a AS BIGINT) AS n_a, CAST(b AS BIGINT) AS n_b
            FROM x
            ORDER BY chi2_micro DESC, token LIMIT 50""",
        # first-occurrence binning; integer-ceiling prefix thresholds
        "vocab_growth": """
            WITH n AS (SELECT count(*)::BIGINT AS n FROM documents),
            f AS (SELECT t, min(doc_id) AS fd FROM (
                    SELECT doc_id,
                           unnest(string_split(text, ' ')) AS t
                    FROM documents) GROUP BY 1)
            SELECT p.pct::BIGINT AS pct,
                   (SELECT count(*) FROM f, n
                    WHERE fd < (n.n * p.pct + 99) // 100)::BIGINT
                     AS n_distinct
            FROM (VALUES (1), (2), (5), (10), (25), (50), (100))
              AS p(pct)""",
        # rank-formula Gini; ties order-invariant, HUGEINT floor div
        "gini_by_source": """
            WITH x AS (SELECT source, n_chars,
                              row_number() OVER (
                                PARTITION BY source
                                ORDER BY n_chars, doc_id) AS i
                       FROM documents),
            s AS (SELECT source, count(*)::HUGEINT AS n,
                         SUM(n_chars)::HUGEINT AS sx,
                         SUM(i::HUGEINT * n_chars)::HUGEINT AS six
                  FROM x GROUP BY 1)
            SELECT source,
                   CAST((2*six - (n+1)*sx) * 1000000 // (n*sx)
                        AS BIGINT) AS gini_micro
            FROM s""",
        # ARI pinned as the integer-rational form (// floors match)
        "readability": """
            SELECT doc_id,
                   ((4710000 * CAST(n_chars AS BIGINT))
                      // len(string_split(text, ' '))
                    + (500000 * len(string_split(text, ' ')))
                      // greatest(length(text)
                                  - length(replace(text, '.', '')), 1)
                    - 21430000)::BIGINT AS ari_micro
            FROM documents""",
        # Borda blend: sum of three descending dense ranks, top-k
        "borda_blend": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS t
                         FROM documents),
            agg AS (SELECT doc_id, count(*) AS n_tok,
                           count(DISTINCT t) AS n_dist
                    FROM tok GROUP BY 1),
            r AS (SELECT d.doc_id,
                    dense_rank() OVER (ORDER BY d.n_chars DESC) +
                    dense_rank() OVER (ORDER BY a.n_tok DESC) +
                    dense_rank() OVER (ORDER BY a.n_dist DESC)
                      AS borda
                  FROM documents d JOIN agg a USING (doc_id))
            SELECT doc_id, borda::BIGINT AS borda
            FROM r ORDER BY borda, doc_id LIMIT 100""",
        # Herfindahl token concentration per source; HUGEINT SUM(n*n)
        # mirrors the Ray side's Python big-int squares, // the floor
        "hhi_by_source": """
            WITH t AS (SELECT source,
                              unnest(string_split(text, ' ')) AS tok
                       FROM documents),
            c AS (SELECT source, tok, count(*)::HUGEINT AS n
                  FROM t GROUP BY 1, 2)
            SELECT source, count(*)::BIGINT AS vocab,
                   CAST(SUM(n) AS BIGINT) AS n_tokens,
                   CAST((1000000 * SUM(n*n)) // (SUM(n)*SUM(n))
                        AS BIGINT) AS hhi_micro
            FROM c GROUP BY source ORDER BY source""",
        # QI classes with < l distinct sensitive (lang) values;
        # isodow(Monday=1) matches the Ray side's Thursday-anchor mod
        "l_diversity": """
            WITH c AS (SELECT source,
                              CAST(n_chars AS BIGINT) // 200
                                AS chars_bucket,
                              count(*)::BIGINT AS n_rows,
                              count(DISTINCT lang)::BIGINT AS n_langs
                       FROM documents GROUP BY 1, 2)
            SELECT source, chars_bucket, n_rows, n_langs FROM c
            WHERE n_langs < 3
            ORDER BY source, chars_bucket""",
        # per-session fact rows: break on 30-min gaps under the
        # (ts, event_id) order, 1-based per-user index
        "session_table": """
            WITH o AS (SELECT user_id, ts, event_id,
                              CASE WHEN lag(ts) OVER w IS NULL
                                   OR epoch_us(ts)
                                      - epoch_us(lag(ts) OVER w)
                                      > 1800000000
                                   THEN 1 ELSE 0 END AS brk
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id)),
            s AS (SELECT user_id, ts,
                         SUM(brk) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id
                                        ROWS UNBOUNDED PRECEDING)
                           AS session_idx
                  FROM o)
            SELECT user_id, session_idx::BIGINT AS session_idx,
                   epoch_us(min(ts))::BIGINT AS start_us,
                   epoch_us(max(ts))::BIGINT AS end_us,
                   count(*)::BIGINT AS n_events
            FROM s GROUP BY 1, 2""",
        # content-addressed A/B coin (md5_number_upper & 63-bit mask,
        # the _u63 convention) % 2; cents-per-user in floor micros
        "ab_test_summary": """
            WITH p AS (SELECT user_id,
                              CAST(round(value*100) AS BIGINT)
                                AS cents,
                              CAST(md5_number_upper(
                                     CAST(user_id AS VARCHAR) || 'ab')
                                   & 9223372036854775807 AS BIGINT)
                                % 2 AS variant
                       FROM events WHERE event_type = 'purchase')
            SELECT variant, count(DISTINCT user_id)::BIGINT AS n_users,
                   count(*)::BIGINT AS n_events,
                   SUM(cents)::BIGINT AS sum_cents,
                   ((1000000 * SUM(cents))
                    // count(DISTINCT user_id))::BIGINT
                     AS cents_per_user_micro
            FROM p GROUP BY variant ORDER BY variant""",
        # RFM base anchored to the corpus max purchase ts (whole-day
        # floor division, exact)
        "rfm_stats": """
            WITH p AS (SELECT user_id, ts,
                              CAST(round(value*100) AS BIGINT) AS cents
                       FROM events WHERE event_type = 'purchase'),
            a AS (SELECT max(ts) AS anchor FROM p)
            SELECT p.user_id,
                   ((epoch_us(a.anchor) - epoch_us(max(p.ts)))
                    // 86400000000)::BIGINT AS recency_days,
                   count(*)::BIGINT AS frequency,
                   SUM(p.cents)::BIGINT AS monetary_cents
            FROM p, a
            GROUP BY p.user_id, a.anchor""",
        # retention triangle carrying exact purchase cents; cohort =
        # first-seen day over ANY event type
        "ltv_cohorts": """
            WITH f AS (SELECT user_id,
                              min(CAST(ts AS DATE)) AS cohort_day
                       FROM events GROUP BY 1),
            d AS (SELECT e.user_id, CAST(e.ts AS DATE) AS day,
                         SUM(CASE WHEN e.event_type = 'purchase'
                                  THEN CAST(round(e.value*100)
                                            AS BIGINT)
                                  ELSE 0 END) AS cents
                  FROM events e GROUP BY 1, 2)
            SELECT strftime(f.cohort_day, '%Y-%m-%d') AS cohort,
                   (d.day - f.cohort_day)::BIGINT AS day_offset,
                   count(*)::BIGINT AS n_users,
                   SUM(d.cents)::BIGINT AS sum_cents
            FROM d JOIN f USING (user_id)
            GROUP BY 1, 2
            ORDER BY cohort, day_offset""",
        # first/last prior 'view' per 'purchase' under the exact
        # (ts, event_id) tie order; no-touch conversions drop
        "attribution_split": """
            WITH o AS (SELECT user_id, ts, event_id, event_type,
                              CAST(round(value*100) AS BIGINT)
                                AS cents,
                              row_number() OVER (
                                PARTITION BY user_id
                                ORDER BY ts, event_id) AS pos
                       FROM events),
            p AS (SELECT *,
                    max(CASE WHEN event_type = 'view'
                             THEN pos END) OVER w AS lpos,
                    min(CASE WHEN event_type = 'view'
                             THEN pos END) OVER w AS fpos
                  FROM o
                  WINDOW w AS (PARTITION BY user_id ORDER BY pos
                               ROWS UNBOUNDED PRECEDING))
            SELECT p.user_id, p.event_id AS convert_id,
                   f.event_id AS first_touch_id,
                   l.event_id AS last_touch_id, p.cents
            FROM p
            JOIN o f ON f.user_id = p.user_id AND f.pos = p.fpos
            JOIN o l ON l.user_id = p.user_id AND l.pos = p.lpos
            WHERE p.event_type = 'purchase'
              AND p.fpos IS NOT NULL""",
        "dow_profile": """
            SELECT event_type, isodow(ts)::BIGINT AS dow,
                   count(*)::BIGINT AS n,
                   SUM(CAST(round(value*100) AS BIGINT))::BIGINT
                     AS sum_cents
            FROM events GROUP BY 1, 2
            ORDER BY event_type, dow""",
        # QI equivalence classes below k: re-identifiable rows
        "k_anonymity": """
            SELECT lang, source,
                   CAST(n_chars AS BIGINT) // 200 AS chars_bucket,
                   count(*)::BIGINT AS n
            FROM documents
            GROUP BY 1, 2, 3
            HAVING count(*) < 5
            ORDER BY lang, source, chars_bucket""",
        # exact dispersion index over per-doc counts (zeros contribute
        # nothing to either sum); HUGEINT mirrors the Python big-ints
        "token_burstiness": """
            WITH toks AS (SELECT doc_id,
                                 unnest(string_split(text, ' ')) AS t
                          FROM documents),
            tf AS (SELECT doc_id, t, count(*)::HUGEINT AS c
                   FROM toks GROUP BY 1, 2),
            agg AS (SELECT t, SUM(c) AS s1, SUM(c*c) AS s2
                    FROM tf GROUP BY 1),
            n AS (SELECT count(*)::HUGEINT AS n FROM documents)
            SELECT t AS token,
                   CAST((n.n*s2 - s1*s1)*1000000 // (n.n*s1)
                        AS BIGINT) AS disp_micro,
                   CAST(s1 AS BIGINT) AS n_occ
            FROM agg, n
            ORDER BY disp_micro DESC, token LIMIT 50""",
        # top-k corpus bigrams; list_zip slices drop the row-boundary
        # pair exactly like the engine's offsets mask
        "top_bigrams": """
            WITH t AS (SELECT string_split(text, ' ') AS toks
                       FROM documents),
            b AS (SELECT unnest(list_zip(toks[1:-2], toks[2:-1]))
                    AS bg
                  FROM t)
            SELECT bg[1] || ' ' || bg[2] AS bigram,
                   count(*)::BIGINT AS n
            FROM b GROUP BY 1
            ORDER BY n DESC, bigram LIMIT 50""",
        # ordered event-type path per user; (ts, event_id) order makes
        # the string deterministic on both engines
        "user_paths": """
            SELECT user_id,
                   string_agg(event_type, '>'
                              ORDER BY ts, event_id) AS path
            FROM events GROUP BY 1""",
        # offline CUSUM changepoint per type over the daily cents
        # series: argmax_k |n*prefix_k - k*total|, ties -> earliest
        # day (DuckDB sums promote to HUGEINT, matching the Ray
        # finish's Python big-int walk)
        "cusum_changepoints": """
            WITH d AS (
              SELECT event_type, CAST(ts AS DATE) AS day,
                     SUM(CAST(round(value*100) AS BIGINT)) AS x
              FROM events GROUP BY 1, 2),
            p AS (
              SELECT event_type, day,
                     SUM(x) OVER (PARTITION BY event_type
                                  ORDER BY day) AS pre,
                     SUM(x) OVER (PARTITION BY event_type) AS tot,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY day) AS k,
                     count(*) OVER (PARTITION BY event_type) AS n
              FROM d)
            SELECT event_type, strftime(day, '%Y-%m-%d') AS cp_day,
                   CAST(abs(n*pre - k*tot) AS BIGINT) AS score
            FROM p
            QUALIFY row_number() OVER (
              PARTITION BY event_type
              ORDER BY abs(n*pre - k*tot) DESC, day) = 1""",
        # top-50 consecutive event-type trigrams per user stream;
        # lead() past the partition end is NULL and '||' propagates
        # it, so boundary pairs drop in the WHERE
        "top_event_trigrams": """
            SELECT trigram, count(*)::BIGINT AS n
            FROM (SELECT event_type || '>' ||
                         lead(event_type, 1) OVER w || '>' ||
                         lead(event_type, 2) OVER w AS trigram
                  FROM events
                  WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts, event_id)) t
            WHERE trigram IS NOT NULL
            GROUP BY trigram
            ORDER BY n DESC, trigram LIMIT 50""",
        # exactly-k smallest md5 keys, ties to the smaller doc_id
        "exact_k_sample": """
            SELECT doc_id FROM documents
            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
            LIMIT 100""",
        # exactly-k per group, same content-addressed key
        "stratified_k_sample": """
            SELECT doc_id, lang FROM documents
            QUALIFY row_number() OVER (
              PARTITION BY lang
              ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 20""",
        # first signup -> first purchase at-or-after it, per user
        "conversion_latency": """
            WITH s AS (SELECT user_id, min(ts) AS st FROM events
                       WHERE event_type = 'signup' GROUP BY 1),
            p AS (SELECT e.user_id, min(e.ts) AS pt
                  FROM events e JOIN s USING (user_id)
                  WHERE e.event_type = 'purchase' AND e.ts >= s.st
                  GROUP BY 1)
            SELECT s.user_id,
                   CAST(date_diff('microsecond', s.st, p.pt)
                        AS BIGINT) AS latency_us
            FROM s JOIN p USING (user_id)""",
        # per-type KS vs the rest of the corpus on the global grid
        "ks_by_type": """
            WITH c AS (SELECT event_type AS g,
                              CAST(round(value*100) AS BIGINT) AS v
                       FROM events),
            gcnt AS (SELECT g, v, count(*)::BIGINT AS n
                     FROM c GROUP BY 1, 2),
            tot AS (SELECT v, SUM(n)::BIGINT AS nt
                    FROM gcnt GROUP BY 1),
            grid AS (SELECT gg.g, t.v, t.nt
                     FROM (SELECT DISTINCT g FROM gcnt) gg
                     CROSS JOIN tot t),
            j AS (SELECT grid.g, grid.v,
                         COALESCE(gcnt.n, 0)::BIGINT AS n, grid.nt
                  FROM grid LEFT JOIN gcnt
                    ON gcnt.g = grid.g AND gcnt.v = grid.v),
            cum AS (SELECT g, v,
                           SUM(n) OVER (PARTITION BY g
                                        ORDER BY v) AS fg,
                           SUM(nt - n) OVER (PARTITION BY g
                                             ORDER BY v) AS fr
                    FROM j),
            sz AS (SELECT g, SUM(n)::HUGEINT AS ng,
                          SUM(nt - n)::HUGEINT AS nr
                   FROM j GROUP BY 1)
            SELECT cum.g AS event_type,
                   CAST(max(abs(fg::HUGEINT * nr - fr::HUGEINT * ng))
                        * 1000000 // (ng * nr) AS BIGINT) AS d_micro
            FROM cum JOIN sz USING (g)
            GROUP BY cum.g, ng, nr""",
        # exact two-sample KS drift statistic in integer micros —
        # HUGEINT cross-multiplication mirrors the Python big-ints
        "ks_drift": """
            WITH c AS (SELECT CAST(round(value*100) AS BIGINT) AS v,
                              user_id % 2 AS side
                       FROM events),
            g AS (SELECT v,
                         SUM(CASE WHEN side=0 THEN 1 ELSE 0
                             END)::BIGINT AS ca,
                         SUM(CASE WHEN side=1 THEN 1 ELSE 0
                             END)::BIGINT AS cb
                  FROM c GROUP BY 1),
            cum AS (SELECT SUM(ca) OVER (ORDER BY v) AS fa,
                           SUM(cb) OVER (ORDER BY v) AS fb
                    FROM g),
            tot AS (SELECT SUM(ca) AS na, SUM(cb) AS nb FROM g)
            SELECT CAST((SELECT max(abs(fa*nb - fb*na))
                         FROM cum, tot) * 1000000
                        // (SELECT na*nb FROM tot) AS BIGINT)
              AS d_micro""",
        # robust (median/MAD) outlier screen: all-integer comparison,
        # exact on both engines — no sd, no divide
        # six FK edges; orphan counts by NOT IN over parent keys
        "ref_integrity": """
            SELECT 'orders->customer' AS relationship,
                   (SELECT count(*) FROM orders)::BIGINT AS n_rows,
                   (SELECT count(*) FROM orders WHERE o_custkey NOT IN
                      (SELECT c_custkey FROM customer))::BIGINT
                     AS n_orphans
            UNION ALL SELECT 'lineitem->orders',
                   (SELECT count(*) FROM lineitem)::BIGINT,
                   (SELECT count(*) FROM lineitem
                    WHERE l_orderkey NOT IN
                      (SELECT o_orderkey FROM orders))::BIGINT
            UNION ALL SELECT 'lineitem->part',
                   (SELECT count(*) FROM lineitem)::BIGINT,
                   (SELECT count(*) FROM lineitem
                    WHERE l_partkey NOT IN
                      (SELECT p_partkey FROM part))::BIGINT
            UNION ALL SELECT 'lineitem->supplier',
                   (SELECT count(*) FROM lineitem)::BIGINT,
                   (SELECT count(*) FROM lineitem
                    WHERE l_suppkey NOT IN
                      (SELECT s_suppkey FROM supplier))::BIGINT
            UNION ALL SELECT 'customer->nation',
                   (SELECT count(*) FROM customer)::BIGINT,
                   (SELECT count(*) FROM customer
                    WHERE c_nationkey NOT IN
                      (SELECT n_nationkey FROM nation))::BIGINT
            UNION ALL SELECT 'supplier->nation',
                   (SELECT count(*) FROM supplier)::BIGINT,
                   (SELECT count(*) FROM supplier
                    WHERE s_nationkey NOT IN
                      (SELECT n_nationkey FROM nation))::BIGINT""",
        # daily-count spike screen: |n - median| > 3*MAD per type,
        # both statistics exact quantile_disc over the daily table
        "volume_spikes": """
            WITH d AS (SELECT event_type, CAST(ts AS DATE) AS day,
                              count(*)::BIGINT AS n
                       FROM events GROUP BY 1, 2),
            s AS (SELECT event_type, quantile_disc(n, 0.5) AS med
                  FROM d GROUP BY 1),
            dev AS (SELECT d.event_type, d.day, d.n,
                           abs(d.n - s.med)::BIGINT AS dev_n
                    FROM d JOIN s USING (event_type)),
            m AS (SELECT event_type, quantile_disc(dev_n, 0.5) AS mad
                  FROM dev GROUP BY 1)
            SELECT dev.event_type, strftime(dev.day, '%Y-%m-%d')
                     AS day, dev.n, dev.dev_n
            FROM dev JOIN m USING (event_type)
            WHERE dev.dev_n > 3 * m.mad
            ORDER BY event_type, day""",
        "robust_outliers": """
            WITH c AS (SELECT event_id,
                              event_type,
                              CAST(round(value*100) AS BIGINT) AS cents
                       FROM events),
            med AS (SELECT event_type,
                           quantile_disc(cents, 0.5) AS m
                    FROM c GROUP BY 1),
            dev AS (SELECT c.event_id, c.event_type, c.cents,
                           abs(c.cents - med.m) AS dev_cents
                    FROM c JOIN med USING (event_type)),
            mad AS (SELECT event_type,
                           quantile_disc(dev_cents, 0.5) AS mad
                    FROM dev GROUP BY 1)
            SELECT d.event_id, d.event_type, d.cents, d.dev_cents
            FROM dev d JOIN mad USING (event_type)
            WHERE d.dev_cents > 3 * mad.mad""",
        # missing-id ranges between observed min and max
        "id_gaps": """
            WITH k AS (SELECT DISTINCT l_orderkey AS v FROM lineitem),
            l AS (SELECT v, lead(v) OVER (ORDER BY v) AS nxt FROM k)
            SELECT v + 1 AS gap_start, nxt - 1 AS gap_end
            FROM l WHERE nxt > v + 1""",
        # Q16 shape: distinct suppliers per (brand, type)
        "brand_supplier_counts": """
            SELECT p_brand, p_type,
                   count(DISTINCT l_suppkey)::BIGINT AS n_supp
            FROM lineitem JOIN part ON p_partkey = l_partkey
            GROUP BY 1, 2""",
        # Q2 shape: per-part min-cost supplier, ties to smallest supp
        "cheapest_supplier": """
            WITH ps AS (SELECT l_partkey, l_suppkey,
                               SUM(CAST(round(l_extendedprice*100) AS
                                   BIGINT))::BIGINT AS cost_cents
                        FROM lineitem GROUP BY 1, 2)
            SELECT l_partkey, l_suppkey, cost_cents FROM ps
            QUALIFY row_number() OVER (
              PARTITION BY l_partkey
              ORDER BY cost_cents, l_suppkey) = 1""",
        # cross-source contamination: distinct sorted word-SET
        # fingerprints shared between source pairs
        "source_overlap": """
            WITH fp AS (
              SELECT DISTINCT
                md5(list_aggregate(list_sort(list_distinct(
                    string_split(text, ' '))), 'string_agg', ' '))
                  AS fp,
                source
              FROM documents)
            SELECT a.source AS source_a, b.source AS source_b,
                   count(*)::BIGINT AS n_shared
            FROM fp a JOIN fp b USING (fp)
            WHERE a.source < b.source
            GROUP BY 1, 2""",
        # Q11 shape: parts whose revenue exceeds 1 basis point of the
        # global total — strict integer threshold, rev > total // 1e4
        "important_parts": """
            WITH pp AS (SELECT l_partkey,
                               SUM(CAST(round(l_extendedprice*100) AS
                                   BIGINT))::BIGINT AS rev_cents
                        FROM lineitem GROUP BY 1)
            SELECT l_partkey, rev_cents FROM pp
            WHERE rev_cents > (SELECT SUM(rev_cents) FROM pp) // 10000""",
        # distinct-user co-occurrence of unordered type pairs
        "event_cooccurrence": """
            WITH ut AS (SELECT DISTINCT user_id, event_type
                        FROM events)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   count(*)::BIGINT AS n_users
            FROM ut a JOIN ut b USING (user_id)
            WHERE a.event_type < b.event_type
            GROUP BY 1, 2""",
        "order_priority_check": """
            SELECT o_orderpriority, count(*)::BIGINT AS n_orders
            FROM orders o
            WHERE o.o_orderdate >= TIMESTAMP '1998-01-01'
              AND o.o_orderdate < TIMESTAMP '1998-04-01'
              AND EXISTS (
                SELECT 1 FROM lineitem l
                WHERE l.l_orderkey = o.o_orderkey
                  AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY)
            GROUP BY 1""",
        "brand_size_revenue": """
            SELECT count(*)::BIGINT AS n_lines,
                   CAST(COALESCE(SUM(CAST(round(
                     l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)), 0) AS BIGINT) AS revenue_cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            WHERE (p.p_brand = 'Brand#1' AND p.p_size BETWEEN 1 AND 10
                   AND l.l_quantity BETWEEN 1 AND 11)
               OR (p.p_brand = 'Brand#2' AND p.p_size BETWEEN 11 AND 20
                   AND l.l_quantity BETWEEN 10 AND 20)
               OR (p.p_brand = 'Brand#3' AND p.p_size BETWEEN 21 AND 30
                   AND l.l_quantity BETWEEN 20 AND 30)""",
        "volume_shipping": """
            SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                   EXTRACT(year FROM l.l_shipdate)::BIGINT AS l_year,
                   CAST(SUM(CAST(round(
                     l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation sn ON sn.n_nationkey = s.s_nationkey
            JOIN nation cn ON cn.n_nationkey = c.c_nationkey
            WHERE s.s_nationkey <> c.c_nationkey
            GROUP BY 1, 2, 3""",
        "market_share": """
            SELECT EXTRACT(year FROM o.o_orderdate)::BIGINT AS o_year,
                   CAST(SUM(CASE WHEN s.s_nationkey = 19 THEN r
                     ELSE 0 END) AS BIGINT) AS nation_cents,
                   CAST(SUM(r) AS BIGINT) AS total_cents
            FROM (SELECT l_orderkey, l_suppkey, l_partkey,
                         CAST(round(l_extendedprice * (1 - l_discount)
                           * 100) AS BIGINT) AS r
                  FROM lineitem) l
            JOIN part p ON p.p_partkey = l.l_partkey
                       AND p.p_type = 'ECONOMY'
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation cn ON cn.n_nationkey = c.c_nationkey
            WHERE cn.n_regionkey = 2
            GROUP BY 1""",
        "customer_order_counts": """
            SELECT c_count, count(*)::BIGINT AS custdist FROM (
              SELECT c.c_custkey,
                     count(o.o_orderkey)::BIGINT AS c_count
              FROM customer c LEFT JOIN orders o
                ON o.o_custkey = c.c_custkey
              GROUP BY 1)
            GROUP BY 1""",
        "nation_profit": """
            SELECT n.n_name,
                   EXTRACT(year FROM o.o_orderdate)::BIGINT AS o_year,
                   CAST(SUM(
                     CAST(round(l.l_extendedprice * (1 - l.l_discount)
                       * 100) AS BIGINT)
                     - CAST(round(p.p_retailprice * 100) AS BIGINT)
                       * CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                     AS profit_cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            WHERE p.p_name LIKE '%widget%'
            GROUP BY n.n_name, o_year""",
        "promo_part_suppliers": """
            SELECT t.l_suppkey AS s_suppkey, n.n_name, t.sum_qty
            FROM (SELECT l.l_suppkey,
                         CAST(SUM(CAST(l.l_quantity AS BIGINT))
                           AS BIGINT) AS sum_qty
                  FROM lineitem l
                  JOIN part p ON p.p_partkey = l.l_partkey
                  WHERE p.p_name LIKE 'small%'
                    AND l.l_shipdate >= TIMESTAMP '2000-01-01'
                    AND l.l_shipdate < TIMESTAMP '2001-01-01'
                  GROUP BY l.l_suppkey
                  HAVING SUM(CAST(l.l_quantity AS BIGINT)) > 50) t
            JOIN supplier s ON s.s_suppkey = t.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey""",
        "top_supplier": """
            WITH r AS (
              SELECT l_suppkey AS s_suppkey,
                     CAST(SUM(CAST(round(
                       l_extendedprice * (1 - l_discount) * 100)
                       AS BIGINT)) AS BIGINT) AS total_revenue_cents
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1999-01-01'
                AND l_shipdate < TIMESTAMP '1999-04-01'
              GROUP BY 1)
            SELECT s_suppkey, total_revenue_cents FROM r
            WHERE total_revenue_cents =
              (SELECT max(total_revenue_cents) FROM r)""",
        "idle_rich_customers": """
            WITH t AS (
              SELECT SUM(CAST(round(c_acctbal * 100) AS BIGINT)) AS s,
                     count(*)::BIGINT AS n
              FROM customer WHERE c_acctbal > 0.0)
            SELECT c_mktsegment, count(*)::BIGINT AS n_cust,
                   CAST(SUM(CAST(round(c_acctbal * 100) AS BIGINT))
                     AS BIGINT) AS sum_acctbal_cents
            FROM customer c, t
            WHERE CAST(round(c_acctbal * 100) AS BIGINT) * t.n > t.s
              AND NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderdate >= TIMESTAMP '2000-07-01')
            GROUP BY 1""",
        "order_line_full": """
            SELECT COALESCE(o.o_orderkey, l.l_orderkey) AS o_orderkey,
                   COALESCE(o.o_custkey, -1)::BIGINT AS o_custkey,
                   count(l.l_orderkey)::BIGINT AS n_lines,
                   CAST(COALESCE(SUM(CAST(l.l_quantity AS BIGINT)), 0)
                     AS BIGINT) AS sum_qty
            FROM orders o FULL JOIN lineitem l
              ON l.l_orderkey = o.o_orderkey
            GROUP BY 1, 2""",
        # exact HUGEINT moment sums mirror the Ray side's limb-encoded
        # big-int partials; the final expression is the identical IEEE
        # order (int → double casts, one multiply, one sqrt, one
        # divide, one floor), so corr_micro is bit-equal
        "price_qty_corr": """
            WITH s AS (
              SELECT l_returnflag, count(*)::BIGINT AS n,
                     SUM(CAST(round(l_quantity*100) AS BIGINT)) AS sx,
                     SUM(CAST(round(l_extendedprice*100) AS BIGINT))
                       AS sy,
                     SUM(CAST(round(l_quantity*100) AS BIGINT)
                         * CAST(round(l_quantity*100) AS BIGINT))
                       AS sxx,
                     SUM(CAST(round(l_extendedprice*100) AS BIGINT)
                         * CAST(round(l_extendedprice*100) AS BIGINT))
                       AS syy,
                     SUM(CAST(round(l_quantity*100) AS BIGINT)
                         * CAST(round(l_extendedprice*100) AS BIGINT))
                       AS sxy
              FROM lineitem GROUP BY l_returnflag)
            SELECT l_returnflag, n,
                   CASE WHEN n > 1 AND n*sxx - sx*sx > 0
                             AND n*syy - sy*sy > 0
                        THEN CAST(floor(
                          CAST(n*sxy - sx*sy AS DOUBLE) * 1000000.0
                          / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                                 * CAST(n*syy - sy*sy AS DOUBLE))
                          + 0.5) AS BIGINT)
                        ELSE 0 END AS corr_micro
            FROM s""",
        "profile_columns": """
            SELECT col AS "column", count(*)::BIGINT AS n_rows,
                   0::BIGINT AS n_null,
                   min(v) AS min_v, max(v) AS max_v
            FROM (
              SELECT 'l_quantity' AS col, l_quantity AS v FROM lineitem
              UNION ALL SELECT 'l_extendedprice', l_extendedprice
                FROM lineitem
              UNION ALL SELECT 'l_discount', l_discount FROM lineitem
              UNION ALL SELECT 'l_tax', l_tax FROM lineitem)
            GROUP BY col""",
        "region_customers": """
            SELECT r.r_name, count(*)::BIGINT AS n_customers
            FROM customer c
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY r.r_name""",
        "customers_with_orders": """
            SELECT c_custkey, c_name FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey)""",
        "customers_without_f_orders": """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderstatus = 'F')""",
        "group_quantiles": """
            SELECT event_type,
                   quantile_disc(value, 0.5) AS q50,
                   quantile_disc(value, 0.95) AS q95
            FROM events GROUP BY event_type""",
        "global_quantiles": """
            SELECT CAST(250 AS BIGINT) AS q_permille,
                   quantile_disc(value, 0.25) AS value FROM events
            UNION ALL SELECT 500, quantile_disc(value, 0.5) FROM events
            UNION ALL SELECT 900, quantile_disc(value, 0.9) FROM events
            UNION ALL SELECT 990, quantile_disc(value, 0.99)
              FROM events""",
        "outlier_events": """
            SELECT e.event_id, e.event_type, e.value
            FROM events e
            JOIN (SELECT event_type,
                         quantile_disc(value, 0.95) AS p
                  FROM events GROUP BY event_type) t
              USING (event_type)
            WHERE e.value > t.p""",
        "sample_stratified": """
            SELECT lang, doc_id FROM (
              SELECT lang, doc_id, row_number() OVER (
                PARTITION BY lang
                ORDER BY md5(doc_id::VARCHAR), doc_id) AS rn
              FROM documents) t WHERE rn <= 3""",
        "epoch_shuffle": """
            SELECT doc_id,
                   (('0x' || substr(h, 1, 4))::INTEGER % 64)::BIGINT
                     AS shard,
                   row_number() OVER (
                     PARTITION BY ('0x' || substr(h, 1, 4))::INTEGER % 64
                     ORDER BY h, doc_id)::BIGINT AS pos
            FROM (SELECT doc_id,
                         md5(doc_id::VARCHAR || ':e1') AS h
                  FROM documents) t""",
        "source_quota_sample": """
            SELECT doc_id, source FROM (
              SELECT doc_id, source, row_number() OVER (
                PARTITION BY source ORDER BY doc_id) AS rn
              FROM documents) t WHERE rn <= 10""",
        "charclass_stats": """
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars_c,
                   len(regexp_extract_all(text, '[a-z]'))::BIGINT
                     AS n_lower,
                   len(regexp_extract_all(text, '[A-Z]'))::BIGINT
                     AS n_upper,
                   len(regexp_extract_all(text, '[0-9]'))::BIGINT
                     AS n_digit,
                   len(regexp_extract_all(text, '\\s'))::BIGINT
                     AS n_space,
                   (length(text) - len(regexp_extract_all(text, '[a-z]'))
                    - len(regexp_extract_all(text, '[A-Z]'))
                    - len(regexp_extract_all(text, '[0-9]'))
                    - len(regexp_extract_all(text, '\\s')))::BIGINT
                     AS n_other
            FROM documents""",
        "dup_rate_by_source": """
            SELECT source, count(*)::BIGINT AS n_docs,
                   count(DISTINCT text)::BIGINT AS n_distinct
            FROM documents GROUP BY source""",
        "token_budget_sample": """
            SELECT doc_id, source, n_tokens FROM (
              SELECT doc_id, source, n_tokens,
                     SUM(n_tokens) OVER (
                       PARTITION BY source
                       ORDER BY n_tokens DESC, doc_id
                       ROWS UNBOUNDED PRECEDING) AS cum
              FROM (SELECT doc_id, source,
                           len(string_split(text, ' '))::BIGINT
                             AS n_tokens
                    FROM documents) t) w
            WHERE cum <= 500""",
        "asof_join": """
            SELECT event_id, user_id, o_orderkey FROM (
              SELECT e.event_id, e.user_id, o.o_orderkey,
                row_number() OVER (PARTITION BY e.event_id
                  ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e JOIN orders o
                ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            ) t WHERE rn = 1""",
        # Z-order: the 32-term bit-interleave is generated to match
        # zorder_stats' vectorized loop term for term; the bucket
        # shift adapts to the occupied key width (floor(log2(max))+1
        # = bit_length for positive ints, exact at powers of two)
        "zorder_stats": f"""
            WITH w AS (
              SELECT greatest(
                CAST(floor(log2(max(l_partkey))) AS BIGINT) + 1,
                CAST(floor(log2(max(l_suppkey))) AS BIGINT) + 1)
                AS wd
              FROM lineitem),
            z AS (
              SELECT ({" | ".join(
                  f"(((l_partkey >> {i}) & 1) << {2 * i + 1}) | "
                  f"(((l_suppkey >> {i}) & 1) << {2 * i})"
                  for i in range(16))})
                     >> greatest(2 * (SELECT wd FROM w) - 8, 0)
                     AS zbucket,
                     l_partkey, l_suppkey
              FROM lineitem)
            SELECT zbucket::BIGINT AS zbucket,
                   count(*)::BIGINT AS n_rows,
                   min(l_partkey)::BIGINT AS a_min,
                   max(l_partkey)::BIGINT AS a_max,
                   min(l_suppkey)::BIGINT AS b_min,
                   max(l_suppkey)::BIGINT AS b_max
            FROM z GROUP BY zbucket""",
        "association_rules": """
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
            nn AS (SELECT count(DISTINCT l_orderkey) AS n
                   FROM lineitem),
            ps AS (SELECT l_partkey AS part, count(*) AS n_part
                   FROM op GROUP BY 1),
            pair AS (SELECT a.l_partkey AS ante, b.l_partkey AS cons,
                            count(*) AS n_ab
                     FROM op a JOIN op b
                       ON a.l_orderkey = b.l_orderkey
                      AND a.l_partkey <> b.l_partkey
                     GROUP BY 1, 2
                     HAVING count(*) >= 2)
            SELECT p.ante::BIGINT AS ante, p.cons::BIGINT AS cons,
                   p.n_ab::BIGINT AS n_ab,
                   sa.n_part::BIGINT AS n_ante,
                   (1000000 * p.n_ab // sa.n_part)::BIGINT
                     AS conf_micro,
                   (1000000 * p.n_ab * (SELECT n FROM nn)
                    // (sa.n_part * sb.n_part))::BIGINT AS lift_micro
            FROM pair p
            JOIN ps sa ON sa.part = p.ante
            JOIN ps sb ON sb.part = p.cons""",
        # multi-source BFS: bounded recursive CTE; the UNION-distinct
        # row set is (node, dist) pairs, min(dist) per node afterwards;
        # both sides truncate at the same max_hops=32
        "part_distances": """
            WITH RECURSIVE
            op AS (SELECT DISTINCT l_orderkey, l_partkey
                   FROM lineitem),
            e0 AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                          count(*) AS n
                   FROM op a JOIN op b
                     ON a.l_orderkey = b.l_orderkey
                    AND a.l_partkey <> b.l_partkey
                   GROUP BY 1, 2),
            e AS (SELECT p1, p2 FROM e0 WHERE n >= 2),
            seeds AS (SELECT DISTINCT p1 AS node FROM e
                      WHERE p1 % 53 = 0),
            walk(node, dist) AS (
              SELECT node, 0 FROM seeds
              UNION
              SELECT e.p2, w.dist + 1 FROM walk w
              JOIN e ON e.p1 = w.node
              WHERE w.dist < 32)
            SELECT node::BIGINT AS node, min(dist)::BIGINT AS dist
            FROM walk GROUP BY node""",
        "graph_degrees": """
            WITH e AS (SELECT l_partkey * 2 AS src,
                              l_suppkey * 2 + 1 AS dst,
                              count(*)::BIGINT AS w
                       FROM lineitem GROUP BY 1, 2),
            n AS (SELECT src AS node, w AS o, 0::BIGINT AS i FROM e
                  UNION ALL SELECT dst, 0::BIGINT, w FROM e)
            SELECT node::BIGINT AS node, SUM(o)::BIGINT AS out_deg,
                   SUM(i)::BIGINT AS in_deg
            FROM n GROUP BY node""",
        "butterfly_count": """
            WITH e AS (SELECT DISTINCT l_partkey * 2 AS p,
                                       l_suppkey * 2 + 1 AS s
                       FROM lineitem),
            pairs AS (SELECT e1.s AS lo, e2.s AS hi,
                             count(*)::BIGINT AS c
                      FROM e e1 JOIN e e2
                        ON e1.p = e2.p AND e1.s < e2.s
                      GROUP BY 1, 2)
            SELECT CAST(COALESCE(SUM(c * (c - 1) / 2), 0) AS BIGINT)
                     AS butterflies,
                   CAST(COALESCE(SUM(c), 0) AS BIGINT) AS wedges
            FROM pairs""",
        "copurchase_edges": """
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem)
            SELECT a.l_partkey::BIGINT AS p1,
                   b.l_partkey::BIGINT AS p2,
                   count(*)::BIGINT AS n_orders
            FROM op a JOIN op b
              ON a.l_orderkey = b.l_orderkey
             AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2""",
        "part_triangles": """
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
            e AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
                  FROM op a JOIN op b
                    ON a.l_orderkey = b.l_orderkey
                   AND a.l_partkey < b.l_partkey
                  GROUP BY 1, 2),
            tri AS (SELECT e1.p1 AS x, e1.p2 AS y, e2.p2 AS z
                    FROM e e1
                    JOIN e e2 ON e2.p1 = e1.p2
                    JOIN e e3 ON e3.p1 = e1.p1 AND e3.p2 = e2.p2),
            tn AS (SELECT node, count(*)::BIGINT AS tri
                   FROM (SELECT x AS node FROM tri
                         UNION ALL SELECT y FROM tri
                         UNION ALL SELECT z FROM tri)
                   GROUP BY node),
            deg AS (SELECT node, count(*)::BIGINT AS deg
                    FROM (SELECT p1 AS node FROM e
                          UNION ALL SELECT p2 FROM e)
                    GROUP BY node)
            SELECT deg.node::BIGINT AS node, deg.deg,
                   COALESCE(tn.tri, 0)::BIGINT AS tri
            FROM deg LEFT JOIN tn USING (node)""",
        "graph_walks": """
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
            e AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
                  FROM op a JOIN op b
                    ON a.l_orderkey = b.l_orderkey
                   AND a.l_partkey < b.l_partkey
                  GROUP BY 1, 2),
            adj AS (SELECT p1 AS node, p2 AS nbr FROM e
                    UNION ALL SELECT p2, p1 FROM e),
            adjo AS (SELECT node, nbr,
                            ROW_NUMBER() OVER (PARTITION BY node
                                               ORDER BY nbr) - 1 AS idx,
                            COUNT(*) OVER (PARTITION BY node) AS deg
                     FROM adj),
            w0 AS (SELECT DISTINCT node AS start, node AS cur FROM adj),
            w1 AS (SELECT w.start, a.nbr AS cur
                   FROM w0 w JOIN adjo a ON a.node = w.cur
                    AND a.idx = CAST(md5_number_upper(
                          CAST(w.start AS VARCHAR) || ':' ||
                          CAST(w.cur AS VARCHAR) || ':0:walk')
                          & 9223372036854775807 AS BIGINT) % a.deg),
            w2 AS (SELECT w.start, a.nbr AS cur
                   FROM w1 w JOIN adjo a ON a.node = w.cur
                    AND a.idx = CAST(md5_number_upper(
                          CAST(w.start AS VARCHAR) || ':' ||
                          CAST(w.cur AS VARCHAR) || ':1:walk')
                          & 9223372036854775807 AS BIGINT) % a.deg),
            w3 AS (SELECT w.start, a.nbr AS cur
                   FROM w2 w JOIN adjo a ON a.node = w.cur
                    AND a.idx = CAST(md5_number_upper(
                          CAST(w.start AS VARCHAR) || ':' ||
                          CAST(w.cur AS VARCHAR) || ':2:walk')
                          & 9223372036854775807 AS BIGINT) % a.deg)
            SELECT start::BIGINT AS start, 0::BIGINT AS step,
                   cur::BIGINT AS node FROM w0
            UNION ALL SELECT start, 1, cur FROM w1
            UNION ALL SELECT start, 2, cur FROM w2
            UNION ALL SELECT start, 3, cur FROM w3""",
        "part_assortativity": """
            WITH op AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
            e AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
                  FROM op a JOIN op b
                    ON a.l_orderkey = b.l_orderkey
                   AND a.l_partkey < b.l_partkey
                  GROUP BY 1, 2),
            deg AS (SELECT node, count(*)::BIGINT AS deg
                    FROM (SELECT p1 AS node FROM e
                          UNION ALL SELECT p2 FROM e)
                    GROUP BY node),
            de AS (SELECT d1.deg AS x, d2.deg AS y
                   FROM e JOIN deg d1 ON d1.node = e.p1
                          JOIN deg d2 ON d2.node = e.p2
                   UNION ALL
                   SELECT d2.deg, d1.deg
                   FROM e JOIN deg d1 ON d1.node = e.p1
                          JOIN deg d2 ON d2.node = e.p2),
            s AS (SELECT count(*)::BIGINT AS n, SUM(x) AS sx,
                         SUM(y) AS sy, SUM(x*x) AS sxx,
                         SUM(y*y) AS syy, SUM(x*y) AS sxy
                  FROM de)
            SELECT n AS n_pairs,
                   CASE WHEN n > 1 AND n*sxx - sx*sx > 0
                             AND n*syy - sy*sy > 0
                        THEN CAST(floor(
                          CAST(n*sxy - sx*sy AS DOUBLE) * 1000000.0
                          / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                                 * CAST(n*syy - sy*sy AS DOUBLE))
                          + 0.5) AS BIGINT)
                        ELSE 0 END AS assortativity_micro
            FROM s""",
        "join_pps_sample": """
            WITH j AS (
              SELECT l.l_orderkey, l.l_linenumber,
                     CAST(round(l.l_extendedprice * (1 - l.l_discount)
                       * 100) AS BIGINT) AS rev_cents,
                     (6 - CAST(substr(o.o_orderpriority, 1, 1)
                       AS BIGINT)) AS prio_mult
              FROM lineitem l
              JOIN orders o ON o.o_orderkey = l.l_orderkey),
            w AS (SELECT CAST(SUM(rev_cents * prio_mult) AS DOUBLE)
                    AS total FROM j)
            SELECT l_orderkey, l_linenumber::BIGINT AS l_linenumber,
                   prio_mult, rev_cents
            FROM j, w
            WHERE CAST(md5_number_upper(
                    CAST(l_orderkey AS VARCHAR) || ':' ||
                    CAST(l_linenumber AS VARCHAR) || 'jpps')
                    & 9223372036854775807 AS DOUBLE)
                < CAST(rev_cents * prio_mult AS DOUBLE) * 200.0
                  / w.total * 9223372036854775808.0""",
        "customer_order_gaps": """
            WITH g AS (
              SELECT o_custkey,
                     DATE_DIFF('day',
                       lag(o_orderdate) OVER (
                         PARTITION BY o_custkey
                         ORDER BY o_orderdate, o_orderkey),
                       o_orderdate) AS gap
              FROM orders)
            SELECT o_custkey, count(*)::BIGINT AS n_orders,
                   CAST(SUM(gap) AS BIGINT) AS sum_gap_days,
                   CAST(MAX(gap) AS BIGINT) AS max_gap_days
            FROM g GROUP BY o_custkey
            HAVING count(*) >= 2""",
        "range_join": """
            SELECT a.event_id AS view_id, a.user_id AS user_id,
                   b.event_id AS purchase_id,
                   (epoch_us(b.ts) - epoch_us(a.ts))::BIGINT AS delta_us
            FROM events a JOIN events b
              ON a.user_id = b.user_id
             AND a.event_type = 'view' AND b.event_type = 'purchase'
             AND b.ts >= a.ts
             AND b.ts < a.ts + INTERVAL 1 DAY""",
        "topk_per_group": """
            SELECT doc_id, lang, n_chars FROM (
              SELECT doc_id, lang, n_chars, row_number() OVER (
                PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn
              FROM documents) t
            WHERE rn <= 3""",
        "ordered_dedup":
            "SELECT source, min(doc_id) AS doc_id FROM documents "
            "GROUP BY source",
        "token_intersect": """
            SELECT unnest(string_split(text, ' ')) AS token
            FROM documents WHERE doc_id % 2 = 0
            INTERSECT
            SELECT unnest(string_split(text, ' ')) AS token
            FROM documents WHERE doc_id % 2 = 1""",
        "union_sources":
            "SELECT doc_id, source FROM documents WHERE source = 'src0' "
            "UNION ALL "
            "SELECT doc_id, source FROM documents WHERE source = 'src1'",
        "sort_limit":
            "SELECT doc_id, n_chars FROM documents "
            "ORDER BY n_chars DESC, doc_id LIMIT 100",
        "group_counts":
            "SELECT lang, count(*)::BIGINT AS n FROM documents "
            "GROUP BY lang",
        "group_counts_csv":
            "SELECT lang, count(*)::BIGINT AS n FROM documents "
            "GROUP BY lang",
        "failure_filter":
            "SELECT doc_id, n_chars FROM documents "
            "WHERE NOT contains(text, 'slow')",
    }
