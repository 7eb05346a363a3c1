"""Pins on the fixed cost of a small corpus pass: how many Ray Data
executions ``dedup_extracted`` + ``pagerank`` start, and how many blocks
``read_output`` cuts a committed output into."""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def committed(ray_session, tmp_path_factory) -> str:
    """A committed extraction output of a few files, with near-duplicate
    documents for dedup to drop."""
    from webtext.pipelines import run_extraction
    from webtext.synth import write_corpus

    root = tmp_path_factory.mktemp("fixed_cost")
    inp, out = str(root / "in"), str(root / "out")
    write_corpus(inp, n_per_family=4, seed=13, rows_per_file=20)
    run_extraction(inp, out, shards_per_round=2)
    return out


def _output_files(out: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out, "round-*", "**", "*.parquet"),
                            recursive=True))


def _footer_bytes(files: list[str]) -> int:
    total = 0
    for f in files:
        meta = pq.read_metadata(f)
        total += sum(meta.row_group(i).total_byte_size
                     for i in range(meta.num_row_groups))
    return total


def test_read_output_is_sized_to_its_footer_bytes(committed, monkeypatch):
    """Up to one target_min_block_size of footer bytes the committed
    output reads as one block, above it as one block per CPU, and from
    2 × CPUs targets on with Ray's default read.  The fixture is under
    one target, so the larger cases shrink the target rather than write
    a 1.4 MB output (the size of perfbench's corpus_ops output, which
    reads as one block per CPU)."""
    from ray.data import DataContext

    from webtext.exchange import _n_parts
    from webtext.pipelines import read_output
    from webtext.pipelines.extract_pipeline import _output_blocks

    files = _output_files(committed)
    nbytes = _footer_bytes(files)
    ctx = DataContext.get_current()
    assert len(files) > 1 and nbytes <= ctx.target_min_block_size
    cpus = _n_parts()
    n_rows = read_output(committed).count()
    assert read_output(committed).materialize().num_blocks() == 1
    monkeypatch.setattr(ctx, "target_min_block_size", nbytes - 1)
    ds = read_output(committed).materialize()
    assert ds.num_blocks() == cpus > 1 and ds.count() == n_rows
    assert _output_blocks(files) == cpus
    monkeypatch.setattr(ctx, "target_min_block_size", nbytes // (2 * cpus))
    assert _output_blocks(files) is None


def test_small_corpus_pass_runs_few_executions(committed, tmp_path,
                                               monkeypatch):
    """``dedup_extracted`` then ``pagerank`` over ``lineitem_edges`` of a
    small committed output and lineitem table start at most 8 Ray Data
    executions, none with an all-to-all (repartition) operator: the
    reads are sized to their bytes, the connected-components edges keep
    the verify's blocks, and the maps around each aggregate run in its
    exchange."""
    import ray
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from webtext.functions import graph
    from webtext.pipelines.dedup_pipeline import dedup_extracted

    rng = np.random.default_rng(11)
    lineitem = str(tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "l_partkey": pa.array(rng.integers(0, 300, 4000), pa.int64()),
        "l_suppkey": pa.array(rng.zipf(1.5, 4000) % 40, pa.int64())}),
        lineitem)
    plans = []
    real = StreamingExecutor.execute

    def execute(self, dag, *args, **kw):
        ops, stack = [], [dag]
        while stack:
            op = stack.pop()
            ops.append(type(op).__name__ + ":" + op.name)
            stack.extend(op.input_dependencies)
        plans.append(ops)
        return real(self, dag, *args, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    survivors = dedup_extracted(committed).take_all()
    ranks = graph.pagerank(graph.lineitem_edges(ray.data.read_parquet(
        lineitem, columns=["l_partkey", "l_suppkey"]))).take_all()
    monkeypatch.setattr(StreamingExecutor, "execute", real)
    n_docs = sum(pq.read_metadata(f).num_rows
                 for f in _output_files(committed))
    assert 0 < len(survivors) < n_docs and len(ranks) > 300
    assert len(plans) <= 8, plans
    assert not [op for ops in plans for op in ops
                if "AllToAll" in op or "Repartition" in op], plans
