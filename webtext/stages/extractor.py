"""The extraction stage: one batch call, ``ExtractorActor.__call__``.

Replaces the reference's per-URL ``ProcessPoolExecutor`` workers
(ref:1365-1406).  All rule tables / regexes are compiled at module
import, so the stage holds no state: the pipelines map it as a plain
task function (``extract_pipeline._extract_batch``) on Ray's pooled
task workers, which keep the import warm across batches, rounds and
jobs.  The class keeps its callable-class shape, so it can still be
driven in-process or handed to ``map_batches`` as an actor UDF.  As an
actor UDF, hand over ``stages.actor_pool.by_ref(ExtractorActor)``: the
class pickles to ~107 KB, and at that size a restarted pool actor can
fail to fetch it (see that module).

Batches flow in as zero-copy Arrow tables.  The per-row work is DOM
parsing + rule dispatch — inherently row-wise CPU compute (like model
inference), so the vectorization boundary is the batch: Arrow in, one
Python pass over rows, Arrow out.  No network, no browser, no sleeps —
the reference's 3-15s per-document waits (ref:616-618, 692, 967) are
gone because content is already materialized.
"""

from __future__ import annotations

import pyarrow as pa

from ..oracle import extract_document
from ..oracle import rules as _rules  # imported at module scope: workers
from ..schema import SPAN_STRUCT      # receive code by value (webtext
                                      # __init__) and cannot lazy-import

RESULT_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_STRUCT)),
    ("status", pa.string()),      # ok | timeout | failed | error_pattern
    ("method", pa.string()),      # comma-joined branch lineage
    ("messages", pa.list_(pa.string())),   # failure messages (reject rows)
    ("n_spans_in", pa.int32()),
    ("n_chars_out", pa.int64()),
])


class ExtractorActor:
    """Batch extractor: ``__call__`` maps a documents table to a
    ``RESULT_SCHEMA`` table.

    The rule tables live in ``webtext.oracle.rules`` as module-level
    compiled constants, so construction is free and the instance holds
    no per-batch state.
    """

    def __init__(self):
        # every regex/table in the rules module is compiled at module
        # import, which the by-value pickle graph replays where unpickled
        assert _rules.FAILURE_MARKER is not None
        self._extract_document = extract_document

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        extract = self._extract_document

        out = {k: [] for k in ("doc_id", "spans", "status", "method",
                               "messages", "n_spans_in", "n_chars_out")}
        for doc_id, spans in zip(doc_ids, spans_col):
            r = extract(doc_id, spans or [])
            out["doc_id"].append(doc_id)
            out["spans"].append(r.spans)
            out["status"].append(r.status)
            out["method"].append(",".join(r.methods))
            out["messages"].append(r.failures)
            out["n_spans_in"].append(len(spans or []))
            out["n_chars_out"].append(
                sum(len(s["text"]) for s in r.spans))
        return pa.Table.from_pydict(out, schema=RESULT_SCHEMA)
