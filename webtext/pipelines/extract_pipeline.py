"""End-to-end extraction pipeline: read → (rebalance) → extract → write,
with shard-granular commit + resume.

Execution model (SURVEY §4): one streaming pass per round — no barrier
between read, extract and write; Ray's streaming executor pipelines
blocks with backpressure and spills via the object store.  Rounds exist
only as the commit granularity: a round of input shards is extracted,
written, and committed atomically to the manifest; a failed round leaves
no commit record and is redone idempotently (its round directory is
overwritten by shard-list hash).  This is the reference's
"completed_folder subtraction" resume pattern (run_all_starts.py:21-42)
at shard granularity, without its batch barrier: within a round all
shards stream concurrently.

The extraction step is a stateless batch function: it runs as ordinary
Ray Data tasks, so tag shard → extract → write fuse into one operator on
Ray's pooled task workers, which stay warm across rounds and jobs (no
per-round process start-up or code unpickling in fresh processes).

Task sizing: a round of exactly one input fragment per cluster CPU,
with near-equal document counts, is read as one block per fragment.
Read → tag → extract → write then fuse into one operator that runs one
task per fragment and writes one file per ``shard=`` partition.  Ray
Data's default read splits each fragment into ~1 MiB blocks (at least
2 × CPUs blocks in all); the split read is an operator of its own, so
each split block becomes an extraction task, and each task costs a
fixed 26–37 CPU-ms summed over all Ray processes (identity map over
``html_bulk``'s input at 4 vs 40 blocks, 4 Ray CPUs on a 1-core VM).
The gate, read from the fragments' parquet footers, is narrow on
purpose: it covers the case that was measured (``html_bulk``: 4
fragments of 1,000 documents on 4 CPUs).  With more fragments than
CPUs, or one fragment much larger than the rest, whole-fragment tasks
can leave CPUs idle while the last ones finish, which split blocks
would fill; that has not been measured on a machine with as many cores
as Ray CPUs.  So those rounds, and rounds with fewer fragments than
CPUs, keep Ray's default read and its layout.  Ray's
``target_max_block_size`` still splits a large fragment's output into
bounded blocks inside its task.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import pyarrow as pa

from ..sources.io import list_fragments, read_documents
from ..sources.manifest import CommitManifest
from ..stages.extractor import ExtractorActor

KEPT_STATUSES = ("ok", "timeout")


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster."""
    import ray

    return int(ray.cluster_resources().get("CPU", 4))


def default_pool_size() -> int:
    """Suggested task cap for the extraction map: ~75% of
    ``cluster_cpus()``, leaving headroom for the read and write
    operators.  It is not the default: with ``concurrency=None`` the
    extraction map runs uncapped so it fuses with its neighbours (an int
    cap makes it a separate task-pool operator), and ``run_extraction``
    sizes a balanced one-fragment-per-CPU round's tasks by fragment
    instead (see the module docstring).  Kept because perfbench's
    environment record reads it as ``pool_size``."""
    ncpu = cluster_cpus()
    # never exact-fit, even on a 1-2 CPU driver cluster: leave at least
    # one CPU for the read/write task operators
    return max(1, min(ncpu - 1, int(ncpu * 0.75)))


def _one_task_per_fragment(fragment_rows: list[int], cpus: int) -> bool:
    """Whether a round is read one block per fragment: exactly one
    fragment per CPU, and the largest within 10% of an even share of the
    round's documents, so no CPU waits long on another's fragment."""
    return (len(fragment_rows) == cpus
            and max(fragment_rows) * cpus <= 1.1 * sum(fragment_rows))


def _extract_batch(batch: pa.Table) -> pa.Table:
    """The extraction map: ``ExtractorActor.__call__`` on one batch,
    forwarding the ``shard`` provenance column when present.  A plain
    function, so it runs as a task and fuses with the maps around it."""
    out = ExtractorActor()(batch)        # reads doc_id and spans only
    if "shard" in batch.column_names:
        out = out.append_column("shard", batch.column("shard"))
    return out


def extract_dataset(ds, *, batch_size: int = 32, concurrency=None):
    """Attach the extraction stage to a documents Dataset.

    ``concurrency=None`` leaves the task count to Ray Data (and keeps
    the stage fusable); an int caps the number of concurrent tasks."""
    return ds.map_batches(
        _extract_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def _round_id(shards: list[str]) -> str:
    h = hashlib.sha256("\n".join(os.path.basename(s)
                                 for s in shards).encode())
    return h.hexdigest()[:12]


def _shard_name(path: str) -> str:
    return os.path.basename(path).replace(".parquet", "")


def _tag_shard(batch: pa.Table) -> pa.Table:
    """Adds the shard provenance column from the reader's path column.
    Plain function → task-based map, fused with the read (an actor here
    would funnel every batch through one process)."""
    paths = batch.column("path").to_pylist()
    shard = pa.array([_shard_name(p) for p in paths], pa.string())
    batch = batch.drop_columns(["path"])
    return batch.append_column("shard", shard)


def run_extraction(
    input_dir: str,
    output_dir: str,
    *,
    batch_size: int = 32,
    concurrency=None,
    shards_per_round: int = 16,
    resume: bool = True,
    rebalance: bool = False,
    hot_fraction: float = 0.05,
    salt_buckets: int = 16,
) -> dict:
    """Extract every pending input shard; returns manifest totals.

    A round of one non-empty fragment per cluster CPU, with near-equal
    document counts, runs one extraction task per fragment; every other
    round keeps Ray Data's default read (see the module docstring for
    why and what it costs).  0-row fragments are committed with 0-doc
    records but never read.

    ``rebalance=True`` inserts the salted-domain repartition before the
    classify stage (see webtext.stages.skew for when that pays off).
    """
    import pyarrow.parquet as pq
    import ray.data

    manifest = CommitManifest(output_dir)
    shards = list_fragments(input_dir)
    if not shards:
        raise FileNotFoundError(
            f"no input fragments (*.parquet) under {input_dir!r}")
    if resume:
        done = manifest.committed_shards()
        shards = [s for s in shards if _shard_name(s) not in done]

    if shards:                       # a no-op run starts no Ray
        # a public auto-init API: starts Ray as the first read would
        ray.get_runtime_context()
        cpus = cluster_cpus()
    for start in range(0, len(shards), shards_per_round):
        round_shards = shards[start:start + shards_per_round]
        round_dir = os.path.join(output_dir,
                                 f"round-{_round_id(round_shards)}")
        if os.path.exists(round_dir):
            shutil.rmtree(round_dir)   # uncommitted partial from a crash

        t0 = time.perf_counter()
        # 0-row fragments are committed below but never read: their
        # read yields a block with an empty schema (Ray Data warns on
        # every such round), and the gate must count real fragments
        rows = {s: pq.read_metadata(s).num_rows for s in round_shards}
        read = [s for s in round_shards if rows[s]]
        if read:
            per_fragment = _one_task_per_fragment(
                [rows[s] for s in read], cpus)
            ds = ray.data.read_parquet(
                read, columns=["doc_id", "spans"], include_paths=True,
                override_num_blocks=len(read) if per_fragment else None)
            ds = ds.map_batches(_tag_shard, batch_format="pyarrow",
                                zero_copy_batch=True)
            if rebalance:
                from ..stages.skew import rebalance_for_extraction
                # one materialized pass detects hot domains AND feeds
                # the scope="hot" split: extraction wants WORKER
                # BALANCE, not cold-domain co-location — only the
                # skewed rows pay the exchange; the cold majority
                # streams into the extraction map
                ds, _hot = rebalance_for_extraction(
                    ds, hot_fraction=hot_fraction, buckets=salt_buckets)

            extracted = extract_dataset(ds, batch_size=batch_size,
                                        concurrency=concurrency)
            extracted.write_parquet(round_dir, partition_cols=["shard"])
        seconds = time.perf_counter() - t0

        records = _collect_round_metrics(round_dir, round_shards, seconds)
        manifest.commit(records)

    return manifest.totals()


def _collect_round_metrics(round_dir: str, round_shards: list[str],
                           seconds: float) -> list[dict]:
    """Per-shard lineage records from a cheap columnar read-back of the
    just-written round (status/method/n_chars_out only — no payloads).

    Streaming Arrow aggregation: each scanner batch is group-by-reduced
    in C (shard × status × method-combo partials), partials are merged,
    and only the tiny aggregate table is ever turned into Python objects
    — per-document rows never materialize on the driver."""
    import collections

    import pyarrow.dataset as pads

    keys = ["shard", "status", "method"]
    partials = []
    # a round of 0-row fragments writes no file, not even its directory
    if os.path.isdir(round_dir):
        dataset = pads.dataset(round_dir, partitioning="hive")
        for rb in dataset.to_batches(columns=["status", "method",
                                              "n_chars_out", "shard"]):
            t = pa.Table.from_batches([rb])
            partials.append(t.group_by(keys).aggregate(
                [("n_chars_out", "sum"), ("status", "count")]))
    if partials:
        merged = pa.concat_tables(partials).group_by(keys).aggregate(
            [("n_chars_out_sum", "sum"), ("status_count", "sum")])
        merged = merged.rename_columns(
            keys + ["n_chars_out_sum", "status_count_sum"])
    else:
        merged = pa.Table.from_pydict(
            {k: [] for k in keys + ["n_chars_out_sum",
                                    "status_count_sum"]})

    by_shard: dict[str, dict] = {}
    total_docs = 0
    for row in merged.to_pylist():          # aggregate rows only — tiny
        shard, n = str(row["shard"]), int(row["status_count_sum"])
        rec = by_shard.setdefault(shard, {
            "shard": shard, "docs": 0, "ok": 0, "timeout": 0, "failed": 0,
            "error_pattern": 0, "n_chars_out": 0,
            "method_histogram": collections.Counter(),
            "round_dir": os.path.basename(round_dir),
        })
        rec["docs"] += n
        rec[row["status"]] += n
        rec["n_chars_out"] += int(row["n_chars_out_sum"])
        for m in (row["method"] or "").split(","):
            if m:
                rec["method_histogram"][m] += n
        total_docs += n
    total_docs = max(1, total_docs)
    records = []
    for shard_path in round_shards:
        name = _shard_name(shard_path)
        rec = by_shard.get(name, {
            "shard": name, "docs": 0, "ok": 0, "timeout": 0, "failed": 0,
            "error_pattern": 0, "n_chars_out": 0, "method_histogram": {},
            "round_dir": os.path.basename(round_dir)})
        rec["method_histogram"] = dict(rec["method_histogram"])
        rec["seconds"] = seconds * rec["docs"] / total_docs
        rec["docs_per_sec"] = (rec["docs"] / rec["seconds"]
                               if rec["seconds"] > 0 else 0.0)
        records.append(rec)
    return records


def _output_blocks(files: list[str]) -> int | None:
    """``override_num_blocks`` for reading committed output ``files``.
    Ray Data's default read cuts at least 2 × CPUs blocks, so below
    2 × CPUs × ``target_min_block_size`` bytes each of its blocks holds
    less than one target, and every map over the read pays a task per
    block.  There the read takes the exchange's size rule
    (``exchange._size_parts``): one block up to one target, one per CPU
    above.  Larger outputs keep Ray's read (None).  The bytes are the
    files' uncompressed row-group sizes from their parquet footers,
    which are read only until they pass 2 × CPUs targets."""
    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext

    from ..exchange import _n_parts, _size_parts

    ray.get_runtime_context()   # starts Ray as the read would
    cpus = _n_parts()
    cap = 2 * cpus * DataContext.get_current().target_min_block_size
    nbytes = 0
    for f in files:
        meta = pq.read_metadata(f)
        nbytes += sum(meta.row_group(i).total_byte_size
                      for i in range(meta.num_row_groups))
        if nbytes >= cap:
            return None
    return _size_parts(nbytes, cpus)


def read_output(output_dir: str, statuses=KEPT_STATUSES,
                as_of: int | None = None):
    """Dataset over committed rounds only (uncommitted partials are
    invisible), filtered to kept statuses.

    ``as_of`` = snapshot time travel at round granularity (the
    Iceberg-style read the immutable manifest makes free): only the
    first ``as_of`` committed rounds IN COMMIT ORDER are visible —
    the exact dataset a consumer saw after that round's commit,
    regardless of how many rounds a resumed run appended since.
    None (default) reads every committed round.

    The read is sized to the output's bytes (``_output_blocks``): an
    output under one ``target_min_block_size`` is one block, so the
    read, the status filter and a map over them run as one task; up to
    2 × CPUs targets it is one block per CPU (a 1,500-document output
    of 1.4 MB reads so), and above that Ray's default read."""
    import ray.data

    import glob

    manifest = CommitManifest(output_dir)
    seen: set[str] = set()
    ordered: list[str] = []
    for r in manifest.records():        # append order = commit order
        d = r["round_dir"]
        if d not in seen:
            seen.add(d)
            ordered.append(d)
    if as_of is not None:
        ordered = ordered[:as_of]
    round_dirs = sorted(ordered)
    files = [
        f
        for d in round_dirs
        for f in sorted(glob.glob(os.path.join(output_dir, d, "**",
                                               "*.parquet"),
                                  recursive=True))
    ]
    if not files:
        raise FileNotFoundError(f"no committed rounds under {output_dir}")
    ds = ray.data.read_parquet(files,
                               override_num_blocks=_output_blocks(files))
    allowed = list(statuses)
    return ds.filter(
        expr=" or ".join(f"status == '{s}'" for s in allowed))


def run_pipeline_in_memory(docs: list[dict], *, batch_size: int = 32,
                           concurrency=None):
    """Small-scale helper (tests/smoke): list of docs → extracted rows."""
    import ray.data

    from ..schema import INPUT_SCHEMA

    table = pa.Table.from_pylist(docs, schema=INPUT_SCHEMA)
    ds = ray.data.from_arrow(table)
    return extract_dataset(ds, batch_size=batch_size,
                           concurrency=concurrency)
