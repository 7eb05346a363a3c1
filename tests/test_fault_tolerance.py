"""Worker-death recovery: the extraction stage must survive a hard
process exit mid-batch (the cluster reality at 100 TB — nodes die) with
no lost and no duplicated rows, both as the task map ``run_extraction``
runs and as an actor-pool UDF.

Ray retries tasks whose worker died, and Ray Data restarts dead pool
actors and retries their in-flight tasks; these pin that the recovery
is EXACT for our stage: the post-crash output equals the crash-free run
row-for-row.

The killer class is defined INSIDE the test so cloudpickle ships it by
value — a module-level class here would pickle by reference to the
tests package, which Ray workers cannot import (only ``webtext.*`` is
registered for by-value shipping), and the actor would die at unpickle
time in a restart loop instead of testing the crash path.

Closing over ``ExtractorActor`` makes the killer class pickle to over
100 KB (all of webtext rides by value), so Ray cannot inline it in the
actor's creation task.  Handed to ``map_batches`` as is, a restarted
actor can fail to fetch it and restart forever (webtext.stages
.actor_pool); the test hands it over through ``by_ref``, the way webtext
ships an actor-pool class that large, and asserts the size so the case
stays covered."""

from __future__ import annotations

import os

import pyarrow as pa


def test_actor_death_mid_batch_recovers_exactly(ray_session, tmp_path):
    import ray.data
    from ray import cloudpickle

    from webtext.schema import INPUT_SCHEMA
    from webtext.stages.actor_pool import by_ref
    from webtext.stages.extractor import ExtractorActor
    from webtext.synth import generate_docs

    docs = generate_docs(n_per_family=4, seed=11)
    table = pa.Table.from_pylist(docs, schema=INPUT_SCHEMA)

    class DieOnceExtractor:
        """ExtractorActor that hard-kills its worker process on the
        first batch any pool member sees (O_EXCL flag file ⇒ exactly
        one death per run)."""

        def __init__(self, flag_path: str):
            self._inner = ExtractorActor()
            self._flag = flag_path

        def __call__(self, batch: pa.Table) -> pa.Table:
            try:
                fd = os.open(self._flag,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                os._exit(1)      # simulate a dying worker/node
            except FileExistsError:
                pass
            return self._inner(batch)

    def run(actor_cls, **ctor):
        ds = ray.data.from_arrow(table).repartition(8).map_batches(
            actor_cls, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=8, concurrency=2, num_cpus=1,
            fn_constructor_kwargs=ctor)
        rows = ds.take_all()
        return {r["doc_id"]: (r["status"],
                              tuple((s["kind"], s["text"],
                                     s["media_ref"])
                                    for s in (r["spans"] or [])))
                for r in rows}, len(rows)

    # over Ray's 100 KB inline limit for a task argument
    assert len(cloudpickle.dumps(DieOnceExtractor)) > 100 * 1024

    clean, n_clean = run(ExtractorActor)
    flag = str(tmp_path / "died")
    crashed, n_crashed = run(by_ref(DieOnceExtractor), flag_path=flag)

    assert os.path.exists(flag), "the crash injection never fired"
    assert n_crashed == n_clean          # no lost, no duplicated rows
    assert crashed == clean              # identical spans + status


def test_task_death_mid_extraction_recovers_exactly(ray_session, tmp_path,
                                                    monkeypatch):
    """Task twin of the actor test above: the batch function that
    ``run_extraction`` maps hard-exits its worker once; Ray's task retry
    must commit the same rows, row for row."""
    from webtext.pipelines import read_output, run_extraction
    from webtext.pipelines import extract_pipeline
    from webtext.synth import write_corpus

    inp = str(tmp_path / "in")
    write_corpus(inp, n_per_family=4, seed=11, rows_per_file=10)
    flag = str(tmp_path / "died")
    extract_batch = extract_pipeline._extract_batch

    def die_once(batch: pa.Table) -> pa.Table:
        try:
            fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)          # simulate a dying worker/node
        except FileExistsError:
            pass
        return extract_batch(batch)

    def run(out):
        run_extraction(inp, out, shards_per_round=4)
        rows = read_output(out, statuses=("ok", "timeout", "failed",
                                          "error_pattern")).take_all()
        return {r["doc_id"]: (r["status"],
                              tuple((s["kind"], s["text"],
                                     s["media_ref"])
                                    for s in (r["spans"] or [])))
                for r in rows}, len(rows)

    clean, n_clean = run(str(tmp_path / "clean"))
    monkeypatch.setattr(extract_pipeline, "_extract_batch", die_once)
    crashed, n_crashed = run(str(tmp_path / "crashed"))

    assert os.path.exists(flag), "the crash injection never fired"
    assert n_crashed == n_clean          # no lost, no duplicated rows
    assert crashed == clean              # identical spans + status


def test_task_death_in_shuffle_stage_recovers(ray_session, tmp_path):
    """Worker death inside an all-to-all consumer: one groupby
    map_groups task hard-exits mid-group; Ray's task retry must
    reproduce the exact aggregate."""
    import ray.data

    flag = str(tmp_path / "shuffle_died")

    def agg(group, *, _flag=flag):
        import os as _os

        import pyarrow as _pa

        try:
            fd = _os.open(_flag, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
            _os.close(fd)
            _os._exit(1)
        except FileExistsError:
            pass
        ids = group.column("id").to_numpy(zero_copy_only=False)
        return _pa.Table.from_pydict(
            {"bucket": [int(group.column("bucket")[0].as_py())],
             "total": [int(ids.sum())]})

    ds = ray.data.range(1000).map_batches(
        lambda b: b.append_column(
            "bucket", __import__("pyarrow").array(
                (b.column("id").to_numpy(zero_copy_only=False) % 7)
                .astype("int64"))),
        batch_format="pyarrow", zero_copy_batch=True)
    rows = ds.groupby("bucket").map_groups(
        agg, batch_format="pyarrow").take_all()
    got = {r["bucket"]: r["total"] for r in rows}
    want = {b: sum(i for i in range(1000) if i % 7 == b)
            for b in range(7)}
    assert os.path.exists(flag), "the crash injection never fired"
    assert got == want


def _aggregate_with_one_cell_death(tmp_path, monkeypatch, parts) -> None:
    """``exchange.aggregate`` with P forced to ``parts(cpus)`` while the
    cell hard-exits its task once: Ray's task retry must reproduce the
    exact aggregate from the task's arguments."""
    import ray.data

    from webtext import exchange

    monkeypatch.setattr(exchange, "_size_parts",
                        lambda nbytes, cpus: parts(cpus))
    flag = str(tmp_path / "cell_died")
    combine = exchange._combine

    def dying_combine(group, *, _flag=flag, _combine=combine, **kw):
        import os as _os

        try:
            fd = _os.open(_flag, _os.O_CREAT | _os.O_EXCL | _os.O_WRONLY)
            _os.close(fd)
            _os._exit(1)
        except FileExistsError:
            pass
        return _combine(group, **kw)

    monkeypatch.setattr(exchange, "_combine", dying_combine)
    ds = ray.data.range(1000, override_num_blocks=4).map_batches(
        lambda b: b.append_column(
            "bucket", __import__("pyarrow").array(
                (b.column("id").to_numpy(zero_copy_only=False) % 7)
                .astype("int64"))),
        batch_format="pyarrow", zero_copy_batch=True)
    rows = exchange.aggregate(ds, "bucket", ("sum", "id"),
                              ("count",)).take_all()
    got = {r["bucket"]: (r["sum(id)"], r["count()"]) for r in rows}
    want = {b: (sum(i for i in range(1000) if i % 7 == b),
                len(range(b, 1000, 7))) for b in range(7)}
    assert os.path.exists(flag), "the crash injection never fired"
    assert got == want


def test_task_death_in_hash_exchange_reduce_recovers(ray_session,
                                                     tmp_path,
                                                     monkeypatch):
    """Worker death inside the hash exchange: one reduce task hard-exits
    once and is retried from the split tasks' parts (P forced to the
    CPU count: this input is under one target block)."""
    _aggregate_with_one_cell_death(tmp_path, monkeypatch,
                                   lambda cpus: cpus)


def test_task_death_in_fused_exchange_task_recovers(ray_session,
                                                    tmp_path,
                                                    monkeypatch):
    """Worker death in the fused exchange task (P = 1), the route every
    exchange under one target block takes: the task is retried from the
    input blocks."""
    _aggregate_with_one_cell_death(tmp_path, monkeypatch, lambda cpus: 1)


def test_compact_output_row_preserving(ray_session, small_corpus_dir,
                                       tmp_path):
    """Compaction rewrites many small round files into few big ones:
    every row of every status survives, shard lineage records are
    rebuilt, totals match, and a second run into the same dst refuses."""
    import glob

    import pytest

    from webtext.jobs.compact import compact_output
    from webtext.pipelines import read_output, run_extraction
    from webtext.pipelines.extract_pipeline import CommitManifest

    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    # shards_per_round=1 → one round dir per shard: the small-files case
    run_extraction(small_corpus_dir, src, shards_per_round=1)
    compact_output(src, dst, target_rows_per_file=1_000_000)

    src_files = glob.glob(f"{src}/round-*/**/*.parquet", recursive=True)
    dst_files = glob.glob(f"{dst}/round-*/**/*.parquet", recursive=True)
    assert len(dst_files) < len(src_files)

    key = lambda r: (r["doc_id"], r["status"])  # noqa: E731
    a = sorted(map(key, read_output(src).take_all()))
    b = sorted(map(key, read_output(dst).take_all()))
    assert a == b

    st, dt = CommitManifest(src).totals(), CommitManifest(dst).totals()
    for k in ("docs", "ok", "timeout", "failed", "error_pattern",
              "n_chars_out", "shards"):
        assert st[k] == dt[k], k

    with pytest.raises(FileExistsError):
        compact_output(src, dst)


def test_read_output_as_of_snapshot(ray_session, tmp_path):
    """as_of=N reads exactly the first N committed rounds in commit
    order — the dataset a consumer saw after round N — and later
    rounds stay invisible to that snapshot."""
    from webtext.pipelines import read_output, run_extraction
    from webtext.synth import write_corpus

    inp = str(tmp_path / "in")
    out = str(tmp_path / "out")
    write_corpus(inp, n_per_family=4, seed=11, rows_per_file=10)
    run_extraction(inp, out, shards_per_round=2)

    full = read_output(out).take_all()
    snap1 = read_output(out, as_of=1).take_all()
    snap_all = read_output(out, as_of=10_000).take_all()
    assert 0 < len(snap1) < len(full)
    assert len(snap_all) == len(full)
    # the snapshot is a strict prefix by round: every snap1 doc_id is
    # in the full read
    full_ids = {r["doc_id"] for r in full}
    assert {r["doc_id"] for r in snap1} <= full_ids
