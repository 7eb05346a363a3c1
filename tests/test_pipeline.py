"""End-to-end Ray pipeline tests: span-sequence equality vs the oracle,
commit/resume idempotence, skew stage."""

import glob
import os

import pyarrow.dataset as pads
import pytest

from webtext.oracle import extract_document
from webtext.pipelines import (
    read_output,
    run_extraction,
    run_pipeline_in_memory,
)
from webtext.sources.manifest import CommitManifest
from webtext.synth import generate_docs


ALL_STATUSES = ("ok", "timeout", "failed", "error_pattern")


def _span_key(spans):
    return [(s["kind"], s["text"], s["media_ref"]) for s in spans]


def _files_per_shard(output_dir):
    """{shard: parquet files written for it} over every round."""
    return {os.path.basename(d).removeprefix("shard="):
            len(glob.glob(os.path.join(d, "*.parquet")))
            for d in glob.glob(os.path.join(output_dir, "round-*",
                                            "shard=*"))}


def _assert_span_equal(output_dir, input_files):
    """Every committed row, whatever its status, matches the oracle."""
    import pyarrow.parquet as pq

    docs = {r["doc_id"]: r["spans"] for f in input_files
            for r in pq.read_table(f).to_pylist()}
    rows = read_output(output_dir, statuses=ALL_STATUSES).take_all()
    assert sorted(r["doc_id"] for r in rows) == sorted(docs)
    for r in rows:
        oracle = extract_document(r["doc_id"], docs[r["doc_id"]])
        assert r["status"] == oracle.status, r["doc_id"]
        assert _span_key(r["spans"]) == _span_key(oracle.spans), r["doc_id"]


@pytest.fixture(scope="module")
def extracted_rows(ray_session):
    docs = generate_docs(n_per_family=6, seed=42)
    ds = run_pipeline_in_memory(docs, batch_size=16)
    rows = {r["doc_id"]: r for r in ds.take_all()}
    return docs, rows


def test_span_sequence_equality_vs_oracle(extracted_rows):
    """THE correctness gate: (kind, text, media_ref, order) per row."""
    docs, rows = extracted_rows
    assert len(rows) == len(docs)
    for doc in docs:
        oracle = extract_document(doc["doc_id"], doc["spans"])
        got = rows[doc["doc_id"]]
        assert got["status"] == oracle.status, doc["doc_id"]
        assert _span_key(got["spans"]) == _span_key(oracle.spans), \
            doc["doc_id"]
        # offsets are dense and ascending
        assert [s["offset"] for s in got["spans"]] == list(
            range(len(got["spans"])))


def test_every_family_produces_expected_statuses(extracted_rows):
    docs, rows = extracted_rows
    by_status = {}
    for r in rows.values():
        by_status.setdefault(r["status"], 0)
        by_status[r["status"]] += 1
    assert by_status.get("ok", 0) > 0
    assert by_status.get("failed", 0) > 0
    assert by_status.get("error_pattern", 0) > 0
    assert by_status.get("timeout", 0) > 0


def test_run_extraction_commit_resume(ray_session, small_corpus_dir,
                                      tmp_path):
    out = str(tmp_path / "out")
    totals = run_extraction(small_corpus_dir, out, batch_size=16,
                            shards_per_round=2)
    assert totals["docs"] == 114
    assert totals["shards"] == 4

    # resume: nothing left to do, totals unchanged, no duplicate commits
    totals2 = run_extraction(small_corpus_dir, out, batch_size=16,
                             shards_per_round=2)
    assert totals2 == totals

    # committed output readable + filtered to kept statuses
    kept = read_output(out)
    rows = kept.take_all()
    statuses = {r["status"] for r in rows}
    assert statuses <= {"ok", "timeout"}
    assert len(rows) == totals["ok"] + totals["timeout"]


def test_manifest_lineage_records(ray_session, small_corpus_dir, tmp_path):
    out = str(tmp_path / "out")
    run_extraction(small_corpus_dir, out, batch_size=16,
                   shards_per_round=4)
    recs = CommitManifest(out).records()
    assert len(recs) == 4
    for r in recs:
        assert r["docs"] > 0
        assert r["seconds"] >= 0
        assert isinstance(r["method_histogram"], dict)
        assert r["docs"] == (r["ok"] + r["timeout"] + r["failed"]
                             + r["error_pattern"])


def test_partial_round_is_invisible_until_commit(ray_session,
                                                 small_corpus_dir,
                                                 tmp_path):
    out = str(tmp_path / "out")
    run_extraction(small_corpus_dir, out, batch_size=16,
                   shards_per_round=2)
    # simulate a crashed round: stray uncommitted directory
    stray = os.path.join(out, "round-deadbeef0000")
    os.makedirs(stray, exist_ok=True)
    kept = read_output(out)
    assert kept.count() > 0  # reader only sees committed rounds


def test_rebalance_path_matches_plain(ray_session, small_corpus_dir,
                                      tmp_path):
    out_a = str(tmp_path / "plain")
    out_b = str(tmp_path / "salted")
    run_extraction(small_corpus_dir, out_a, batch_size=16,
                   shards_per_round=4)
    run_extraction(small_corpus_dir, out_b, batch_size=16,
                   shards_per_round=4,
                   rebalance=True, hot_fraction=0.02, salt_buckets=4)
    rows_a = {r["doc_id"]: _span_key(r["spans"])
              for r in read_output(out_a).take_all()}
    rows_b = {r["doc_id"]: _span_key(r["spans"])
              for r in read_output(out_b).take_all()}
    assert rows_a == rows_b


def test_output_partitioned_by_shard(ray_session, small_corpus_dir,
                                     tmp_path):
    out = str(tmp_path / "out")
    run_extraction(small_corpus_dir, out, batch_size=16,
                   shards_per_round=4)
    recs = CommitManifest(out).records()
    round_dir = os.path.join(out, recs[0]["round_dir"])
    ds = pads.dataset(round_dir, partitioning="hive")
    names = set(ds.schema.names)
    assert "shard" in names and "spans" in names


def _map_worker_actor_ids() -> set:
    # the state API (ray.util.state) needs the dashboard, which the test
    # session does not start; the GCS actor table needs nothing
    import ray

    return {aid for aid, a in ray._private.state.actors().items()
            if "MapWorker" in a["ActorClassName"]}


def test_extraction_runs_as_fused_tasks(ray_session, tmp_path):
    """The extraction stage is a stateless task map: a round starts no
    actor pool, and with the default (uncapped) concurrency the map fuses
    with the map upstream of it into one operator."""
    import pyarrow as pa
    import ray.data

    from webtext.pipelines import extract_dataset
    from webtext.schema import INPUT_SCHEMA
    from webtext.synth import write_corpus

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    write_corpus(inp, n_per_family=2, seed=5, rows_per_file=10)
    before = _map_worker_actor_ids()
    run_extraction(inp, out, shards_per_round=2)
    assert _map_worker_actor_ids() == before

    table = pa.Table.from_pylist(generate_docs(n_per_family=2, seed=5),
                                 schema=INPUT_SCHEMA)
    ds = ray.data.from_arrow(table).map_batches(
        lambda b: b, batch_format="pyarrow", zero_copy_batch=True)
    stats = extract_dataset(ds).materialize().stats()
    ops = [line for line in stats.splitlines()
           if line.startswith("Operator") and "_extract_batch" in line]
    assert len(ops) == 1
    assert "MapBatches(<lambda>)->MapBatches(_extract_batch)" in ops[0]


def test_read_documents_lance_seam_raises_cleanly():
    import pytest

    from webtext.sources.io import read_documents_lance

    with pytest.raises(ImportError, match="lance is not installed"):
        read_documents_lance("/tmp/nonexistent.lance")


def test_dedup_extracted_composition(ray_session, tmp_path):
    """Extraction → corpus dedup end-to-end: survivors are a subset of
    kept docs, deterministic across runs."""
    from webtext.pipelines import run_extraction, read_output
    from webtext.pipelines.dedup_pipeline import dedup_extracted
    from webtext.synth import write_corpus

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    write_corpus(inp, n_per_family=4, seed=11, rows_per_file=40)
    run_extraction(inp, out, shards_per_round=4)
    kept = {r["doc_id"] for r in read_output(out).take_all()}
    surv1 = sorted(r["doc_id"] for r in dedup_extracted(out).take_all())
    surv2 = sorted(r["doc_id"] for r in dedup_extracted(out).take_all())
    assert surv1 == surv2
    assert 0 < len(surv1) <= len(kept)
    assert set(surv1) <= kept


def test_jsonl_roundtrip_format_agnostic(ray_session, small_corpus_dir,
                                         tmp_path):
    """parquet → JSONL → read_documents_jsonl must feed the extraction
    pipeline identically to the parquet reader (schema inference keeps
    the nested spans contract)."""
    import ray.data

    from webtext.sources.io import (read_documents_jsonl,
                                    write_documents_jsonl)

    jdir = str(tmp_path / "jsonl")
    write_documents_jsonl(
        ray.data.read_parquet(small_corpus_dir), jdir)
    via_json = {r["doc_id"]: r["spans"]
                for r in read_documents_jsonl(jdir).take_all()}
    via_parq = {r["doc_id"]: r["spans"]
                for r in ray.data.read_parquet(
                    small_corpus_dir,
                    columns=["doc_id", "spans"]).take_all()}
    assert via_json.keys() == via_parq.keys()
    for k in via_parq:
        assert [(s["kind"], s["text"], s["media_ref"], s["offset"])
                for s in via_json[k]] == \
            [(s["kind"], s["text"], s["media_ref"], s["offset"])
             for s in via_parq[k]]


def test_read_flat_csv_prunes_columns(ray_session, tmp_path):
    import duckdb

    from webtext.sources.io import read_flat_csv

    sf = "/root/testdata/sf0.001"
    csv = str(tmp_path / "docs.csv")
    duckdb.sql(f"COPY (SELECT doc_id, lang, n_chars FROM "
               f"read_parquet('{sf}/documents.parquet')) TO '{csv}'")
    ds = read_flat_csv(csv, columns=["doc_id", "lang"])
    rows = ds.take_all()
    assert set(rows[0].keys()) == {"doc_id", "lang"}
    want = duckdb.sql(f"SELECT count(*) FROM "
                      f"read_parquet('{sf}/documents.parquet')"
                      ).fetchone()[0]
    assert len(rows) == want


def _even_corpus(path, n_fragments, seed, big=None):
    """``n_fragments`` fragments holding the same 19 docs (one per synth
    family) under per-fragment doc_ids; fragment ``big`` holds 38 docs
    (two per family) instead."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from webtext.schema import INPUT_SCHEMA

    os.makedirs(path)
    files = []
    for i in range(n_fragments):
        docs = generate_docs(n_per_family=2 if i == big else 1, seed=seed)
        rows = [dict(d, doc_id=f"{d['doc_id']}-f{i}") for d in docs]
        files.append(os.path.join(path, f"part-{i:05d}.parquet"))
        pq.write_table(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA),
                       files[-1])
    return files


def _plain_read_files_per_shard(input_files, output_dir):
    """Files per shard from the round chain with Ray Data's default
    read (no ``override_num_blocks``)."""
    import ray.data

    from webtext.pipelines import extract_dataset
    from webtext.pipelines.extract_pipeline import _tag_shard

    ds = ray.data.read_parquet(input_files, columns=["doc_id", "spans"],
                               include_paths=True)
    ds = ds.map_batches(_tag_shard, batch_format="pyarrow",
                        zero_copy_batch=True)
    extract_dataset(ds, batch_size=4).write_parquet(
        os.path.join(output_dir, "round-plain"), partition_cols=["shard"])
    return _files_per_shard(output_dir)


def test_one_task_per_fragment_gate():
    """Only a round of one fragment per CPU whose largest fragment holds
    within 10% of an even share of the documents is read one block per
    fragment."""
    from webtext.pipelines.extract_pipeline import _one_task_per_fragment

    assert _one_task_per_fragment([100, 100, 104, 96], 4)
    assert _one_task_per_fragment([0] * 4, 4)
    assert not _one_task_per_fragment([100] * 3, 4)   # fewer than CPUs
    assert not _one_task_per_fragment([100] * 5, 4)   # a second wave
    assert not _one_task_per_fragment([100, 100, 100, 130], 4)
    assert not _one_task_per_fragment([100, 100, 100, 1], 4)


def test_round_task_sizing(ray_session, tmp_path):
    """A balanced round of one fragment per cluster CPU is read one
    block per fragment, so each fused extraction task writes one file
    per shard= partition.  A round with fewer fragments, more fragments
    or one oversized fragment keeps Ray Data's default read and writes
    exactly the files a plain read_parquet chain writes.  batch_size=4
    is below the rows of every default split block, so each default
    block is a task of its own and the counts are fixed."""
    from webtext.pipelines.extract_pipeline import cluster_cpus

    cpus = cluster_cpus()
    assert cpus >= 2
    files = _even_corpus(str(tmp_path / "even"), cpus, seed=13)
    out = str(tmp_path / "even_out")
    run_extraction(str(tmp_path / "even"), out, batch_size=4)
    assert _files_per_shard(out) == {
        os.path.basename(f)[:-len(".parquet")]: 1 for f in files}
    _assert_span_equal(out, files)

    for name, n, big in (("fewer", cpus - 1, None),
                         ("more", cpus + 1, None),
                         ("uneven", cpus, 0)):
        files = _even_corpus(str(tmp_path / name), n, seed=13, big=big)
        out = str(tmp_path / f"{name}_out")
        run_extraction(str(tmp_path / name), out, batch_size=4)
        want = _plain_read_files_per_shard(files,
                                           str(tmp_path / f"{name}_plain"))
        assert any(k > 1 for k in want.values()), name   # Ray split
        assert _files_per_shard(out) == want, name
        _assert_span_equal(out, files)


@pytest.mark.parametrize("full_fragments", [0, 4])
def test_empty_fragment_round(ray_session, tmp_path, full_fragments):
    """A 0-row fragment commits a 0-doc record in its round, and a rerun
    is a no-op.  With no full fragments, the round is four 0-row
    fragments, which are not read and write no file at all; beside four
    full fragments the round is read one block per full fragment on the
    4-CPU test session."""
    import pyarrow.parquet as pq

    from webtext.schema import INPUT_SCHEMA

    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    files = _even_corpus(inp, full_fragments, seed=17)
    empty = [f"part-9999{i}" for i in range(1 if full_fragments else 4)]
    for name in empty:
        pq.write_table(INPUT_SCHEMA.empty_table(),
                       os.path.join(inp, f"{name}.parquet"))
    n_shards = full_fragments + len(empty)
    totals = run_extraction(inp, out)
    assert (totals["shards"], totals["docs"]) == (n_shards,
                                                  19 * full_fragments)
    recs = {r["shard"]: r for r in CommitManifest(out).records()}
    assert len({r["round_dir"] for r in recs.values()}) == 1
    assert all(recs[name]["docs"] == 0 for name in empty)
    assert run_extraction(inp, out) == totals
    assert len(CommitManifest(out).records()) == n_shards
    if files:
        _assert_span_equal(out, files)


def test_empty_fragments_are_not_read(ray_session, tmp_path, monkeypatch):
    """No 0-row fragment reaches ``read_parquet``, a round of only 0-row
    fragments reads nothing, and every shard is still recorded."""
    import pyarrow.parquet as pq
    import ray.data

    from webtext.schema import INPUT_SCHEMA

    real, reads = ray.data.read_parquet, []

    def spy(paths, *args, **kwargs):
        reads.append(list(paths))
        return real(paths, *args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    files = _even_corpus(inp, 4, seed=19)
    for i in range(6):
        pq.write_table(INPUT_SCHEMA.empty_table(),
                       os.path.join(inp, f"part-9999{i}.parquet"))
    # round 1: 4 full + 2 empty fragments; round 2: 4 empty ones
    totals = run_extraction(inp, out, shards_per_round=6)
    assert (totals["shards"], totals["docs"]) == (10, 19 * 4)
    assert [[os.path.basename(f) for f in r] for r in reads] == [
        [os.path.basename(f) for f in files]]
    assert {r["shard"] for r in CommitManifest(out).records()} == {
        os.path.basename(f)[:-len(".parquet")]
        for f in glob.glob(os.path.join(inp, "*.parquet"))}


def test_manifest_torn_tail_resume(ray_session, tmp_path):
    """A commit torn mid-record reads as never committed: the resumed
    run redoes that round only, the next commit truncates the torn
    bytes, and the totals equal an uninterrupted run's."""
    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    _even_corpus(inp, 4, seed=23)
    def totals(**kwargs):
        return {k: v for k, v in run_extraction(
            inp, out, shards_per_round=2, **kwargs).items()
            if k != "seconds"}

    want = totals()
    manifest = CommitManifest(out)
    first, second = open(manifest.path, "rb").read().splitlines(True)
    with open(manifest.path, "wb") as f:
        f.write(first + second[:len(second) // 2])
    assert len(manifest.records()) == 2
    assert totals() == want
    lines = open(manifest.path, "rb").read().splitlines(True)
    assert lines[0] == first and len(lines) == 2
    assert all(line.endswith(b"\n") for line in lines)


def test_manifest_bad_line_raises(tmp_path):
    """Only an unterminated final line is skipped; any other unreadable
    line raises.  A commit appends one line and leaves earlier bytes
    untouched."""
    import json

    manifest = CommitManifest(str(tmp_path))
    manifest.commit([{"shard": "a"}, {"shard": "b"}])
    head = open(manifest.path, "rb").read()
    manifest.commit([{"shard": "c"}])
    body = open(manifest.path, "rb").read()
    assert body.startswith(head) and body.count(b"\n") == 2
    assert manifest.committed_shards() == {"a", "b", "c"}
    with open(manifest.path, "ab") as f:
        f.write(b'{"shard": "torn')
    assert manifest.committed_shards() == {"a", "b", "c"}
    with open(manifest.path, "wb") as f:
        f.write(head + b"not json\n" + body[len(head):])
    with pytest.raises(json.JSONDecodeError):
        manifest.records()
