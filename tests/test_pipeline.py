"""End-to-end Ray pipeline tests: span-sequence equality vs the oracle,
commit/resume idempotence, skew stage."""

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


def _span_key(spans):
    return [(s["kind"], s["text"], s["media_ref"]) for s in spans]


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
