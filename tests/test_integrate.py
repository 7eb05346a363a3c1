"""Post-extraction operator tests: integrator, rejects, order, scan."""

import subprocess
import sys

import pytest

from webtext.pipelines import run_extraction
from webtext.pipelines.integrate import (
    integrate_outputs,
    ordered_output,
    read_rejects,
    sanitize_filename,
    scan_output_for_errors,
    timeout_report,
)


@pytest.fixture(scope="module")
def out_dir(ray_session, small_corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("integ") / "out")
    run_extraction(small_corpus_dir, out, batch_size=16,
                   shards_per_round=4)
    return out


def test_ordered_output_total_order(out_dir):
    rows = ordered_output(out_dir).take_all()
    ids = [r["doc_id"] for r in rows]
    assert ids == sorted(ids)


def test_read_rejects_has_messages(out_dir):
    rejects = read_rejects(out_dir).take_all()
    assert rejects
    statuses = {r["status"] for r in rejects}
    assert statuses <= {"failed", "error_pattern"}
    failed = [r for r in rejects if r["status"] == "failed"]
    assert all(r["messages"] for r in failed)


def test_timeout_report(out_dir):
    rep = timeout_report(out_dir)
    assert rep["n_timeouts"] >= 1            # failure-doc family sentinel
    assert all("fail.example.com" in d or "example" in d
               for d in rep["doc_ids"])
    assert str(rep["n_timeouts"]) in rep["header"]


def test_integrate_union_not_deduped(out_dir):
    single = ordered_output(out_dir).count()
    both = integrate_outputs(out_dir, out_dir).count()
    assert both == 2 * single                # A3: deliberately no dedup


def test_scan_output_for_errors_clean(out_dir):
    # kept rows passed the E12 filter, so the retro scan finds nothing
    assert scan_output_for_errors(out_dir).count() == 0


def test_sanitize_filename():
    assert sanitize_filename('a<b>:c"/d\\e|f?g*h') == "a_b__c__d_e_f_g_h"
    assert sanitize_filename("plain-name.txt") == "plain-name.txt"


def test_job_cli_end_to_end(ray_session, small_corpus_dir, tmp_path):
    """ray-job entry point driven as the subprocess a job runner spawns."""
    out = str(tmp_path / "jobout")
    proc = subprocess.run(
        [sys.executable, "-m", "webtext.jobs.run_job",
         "--input", small_corpus_dir, "--output", out,
         "--num-cpus", "4", "--shards-per-round", "2"],
        capture_output=True, text=True, cwd="/root/repo", check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    import json

    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")][-1]
    totals = json.loads(line)
    assert totals["docs"] == 114 and totals["shards"] == 4

    # resubmit resumes: identical totals, no recompute
    proc2 = subprocess.run(
        [sys.executable, "-m", "webtext.jobs.run_job",
         "--input", small_corpus_dir, "--output", out,
         "--num-cpus", "4", "--shards-per-round", "2"],
        capture_output=True, text=True, cwd="/root/repo", check=False)
    line2 = [ln for ln in proc2.stdout.splitlines()
             if ln.startswith("{")][-1]
    assert json.loads(line2) == totals


def test_lineage_report_matches_output_files(out_dir):
    import glob

    import pyarrow.parquet as pq

    from webtext.pipelines.integrate import lineage_report

    rep = lineage_report(out_dir).to_pylist()
    assert rep, "manifest must have committed shards"
    # manifest metrics must equal a direct aggregate over the files
    want: dict[str, dict] = {}
    for f in glob.glob(f"{out_dir}/round-*/shard=*/*.parquet"):
        shard = f.split("shard=")[1].split("/")[0]
        t = pq.read_table(f, columns=["status", "n_chars_out"])
        w = want.setdefault(shard, {"docs": 0, "n_chars_out": 0})
        w["docs"] += t.num_rows
        w["n_chars_out"] += sum(t.column("n_chars_out").to_pylist())
    for r in rep:
        assert r["docs"] == want[r["shard"]]["docs"]
        assert r["n_chars_out"] == want[r["shard"]]["n_chars_out"]
        assert r["docs"] == (r["ok"] + r["timeout"] + r["failed"]
                             + r["error_pattern"])
