"""Self-test of the benchmark at a tiny input size.

Runs ``perfbench/run.py`` as a command-line caller does, from the root
of the checkout, and checks the result contract: every metric named in
``BENCHMARK.json`` is emitted with its unit, unmodified code is correct,
a dropped output span is caught, the per-document self times add up to
``extract_document``'s time, and a directory without the program fails
without printing a result.  A fast test covers the processor-time
meter.  Takes a few minutes (each run starts its
own local Ray session):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
from perfbench.run import WORKLOAD_NAMES, CpuMeter  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.02"]


def _run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", *args],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p, lines


def _result(*args):
    p, lines = _run(*args)
    assert lines, p.stderr[-4000:]
    return p, json.loads(lines[-1]), json.loads(lines[-2])


def _assert_metrics(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_cpu_meter_counts_a_child_that_exits():
    burn = "import time\nt = time.process_time()\n" \
           "while time.process_time() - t < 0.5: pass"
    with CpuMeter(period=0.05) as meter:
        before = meter.read()
        subprocess.run([sys.executable, "-c", burn], check=True)
        used = meter.read() - before
    assert 0.4 <= used <= 1.5


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_emitted_and_correct(workload):
    p, result, _ = _result("--workload", workload, "--trace", "0", *TINY)
    assert p.returncode == 0, p.stderr[-4000:]
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, SPEC["end_to_end"])
    for v in result["metrics"].values():
        assert v["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_emitted_and_self_times_add_up(workload):
    p, result, detail = _result("--workload", workload, "--trace", "1",
                                *TINY)
    assert p.returncode == 0, p.stderr[-4000:]
    assert result["correct"]
    _assert_metrics(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    incl = m["extract.extract_document.s"]
    assert abs(detail["self_sum_s"] - incl) <= 1e-9 * max(1.0, incl)
    from_metrics = sum(m[k] for k in (
        "extract.extract_document.self_s", "dom.parse_html.s", "handlers.s",
        "cascade.extract_main_content.self_s", "dom.multi_select.s",
        "cleanup.cleanup_extracted_text.self_s",
        "cleanup.remove_duplicate_paragraphs.s",
        "markdown.normalize_markdown.s", "pdf.extract_pdf_text.s"))
    assert abs(from_metrics - incl) <= 1e-6 * max(1.0, incl)


def test_dropped_span_fails_the_run():
    p, result, detail = _result("--workload", "html_bulk", "--trace", "0",
                                "--corrupt", *TINY)
    assert p.returncode != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert detail["error_frac"] > 0


def test_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p, lines = _run("--workload", "html_bulk", "--trace", "0", *TINY,
                    cwd=tmp_path)
    assert p.returncode != 0
    assert not any(line.startswith("{") for line in lines)
