"""Benchmark of the webtext extraction engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload html_bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: it sets up the local Ray
session several times (the median is ``setup_s``), then runs passes of
the workload back to back until ``--seconds`` have passed, and checks
every output.
``--trace 1`` makes a separate traced run for the per-layer metrics.
The last line of standard output is the result object; the
line before it holds the samples and the environment.  Inputs are cached
under ``.perfbench/`` in the checkout, keyed by workload, seed and scale.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOAD_NAMES = ("html_bulk", "text_incremental", "corpus_ops")
MAX_CPUS = 4                  # the local Ray session never gets more
OBJECT_STORE_BYTES = 512 << 20
SETUPS = 3                    # setup_s is the median of this many
_SOCKET_PATH_MAX = 107        # AF_UNIX path limit; Ray appends ~70 chars

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("driver_peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("dom.parse_html.calls", "count"),
    ("dom.parse_html.s", "s"),
    ("dom.parses_per_html_span", "ratio"),
    ("dom.multi_select.calls", "count"),
    ("dom.multi_select.s", "s"),
    ("handlers.calls", "count"),
    ("handlers.s", "s"),
    ("cascade.extract_main_content.calls", "count"),
    ("cascade.extract_main_content.self_s", "s"),
    ("cascade.calls_per_html_span", "ratio"),
    ("cleanup.cleanup_extracted_text.self_s", "s"),
    ("cleanup.remove_duplicate_paragraphs.s", "s"),
    ("cleanup.paragraphs_in", "count"),
    ("cleanup.paragraphs_dropped", "count"),
    ("cleanup.budget_timeouts", "count"),
    ("markdown.normalize_markdown.s", "s"),
    ("pdf.extract_pdf_text.s", "s"),
    ("extract.extract_document.s", "s"),
    ("extract.extract_document.self_s", "s"),
    ("extract.doc_p50_us", "us"),
    ("extract.doc_p99_us", "us"),
    ("extractor.batch.s", "s"),
    ("extractor.arrow_overhead_s", "s"),
    ("extract_pipeline.run_extraction.s", "s"),
    ("extract_pipeline.rounds", "count"),
    ("extract_pipeline.fixed_s", "s"),
    ("extract_pipeline.per_doc_us", "us"),
    ("manifest.commit.calls", "count"),
    ("manifest.commit.s", "s"),
    ("manifest.commit.bytes_written", "bytes"),
    ("manifest.committed_shards.s", "s"),
    ("io.list_fragments.s", "s"),
    ("dedup.dedup_extracted.s", "s"),
    ("dedup.pairs", "count"),
    ("graph.pagerank.s", "s"),
    ("graph.hits.s", "s"),
    ("graph.pagerank.round_s", "s"),
    ("graph.hits.round_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# the spans under extract_document whose self times add up to it
EXTRACT_SPANS = ("extract.extract_document", "dom.parse_html", "handlers",
                 "cascade.extract_main_content", "dom.multi_select",
                 "cleanup.cleanup_extracted_text",
                 "cleanup.remove_duplicate_paragraphs",
                 "markdown.normalize_markdown", "pdf.extract_pdf_text")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (self-test only)")
    p.add_argument("--corrupt", action="store_true",
                   help="drop one output span before checking "
                        "(self-test only)")
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# process helpers
# --------------------------------------------------------------------------

def _reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass        # peak then covers the whole process


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _process_tree() -> dict[int, tuple[str, int, str]]:
    """{pid: (state, cpu ticks, start time)} of this process and every
    live descendant.  The ticks are the process's own user + system
    time."""
    parent: dict[int, int] = {}
    info: dict[int, tuple[str, int, str]] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        pid = int(stat.split("/")[2])
        parent[pid] = int(rest[1])
        # fields 14, 15 and 22 of stat: utime, stime, starttime
        info[pid] = (rest[0], int(rest[11]) + int(rest[12]), rest[19])
    me = os.getpid()
    out, frontier = {me: info[me]}, [me]
    while frontier:
        p = frontier.pop()
        for c, pp in parent.items():
            if pp == p and c not in out:
                out[c] = info[c]
                frontier.append(c)
    return out


def _descendants() -> dict[int, str]:
    """{pid: state} of every live descendant of this process."""
    me = os.getpid()
    return {p: v[0] for p, v in _process_tree().items() if p != me}


_CLK_TCK = os.sysconf("SC_CLK_TCK")


class CpuMeter:
    """Processor seconds used by this process and all its descendants:
    the driver, the Ray daemons and every Ray worker, including workers
    that exit before the reading.

    Ray reaps its workers without adding their time to its own, so a
    thread samples the process tree every ``period`` seconds and keeps
    each process's last reading; what an exiting process uses after its
    last sample is not counted."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self._last: dict[tuple[int, str], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        tree = _process_tree()
        with self._lock:
            for pid, (_st, ticks, start) in tree.items():
                self._last[pid, start] = ticks

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self) -> "CpuMeter":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def read(self) -> float:
        self._sample()
        with self._lock:
            return sum(self._last.values()) / _CLK_TCK

    def settle(self, idle_cores: float = 0.5, window: float = 0.25,
               limit: float = 3.0) -> None:
        """Wait until the tree uses less than ``idle_cores`` over a
        ``window``, or ``limit`` seconds: the work a job leaves behind
        when it returns (actor exits, object frees) is then charged to
        that job and not to the next one."""
        deadline = time.perf_counter() + limit
        before = self.read()
        while time.perf_counter() < deadline:
            time.sleep(window)
            now = self.read()
            if now - before < idle_cores * window:
                return
            before = now


def _reap(timeout: float = 20.0) -> None:
    """Wait until every process this one started has ended; terminate
    stragglers after ``timeout``."""
    deadline = time.monotonic() + timeout
    sig = None
    while True:
        live = _descendants()
        for pid, st in live.items():
            if st == "Z":
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        live = {p: s for p, s in live.items() if s != "Z"}
        if not live:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL if sig == signal.SIGTERM else signal.SIGTERM
            for pid in live:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.1)


_T0 = time.perf_counter()


def _log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:7.2f}s] {msg}",
          file=sys.stderr, flush=True)


def _burn_ms(n: int = 3) -> list[float]:
    """A short pure-CPU probe: co-tenant load shows as slower samples."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x += i * i
        out.append(round((time.perf_counter() - t0) * 1000, 2))
    return out


class RaySession:
    def __init__(self, state_dir: str, num_cpus: int):
        self.num_cpus = num_cpus
        temp = os.path.join(state_dir, "ray")
        # session sockets live under the temp dir; a long checkout path
        # would overflow the AF_UNIX limit, so fall back to Ray's default
        self.temp = (temp if len(temp) + 70 <= _SOCKET_PATH_MAX
                     else "/tmp/ray")

    def start(self) -> None:
        import ray
        import ray.data

        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 logging_level=logging.WARNING, log_to_driver=False,
                 _temp_dir=self.temp)
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.session_dir = ray._private.worker._global_node \
            .get_session_dir_path()

    def stop(self) -> None:
        import ray

        ray.shutdown()
        gc.collect()
        _reap()
        shutil.rmtree(self.session_dir, ignore_errors=True)


# --------------------------------------------------------------------------
# setup, timed run, traced run
# --------------------------------------------------------------------------

def _warm() -> None:
    """One trivial Ray Data job."""
    import ray.data

    ray.data.range(8, override_num_blocks=4).map_batches(
        lambda b: b).count()
    gc.collect()


def set_up(session: RaySession, repeats: int) -> dict:
    """Import, then ``repeats`` x (session start + warm job); the last
    session stays up."""
    t0 = time.perf_counter()
    import ray  # noqa: F401

    import webtext.pipelines  # noqa: F401  (compiles the rule tables)
    import_s = time.perf_counter() - t0
    starts = []
    for k in range(repeats):
        if k:
            session.stop()
        t0 = time.perf_counter()
        session.start()
        _warm()
        starts.append(time.perf_counter() - t0)
    return {"import_s": import_s, "start_and_warm_s": starts,
            "setup_s": import_s + statistics.median(starts)}


def _wait_for_free_cpus(limit: float = 20.0) -> None:
    """Wait until no actor of an earlier job holds a CPU of the session.
    A job's actor pool is released asynchronously after it returns; a
    job started before that waits for CPUs, for a few to over ten
    seconds, at random."""
    import ray

    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.perf_counter() + limit
    while (ray.available_resources().get("CPU", 0) < total
           and time.perf_counter() < deadline):
        time.sleep(0.05)


def timed_run(wl, seconds: float) -> tuple[list, float]:
    """Passes back to back until ``seconds`` have passed; outputs are
    checked after the loop.

    Each pass records its wall time and the processor time of every
    process, counted until the process tree is idle again.  A pass
    starts only when no actor of an earlier job holds a CPU."""
    passes = []
    peak = 0.0
    deadline = time.perf_counter() + seconds
    with CpuMeter() as meter:
        while True:
            _wait_for_free_cpus()
            _reset_peak_rss()
            cpu0 = meter.read()
            p = wl.run_pass(len(passes))
            meter.settle()
            p.cpu = meter.read() - cpu0
            passes.append(p)
            peak = max(peak, _peak_rss_mb())
            if time.perf_counter() >= deadline or wl.exhausted:
                break
    for i in range(len(passes)):
        wl.check(i)
    wl.finish()
    return passes, peak


def _replay(docs_table, batch_size: int) -> float:
    """Single-process pass through the extraction actor's batch call."""
    from webtext.stages.extractor import ExtractorActor

    actor = ExtractorActor()
    t0 = time.perf_counter()
    for start in range(0, docs_table.num_rows, batch_size):
        actor(docs_table.slice(start, batch_size))
    return time.perf_counter() - t0


def _fit(wl, work: str) -> dict:
    """Fixed-versus-per-document split of run_extraction from two input
    sizes, each run twice, alternating."""
    from perfbench.workloads import committed_rows, land

    expected = {}
    for tag, files in zip(("small", "large"), wl.fit_shards()):
        land(files, os.path.join(work, f"fit-{tag}"))
        expected[tag] = wl.expected_for(files)
    times = {"small": [], "large": []}
    for rep in range(2):
        for tag in ("small", "large"):
            out = os.path.join(work, f"fit-{tag}-out-{rep}")
            times[tag].append(wl.extract(os.path.join(work, f"fit-{tag}"),
                                         out))
            wl.check_rows(committed_rows(out), expected[tag])
            shutil.rmtree(out, ignore_errors=True)
    ns, nl = len(expected["small"]), len(expected["large"])
    ts, tl = (statistics.median(times[t]) for t in ("small", "large"))
    per_doc = (tl - ts) / (nl - ns)
    return {"docs": [ns, nl], "seconds": times,
            "fixed_s": ts - per_doc * ns, "per_doc_us": per_doc * 1e6}


def traced_run(wl, work: str) -> tuple[dict, dict]:
    import inspect

    import pyarrow as pa

    from webtext.pipelines import run_extraction
    from webtext.schema import INPUT_SCHEMA

    from perfbench.trace import (Tracer, extraction_targets, patched,
                                 pipeline_targets)

    batch_size = inspect.signature(run_extraction) \
        .parameters["batch_size"].default
    docs = wl.replay_docs()
    table = pa.Table.from_pylist(docs, schema=INPUT_SCHEMA)
    html_spans = sum(1 for d in docs for s in d["spans"]
                     if s["kind"] == "html")
    plain, traced = [], []
    for _ in range(2):
        plain.append(_replay(table, batch_size))
        tr = Tracer(keep_durations=("extract.extract_document",))
        with patched(extraction_targets(tr)):
            traced.append(_replay(table, batch_size))

    wl.prepare_trace()
    wl.start()
    pt = Tracer()
    passes = []
    with patched(pipeline_targets(pt)):
        for i in range(wl.trace_passes):
            passes.append(wl.run_pass(i))
            wl.check(i)
        wl.finish()
    extra = wl.traced_extra()
    fit = _fit(wl, work)

    m = {}
    for name in ("dom.parse_html", "dom.multi_select",
                 "cascade.extract_main_content", "handlers"):
        m[f"{name}.calls"] = tr.calls[name]
    for name in ("dom.parse_html", "dom.multi_select", "handlers",
                 "cleanup.remove_duplicate_paragraphs",
                 "markdown.normalize_markdown", "pdf.extract_pdf_text",
                 "extract.extract_document", "extractor.batch"):
        m[f"{name}.s"] = tr.incl[name]
    for name in ("cascade.extract_main_content",
                 "cleanup.cleanup_extracted_text",
                 "extract.extract_document"):
        m[f"{name}.self_s"] = tr.self_s[name]
    m["dom.parses_per_html_span"] = tr.calls["dom.parse_html"] / max(
        1, html_spans)
    m["cascade.calls_per_html_span"] = \
        tr.calls["cascade.extract_main_content"] / max(1, html_spans)
    m["cleanup.paragraphs_in"] = tr.counts["paragraphs_in"]
    m["cleanup.paragraphs_dropped"] = tr.counts["paragraphs_dropped"]
    m["cleanup.budget_timeouts"] = tr.counts["budget_timeouts"]
    per_doc = sorted(tr.durations["extract.extract_document"])
    m["extract.doc_p50_us"] = statistics.median(per_doc) * 1e6
    m["extract.doc_p99_us"] = per_doc[int(0.99 * (len(per_doc) - 1))] * 1e6
    m["extractor.arrow_overhead_s"] = (tr.incl["extractor.batch"]
                                       - tr.incl["extract.extract_document"])

    m["extract_pipeline.run_extraction.s"] = \
        pt.incl["extract_pipeline.run_extraction"]
    m["extract_pipeline.rounds"] = pt.calls["manifest.commit"]
    m["extract_pipeline.fixed_s"] = fit["fixed_s"]
    m["extract_pipeline.per_doc_us"] = fit["per_doc_us"]
    m["manifest.commit.calls"] = pt.calls["manifest.commit"]
    m["manifest.commit.s"] = pt.incl["manifest.commit"]
    m["manifest.commit.bytes_written"] = pt.counts["manifest_bytes"]
    m["manifest.committed_shards.s"] = pt.incl["manifest.committed_shards"]
    m["io.list_fragments.s"] = pt.incl["io.list_fragments"]
    m["dedup.pairs"] = pt.counts["dedup_pairs"]
    ops = [p.extra.get("op_s", {}) for p in passes]
    for op, name in (("dedup", "dedup.dedup_extracted.s"),
                     ("pagerank", "graph.pagerank.s"),
                     ("hits", "graph.hits.s")):
        m[name] = sum(o.get(op, 0.0) for o in ops)
    for op in ("pagerank", "hits"):
        if op in extra:
            one, iters = extra[op]
            m[f"graph.{op}.round_s"] = (m[f"graph.{op}.s"] / len(passes)
                                        - one) / (iters - 1)
        else:
            m[f"graph.{op}.round_s"] = 0.0
    m["trace.overhead_frac"] = (statistics.median(traced)
                                / statistics.median(plain) - 1)

    self_sum = sum(tr.self_s[n] for n in EXTRACT_SPANS)
    detail = {
        "replay_docs": table.num_rows, "html_spans": html_spans,
        "replay_plain_s": plain, "replay_traced_s": traced,
        "self_s": {n: tr.self_s[n] for n in EXTRACT_SPANS},
        "self_sum_s": self_sum, "fit": fit,
        "passes": [vars(p) for p in passes],
    }
    return m, detail


def environment(num_cpus: int, temp: str) -> dict:
    import pyarrow
    import ray

    from webtext.pipelines.extract_pipeline import default_pool_size

    try:
        nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        nproc = None
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": nproc,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "ray_num_cpus": num_cpus, "pool_size": default_pool_size(),
        "ray_temp_dir": temp,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "webtext", "__init__.py")):
        print("perfbench: no webtext package here; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    if root not in sys.path:
        sys.path.insert(0, root)
    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, "work", str(os.getpid()))
    tmp = os.path.join(state, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    # Ray workers inherit both: graph slice directories stay in the
    # checkout, and input-building tasks can import this package
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)

    from perfbench.inputs import Inputs
    from perfbench.workloads import WORKLOADS

    num_cpus = min(MAX_CPUS, len(os.sched_getaffinity(0)))
    session = RaySession(state, num_cpus)
    burn_before = _burn_ms()
    try:
        setup = set_up(session, 1 if args.trace else SETUPS)
        _log(f"set up: {setup}")
        inputs = Inputs(args.workload, args.seed, args.scale,
                        os.path.join(state, "cache")).build()
        _log("inputs ready")
        wl = WORKLOADS[args.workload](inputs, work)
        wl.corrupt = args.corrupt
        env = environment(num_cpus, session.temp)
        if args.trace:
            metrics, detail = traced_run(wl, work)
            units = PER_LAYER
        else:
            wl.start()
            _log("measuring")
            passes, peak = timed_run(wl, args.seconds)
            latencies = [x for p in passes for x in p.latencies]
            metrics = {
                "setup_s": setup["setup_s"],
                "cpu_s": statistics.median(p.cpu for p in passes),
                "driver_peak_rss_mb": peak,
            }
            # wall-clock figures are reported, not gated: see README.md
            detail = {"passes": [vars(p) for p in passes],
                      "wall_s": statistics.median(p.wall for p in passes),
                      "docs_per_s": statistics.median(p.docs / p.wall
                                                      for p in passes),
                      "result_latency_p50_s": statistics.median(latencies),
                      "latency_samples": len(latencies)}
            units = END_TO_END
        _log("measured")
    finally:
        if "session_dir" in vars(session):
            session.stop()
        shutil.rmtree(work, ignore_errors=True)
        _log("stopped")
    env["burn_ms_before"], env["burn_ms_after"] = burn_before, _burn_ms()
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup=setup, environment=env,
                  error_frac=wl.failed / max(1, wl.attempted))
    result = {
        "correct": wl.failed == 0 and wl.attempted > 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(detail, default=str))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
