"""The three workloads.  Each is a closed loop with one caller: a pass
starts only after the previous one returned.

* ``html_bulk``: one ``run_extraction`` round over the HTML-heavy corpus;
* ``text_incremental``: a pass lands ``LANDINGS_PER_PASS`` small batches
  of text/markdown/PDF shards, each followed by a resuming
  ``run_extraction`` that commits it;
* ``corpus_ops``: ``dedup_extracted`` over a committed extraction
  output, then ``graph.pagerank`` over the edges of a skewed
  part->supplier table (the traced run adds ``graph.hits``).

Every pass returns its wall time, the latency of each result it made
visible, and the number of documents it covered; ``check`` compares what
the program produced with the expected results of ``inputs.Inputs``.
Library defaults (pool size, batch size, shards per round, bucket
counts) are used throughout, so a change to a default is measured.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .inputs import Inputs, span_digest

LANDINGS_PER_PASS = 2


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    docs: int
    extra: dict = field(default_factory=dict)
    cpu: float = 0.0            # filled in by the caller that metered it


def land(files: list[str], dest: str) -> None:
    """Land shard files atomically: a reader never sees a partial
    ``*.parquet``."""
    os.makedirs(dest, exist_ok=True)
    for f in files:
        tmp = os.path.join(dest, os.path.basename(f) + ".landing")
        shutil.copyfile(f, tmp)
        os.replace(tmp, os.path.join(dest, os.path.basename(f)))


def committed_rows(output_dir: str) -> list[dict]:
    """Every row of every committed round, whatever its status."""
    from webtext.sources.manifest import CommitManifest

    rounds = sorted({r["round_dir"]
                     for r in CommitManifest(output_dir).records()})
    rows = []
    for d in rounds:
        ds = pads.dataset(os.path.join(output_dir, d), partitioning="hive")
        rows.extend(ds.to_table(columns=["doc_id", "status", "spans"])
                    .to_pylist())
    return rows


def check_extraction(rows: list[dict], expected: dict) -> tuple[int, int]:
    """(attempted, failed): a document fails when it is missing, appears
    more than once, or its status or span sequence differs from the
    oracle."""
    seen: dict[str, int] = {}
    failed = 0
    for r in rows:
        want = expected.get(r["doc_id"])
        seen[r["doc_id"]] = seen.get(r["doc_id"], 0) + 1
        if want is None or span_digest(r["status"], r["spans"]) != want[0]:
            failed += 1
    failed += sum(1 for d in expected if seen.get(d, 0) != 1)
    return len(expected), failed


class Workload:
    name = ""
    trace_passes = 1
    exhausted = False           # no more inputs for another pass

    def __init__(self, inputs: Inputs, work: str):
        self.inputs, self.work = inputs, work
        self.attempted = 0
        self.failed = 0
        # test hook: drop one span from one output row before checking
        self.corrupt = False

    def check_rows(self, rows: list[dict], expected: dict) -> None:
        if self.corrupt:
            for r in rows:
                if r["spans"]:
                    r["spans"] = r["spans"][:-1]
                    break
        a, f = check_extraction(rows, expected)
        self.attempted += a
        self.failed += f

    def expected_for(self, files: list[str]) -> dict:
        """Expected results of the documents in ``files``."""
        return {d: self.inputs.expected[d] for f in files
                for d in pq.read_table(f, columns=["doc_id"])
                .column("doc_id").to_pylist()}

    def extract(self, input_dir: str, output_dir: str) -> float:
        """Seconds ``run_extraction`` takes to commit ``input_dir``."""
        from webtext.pipelines import run_extraction

        t0 = time.perf_counter()
        run_extraction(input_dir, output_dir)
        dt = time.perf_counter() - t0
        # the previous job's actor pool can stay referenced from cyclic
        # garbage, holding its CPUs until the raylet asks for a collect
        gc.collect()
        return dt

    def prepare_trace(self) -> None:
        """Changes the traced run makes before ``start``."""

    def start(self) -> None:
        """Per-run state that needs the Ray session (untimed)."""

    def run_pass(self, i: int) -> PassResult:
        raise NotImplementedError

    def check(self, i: int) -> None:
        """Compare the outputs of pass ``i``; may delete them."""

    def finish(self) -> None:
        """Checks that need every pass (untimed)."""

    def replay_docs(self) -> list[dict]:
        raise NotImplementedError

    def fit_shards(self) -> tuple[list[str], list[str]]:
        """A small and a large set of input shards of this workload's
        shape, for the fixed-versus-per-document split."""
        raise NotImplementedError

    def traced_extra(self) -> dict:
        return {}


def _read_docs(files: list[str]) -> list[dict]:
    return [r for f in files for r in pq.read_table(f).to_pylist()]


class HtmlBulk(Workload):
    name = "html_bulk"

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.corpus = os.path.join(inputs.dir, "corpus")
        self.shards = sorted(glob.glob(os.path.join(self.corpus,
                                                    "*.parquet")))

    def _out(self, i: int) -> str:
        return os.path.join(self.work, f"out-{i}")

    def run_pass(self, i):
        wall = self.extract(self.corpus, self._out(i))
        return PassResult(wall, [wall], len(self.inputs.expected))

    def check(self, i):
        self.check_rows(committed_rows(self._out(i)), self.inputs.expected)
        shutil.rmtree(self._out(i), ignore_errors=True)

    def replay_docs(self):
        return _read_docs(self.shards[:1])

    def fit_shards(self):
        return self.shards[:1], self.shards


class TextIncremental(Workload):
    name = "text_incremental"
    trace_passes = 2

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.landings = [
            sorted(glob.glob(os.path.join(d, "*.parquet")))
            for d in sorted(glob.glob(os.path.join(inputs.dir, "landings",
                                                   "*")))]
        self.input_dir = os.path.join(work, "landed")
        self.output_dir = os.path.join(work, "out")
        self.landing_docs = [
            sum(pq.ParquetFile(f).metadata.num_rows for f in files)
            for files in self.landings]
        self.landed = 0

    @property
    def exhausted(self) -> bool:
        return self.landed + LANDINGS_PER_PASS > len(self.landings)

    def run_pass(self, i):
        latencies = []
        docs = 0
        t0 = time.perf_counter()
        for _ in range(LANDINGS_PER_PASS):
            land(self.landings[self.landed], self.input_dir)
            docs += self.landing_docs[self.landed]
            self.landed += 1
            # landed: the latency runs until the commit is visible
            latencies.append(self.extract(self.input_dir, self.output_dir))
        return PassResult(time.perf_counter() - t0, latencies, docs)

    def finish(self):
        landed = [f for files in self.landings[:self.landed] for f in files]
        self.check_rows(committed_rows(self.output_dir),
                        self.expected_for(landed))

    def replay_docs(self):
        return _read_docs([f for files in self.landings[:2] for f in files])

    def fit_shards(self):
        return (self.landings[0],
                [f for files in self.landings[:4] for f in files])


class CorpusOps(Workload):
    name = "corpus_ops"

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.corpus = os.path.join(inputs.dir, "corpus")
        self.shards = sorted(glob.glob(os.path.join(self.corpus,
                                                    "*.parquet")))
        self.committed = os.path.join(work, "committed")
        self.sf = os.path.join(inputs.dir, "sf")
        with open(os.path.join(inputs.dir, "golden_dedup.json"),
                  encoding="utf-8") as f:
            self.golden = {"dedup": json.load(f)["survivors"]}
        for op in ("pagerank", "hits"):
            self.golden[op] = _sorted_rows(pq.read_table(os.path.join(
                inputs.dir, f"golden_{op}.parquet")).to_pylist())
        self.results: list[dict] = []
        # a timed pass leaves out hits, the slowest operator, to keep the
        # run short; the traced run adds it back
        self.ops = ("dedup", "pagerank")

    def prepare_trace(self):
        self.ops += ("hits",)

    def start(self):
        # the committed output dedup reads is built untimed, per run
        self.extract(self.corpus, self.committed)
        self.check_rows(committed_rows(self.committed),
                        self.inputs.expected)

    def _edges(self):
        import ray.data

        from webtext.functions.graph import lineitem_edges

        return lineitem_edges(ray.data.read_parquet(
            os.path.join(self.sf, "lineitem.parquet"),
            columns=["l_partkey", "l_suppkey"]))

    def dedup(self) -> list:
        from webtext.pipelines.dedup_pipeline import dedup_extracted

        return sorted(r["doc_id"]
                      for r in dedup_extracted(self.committed).take_all())

    def pagerank(self, **kwargs) -> list:
        from webtext.functions import graph

        return _sorted_rows(graph.pagerank(self._edges(), **kwargs)
                            .take_all())

    def hits(self, **kwargs) -> list:
        from webtext.functions import graph

        return _sorted_rows(graph.hits(self._edges(), **kwargs).take_all())

    def run_pass(self, i):
        lat = []
        got = {}
        t0 = time.perf_counter()
        for op in self.ops:
            ts = time.perf_counter()
            got[op] = getattr(self, op)()
            lat.append(time.perf_counter() - ts)
            gc.collect()
        self.results.append(got)
        return PassResult(time.perf_counter() - t0, lat,
                          len(self.inputs.expected),
                          {"op_s": dict(zip(self.ops, lat))})

    def check(self, i):
        for op, got in self.results[i].items():
            self.attempted += 1
            self.failed += got != self.golden[op]

    def replay_docs(self):
        return _read_docs(self.shards[:1])

    def fit_shards(self):
        return self.shards[:1], self.shards

    def traced_extra(self):
        """Per-round graph time as the marginal cost of rounds: the
        default round count against a single round."""
        from webtext.functions import graph

        out = {}
        for op, iters in (("pagerank", graph.PAGERANK_ITERS),
                          ("hits", graph.HITS_ITERS)):
            t0 = time.perf_counter()
            getattr(self, op)(iters=1)
            one = time.perf_counter() - t0
            gc.collect()
            out[op] = (one, iters)
        return out


def _sorted_rows(rows: list[dict]) -> list:
    """Rows as sorted tuples of their values in column-name order."""
    return sorted(tuple(r[k] for k in sorted(r)) for r in rows)


WORKLOADS = {w.name: w for w in (HtmlBulk, TextIncremental, CorpusOps)}
