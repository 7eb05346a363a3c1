"""Worker-portability pins: all webtext callables that Ray ships to
workers must deserialize WITHOUT webtext being importable on the worker.

The driver that owns ray.init() may run from any cwd; Ray workers do not
see driver-side sys.path edits.  Round 2's driver correctness run hung
forever (empty artifact) because ExtractorActor was pickled by reference
and its unpickle raised ModuleNotFoundError inside the actor pool.  The
fix — webtext.__init__._register_portable_pickle() — ships every webtext
module by value; these tests pin that, including the no-lazy-import
corollary.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile

import pytest

_UNPICKLE_DRIVER = r"""
import sys
sys.path = [p for p in sys.path if "repo" not in p]
sys.modules.pop("webtext", None)
from ray import cloudpickle
with open(sys.argv[1], "rb") as f:
    obj = cloudpickle.load(f)
result = obj()
print("RESULT:", result)
"""


def _roundtrip_in_clean_process(thunk) -> str:
    """Pickle `thunk` with ray's cloudpickle, unpickle + call it in a
    subprocess whose sys.path cannot reach the repo."""
    from ray import cloudpickle

    with tempfile.NamedTemporaryFile(suffix=".pkl", delete=False) as f:
        cloudpickle.dump(thunk, f)
        path = f.name
    out = subprocess.run(
        [sys.executable, "-c", _UNPICKLE_DRIVER, path],
        capture_output=True, text=True, timeout=180, cwd="/tmp")
    assert out.returncode == 0, f"stderr:\n{out.stderr[-3000:]}"
    return out.stdout


def test_extractor_actor_constructs_without_webtext_import():
    from webtext.stages.extractor import ExtractorActor

    def thunk():
        import pyarrow as pa

        actor = ExtractorActor()
        span = {"kind": "html", "text": "<html><body><main><p>"
                + "word " * 60 + "</p></main></body></html>",
                "media_ref": "", "offset": 0}
        batch = pa.table({"doc_id": ["https://x.example.com/a"],
                          "spans": [[span]]})
        out = actor(batch)
        return f"{out.num_rows} {out.column('status')[0].as_py()}"

    assert "1 ok" in _roundtrip_in_clean_process(thunk)


def test_module_level_partial_fns_ship_by_value():
    from webtext.functions.dedup import _band_cut, _band_pairs, _band_rows
    from webtext.functions.events import _partial_window_counts
    from webtext.pipelines.extract_pipeline import _tag_shard
    from webtext.pipelines.links import _mine_batch
    from webtext.exchange import (_combine, _cut, _fused, _partial,
                                  _reduce, _split)
    from webtext.stages.skew import _partial_domain_counts

    fns = [_band_rows, _partial_window_counts, _tag_shard, _mine_batch,
           _partial_domain_counts, _partial, _combine, _split, _reduce,
           _cut, _fused, _band_cut, _band_pairs]

    def thunk():
        return ",".join(f.__name__ for f in fns)

    out = _roundtrip_in_clean_process(thunk)
    assert "_band_rows" in out and "_mine_batch" in out


def test_no_lazy_webtext_imports_in_worker_modules():
    """Static pin: no function-level `from .` / `import webtext` inside
    modules whose code runs on workers (by-value code cannot import the
    package at call time)."""
    import re
    from pathlib import Path

    import webtext

    root = Path(webtext.__file__).parent
    worker_modules = [
        "functions/dedup.py", "functions/ann.py",
        "functions/textstats.py", "functions/events.py",
        "functions/media.py", "stages/extractor.py", "stages/skew.py",
        "synth.py", "pipelines/links.py", "pipelines/relational.py",
        "pipelines/bench_corpus.py", "exchange.py",
    ]
    pat = re.compile(r"^[^\S\n]+(from \.|from webtext|import webtext)",
                     re.MULTILINE)
    offenders = []
    for rel in worker_modules:
        text = (root / rel).read_text()
        for m in pat.finditer(text):
            line = text[:m.start()].count("\n") + 1
            offenders.append(f"{rel}:{line}")
    assert not offenders, f"lazy webtext imports on worker path: {offenders}"


def test_default_pool_size_never_exact_fit(ray_session):
    """Pool must leave >=1 CPU for read/write tasks at any cluster size
    (exact-fit pools stall the streaming executor)."""
    import ray

    from webtext.pipelines.extract_pipeline import default_pool_size

    ncpu = int(ray.cluster_resources().get("CPU", 0))
    pool = default_pool_size()
    assert 1 <= pool
    if ncpu >= 2:
        assert pool <= ncpu - 1


def test_actor_pool_classes_fit_ray_inline_limit(ray_session):
    """Ray inlines an actor's constructor argument only under 100 KB; a
    larger one goes through the object store, where a restarted actor
    can fail to fetch it (webtext.stages.actor_pool).  The library's
    actor-pool classes stay under the limit.  ExtractorActor, which
    pickles all of webtext by value, does not, and ``by_ref`` brings
    it under."""
    from ray import cloudpickle

    from webtext.functions.media import (FrameSampleActor,
                                         MediaFeatureActor,
                                         MediaResizeActor)
    from webtext.oracle.encoding import PayloadDecoder
    from webtext.stages.actor_pool import by_ref
    from webtext.stages.extractor import ExtractorActor

    limit = 100 * 1024
    for cls in (FrameSampleActor, MediaFeatureActor, MediaResizeActor,
                PayloadDecoder):
        assert len(cloudpickle.dumps(cls)) < limit, cls.__name__
    assert len(cloudpickle.dumps(ExtractorActor)) > limit
    slim = by_ref(ExtractorActor)
    assert len(cloudpickle.dumps(slim)) < limit
    assert slim.__name__ == "ExtractorActor"
