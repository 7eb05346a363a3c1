"""Spans around the calls into each layer, recorded from outside the
program by wrapping public entry points for the length of a ``with``.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of every span opened inside
``extract_document`` add up to its inclusive time exactly.  Counts
(paragraphs in and dropped, budget timeouts, bytes the manifest writes)
are taken at the same boundaries.
"""

from __future__ import annotations

import builtins
import contextlib
import time
from collections import defaultdict


class Tracer:
    """Per-name call count, inclusive and self seconds, and optionally
    every call's duration."""

    def __init__(self, keep_durations=()):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.durations = {name: [] for name in keep_durations}
        self._child = []          # child-time accumulator per open span

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` runs
        once the span is closed, to take counts off the timed path."""
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - child
                if name in self.durations:
                    self.durations[name].append(dt)
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced


_MISSING = object()


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is a list of
    ``(owner, attr, replacement)``; an attribute the owner lacked (a
    builtin shadowed in a module) is deleted again on exit."""
    saved = [(owner, attr, owner.__dict__.get(attr, _MISSING))
             for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _paragraphs(text) -> int:
    if not text:
        return 0
    return sum(1 for p in text.split("\n\n") if p.strip())


def extraction_targets(tr: Tracer):
    """Wrappers for the per-document layers, installed where the caller
    looks each name up (``from x import f`` binds it in the caller)."""
    from webtext.oracle import cascade, cleanup, extract
    from webtext.stages import extractor

    def dedup_counts(args, result):
        n_in = _paragraphs(args[0])
        tr.counts["paragraphs_in"] += n_in
        tr.counts["paragraphs_dropped"] += n_in - _paragraphs(result)

    rdp = cleanup.remove_duplicate_paragraphs

    def remove_dups(text):
        try:
            return rdp(text)
        except cleanup.DedupBudgetExceeded:
            tr.counts["budget_timeouts"] += 1
            raise

    targets = [
        (extractor, "extract_document",
         tr.wrap("extract.extract_document", extractor.extract_document)),
        (extractor.ExtractorActor, "__call__",
         tr.wrap("extractor.batch", extractor.ExtractorActor.__call__)),
        (extract, "parse_html", tr.wrap("dom.parse_html", extract.parse_html)),
        (cascade, "multi_select",
         tr.wrap("dom.multi_select", cascade.multi_select)),
        (extract, "extract_main_content",
         tr.wrap("cascade.extract_main_content",
                 extract.extract_main_content)),
        (extract, "cleanup_extracted_text",
         tr.wrap("cleanup.cleanup_extracted_text",
                 extract.cleanup_extracted_text)),
        (cleanup, "remove_duplicate_paragraphs",
         tr.wrap("cleanup.remove_duplicate_paragraphs", remove_dups,
                 after=dedup_counts)),
        (extract, "normalize_markdown",
         tr.wrap("markdown.normalize_markdown", extract.normalize_markdown)),
        (extract, "extract_pdf_text",
         tr.wrap("pdf.extract_pdf_text", extract.extract_pdf_text)),
    ]
    for attr in ("handle_chiebukuro", "handle_instagram", "handle_twitter",
                 "handle_pinterest", "is_pinterest_navigation_error"):
        targets.append((extract, attr,
                        tr.wrap("handlers", getattr(extract, attr))))
    return targets


class _CountingFile:
    """File proxy that counts the bytes written through it."""

    def __init__(self, f, counter):
        self._f, self._counter = f, counter

    def write(self, s):
        self._counter["manifest_bytes"] += len(
            s.encode("utf-8") if isinstance(s, str) else s)
        return self._f.write(s)

    def __enter__(self):
        self._f.__enter__()
        return self

    def __exit__(self, *exc):
        return self._f.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._f, name)


def pipeline_targets(tr: Tracer):
    """Wrappers for the driver-side calls of the Ray pipelines."""
    from webtext import pipelines
    from webtext.functions import dedup
    from webtext.pipelines import extract_pipeline
    from webtext.sources import manifest

    def counting_open(file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        if any(m in mode for m in "wax+"):
            return _CountingFile(f, tr.counts)
        return f

    mlp = dedup.minhash_lsh_pairs

    def lsh_pairs(ds, *args, **kwargs):
        pairs = mlp(ds, *args, **kwargs).materialize()
        tr.counts["dedup_pairs"] += pairs.count()
        return pairs

    cm = manifest.CommitManifest
    return [
        (pipelines, "run_extraction",
         tr.wrap("extract_pipeline.run_extraction", pipelines.run_extraction)),
        (manifest, "open", counting_open),
        (cm, "commit", tr.wrap("manifest.commit", cm.commit)),
        (cm, "committed_shards",
         tr.wrap("manifest.committed_shards", cm.committed_shards)),
        (extract_pipeline, "list_fragments",
         tr.wrap("io.list_fragments", extract_pipeline.list_fragments)),
        (dedup, "minhash_lsh_pairs", lsh_pairs),
    ]
