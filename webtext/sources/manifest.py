"""Commit manifest: per-partition lineage + metrics, and resume.

Replaces the reference's two filesystem-state mechanisms with one
immutable manifest:

* the ``completed_folder`` move-as-commit marker (update_delivery_file.py
  ref:54-83, run_all_starts.py ref:21-42) → shard-granular commit records;
* the racy in-place URL-file rewrite for error URLs (E14,
  web_text_extractor_ver1.5.py ref:1500-1555) → per-shard reject counts
  recorded immutably; reruns skip committed shards (anti-join by shard id)
  instead of mutating the input.

Each commit record carries lineage + throughput metrics per the
north_rule: shard id, row counts by status, method histogram, output
bytes, seconds, docs/sec.

The manifest is an append-only JSON-lines file beside the output: each
commit appends ONE line (the JSON list of that round's records) and
flushes and fsyncs it, so a round costs O(shards) bytes, not a rewrite
of every earlier round.  A crash mid-append can leave only the last
line unterminated; ``records()`` skips exactly that torn tail (the
round never committed) and raises on any other unreadable line, and
the next ``commit`` truncates the tail away before appending.  Lines
holding a single record object, as older manifests wrote them, read
as one record.
"""

from __future__ import annotations

import json
import os


class CommitManifest:
    DIRNAME = "_manifest"
    FILENAME = "commits.jsonl"

    def __init__(self, output_dir: str):
        self.dir = os.path.join(output_dir, self.DIRNAME)
        self.path = os.path.join(self.dir, self.FILENAME)
        os.makedirs(self.dir, exist_ok=True)

    def records(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        out = []
        with open(self.path, "rb") as f:    # a torn tail may split a
            for line in f:                   # UTF-8 sequence
                if not line.endswith(b"\n"):
                    break            # torn tail: an uncommitted append
                if line.strip():
                    rec = json.loads(line)
                    out.extend(rec if isinstance(rec, list) else [rec])
        return out

    def committed_shards(self) -> set[str]:
        return {r["shard"] for r in self.records()}

    def commit(self, records: list[dict]) -> None:
        """Append one round's shard records as one line, durably."""
        line = json.dumps(records, ensure_ascii=False,
                          sort_keys=True) + "\n"
        with open(self.path, "a+b") as f:
            size = f.seek(0, os.SEEK_END)
            if size:
                f.seek(size - 1)
                if f.read(1) != b"\n":      # drop a torn tail
                    f.seek(0)
                    f.truncate(f.read().rfind(b"\n") + 1)
            f.write(line.encode("utf-8"))
            f.flush()
            os.fsync(f.fileno())

    def totals(self) -> dict:
        recs = self.records()
        keys = ("docs", "ok", "timeout", "failed", "error_pattern",
                "n_chars_out", "seconds")
        tot = {k: 0 for k in keys}
        for r in recs:
            for k in keys:
                tot[k] += r.get(k, 0)
        tot["shards"] = len(recs)
        return tot
