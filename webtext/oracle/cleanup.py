"""Text cleanup normalizer (E10) and per-document near-dup removal (E11).

Semantics match the reference's ``_cleanup_extracted_text`` (ref:161-208)
and ``_remove_duplicate_content`` (ref:297-343), where ``ref:`` cites
/root/reference/common_scripts/web_text_extractor_ver1.5.py.

Both are pure, deterministic, per-document functions — they run inside the
extraction actor's batch loop, never as a corpus-wide shuffle (the dedup
here is *within* one document; corpus-level dedup lives in
``webtext.functions.dedup``).
"""

from __future__ import annotations

from difflib import SequenceMatcher

from . import rules


class DedupBudgetExceeded(Exception):
    """Raised when a document exceeds the deterministic E11 cost budget
    (rules.PARA_DEDUP_MAX_PARAGRAPHS).  The dispatcher converts it into
    the reference's timeout-sentinel row (ref:1388-1393, kept at
    ref:1628-1630) — the size-based, reproducible analogue of the
    reference's 600 s wall-clock guard."""


def remove_duplicate_paragraphs(text: str) -> str:
    """Drop paragraphs >0.8-similar to any previously kept paragraph.

    ref:297-343.  Documents shorter than 100 chars or with <2 paragraphs
    pass through untouched.  Order-stable: first occurrence wins.

    Cost notes (worst case O(P² · L) — SURVEY §7 hard-part b, the
    straggler source at scale); none of these change results:
      * quick-ratio upper bounds skip provably-dissimilar pairs;
      * one SequenceMatcher per kept paragraph (seq2 fixed) reuses the
        b2j index across comparisons — ``set_seq1`` keeps b-side state;
      * documents beyond PARA_DEDUP_MAX_PARAGRAPHS raise
        DedupBudgetExceeded → timeout-sentinel row upstream.
    """
    if not text or len(text.strip()) < rules.PARA_DEDUP_MIN_CHARS:
        return text
    paragraphs = [p.strip() for p in text.split("\n\n") if p.strip()]
    if len(paragraphs) < 2:
        return text
    if len(paragraphs) > rules.PARA_DEDUP_MAX_PARAGRAPHS:
        raise DedupBudgetExceeded(
            f"{len(paragraphs)} paragraphs > "
            f"{rules.PARA_DEDUP_MAX_PARAGRAPHS}")
    cost = len(paragraphs) * sum(len(p) for p in paragraphs)
    if cost > rules.PARA_DEDUP_MAX_COST:
        raise DedupBudgetExceeded(
            f"P×chars cost {cost} > {rules.PARA_DEDUP_MAX_COST}")

    threshold = rules.PARA_DEDUP_SIM_THRESHOLD
    unique: list[str] = []
    matchers: list[SequenceMatcher] = []
    for para in paragraphs:
        is_dup = False
        for sm in matchers:
            sm.set_seq1(para)
            # real_quick_ratio/quick_ratio are upper bounds on ratio():
            # if they can't exceed the threshold, ratio() can't either.
            if (sm.real_quick_ratio() > threshold
                    and sm.quick_ratio() > threshold
                    and sm.ratio() > threshold):
                is_dup = True
                break
        if not is_dup:
            unique.append(para)
            sm = SequenceMatcher(None, "", para)
            matchers.append(sm)
    return "\n\n".join(unique)


def cleanup_extracted_text(text: str) -> str:
    """URL strip → blank squeeze → strip → printable filter → para dedup.

    ref:161-208.  Order of operations is load-bearing: URL removal runs
    before the printable filter, and paragraph dedup runs last on the
    cleaned text.  The printable filter keeps ``\\n\\t\\r`` plus
    ``str.isprintable()`` characters and drops U+FFFD (ref:195-203).
    """
    if not text:
        return text

    text = rules.URL_RE_HTTP.sub("", text)
    text = rules.URL_RE_WWW.sub("", text)
    # every alternative of the broad pattern needs "://", "www" (any case)
    # or ".tld/", so a text with no "/" and no "www" cannot match it; no
    # code point that (?i)w matches lacks a "w" in its lower()
    if "/" in text or "www" in text.lower():
        text = rules.URL_RE_BROAD.sub("", text)
    text = rules.BLANK_SQUEEZE_RE.sub("\n\n", text)
    text = text.strip()
    text = text.replace(rules.REPLACEMENT_CHAR, "")
    text = text.translate(_PRINTABLE_TABLE)
    return remove_duplicate_paragraphs(text)


class _PrintableFilterTable(dict):
    """str.translate table equivalent to the per-char loop
    ``ch in '\\n\\t\\r' or ch.isprintable()`` (ref:197-203), memoized per
    codepoint — C-speed instead of a Python generator over every char."""

    def __missing__(self, cp: int):
        ch = chr(cp)
        res = ch if (ch in "\n\t\r" or ch.isprintable()) else None
        self[cp] = res
        return res


_PRINTABLE_TABLE = _PrintableFilterTable()
