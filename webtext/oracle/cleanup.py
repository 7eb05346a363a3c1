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

from collections import Counter
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

    "Similar" is difflib's ``SequenceMatcher(None, a, b).ratio()`` with b
    the kept paragraph.  Worst case O(P² · L) — SURVEY §7 hard-part b, the
    straggler source at scale.  Each pair is first put to exact tests that
    settle it without difflib; none of them changes a result:
      1. the length bound (``real_quick_ratio``'s expression);
      2. the character-count bound (``quick_ratio``'s matches, as a
         Counter intersection);
      3. an exact repeat under 200 chars is a duplicate: without autojunk
         the whole string is the one longest match, so ratio() is 1.0;
      4. the LCS bound: matching blocks form a common subsequence, so
         ratio() <= 2·LCS/(la+lb); the LCS is computed bit-parallel and
         only below ``_LCS_MAX_CELLS``;
      5. otherwise ratio() on b's matcher decides.
    A kept paragraph's Counter, bitmask table and matcher (whose b2j index
    ``set_seq1`` keeps) are each built on first need.  Documents beyond
    the PARA_DEDUP_* budgets raise DedupBudgetExceeded → timeout-sentinel
    row upstream.
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
    kept: list[_Paragraph] = []
    for para in paragraphs:
        a = _Paragraph(para)
        if not any(_similar(a, b, threshold) for b in kept):
            kept.append(a)
    return "\n\n".join(b.text for b in kept)


# la·lb above which step 4 is skipped.  The bit-parallel LCS takes la
# big-int steps of lb bits, so it grows as la·lb, while ratio() gets cheap
# on long repetitive text once autojunk drops popular characters
# (len(b) >= 200).  Measured per pair on one core, LCS against ratio() on
# a cached matcher: at 4,000 × 4,000 chars 3.5 ms against 18 ms for
# sentence prose and 1.2-2.3 ms for text drawn from a few words; at
# 10,000 × 10,000, 20 ms against 101 ms and 3-6 ms.  The guard sits at
# the first crossover, so step 4 adds at most ~3.5 ms to a pair.
_LCS_MAX_CELLS = 4_000 * 4_000


class _Paragraph:
    """One paragraph with the per-paragraph state its comparisons share,
    each piece built on first need."""

    __slots__ = ("text", "n", "_counts", "_masks", "_matcher")

    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self._counts = self._masks = self._matcher = None

    def counts(self) -> Counter:
        if self._counts is None:
            self._counts = Counter(self.text)
        return self._counts

    def masks(self) -> dict[str, int]:
        """char → bitmask of the positions where it occurs."""
        if self._masks is None:
            masks: dict[str, int] = {}
            bit = 1
            for ch in self.text:
                masks[ch] = masks.get(ch, 0) | bit
                bit <<= 1
            self._masks = masks
        return self._masks

    def matcher(self) -> SequenceMatcher:
        if self._matcher is None:
            self._matcher = SequenceMatcher(None, "", self.text)
        return self._matcher


def _lcs_length(a: str, b: _Paragraph) -> int:
    """Length of the longest common subsequence of ``a`` and ``b.text``,
    bit-parallel over b's positions (Allison & Dix 1986; Hyyrö 2004):
    the zero bits of v count the LCS."""
    get = b.masks().get
    v = full = (1 << b.n) - 1
    for ch in a:
        m = get(ch)
        if m:
            u = v & m
            v = (v + u) | (v - u)
    return b.n - (v & full).bit_count()


def _similar(a: _Paragraph, b: _Paragraph, threshold: float) -> bool:
    """``SequenceMatcher(None, a.text, b.text).ratio() > threshold``,
    settled by the exact steps of ``remove_duplicate_paragraphs``."""
    la, lb = a.n, b.n
    total = la + lb
    if not 2.0 * min(la, lb) / total > threshold:
        return False
    if not 2.0 * sum((a.counts() & b.counts()).values()) / total > threshold:
        return False
    if lb < 200 and a.text == b.text:
        return True
    if la * lb <= _LCS_MAX_CELLS:
        if not 2.0 * _lcs_length(a.text, b) / total > threshold:
            return False
    sm = b.matcher()
    sm.set_seq1(a.text)
    return sm.ratio() > threshold


def cleanup_extracted_text(text: str) -> str:
    """URL strip → blank squeeze → strip → printable filter → para dedup.

    ref:161-208.  Order of operations is load-bearing: URL removal runs
    before the printable filter, and paragraph dedup runs last on the
    cleaned text.  The printable filter keeps ``\\n\\t\\r`` plus
    ``str.isprintable()`` characters and drops U+FFFD (ref:195-203).
    """
    if not text:
        return text

    # Each URL pattern needs a "/" or a "www" (any case): URL_RE_HTTP the
    # literal "://", URL_RE_WWW the literal "www.", and every alternative
    # of the broad pattern "://", "www" (any case) or ".tld/"; no code
    # point that (?i)w matches lacks a "w" in its lower().  The first two
    # subs only delete text around a "://" or "www.", so the two flags of
    # the input also cover the broad pattern's input.  Two scans and a
    # lower() settle the common URL-free text.
    slash = "/" in text
    www = "www" in text.lower()
    if slash and "://" in text:
        text = rules.URL_RE_HTTP.sub("", text)
    if www and "www." in text:
        text = rules.URL_RE_WWW.sub("", text)
    if slash or www:
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
