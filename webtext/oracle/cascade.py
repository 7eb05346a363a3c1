"""Main-content selector cascade — operator E6, the boilerplate classifier.

Reproduces ``extract_main_content`` (ref:1239-1363) over the engine's own
DOM (webtext.dom).  The cascade, in order:

  (a) per-domain selector rule table          (ref:1263-1268)
  (b) generic selector cascade, longest-text  (ref:1270-1290)
  (c) unwanted-element decompose inside (b)   (ref:1278-1287)
  (d) text-density heuristic with parent boost(ref:1295-1338)
  (e) whole-body fallback, >50 char gate      (ref:1340-1356)
  (f) <title> fallback                        (ref:1358-1361)

Two deliberate reference behaviors preserved:

* the cascade MUTATES its DOM between branches (decomposed unwanted
  elements stay removed when a later branch runs) — callers re-parse per
  stage, exactly as each reference stage re-fetches;
* the heuristic's exclude check is a *substring* match against the
  ``str(list)`` repr of the class list (ref:1304-1306) — e.g. a class
  "badge" is excluded because "ad" ⊂ "badge".  That quirk is part of the
  classifier's observable behavior and is kept bit-for-bit.

Performance: this is the extraction actor's hot path.  All selectors are
precompiled at import, and the selector probes run as ONE tree walk via
``dom.multi_select`` instead of one walk per selector.  That walk goes
through a rule hash built once per selector table: each element looks up
only the chains keyed on its tag, class tokens and id, and a bare tag or
class matches on the lookup alone.  The single behavioral wrinkle — the
reference's (b) loop decomposes inside a matched element and *continues*
when the cleaned text comes out empty, so later selectors see a mutated
tree — is handled by dropping to the per-selector ``Node.select`` path
from that point on (the rare branch); the common case (first matching
selector yields text, or no selector matches) is bit-identical on an
unmutated tree.
"""

from __future__ import annotations

from ..dom import CompiledSelector, Document, Node, multi_select
from . import rules

# method labels for lineage / metrics
M_DOMAIN = "domain_rule"
M_GENERIC = "generic_selector"
M_HEURISTIC = "heuristic"
M_BODY = "body"
M_TITLE = "title"
M_EMPTY = "empty"

_MAIN_COMPILED = [CompiledSelector(s) for s in rules.MAIN_CONTENT_SELECTORS]
_UNWANTED_COMPILED = [CompiledSelector(s) for s in rules.UNWANTED_IN_CONTENT]
_BODY_UNWANTED_COMPILED = [CompiledSelector(s)
                           for s in rules.UNWANTED_IN_BODY]
_DOMAIN_COMPILED = {
    domain: [CompiledSelector(s) for s in sels]
    for domain, sels in rules.DOMAIN_SPECIFIC_SELECTORS.items()
}


def _class_repr(el: Node) -> str:
    """``str(block.get('class', []))`` of the reference (ref:1304)."""
    return str(el.classes).lower()


def _decompose_unwanted(scope: Node, compiled: list[CompiledSelector]) -> None:
    """Remove every element matching any unwanted selector.

    The reference iterates selector-by-selector, decomposing as it goes
    (ref:1285-1287); collecting all matches in one walk first and then
    decomposing yields the identical final text (removal of an
    already-detached subtree's node is a no-op w.r.t. the scope's text).
    """
    for matches in multi_select(scope, compiled):
        for tag in matches:
            tag.decompose()


def extract_main_content(doc: Document, domain: str) -> tuple[str, str]:
    """Returns (text, method); text == "" iff nothing matched (ref:1363)."""

    # (a) per-domain rule table — joins ALL matching elements with \n\n.
    # No mutation inside this loop → upfront multi_select is exact.
    if domain in _DOMAIN_COMPILED:
        for elements in multi_select(doc, _DOMAIN_COMPILED[domain]):
            if elements:
                return (
                    "\n\n".join(
                        el.get_text(separator="\n", strip=True)
                        for el in elements),
                    M_DOMAIN,
                )

    # (b)+(c) generic cascade: first selector with matches; among matches
    # pick the longest-text element; strip unwanted; non-empty text wins.
    per_selector = multi_select(doc, _MAIN_COMPILED)
    mutated_at: int | None = None
    for idx, elements in enumerate(per_selector):
        if mutated_at is not None:
            # slow path: the tree changed under us; recompute live
            elements = doc.select(rules.MAIN_CONTENT_SELECTORS[idx])
        if elements:
            # one match needs no length key (a full subtree walk)
            best = elements[0] if len(elements) == 1 else max(
                elements, key=lambda el: len(el.get_text(strip=True)))
            _decompose_unwanted(best, _UNWANTED_COMPILED)
            main_text = best.get_text(separator="\n", strip=True)
            if main_text:
                return main_text, M_GENERIC
            mutated_at = idx   # empty after removal → continue, mutated

    # (d) text-density heuristic
    text_blocks: list[tuple[Node, str, float]] = []
    for block in doc.find_all(rules.HEURISTIC_BLOCK_TAGS):
        cls_repr = _class_repr(block)
        id_repr = str(block.id).lower()
        if (any(c in cls_repr for c in rules.HEURISTIC_EXCLUDE_CLASSES)
                or block.name in rules.HEURISTIC_EXCLUDE_TAGS
                or any(c in id_repr for c in rules.HEURISTIC_EXCLUDE_CLASSES)):
            continue
        text = block.get_text(strip=True)
        if len(text) > rules.HEURISTIC_MIN_BLOCK_CHARS:
            score = float(len(text))
            parent = block.parent
            while parent is not None and parent.name != "[document]":
                if any(c in _class_repr(parent)
                       for c in rules.HEURISTIC_CONTENTISH_CLASSES):
                    score *= rules.HEURISTIC_PARENT_BOOST
                    break
                parent = parent.parent
            text_blocks.append((block, text, score))

    if text_blocks:
        # stable sort: ties keep document order, like the reference's
        # list.sort (ref:1322-1323)
        text_blocks.sort(key=lambda t: t[2], reverse=True)
        best_block = text_blocks[0][0]
        _decompose_unwanted(best_block, _UNWANTED_COMPILED)
        best_text = best_block.get_text(separator="\n", strip=True)
        if best_text:
            return best_text, M_HEURISTIC

    # (e) whole-body fallback
    body = doc.body
    if body is not None:
        _decompose_unwanted(body, _BODY_UNWANTED_COMPILED)
        body_text = body.get_text(separator="\n", strip=True)
        if body_text and len(body_text) > rules.BODY_FALLBACK_MIN_CHARS:
            return body_text, M_BODY

    # (f) title fallback
    title = doc.title_text
    if title:
        return title, M_TITLE

    return "", M_EMPTY
