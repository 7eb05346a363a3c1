"""Minimal HTML DOM with the CSS-selector subset the extraction rules need.

This container ships no bs4/lxml/selectolax, so the engine carries its own
small DOM built on the stdlib ``html.parser``.  The API is *not* a
BeautifulSoup clone — it is the minimal surface the oracle extractor
(`webtext.oracle`) needs, with semantics matched to the behaviors the
reference relies on (see /root/reference/common_scripts/
web_text_extractor_ver1.5.py):

- ``get_text(separator, strip)``: joins every descendant text node in
  document order; with ``strip=True`` each text node is stripped and
  whitespace-only nodes are skipped (bs4 behavior the reference uses at
  e.g. ref:625, ref:815, ref:1288).
- ``select``: supports exactly the selector grammar found in the reference
  rule tables (ref:1244-1259, ref:1278-1284, ref:997-1093, ref:1216):
  comma lists, descendant combinator (single space), and compound simple
  selectors ``tag``, ``#id``, ``.cls`` (multi), ``[attr]``, ``[attr=v]``,
  ``[attr*=v]``.  Class selectors match whole class tokens; results are in
  document order without duplicates.
- matching: every selector list goes through a rule hash (``_RuleHash``)
  that files each chain under its rightmost id, first class or tag, so
  one tree walk tests each element only against the chains keyed on its
  own tag, class tokens and id.  ``multi_select`` runs many selector lists
  in one walk; ``select`` memoises the index per CSS string.  Class tokens
  are split once, at parse (``Node.classes``).
- ``decompose``: destructive removal, mutating the tree in place — the
  reference's selector cascade deliberately mutates its soup between
  fallback branches (ref:1285-1287, 1333-1335, 1351-1353), and the engine
  reproduces that by re-parsing per stage and mutating within a stage.
"""

from __future__ import annotations

from html.parser import HTMLParser

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class TextNode:
    __slots__ = ("text", "parent")

    def __init__(self, text: str, parent: "Node | None"):
        self.text = text
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"TextNode({self.text[:30]!r})"


class Node:
    """An element node. ``name`` is the lowercased tag name."""

    __slots__ = ("name", "attrs", "children", "parent", "classes")

    def __init__(self, name: str, attrs: dict[str, str] | None = None,
                 parent: "Node | None" = None):
        self.name = name
        self.attrs = attrs or {}
        self.children: list[Node | TextNode] = []
        self.parent = parent
        # split once: nothing mutates ``attrs`` after parse
        self.classes: list[str] = self.attrs.get("class", "").split()

    # -- attribute helpers -------------------------------------------------
    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    def get(self, key: str, default=None):
        return self.attrs.get(key, default)

    # -- traversal ---------------------------------------------------------
    def walk(self):
        """All descendant elements (not self) in document (DFS pre-) order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, Node):
                yield node
                stack.extend(reversed(node.children))

    def text_nodes(self):
        """All descendant text nodes in document order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                yield node
            else:
                stack.extend(reversed(node.children))

    # -- text --------------------------------------------------------------
    def get_text(self, separator: str = "", strip: bool = False) -> str:
        parts = []
        for tn in self.text_nodes():
            s = tn.text
            if strip:
                s = s.strip()
                if not s:
                    continue
            parts.append(s)
        return separator.join(parts)

    # -- mutation ----------------------------------------------------------
    def decompose(self) -> None:
        """Remove this node (and subtree) from its parent, in place."""
        if self.parent is not None:
            try:
                self.parent.children.remove(self)
            except ValueError:
                pass
            self.parent = None

    # -- finding -----------------------------------------------------------
    def find_all(self, names=None, pred=None) -> list["Node"]:
        """Descendant elements whose tag is in ``names`` (str | set | None)
        and for which ``pred(node)`` is truthy (if given)."""
        if isinstance(names, str):
            names = {names}
        out = []
        for el in self.walk():
            if names is not None and el.name not in names:
                continue
            if pred is not None and not pred(el):
                continue
            out.append(el)
        return out

    def find_first(self, names=None, pred=None) -> "Node | None":
        res = self.find_all(names, pred)
        return res[0] if res else None

    # -- CSS selection -----------------------------------------------------
    def select(self, css: str) -> list["Node"]:
        return _rule_hash(css).select(self)[0]

    def select_one(self, css: str) -> "Node | None":
        res = self.select(css)
        return res[0] if res else None

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"<{self.name} {self.attrs}>"


class Document(Node):
    """Parse root. ``name`` is '[document]'."""

    def __init__(self):
        super().__init__("[document]")

    @property
    def body(self) -> Node | None:
        return self.find_first("body")

    @property
    def title_text(self) -> str:
        t = self.find_first("title")
        return t.get_text(strip=True) if t else ""


# ---------------------------------------------------------------------------
# selector grammar
# ---------------------------------------------------------------------------

def _parse_simple(token: str) -> dict:
    """Parse one compound simple selector: tag, #id, .cls*, [attr op value]*."""
    spec = {"tag": None, "id": None, "classes": [], "attrs": []}
    i, n = 0, len(token)
    while i < n:
        ch = token[i]
        if ch == "#":
            j = i + 1
            while j < n and token[j] not in "#.[":
                j += 1
            spec["id"] = token[i + 1:j]
            i = j
        elif ch == ".":
            j = i + 1
            while j < n and token[j] not in "#.[":
                j += 1
            spec["classes"].append(token[i + 1:j])
            i = j
        elif ch == "[":
            j = token.index("]", i)
            body = token[i + 1:j]
            if "*=" in body:
                k, v = body.split("*=", 1)
                spec["attrs"].append((k.strip(), "*=", v.strip().strip("'\"")))
            elif "=" in body:
                k, v = body.split("=", 1)
                spec["attrs"].append((k.strip(), "=", v.strip().strip("'\"")))
            else:
                spec["attrs"].append((body.strip(), "exists", ""))
            i = j + 1
        else:
            j = i
            while j < n and token[j] not in "#.[":
                j += 1
            spec["tag"] = token[i:j].lower()
            i = j
    return spec


def _split_toplevel_commas(css: str) -> list[str]:
    """Split a selector list on commas that are not inside brackets."""
    parts, depth, cur = [], 0, []
    for ch in css:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _tokenize_chain(sel: str) -> list[str]:
    """Split a single selector into compound/combinator tokens, keeping
    bracketed attribute values (which may contain spaces) intact."""
    tokens, depth, cur = [], 0, []
    for ch in sel:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def _parse_compound_chain(sel: str) -> list[tuple[str, dict]]:
    """Returns [(combinator_to_left, simple), ...] left→right.

    Supported combinators: descendant (whitespace) and adjacent sibling
    ('+') — the subset the rule tables use.
    """
    chain: list[tuple[str, dict]] = []
    pending_comb = " "
    for tok in _tokenize_chain(sel):
        if tok == "+":
            pending_comb = "+"
            continue
        chain.append((pending_comb, _parse_simple(tok)))
        pending_comb = " "
    return chain


def _match_simple(el: Node, spec: dict) -> bool:
    if spec["tag"] and el.name != spec["tag"]:
        return False
    if spec["id"] is not None and el.id != spec["id"]:
        return False
    if spec["classes"]:
        have = el.classes
        for c in spec["classes"]:
            if c not in have:
                return False
    for key, op, val in spec["attrs"]:
        actual = el.attrs.get(key)
        if actual is None:
            return False
        if op == "=" and actual != val:
            return False
        if op == "*=" and val not in actual:
            return False
    return True


def _preceding_sibling_element(el: Node) -> Node | None:
    if el.parent is None:
        return None
    prev = None
    for child in el.parent.children:
        if child is el:
            return prev
        if isinstance(child, Node):
            prev = child
    return None


def _match_chain(el: Node, chain: list[tuple[str, dict]]) -> bool:
    """Right-to-left matching with backtracking over descendant steps."""
    comb, spec = chain[-1]
    if not _match_simple(el, spec):
        return False
    if len(chain) == 1:
        return True
    rest = chain[:-1]
    if comb == "+":
        sib = _preceding_sibling_element(el)
        return sib is not None and _match_chain(sib, rest)
    anc = el.parent
    while anc is not None and anc.name != "[document]":
        if _match_chain(anc, rest):
            return True
        anc = anc.parent
    return False


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Document()
        self.stack: list[Node] = [self.root]

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs},
                    parent=self.stack[-1])
        self.stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        tag = tag.lower()
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs},
                    parent=self.stack[-1])
        self.stack[-1].children.append(node)

    def handle_endtag(self, tag):
        tag = tag.lower()
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].name == tag:
                del self.stack[i:]
                return
        # unmatched end tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(TextNode(data, self.stack[-1]))


# ---------------------------------------------------------------------------
# precompiled multi-selector matching (hot-path helper)
# ---------------------------------------------------------------------------

class CompiledSelector:
    """A parsed selector list (``a, b c, ...``), reusable across documents.

    ``chains`` holds one compound chain per comma part.  Matching goes
    through a ``_RuleHash`` over one or more compiled selectors, which
    ``multi_select`` and ``Node.select`` build once and memoise."""

    __slots__ = ("chains",)

    def __init__(self, css: str):
        self.chains = [_parse_compound_chain(part)
                       for part in _split_toplevel_commas(css)
                       if part.strip()]


class _RuleHash:
    """The browsers' "rule hash" over a sequence of compiled selectors.

    Every chain is filed once under its *rightmost* compound: by id if it
    has one, else by its first class, else by tag; chains whose rightmost
    compound has none of the three (attribute-only) go to ``rest``.  An
    element can only match a chain filed under its own id, one of its
    class tokens or its tag name, so a walk looks up just those
    candidates.  A chain that is nothing but its key (a bare tag, single
    class or id) matches on the key hit alone; every other candidate is
    verified with ``_match_chain``."""

    __slots__ = ("n", "by_id", "by_class", "by_tag", "rest")

    def __init__(self, compiled: tuple[CompiledSelector, ...]):
        self.n = len(compiled)
        self.by_id: dict[str, list] = {}
        self.by_class: dict[str, list] = {}
        self.by_tag: dict[str, list] = {}
        self.rest: list = []
        for i, sel in enumerate(compiled):
            for chain in sel.chains:
                spec = chain[-1][1]
                tag, cid, classes = spec["tag"], spec["id"], spec["classes"]
                if cid is not None:
                    keyed, key = self.by_id, cid
                    bare = not tag and not classes
                elif classes:
                    keyed, key = self.by_class, classes[0]
                    bare = not tag and len(classes) == 1
                elif tag:
                    keyed, key, bare = self.by_tag, tag, True
                else:
                    self.rest.append((i, chain))
                    continue
                bare = bare and len(chain) == 1 and not spec["attrs"]
                keyed.setdefault(key, []).append((i, None if bare else chain))

    def select(self, root: Node) -> list[list[Node]]:
        """Per selector, its matches under ``root`` in document order."""
        out: list[list[Node]] = [[] for _ in range(self.n)]
        by_id, by_class, by_tag = self.by_id, self.by_class, self.by_tag
        rest = self.rest
        for el in root.walk():
            cands = by_tag.get(el.name)
            if cands:
                _hit(el, cands, out)
            if by_class:
                for token in el.classes:
                    cands = by_class.get(token)
                    if cands:
                        _hit(el, cands, out)
            if by_id:
                cands = by_id.get(el.attrs.get("id", ""))
                if cands:
                    _hit(el, cands, out)
            if rest:
                _hit(el, rest, out)
        return out


def _hit(el: Node, cands: list, out: list[list[Node]]) -> None:
    for i, chain in cands:
        found = out[i]
        # one element can reach a selector through several keys
        # (``<header class="header">`` vs ``header, .header``)
        if found and found[-1] is el:
            continue
        if chain is None or _match_chain(el, chain):
            found.append(el)


# memo of built indexes, keyed by a tuple of CompiledSelectors or by one
# CSS string.  A plain dict, not functools.lru_cache: webtext modules ship
# to Ray workers by value, and an lru_cache wrapper only pickles by
# reference.
_RULE_HASHES: dict[tuple[CompiledSelector, ...] | str, _RuleHash] = {}


def _rule_hash(key: tuple[CompiledSelector, ...] | str) -> _RuleHash:
    index = _RULE_HASHES.get(key)
    if index is None:
        if len(_RULE_HASHES) >= 1024:   # bound the memo, not a tuning knob
            _RULE_HASHES.clear()
        index = _RULE_HASHES[key] = _RuleHash(
            (CompiledSelector(key),) if isinstance(key, str) else key)
    return index


def multi_select(root: Node,
                 compiled: list[CompiledSelector]) -> list[list[Node]]:
    """Document-order matches for MANY selectors in ONE tree walk.

    Semantically identical to ``[root.select(s) for s in selectors]``: the
    same DFS as ``select``, each element at most once per selector.  The
    rule hash of ``compiled`` is built on first use and memoised, so every
    element tests only the chains keyed on its tag, classes and id.  This
    is the extraction actor's hot path (the generic cascade probes 15
    selectors, unwanted-removal 28)."""
    return _rule_hash(tuple(compiled)).select(root)


def parse_html(html: str) -> Document:
    builder = _TreeBuilder()
    builder.feed(html or "")
    builder.close()
    return builder.root
