"""Report ingestion: fetch, HTML-to-text extraction, sentence segmentation
and chunking.

Vendor blogs wrap the useful prose in very different markup, so extraction is
plugin-driven: a source plugin is pure configuration (URL pattern plus a
selector list), never per-source code.  When no plugin claims a URL, a
generic boilerplate stripper keeps headings, paragraphs, list items, and
table cells in document order and drops script/style/nav subtrees.

This module is the one owner of splitting report text.  Sentence
segmentation is deliberately rule-based and deterministic, and the sentences
tile the source text exactly: joining them in order reproduces the input
byte for byte.  Chunking packs whole sentences greedily into the chunks that
prompts carry, so both pipelines split a report the same way.  The text those
prompts carry is made in one place too, :attr:`Report.prompt_text`: the
report with its observables masked and its IoC tables folded by
:mod:`cti2stix.iocs`.
"""

from __future__ import annotations

import functools
import hashlib
import html
import logging
import re
import string
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Container, Iterable, Union
from urllib.parse import urlparse

import yaml

from .iocs import IocMatch, fold_observables, mask_observables, scan_iocs
from .llm import tokens_for_counts

logger = logging.getLogger(__name__)

_SENTENCE_PUNCT = ".!?"
_CLOSER_CHARS = "\"')]”’»"
# a punctuation run that whitespace or the end of the text follows, maybe
# after closers; a run inside a token (decimals, versions, domains, defanged
# IPs) never matches, so _is_boundary sees only runs that end a token
_PUNCT_RUN = re.compile(f"[{re.escape(_SENTENCE_PUNCT)}]+[{re.escape(_CLOSER_CHARS)}]*(?!\\S)")
_BLANK_LINE = re.compile(r"\n[ \t\r]*\n\s*")
_OPENER_CHARS = "\"'“‘([«"

# Tokens before a period that end an abbreviation, not a sentence.
ABBREVIATIONS = frozenset(
    {
        "al", "approx", "apt", "aug", "ca", "cf", "co", "corp", "dec", "dept",
        "dr", "e.g", "etc", "feb", "fig", "figs", "gen", "gov", "i.e", "inc",
        "jan", "jr", "ltd", "mar", "max", "messrs", "min", "mr", "mrs", "ms",
        "no", "nov", "oct", "prof", "rev", "sep", "sept", "sr", "st", "vs",
    }
)


class FetchError(Exception):
    """A URL could not be retrieved; carries the URL and the cause."""

    def __init__(self, url: str, cause: str):
        super().__init__(f"failed to fetch {url}: {cause}")
        self.url = url
        self.cause = cause


@dataclass
class Report:
    """One source document; what the pipelines derive from its text is
    worked out on first use, once."""

    id: str
    text: str

    @functools.cached_property
    def sentences(self) -> list[str]:
        """``text`` segmented, worked out on first use."""
        return segment_sentences(self.text)

    @functools.cached_property
    def squashed_text(self) -> str:
        """``text`` whitespace-squashed and casefolded, worked out once per
        report for case- and spacing-insensitive substring checks."""
        return collapse_whitespace(self.text).casefold()

    @functools.cached_property
    def _ioc_scan(self) -> tuple[list[IocMatch], list[str]]:
        refused: list[str] = []
        return scan_iocs(self.text, refused), refused

    @property
    def ioc_spans(self) -> list[IocMatch]:
        """Every IoC span in ``text``, found once per report."""
        return self._ioc_scan[0]

    @property
    def refused_domains(self) -> list[str]:
        """The dotted tokens in ``text`` that the scan for ``ioc_spans``
        refused as domains: file names and AV-style malware names."""
        return self._ioc_scan[1]

    @functools.cached_property
    def _prompt(self) -> tuple[str, int]:
        return fold_observables(mask_observables(self.text, self.ioc_spans))

    @property
    def prompt_text(self) -> str:
        """``text`` as model prompts carry it: each observable the regexes
        found is a type marker, as the IoC entities already hold it, and each
        run of lines with only markers and type labels (a masked IoC table)
        is one count line."""
        return self._prompt[0]

    @property
    def folded_observables(self) -> int:
        """How many observables ``prompt_text`` carries in count lines."""
        return self._prompt[1]


@dataclass
class SourcePlugin:
    """Declarative extraction recipe for one report source."""

    name: str
    hosts: list[str]
    selectors: list[str]

    def claims(self, url: str) -> bool:
        host = urlparse(url).hostname  # lower case, without port or user info
        if not host:
            return False
        for pattern in self.hosts:
            pat = pattern.lower()
            if fnmatch(host, pat) or host == pat or host.endswith("." + pat):
                return True
        return False


_PLUGIN_KEYS = ("name", "hosts", "selectors")


def load_plugins(path: Union[str, Path]) -> list[SourcePlugin]:
    """Read plugin definitions from a YAML list (see README for the schema).

    Raises ``ValueError`` on a file that is not such a list, on a key other
    than ``name``, ``hosts`` and ``selectors``, on ``hosts`` or ``selectors``
    that are not lists of strings, and on a selector that :func:`select` does
    not support."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or []
    except yaml.YAMLError as exc:
        raise ValueError(f"not valid YAML: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(item, dict) and "name" in item
                                            for item in raw):
        raise ValueError("a plugin file is a YAML list of mappings, each with a name")
    plugins = []
    for item in raw:
        # a misspelt key would leave a plugin that claims its hosts and selects nothing
        unknown = [key for key in item if key not in _PLUGIN_KEYS]
        if unknown:
            raise ValueError(f"plugin {item['name']!r}: unknown key {unknown[0]!r}; "
                             f"use {', '.join(_PLUGIN_KEYS)}")
        plugin = SourcePlugin(item["name"], item.get("hosts", []), item.get("selectors", []))
        for key in ("hosts", "selectors"):
            value = getattr(plugin, key)
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"plugin {plugin.name!r}: {key} must be a list of strings")
        try:  # with the parser that select uses
            for selector in plugin.selectors:
                _parse_selector(selector)
        except ValueError as exc:
            raise ValueError(f"plugin {plugin.name!r}: {exc}") from exc
        plugins.append(plugin)
    return plugins


def content_hash_id(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# fetching


@dataclass
class FetchResult:
    final_url: str
    content_type: str
    text: str


FETCH_MAX_BYTES = 16 * 1024 * 1024
FETCH_TIMEOUT_S = 30.0
FETCH_MAX_REDIRECTS = 10
FETCH_USER_AGENT = "cti2stix/0.1"


def fetch(url: str) -> FetchResult:
    """GET a report URL with at most ``FETCH_MAX_REDIRECTS`` redirects, a
    ``FETCH_TIMEOUT_S`` timeout and a cap of ``FETCH_MAX_BYTES`` on the
    (decompressed) body."""
    import requests  # only URL inputs pay for it
    try:
        with requests.Session() as session:
            session.max_redirects = FETCH_MAX_REDIRECTS
            with session.get(
                url,
                timeout=FETCH_TIMEOUT_S,
                headers={"User-Agent": FETCH_USER_AGENT},
                allow_redirects=True,
                stream=True,
            ) as resp:
                if resp.status_code != 200:
                    raise FetchError(url, f"HTTP {resp.status_code}")
                body = bytearray()
                for chunk in resp.iter_content(64 * 1024):
                    body += chunk
                    if len(body) > FETCH_MAX_BYTES:
                        raise FetchError(url, f"body exceeds the {FETCH_MAX_BYTES}-byte limit")
                return FetchResult(
                    final_url=resp.url,
                    content_type=resp.headers.get("Content-Type", ""),
                    text=_decode_body(bytes(body), resp.encoding),
                )
    except requests.TooManyRedirects:
        raise FetchError(url, f"more than {FETCH_MAX_REDIRECTS} redirects")
    except requests.RequestException as exc:
        raise FetchError(url, str(exc))


def _decode_body(body: bytes, encoding: str | None) -> str:
    """*body* decoded as ``requests.Response.text`` decodes it: the charset
    of the headers, else the detected one, with undecodable bytes replaced."""
    if not body:
        return ""
    if encoding is None:
        import requests
        chardet = requests.compat.chardet
        encoding = chardet.detect(body)["encoding"] if chardet is not None else "utf-8"
    try:
        return str(body, encoding or "utf-8", errors="replace")
    except (LookupError, TypeError):
        return str(body, errors="replace")


# ---------------------------------------------------------------------------
# HTML tokenizer and a minimal DOM with CSS-ish selectors

_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

_SKIP_TAGS = {"script", "style", "nav", "noscript", "template"}
_BLOCK_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6", "p", "li", "td", "th"}

# The markup grammar is html.parser's tolerant one, so the tree is the one
# that parser built.  A bare start tag or an end tag is matched in one go
# (most tags of IoC tables are bare ones, and this takes about a third off
# their parse time); everything else at "<" goes through the patterns below.
_TOKEN = re.compile(r"<(?:([a-zA-Z][^\t\n\r\f />\x00]*)>|/\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>)?")
_START_TAG = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # single-quoted value
          |"[^"]*"                   # double-quoted value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*
""", re.VERBOSE)
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRIBUTE = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*")
_ASCII_LETTERS = frozenset(string.ascii_letters)
# a start tag stops short of its ">" at one of these only when it is cut off
_UNFINISHED_TAG = _ASCII_LETTERS | {"=", "/"}
_COMMENT_END = re.compile(r"--\s*>")
_SECTION_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_SECTION_ENDS = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
# case-insensitive in ASCII only, like the end-tag pattern that has to agree
_RAW_TEXT_END = {
    tag: re.compile(r"</\s*" + "".join(f"[{c}{c.upper()}]" for c in tag) + r"\s*>")
    for tag in ("script", "style")
}


class _Element:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: dict[str, str | None], parent: "_Element | None"):
        self.tag = tag
        self.attrs = attrs
        self.children: list[Union[_Element, str]] = []
        self.parent = parent

    @property
    def classes(self) -> set[str]:
        return set((self.attrs.get("class") or "").split())

    # traversals use explicit stacks (children pushed in reverse to keep
    # document order) so arbitrarily deep markup cannot hit the recursion
    # limit; *skip* leaves out elements together with everything under them,
    # and text() also leaves out script/style/nav subtrees

    def walk(self, skip: Container["_Element"] = ()) -> Iterable["_Element"]:
        stack: list[_Element] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(c for c in reversed(node.children)
                         if isinstance(c, _Element) and c not in skip)

    def text(self, skip: Container["_Element"] = ()) -> str:
        parts: list[str] = []
        stack: list[Union[_Element, str]] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif node not in skip and node.tag not in _SKIP_TAGS:
                stack.extend(reversed(node.children))
        return "".join(parts)


def _start_tag(markup: str, i: int) -> tuple[int, str, dict[str, str | None], bool]:
    """The start tag at *i* that the bare-tag pattern did not match, as
    ``(end, tag, attrs, self_closing)``; *tag* is empty when the markup there
    is junk that stands as raw text, and *end* is -1 when the tag is cut off
    by the end of the input."""
    j = _START_TAG.match(markup, i).end()
    after = markup[j:j + 1]
    if after == ">":
        end = j + 1
    elif markup.startswith("/>", j):
        end = j + 2
    elif not after or after in _UNFINISHED_TAG:
        return -1, "", {}, False
    else:
        end = j
    name = _TAG_NAME.match(markup, i + 1)
    k = name.end()
    attrs: dict[str, str | None] = {}
    while k < end:
        m = _ATTRIBUTE.match(markup, k)
        if not m:
            break
        key, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = html.unescape(value)
        attrs[key.lower()] = value
        k = m.end()
    close = markup[k:end].strip()
    if close != ">" and close != "/>":
        return end, "", {}, False
    return end, name.group(1).lower(), attrs, close == "/>"


def _markup_end(markup: str, i: int) -> int:
    """End of the comment, declaration or processing instruction at *i*
    (none of them adds to the tree), or -1 when it runs to the end of the
    input."""
    if markup.startswith("<!--", i):
        m = _COMMENT_END.search(markup, i + 4)
        return m.end() if m else -1
    if markup.startswith("<![", i):
        m = _SECTION_NAME.match(markup, i + 3)
        if m is not None and m.end() == len(markup):
            return -1
        close = _SECTION_ENDS.get(m.group().strip().lower()) if m else None
        if close is not None:
            m = close.search(markup, i + 3)
            return m.end() if m else -1
        # a missing or unknown keyword makes a bogus comment, as in HTML5
    elif markup[i:i + 9].lower() == "<!doctype":
        gt = markup.find(">", i + 9)
        return gt + 1 if gt >= 0 else -1
    gt = markup.find(">", i + 2)
    return gt + 1 if gt >= 0 else -1


def parse_html(markup: str) -> _Element:
    """Element tree of *markup*, built in one left-to-right pass.

    The grammar is html.parser's: tag and attribute names lowercased,
    attribute values unquoted and unescaped, void tags never opened, the text
    of ``script`` and ``style`` kept raw up to their end tag, other text
    unescaped, comments, declarations and processing instructions dropped,
    and a start tag ending in ``/>`` opened and closed at once.  An end tag
    closes the innermost open element of its name together with everything
    opened inside it; an end tag with no open element of its name is ignored.

    End of input: a tag, comment, declaration or processing instruction that
    runs to the end of the input is dropped together with the rest of the
    input, as a browser hides it; the raw text of a ``script``/``style``
    element that runs to the end is kept as its text, and a lone "<" at the
    very end is text.  Scanning resumes after each construct and never
    restarts from an earlier "<", so the time grows linearly with the input.
    """
    root = node = _Element("#document", {}, None)
    open_count: dict[str, int] = {}
    unescape = html.unescape
    n = len(markup)
    pos = 0
    while pos < n:
        m = _TOKEN.search(markup, pos)
        i = m.start() if m else n
        if i > pos:
            text = markup[pos:i]
            if "&" in text:
                text = unescape(text)
            if text:
                node.children.append(text)
        if m is None:
            break
        kind = m.lastindex
        if kind == 1:
            tag, attrs, self_closing, pos = m.group(1).lower(), {}, False, m.end()
        elif kind == 2 or markup.startswith("</", i):
            if kind == 2:
                tag, pos = m.group(2).lower(), m.end()
            else:  # junk after the name, or no name: then a bogus comment
                gt = markup.find(">", i + 2)
                if gt < 0:
                    break
                name = _TAG_NAME.match(markup, i + 2)
                tag, pos = (name.group(1).lower() if name else ""), gt + 1
            if open_count.get(tag):
                while True:
                    closed = node.tag
                    open_count[closed] -= 1
                    node = node.parent
                    if closed == tag:
                        break
            continue
        elif markup[i + 1:i + 2] in _ASCII_LETTERS:
            pos, tag, attrs, self_closing = _start_tag(markup, i)
            if pos < 0:
                break
            if not tag:
                node.children.append(markup[i:pos])
                continue
        elif markup.startswith("<!", i) or markup.startswith("<?", i):
            pos = _markup_end(markup, i)
            if pos < 0:
                break
            continue
        else:
            node.children.append("<")
            pos = i + 1
            continue

        element = _Element(tag, attrs, node)
        node.children.append(element)
        if self_closing or tag in _VOID_TAGS:
            continue
        node = element
        open_count[tag] = open_count.get(tag, 0) + 1
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None:
            m = raw_end.search(markup, pos)
            stop = m.start() if m else n
            if stop > pos:
                node.children.append(markup[pos:stop])
            if m is None:
                break
            open_count[tag] -= 1
            node = node.parent
            pos = m.end()
    return root


@dataclass(frozen=True)
class _SimpleSelector:
    tag: str
    id: str
    classes: frozenset[str]

    def matches(self, element: _Element) -> bool:
        if self.tag and element.tag != self.tag:
            return False
        if self.id and element.attrs.get("id") != self.id:
            return False
        return self.classes <= element.classes


def _parse_selector(selector: str) -> list[_SimpleSelector]:
    parts = []
    for token in selector.split():
        m = re.fullmatch(r"([a-zA-Z][\w-]*)?(?:#([\w-]+))?((?:\.[\w-]+)*)", token)
        if not m:
            raise ValueError(f"unsupported selector: {selector!r}")
        tag, ident, class_blob = m.group(1) or "", m.group(2) or "", m.group(3) or ""
        classes = frozenset(c for c in class_blob.split(".") if c)
        parts.append(_SimpleSelector(tag, ident, classes))
    if not parts:
        raise ValueError("empty selector")
    return parts


def select(root: _Element, selector: str) -> list[_Element]:
    """Document-order matches for a selector subset: ``tag``, ``#id``,
    ``.class`` (combinable, e.g. ``div.article-body``) and the descendant
    combinator (space)."""
    *ancestors, last = _parse_selector(selector)
    out = []
    # each element with how many of *ancestors* its own ancestors match in
    # turn, greedily from the root: a match needs all of them
    stack = [(root, 0)]
    while stack:
        element, matched = stack.pop()
        if (matched == len(ancestors) and element.tag != "#document"
                and last.matches(element)):
            out.append(element)
        if matched < len(ancestors) and ancestors[matched].matches(element):
            matched += 1
        stack.extend((c, matched) for c in reversed(element.children)
                     if isinstance(c, _Element))
    return out


def collapse_whitespace(text: str) -> str:
    """*text* with each whitespace run turned into one space, ends trimmed."""
    return " ".join(text.split())


def _blocks_under(element: _Element, skip: Container[_Element] = ()) -> list[str]:
    """Heading/paragraph/list/table-cell texts under *element*, in document
    order, skipping script/style/nav subtrees and the elements in *skip*.  A
    matched block is emitted whole, less its own script/style/nav subtrees;
    nested block tags inside it are not emitted again."""
    blocks: list[str] = []
    stack: list[Union[_Element, str]] = list(reversed(element.children))
    while stack:
        node = stack.pop()
        if not isinstance(node, _Element) or node.tag in _SKIP_TAGS or node in skip:
            continue
        if node.tag in _BLOCK_TAGS:
            text = collapse_whitespace(node.text(skip))
            if text:
                blocks.append(text)
            continue
        stack.extend(reversed(node.children))
    return blocks


def extract_article(
    markup: str,
    url: str = "",
    plugins: Iterable[SourcePlugin] = (),
) -> str:
    """Turn raw HTML into body text.

    The first plugin whose host pattern claims the URL is used; if it selects
    nothing (layout drifted), the generic extractor takes over with a
    warning.  Blocks are joined with blank lines so paragraph boundaries
    survive into segmentation.
    """
    root = parse_html(markup)
    plugin = next((p for p in plugins if p.claims(url)), None)
    blocks: list[str] = []
    if plugin is not None:
        # regions in selector order, then document order; each element
        # belongs to the first region that holds it, so a region inside an
        # earlier one adds nothing and one around it leaves it out
        taken: set[_Element] = set()
        for selector in plugin.selectors:
            for region in select(root, selector):
                if region in taken:
                    continue
                inside = list(region.walk(taken))
                region_blocks = _blocks_under(region, taken)
                if region_blocks:
                    blocks.extend(region_blocks)
                else:
                    # the region's own text, less script/style/nav subtrees
                    text = collapse_whitespace(region.text(taken))
                    if text:
                        blocks.append(text)
                taken.update(inside)
        if not blocks:
            logger.warning(
                "plugin %s matched %s but selected no content; using generic extractor",
                plugin.name,
                url or "<unnamed document>",
            )
    if not blocks:
        blocks = _blocks_under(root)
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# sentence segmentation


def _prev_token(text: str, dot: int) -> str:
    """Word characters immediately before position *dot* (letters/digits)."""
    i = dot
    while i > 0 and (text[i - 1].isalnum() or text[i - 1] == "."):
        i -= 1
    return text[i:dot]


def _is_boundary(text: str, i: int) -> int:
    """If a sentence ends at the start *i* of a ``_PUNCT_RUN`` match, return
    the index where the next sentence starts; else -1."""
    j = i
    while j < len(text) and text[j] in _SENTENCE_PUNCT:
        j += 1
    run = text[i:j]
    while j < len(text) and text[j] in _CLOSER_CHARS:
        j += 1

    if run == ".":
        token = _prev_token(text, i).rstrip(".")
        token = token.rsplit(".", 1)[-1] if "." in token else token
        before = _prev_token(text, i).lower().rstrip(".")
        if before in ABBREVIATIONS:
            return -1
        if len(token) == 1 and token.isalpha():
            return -1  # initials such as "J. Smith" or "e.g." / "U.S."

    k = j
    while k < len(text) and text[k].isspace():
        k += 1
    if k == len(text):
        return -1  # trailing whitespace stays with the final sentence
    nxt = text[k]
    if nxt.isupper() or nxt.isdigit() or nxt in _OPENER_CHARS:
        return k
    return -1


def _blank_line_starts(text: str) -> list[int]:
    starts = []
    for m in _BLANK_LINE.finditer(text):
        if m.end() < len(text):
            starts.append(m.end())
    return starts


def segment_sentences(text: str) -> list[str]:
    """Deterministic sentence segmentation whose sentences tile the input.

    Boundaries fall after terminal punctuation followed by whitespace and an
    upper-case/digit/opening-quote start, with guards for decimals,
    abbreviations, and single-letter initials; a blank line is always a
    boundary (headings carry no terminal punctuation).
    """
    if not text:
        return []
    starts: set[int] = set(_blank_line_starts(text))
    pos = 0
    while (m := _PUNCT_RUN.search(text, pos)) is not None:
        nxt = _is_boundary(text, m.start())
        if nxt > 0:
            starts.add(nxt)
            pos = nxt
        else:
            pos = m.end()

    ordered = sorted(s for s in starts if 0 < s < len(text))
    bounds = [0] + ordered + [len(text)]
    return [text[start:end] for start, end in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# chunking

# the largest chunk any prompt carries, sized for a GPT-3.5-class window
CHUNK_TOKENS = 1024


def _pack(pieces: Iterable[str], budget: int,
          oversized: Callable[[str], list[str]]) -> list[str]:
    """Greedy chunks of consecutive *pieces*, each of at most *budget*
    estimated tokens.  A piece over the budget on its own ends the chunk
    being built and is replaced by ``oversized(piece)``.  Word and character
    counts of the chunk being built are kept as it grows, so the cost is
    linear in the total length of the pieces."""
    chunks: list[str] = []
    current: list[str] = []
    words = chars = 0
    for piece in pieces:
        piece_words = len(piece.split())
        if tokens_for_counts(piece_words, len(piece)) > budget:
            if current:
                chunks.append("".join(current))
                current, words, chars = [], 0, 0
            chunks.extend(oversized(piece))
            continue
        if current and tokens_for_counts(words + piece_words, chars + len(piece)) > budget:
            chunks.append("".join(current))
            current, words, chars = [], 0, 0
        current.append(piece)
        words += piece_words
        chars += len(piece)
    if current:
        chunks.append("".join(current))
    return chunks


def _split_oversized(piece: str, budget: int) -> list[str]:
    """Split one over-budget sentence at word boundaries (whitespace stays
    attached to the preceding word so concatenation is lossless)."""
    # every token but a leading blank one is one word and follows
    # whitespace, so joining tokens never merges two words; a single word
    # over the budget is cut into runs of 8 * budget characters, which hold
    # at most one word and so estimate at most max(2, budget) tokens
    step = 8 * budget
    return _pack(re.findall(r"\S+\s*|\s+", piece), budget,
                 lambda word: [word[i:i + step] for i in range(0, len(word), step)])


def chunk_text(text: str, budget: int) -> list[str]:
    """Greedy sentence-boundary chunks of at most *budget* estimated tokens.

    Chunks concatenate back to the input exactly.  A single sentence larger
    than the budget is split at word boundaries as a last resort.
    """
    if budget <= 0:
        raise ValueError("chunk budget must be positive")
    # every sentence but the first starts after whitespace, so joining
    # sentences never merges two words and the counts simply add up
    return _pack(segment_sentences(text), budget, lambda piece: _split_oversized(piece, budget))


def make_report(text: str, report_id: str | None = None) -> Report:
    """Assemble a :class:`Report`; ids default to a hash of the body text."""
    return Report(id=report_id or content_hash_id(text), text=text)


def report_from_path(path: Union[str, Path], plugins: Iterable[SourcePlugin] = ()) -> Report:
    """Build a report from a local ``.txt`` or ``.html`` file; the file stem
    becomes the report id."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() in {".html", ".htm"}:
        text = extract_article(text, plugins=plugins)
    return make_report(text, report_id=p.stem)


def report_from_url(url: str, plugins: Iterable[SourcePlugin] = ()) -> Report:
    """Build a report from a fetched page; the id is a hash of its text."""
    result = fetch(url)
    body = result.text
    if "html" in result.content_type.lower() or body.lstrip()[:1] == "<":
        body = extract_article(body, url=result.final_url, plugins=plugins)
    return make_report(body)
