"""Regex extraction of atomic indicators from report text.

Handles the defanging conventions CTI authors use so readers cannot click an
IoC by accident (``92.118.188[.]78``, ``hxxp://evil(.)example``): matches are
normalized to their clean form and the form found in the text is preserved.

CVE identifiers become Vulnerability entities; everything else becomes an
Indicator carrying a STIX pattern for the observable.  Since those values are
entities already, model prompts carry each observable as a type marker
(:func:`mask_observables`), and a run of lines that hold nothing but markers
and type labels, such as a masked IoC table, as one count line
(:func:`fold_observables`).
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .stix import EntityKind, StixEntity

_OCTET = r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"
_DOT = r"(?:\.|\[\.\]|\(\.\))"

SHA256_RE = re.compile(r"\b[a-f0-9]{64}\b", re.IGNORECASE)
SHA1_RE = re.compile(r"\b[a-f0-9]{40}\b", re.IGNORECASE)
MD5_RE = re.compile(r"\b[a-f0-9]{32}\b", re.IGNORECASE)
_HASH_PATTERNS = [("sha256", SHA256_RE), ("sha1", SHA1_RE), ("md5", MD5_RE)]

# an IP is not followed by a digit or by "." and a digit (a version number),
# unless a hash follows the dot: it is masked later, and ``1.2.3.4.[sha1]``
# in the masked text reads as an IP.  The hash scan runs after the IP scan,
# and an IP it took bounds a hex run as a space would, so here a hash ends
# at a word boundary or where an IP starts.  That IP is not itself checked
# for a version number after it: a wrong guess takes the first IP, where a
# miss would leave it beside the hash's marker.
_IP = rf"(?<![\d.])(?:{_OCTET}{_DOT}){{3}}{_OCTET}"
_HASH = "|".join(rf"\b[a-f0-9]{{{n}}}(?:\b|(?={_IP}(?!\d)))" for n in (64, 40, 32))
IPV4_RE = re.compile(rf"{_IP}(?!\d|\.(?!(?i:{_HASH}))\d)")

# an http, https or hxxp scheme may follow anything: a URL run on after an
# IP, a hash or a word (``1.2.3.4http://...``, ``URLhxxp://...``) is found
# whole, before its host is a domain.  An ftp scheme follows anything but a
# letter or "_", so ``sftp://`` and ``tftp://`` hold no ``ftp://`` URL.  The
# separator is ``://`` with the colon, the slashes or both bracketed, or all
# three (``hxxp[://]``, also after a stray colon)
URL_RE = re.compile(
    r"(?:h(?:tt|xx)ps?|(?<![^\W\d])ftp)(?:(?::|\[:\])(?://|\[//\])|:?\[://\])"
    r"[^\s\"'<>]+",
    re.IGNORECASE,
)

_URL_TRAILING_JUNK = ".,;:!?\"')]}>"

CVE_RE = re.compile(r"\bCVE-\d{4}-\d{4,7}\b", re.IGNORECASE)

_HXXP_RE = re.compile(r"hxxps?://", re.IGNORECASE)  # only a scheme is refanged
_UNTAKEN_RE = re.compile(rb"\x00+")

# A dotted token is a domain only where its last label says so: a two-letter
# label (the country codes) or one of the generic TLDs common in IoC feeds.
# CTI prose names malware AV-style (``Trojan.Win32.Agent``, ``Cobalt.Strike``),
# and those names are neither indicators nor masked from prompts.  A defanged
# token is a domain under any TLD; a plain one under a rarer TLD is missed.
# The list is in code on purpose: no IANA list is fetched.
_GENERIC_TLDS = frozenset(
    {
        "app", "asia", "biz", "cloud", "club", "com", "dev", "edu", "gov", "icu",
        "info", "int", "live", "mil", "mobi", "name", "net", "online", "onion",
        "org", "pro", "shop", "site", "space", "store", "tech", "top", "website",
        "xyz",
    }
)

# Domain-looking tokens whose "TLD" is really a file extension are noise in
# CTI prose ("dropped invoice.exe"), so they are filtered out, and so is each
# shorter prefix (``jquery.min.js`` holds no domain), defanged or not.
# Deliberately short: real two-letter TLDs that double as extensions (sh, py)
# stay in.
_FILE_EXT_TLDS = frozenset(
    {
        "apk", "bat", "bin", "bmp", "cfg", "cmd", "cpl", "dat", "dll", "dmg",
        "doc", "docx", "drv", "elf", "exe", "gif", "gz", "ico", "ini", "iso",
        "jar", "jpeg", "jpg", "js", "lnk", "log", "msi", "ocx", "pdf", "png",
        "ppt", "pptx", "ps1", "rar", "scr", "sys", "tar", "tmp", "txt", "vbs",
        "xls", "xlsx", "yml", "yaml", "zip",
    }
)

# "cve" is no TLD: ``x.CVE-2021-44228`` holds a CVE id, not the domain ``x.cve``
DOMAIN_RE = re.compile(
    rf"\b(?:[a-z0-9](?:[a-z0-9-]{{0,61}}[a-z0-9])?{_DOT})+(?!cve\b)[a-z]{{2,24}}\b",
    re.IGNORECASE,
)

# scan order doubles as overlap priority: a domain inside a matched URL is
# not re-reported on its own (see scan_iocs).  Hashes come before domains, so
# a file name the domain pattern refuses still yields the hash inside it, and
# the domain scan sees the text as masking the hash leaves it.
_IOC_PATTERNS: list[tuple[str, re.Pattern[str]]] = [
    ("url", URL_RE),
    ("ipv4", IPV4_RE),
    *_HASH_PATTERNS,
    ("domain", DOMAIN_RE),
    ("cve", CVE_RE),
]

_STIX_PATTERN_FIELD = {
    "ipv4": "ipv4-addr:value",
    "domain": "domain-name:value",
    "url": "url:value",
    "md5": "file:hashes.MD5",
    "sha1": "file:hashes.'SHA-1'",
    "sha256": "file:hashes.'SHA-256'",
}


@dataclass(frozen=True)
class IocMatch:
    ioc_type: str
    value: str       # normalized (refanged, canonical case)
    original: str    # exactly as it appeared in the text
    start: int
    end: int


def refang(value: str) -> str:
    """Undo common defanging: bracketed dots, colons and slashes, and an
    ``hxxp`` scheme (not a token that merely starts ``hxxp``)."""
    out = value.replace("[.]", ".").replace("(.)", ".")
    out = out.replace("[:]", ":").replace(":[://]", "://").replace("[://]", "://")
    out = out.replace("[//]", "//")
    if out.startswith(("h", "H")) and _HXXP_RE.match(out):
        out = "htt" + out[3:]
    return out


def _normalize(ioc_type: str, original: str) -> str:
    value = refang(original)
    if ioc_type in {"md5", "sha1", "sha256"}:
        return value.lower()
    if ioc_type == "cve":
        return value.upper()
    if ioc_type == "domain":
        return value.lower()
    return value


def _is_domain(original: str, value: str) -> bool:
    """Whether a token :data:`DOMAIN_RE` matched, found as *original* and
    normalized to *value*, names a domain (see :data:`_GENERIC_TLDS`)."""
    tld = value.rsplit(".", 1)[-1]
    if tld in _FILE_EXT_TLDS:
        return False
    return len(tld) == 2 or tld in _GENERIC_TLDS or "[" in original or "(" in original


def scan_iocs(text: str, refused: list[str] | None = None) -> list[IocMatch]:
    """Every indicator span in *text*, repeats included, in text order.

    Each pattern reads only the runs of text that earlier patterns left
    untaken, and a taken span bounds a run as a space would: a domain inside
    a URL is not reported on its own, and ``1.2.3.4evil.com`` holds an IP and
    the domain ``evil.com``.  Each dotted token refused as a domain (a file
    name, a malware name) is appended to *refused* when it is given.
    """
    taken = bytearray(len(text))  # 1 where an earlier match occupies the character
    found: list[IocMatch] = []
    for ioc_type, pattern in _IOC_PATTERNS:
        for run_start, run_end in [m.span() for m in _UNTAKEN_RE.finditer(taken)]:
            for m in pattern.finditer(text[run_start:run_end]):
                original = m.group()
                if ioc_type == "url":
                    original = original.rstrip(_URL_TRAILING_JUNK)
                value = _normalize(ioc_type, original)
                if ioc_type == "domain" and not _is_domain(original, value):
                    if refused is not None:
                        refused.append(original)
                    continue
                start = run_start + m.start()
                end = start + len(original)
                taken[start:end] = b"\x01" * (end - start)
                found.append(IocMatch(ioc_type, value, original, start, end))
    found.sort(key=lambda x: (x.start, x.end))
    return found


def unique_iocs(spans: Iterable[IocMatch]) -> list[IocMatch]:
    """The first of *spans* for each (type, normalized value), in order."""
    seen: set[tuple[str, str]] = set()
    found = []
    for match in spans:
        key = (match.ioc_type, match.value)
        if key not in seen:
            seen.add(key)
            found.append(match)
    return found


def mask_observables(text: str, spans: Iterable[IocMatch]) -> str:
    """*text* with each observable among *spans*, as :func:`scan_iocs` found
    them, replaced by a type marker such as ``[sha256]``; CVE ids are kept."""
    parts: list[str] = []
    pos = 0
    for match in spans:
        if match.ioc_type != "cve":
            parts += (text[pos:match.start], f"[{match.ioc_type}]")
            pos = match.end
    parts.append(text[pos:])
    return "".join(parts)


# Folding: a line is foldable when it holds nothing but the markers
# mask_observables writes and the type labels IoC tables print beside them
# (any case), apart from spaces and the separators ``, ; : |``.  A run is
# such lines, with blank lines between them, from line start to line end.
_MARKER = rf"\[({'|'.join(_STIX_PATTERN_FIELD)})\]"
_MARKER_RE = re.compile(_MARKER)
_TYPE_LABEL = r"(?i:\b(?:sha-?256|sha-?1|md5|ipv4|ip|domain|url)\b)"
_FOLD_LINE = rf"[^\S\n]*(?:(?:{_MARKER}|{_TYPE_LABEL})(?:[^\S\n]|[,;:|])*)+"
# The repeat matches each further line to its end, so it never gives a line
# back and can be possessive, as it is from Python 3.11 on: the runs are the
# same, but the regex engine keeps no backtracking state per line, which for
# a 2,000-row table took about 4 MB.
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""
_FOLD_RUN_RE = re.compile(
    rf"^{_FOLD_LINE}(?:\n(?:[^\S\n]*\n)*{_FOLD_LINE}$)*{_POSSESSIVE}$", re.MULTILINE)


def fold_observables(masked: str) -> tuple[str, int]:
    """*masked* text (see :func:`mask_observables`) with each run of
    foldable lines that holds a marker replaced by one count line, such as
    ``[2000 observables: 1600 sha256, 400 ipv4]``, and the number of markers
    so replaced.

    A run is folded only where its count line has fewer characters and no
    more words than the run, so the estimated tokens never rise.  A line
    with any other word is kept, and text with no marker comes back
    unchanged.
    """
    folded = 0

    def fold(match: re.Match[str]) -> str:
        nonlocal folded
        run = match.group()
        counts = Counter(_MARKER_RE.findall(run))
        total = sum(counts.values())
        if not total:
            return run
        noun = "observable" if total == 1 else "observables"
        line = (f"[{total} {noun}: "
                + ", ".join(f"{n} {ioc_type}" for ioc_type, n in counts.items()) + "]")
        # the run has fewer words than the count line when a split of it into
        # at most that many parts gives fewer
        words = len(line.split())
        if len(line) >= len(run) or len(run.split(maxsplit=words - 1)) < words:
            return run
        folded += total
        return line

    return _FOLD_RUN_RE.sub(fold, masked), folded


def _stix_pattern(ioc_type: str, value: str) -> str:
    field = _STIX_PATTERN_FIELD[ioc_type]
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"[{field} = '{escaped}']"


def ioc_entities(spans: Sequence[IocMatch]) -> list[StixEntity]:
    """Indicator/Vulnerability entities for every IoC in *spans*, a text's
    ``scan_iocs``."""
    entities = []
    for match in unique_iocs(spans):
        if match.ioc_type == "cve":
            entities.append(StixEntity(EntityKind.VULNERABILITY, match.value))
            continue
        extra = {
            "indicator_type": match.ioc_type,
            "pattern": _stix_pattern(match.ioc_type, match.value),
            "pattern_type": "stix",
        }
        if match.original != match.value:
            extra["original"] = match.original
        entities.append(StixEntity(EntityKind.INDICATOR, match.value, extra=extra))
    return entities
