"""IoC extractor tests: defanging, hash classing, overlap and dedup rules."""

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cti2stix import iocs
from cti2stix.iocs import (
    IocMatch,
    fold_observables,
    ioc_entities,
    mask_observables,
    refang,
    scan_iocs,
    unique_iocs,
)
from cti2stix.llm import estimate_tokens
from cti2stix.stix import EntityKind


def types_and_values(text):
    return [(m.ioc_type, m.value) for m in unique_iocs(scan_iocs(text))]


def test_defanged_ipv4_normalized_with_original_kept():
    text = "the C2 server at 92.118.188[.]78 stayed online"
    matches = unique_iocs(scan_iocs(text))
    assert [(m.ioc_type, m.value, m.original) for m in matches] == [
        ("ipv4", "92.118.188.78", "92.118.188[.]78")
    ]


def test_plain_and_paren_defanged_ipv4():
    assert types_and_values("hosts 10.1.2.3 and 10(.)1(.)2(.)4 replied") == [
        ("ipv4", "10.1.2.3"),
        ("ipv4", "10.1.2.4"),
    ]


@pytest.mark.parametrize(
    "text",
    [
        "driver version 10.0.19041.1 shipped",  # 5 dotted parts
        "build 2.0.1.3.4 appeared",
        "octet overflow 999.1.2.3 is not an address",
    ],
)
def test_ipv4_rejects_versions_and_overflow(text):
    assert all(m.ioc_type != "ipv4" for m in unique_iocs(scan_iocs(text)))


def test_sentence_final_ip_still_matches():
    assert types_and_values("traffic went to 10.0.0.1.") == [("ipv4", "10.0.0.1")]


def test_hash_classification_by_length():
    md5 = "d41d8cd98f00b204e9800998ecf8427e"
    sha1 = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    sha256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    text = f"hashes: {md5} then {sha1} then {sha256}"
    assert types_and_values(text) == [("md5", md5), ("sha1", sha1), ("sha256", sha256)]


def test_uppercase_hash_normalized():
    assert types_and_values("MD5 D41D8CD98F00B204E9800998ECF8427E seen") == [
        ("md5", "d41d8cd98f00b204e9800998ecf8427e")
    ]


def test_cve_extraction_case_insensitive():
    assert types_and_values("exploits cve-2021-44228 in the wild") == [("cve", "CVE-2021-44228")]


def test_defanged_url_and_scheme():
    matches = unique_iocs(scan_iocs("payload at hxxp://update.badcdn[.]net/stage2.bin here"))
    assert [(m.ioc_type, m.value) for m in matches] == [
        ("url", "http://update.badcdn.net/stage2.bin")
    ]
    assert matches[0].original == "hxxp://update.badcdn[.]net/stage2.bin"


def test_domain_inside_url_not_duplicated():
    text = "see https://evil.example.org/path and also evil.example.org alone"
    assert types_and_values(text) == [
        ("url", "https://evil.example.org/path"),
        ("domain", "evil.example.org"),
    ]


@pytest.mark.parametrize("text,expected", [
    ("1.2.3.4evil.com", [("ipv4", "1.2.3.4"), ("domain", "evil.com")]),
    ("10.0.0.1.update.badcdn[.]net", [("ipv4", "10.0.0.1"), ("domain", "update.badcdn.net")]),
    ("evil.com1.2.3.4", [("domain", "evil.com"), ("ipv4", "1.2.3.4")]),
    ("hxxp://a.example/x 1.2.3.4evil.exe", [("url", "http://a.example/x"), ("ipv4", "1.2.3.4")]),
    ("1.2.3.4hxxp://update.badcdn[.]net/gate.php",
     [("ipv4", "1.2.3.4"), ("url", "http://update.badcdn.net/gate.php")]),
    ("1.2.3.4." + "5" * 40, [("ipv4", "1.2.3.4"), ("sha1", "5" * 40)]),
    # the hash is taken before the domain scan: the file name around it
    # still yields no domain, and what precedes the hash does
    ("evil.com." + "a" * 32 + ".exe", [("domain", "evil.com"), ("md5", "a" * 32)]),
])
def test_iocs_run_together_are_each_found(text, expected):
    assert types_and_values(text) == expected
    assert unique_iocs(scan_iocs(mask_observables(text, scan_iocs(text)))) == []


def test_cve_after_a_dotted_word_is_not_a_domain():
    text = "fixed in x.CVE-2021-44228, see a.b.CVE-2021-44228.exe"
    assert [(m.ioc_type, m.value) for m in scan_iocs(text)] == [("cve", "CVE-2021-44228")] * 2


def test_domain_wholly_inside_a_url_stays_suppressed():
    text = "get hxxp://1.2.3.4evil.com/gate.php now"
    assert types_and_values(text) == [("url", "http://1.2.3.4evil.com/gate.php")]


def test_defanged_domain():
    assert types_and_values("beacons to update[.]badcdn[.]net nightly") == [
        ("domain", "update.badcdn.net")
    ]


@pytest.mark.parametrize(
    "text",
    [
        "the dropper wrote invoice.exe to disk",
        "a malicious setup.msi installer",
        "see e.g. the appendix",
        "README.txt was left behind",
        # no shorter prefix of a file name is a domain either
        "the page loads jquery.min.js first",
        "it loads System.Management.Automation.dll into memory",
        "a fake Update.Flash.exe installer",
    ],
)
def test_file_names_and_abbreviations_are_not_domains(text):
    assert unique_iocs(scan_iocs(text)) == []


@pytest.mark.parametrize(
    "text",
    [
        "Trojan.Win32.Agent was seen first",
        "it then dropped Win32.Emotet and Backdoor.Win64.Cobalt",
        "operators staged Cobalt.Strike beacons",
        "a Trojan.Agent sample",
    ],
)
def test_av_style_malware_names_are_not_domains(text):
    refused = []
    assert scan_iocs(text, refused) == []
    assert mask_observables(text, scan_iocs(text)) == text
    assert refused and all("." in name and name in text for name in refused)


@pytest.mark.parametrize(
    "text,domain",
    [
        ("beacons to evil.ru", "evil.ru"),              # a two-letter label
        ("beacons to Update.BadCDN.Online", "update.badcdn.online"),
        ("beacons to c2.evil[.]monster", "c2.evil.monster"),  # defanged: any label
        ("beacons to c2(.)evil(.)monster", "c2.evil.monster"),
    ],
)
def test_domains_the_tld_rule_takes(text, domain):
    assert types_and_values(text) == [("domain", domain)]


def test_refused_tokens_are_counted_in_text_order():
    refused = []
    spans = scan_iocs("Cobalt.Strike fetched evil.com, then invoice.exe and c2.evil.monster", refused)
    assert [(m.ioc_type, m.value) for m in spans] == [("domain", "evil.com")]
    assert refused == ["Cobalt.Strike", "invoice.exe", "c2.evil.monster"]


def test_duplicates_collapse_to_first_occurrence():
    text = "10.0.0.1 called twice: 10.0.0.1 and defanged 10[.]0[.]0[.]1"
    matches = unique_iocs(scan_iocs(text))
    assert len(matches) == 1
    assert matches[0].original == "10.0.0.1"


def test_matches_ordered_by_position():
    text = "CVE-2020-0601 then badcdn.net then 10.0.0.5"
    assert [m.ioc_type for m in unique_iocs(scan_iocs(text))] == ["cve", "domain", "ipv4"]


def test_refang_helper():
    assert refang("hxxps://a[.]b") == "https://a.b"
    assert refang("10(.)0(.)0(.)1") == "10.0.0.1"


@pytest.mark.parametrize("text,url", [
    ("hxxp[://]evil.com/a", "http://evil.com/a"),
    ("hxxps[:]//evil.com/a", "https://evil.com/a"),
    ("http:[://]c.com/y", "http://c.com/y"),
    ("http[:][//]c.com/y", "http://c.com/y"),
    ("hxxp:[//]c[.]com/y", "http://c.com/y"),
])
def test_defanged_url_separators(text, url):
    spans = scan_iocs(f"get {text} now")
    assert [(m.ioc_type, m.value, m.original) for m in spans] == [("url", url, text)]
    assert mask_observables(f"get {text} now", spans) == "get [url] now"


def test_hxxp_at_the_start_of_a_domain_is_kept():
    assert types_and_values("C2 at hxxpsrv.com and HXXPbin.net") == [
        ("domain", "hxxpsrv.com"), ("domain", "hxxpbin.net")]


def test_scheme_inside_a_longer_word_is_no_url():
    # why URL_RE keeps its lookbehind: without it, the URL ftp://files.evil.com/x
    assert types_and_values("sftp://files.evil.com/x") == [("domain", "files.evil.com")]


@pytest.mark.parametrize("text,url", [
    ("see xhttp://a.com/x now", "http://a.com/x"),
    ("see _https://b.org/y now", "https://b.org/y"),
    ("see URLhxxp://evil[.]com/a now", "http://evil.com/a"),
])
def test_http_scheme_after_a_letter_or_underscore_is_a_url(text, url):
    spans = scan_iocs(text)
    assert [(m.ioc_type, m.value) for m in spans] == [("url", url)]
    assert "[url]" in mask_observables(text, spans)


def test_ftp_scheme_inside_a_longer_word_is_no_url():
    assert types_and_values("tftp://boot.evil.com/x") == [("domain", "boot.evil.com")]


def reference_refang(value):
    """refang spelled out: each bracketed form in turn (a stray colon before
    ``[://]`` goes with it), then ``hxx`` to ``htt`` where it opens a scheme."""
    for defanged, plain in [("[.]", "."), ("(.)", "."), ("[:]", ":"), (":[://]", "://"),
                            ("[://]", "://"), ("[//]", "//")]:
        value = value.replace(defanged, plain)
    return re.sub(r"^hxx(ps?://)", r"htt\1", value, flags=re.IGNORECASE)


_defang_pieces = st.sampled_from(
    ["h", "H", "x", "X", "xx", "xX", "p", "P", "s", "S", "\u017f", "hxxp", "hXXps", "HxXpS",
     "http", "ftp", "[.]", "(.)", "[:]", "[://]", "[//]", "[", "]", "(", ")", ".", ":", "/", " "]
)


@settings(max_examples=300)
@given(st.lists(_defang_pieces | st.text(max_size=2), max_size=8).map("".join))
@example("hXXps://evil(.)example[.]com/x")
@example("[.]hxxp")
@example("hxxpsrv.com")
@example("http:[://]c.com")
def test_refang_matches_reference(value):
    assert refang(value) == reference_refang(value)


# ---------------------------------------------------------------------------
# entity conversion


def test_cve_becomes_vulnerability_entity():
    ents = ioc_entities(scan_iocs("abuses CVE-2021-44228 remotely"))
    assert len(ents) == 1
    assert ents[0].kind is EntityKind.VULNERABILITY
    assert ents[0].name == "CVE-2021-44228"


def test_indicator_entities_carry_stix_patterns():
    ents = ioc_entities(scan_iocs("C2 at 92.118.188[.]78"))
    assert ents[0].kind is EntityKind.INDICATOR
    assert ents[0].name == "92.118.188.78"
    assert ents[0].extra["pattern"] == "[ipv4-addr:value = '92.118.188.78']"
    assert ents[0].extra["pattern_type"] == "stix"
    assert ents[0].extra["original"] == "92.118.188[.]78"


def test_clean_indicator_has_no_original_field():
    ents = ioc_entities(scan_iocs("C2 at 10.0.0.1"))
    assert "original" not in ents[0].extra


def test_hash_entity_pattern_field():
    sha256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ents = ioc_entities(scan_iocs(f"sample {sha256}"))
    assert ents[0].extra["pattern"] == f"[file:hashes.'SHA-256' = '{sha256}']"


def test_entity_ids_deterministic_across_calls():
    a = ioc_entities(scan_iocs("beacons to badcdn.net"))[0]
    b = ioc_entities(scan_iocs("it resolved badcdn.net again"))[0]
    assert a.id == b.id


def test_no_iocs_in_clean_prose():
    text = "The actor moved laterally and staged archives for exfiltration."
    assert ioc_entities(scan_iocs(text)) == []


# ---------------------------------------------------------------------------
# oracle: the occupancy-map overlap test against a pairwise scan


def reference_spans(pattern, text, taken):
    """Match spans, each found in a gap between the spans taken so far as if
    the gap were the whole text."""
    gaps, pos = [], 0
    for t_start, t_end in sorted(taken) + [(len(text), len(text))]:
        if t_start > pos:
            gaps.append((pos, t_start))
        pos = max(pos, t_end)
    return [(a + m.start(), a + m.end()) for a, b in gaps for m in pattern.finditer(text[a:b])]


def reference_find_iocs(text):
    """``unique_iocs(scan_iocs(text))`` with a list of taken spans in place
    of the occupancy map: the gaps come from the sorted spans, and every
    match is tested against every span taken before it."""
    taken = []
    found = []
    seen = set()
    for ioc_type, pattern in iocs._IOC_PATTERNS:
        for start, end in reference_spans(pattern, text, taken):
            original = text[start:end]
            if ioc_type == "url":
                trimmed = original.rstrip(iocs._URL_TRAILING_JUNK)
                end -= len(original) - len(trimmed)
                original = trimmed
            if any(start < t_end and end > t_start for t_start, t_end in taken):
                continue
            value = iocs._normalize(ioc_type, original)
            if ioc_type == "domain" and not iocs._is_domain(original, value):
                continue
            taken.append((start, end))
            key = (ioc_type, value)
            if key in seen:
                continue
            seen.add(key)
            found.append(IocMatch(ioc_type, value, original, start, end))
    found.sort(key=lambda x: (x.start, x.end))
    return found


_dots = st.sampled_from([".", "[.]", "(.)"])
_octets = st.one_of(st.integers(0, 9), st.integers(0, 300)).map(str)
_ips = st.builds(
    lambda parts, dots: "".join(p + d for p, d in zip(parts, dots)) + parts[-1],
    st.lists(_octets, min_size=4, max_size=4),
    st.lists(_dots, min_size=3, max_size=3),
)
_labels = st.sampled_from(["evil", "cdn-7", "a", "update", "x1", "invoice", "c2"])
_tlds = st.sampled_from(["com", "net", "ru", "exe", "dll", "sh", "io", "agent", "online"])
_domains = st.builds(
    lambda labels, dot, tld: dot.join(labels) + dot + tld,
    st.lists(_labels, min_size=1, max_size=3), _dots, _tlds,
)
_urls = st.builds(
    lambda scheme, sep, host, path, junk: f"{scheme}{sep}{host}/{path}{junk}",
    st.sampled_from(["http", "https", "hxxp", "hXXps", "ftp"]),
    st.sampled_from(["://", ":[://]", ":[//]", "[:]//", "[://]"]),
    st.one_of(_domains, _ips),
    st.sampled_from(["", "gate.php", "a/b?id=1", "x.exe"]),
    st.sampled_from(["", ".", ")", "],", "'"]),
)
_hashes = st.builds(
    lambda n, digits: (digits * 65)[:n],
    st.sampled_from([n + d for n in (32, 40, 64) for d in (-3, -2, -1, 0, 1)]),
    st.text("0123456789abcdefABCDEF", min_size=1, max_size=8),
)
# an IP run on into hex: the hash regexes may then claim a span that shares
# only the IP's last digit, the narrowest overlap there is
_run_ons = st.builds(lambda ip, digits: ip + digits, _ips, _hashes)
_cves = st.builds(lambda y, n: f"CVE-{y}-{n}", st.integers(1999, 2030), st.integers(1000, 9999999))
_filler = st.sampled_from(["the", "C2", "at", "dropped", "10.0", "v1.2.3.4.5", "and", "(", ")"])
_tokens = st.one_of(_ips, _domains, _urls, _hashes, _run_ons, _cves, _filler)
_joiners = st.sampled_from([" ", "", "", ".", "/", ", ", "\n", "[.]"])
_texts = st.lists(st.tuples(_tokens, _joiners), max_size=30).map(
    lambda pairs: "".join(token + joiner for token, joiner in pairs)
)


@given(_urls)
@settings(max_examples=200)
def test_every_defanged_url_refangs_to_a_plain_scheme(url):
    found = scan_iocs(url)
    assert found[0].ioc_type == "url" and found[0].start == 0
    assert re.match(r"(?:https?|ftp)://[^\[(:/]", found[0].value, re.IGNORECASE)


@given(_texts)
@example("C2 10.0.0.4" + "b" * 63 + " and 10.0.0.1" + "a" * 31)  # one shared character
@settings(max_examples=300, deadline=None)
def test_find_iocs_matches_pairwise_reference(text):
    assert unique_iocs(scan_iocs(text)) == reference_find_iocs(text)


# ---------------------------------------------------------------------------
# masking: the prompt text keeps everything but the observables


def test_mask_replaces_every_occurrence_and_keeps_cves():
    text = "C2 92.118.188[.]78, CVE-2021-44228, then 92.118.188.78 and evil.com again"
    spans = scan_iocs(text)
    assert [m.ioc_type for m in spans] == ["ipv4", "cve", "ipv4", "domain"]
    assert [m.ioc_type for m in unique_iocs(scan_iocs(text))] == ["ipv4", "cve", "domain"]
    assert mask_observables(text, spans) == "C2 [ipv4], CVE-2021-44228, then [ipv4] and [domain] again"


_MARKER_RE = re.compile(r"\[(?:url|ipv4|domain|sha256|sha1|md5)\]")


@given(_texts, _texts)
# a hash after an IP and a dot: the marker in its place must not expose the IP
@example("the v1.2.3.4.5000000000000000000000000000000000000000 ", "")
@example("0.0[.]0.10.0.0.000000000000000000000000000000C2 ", "")
# ... and a hash that only the IP after it bounds
@example("", "0.0.0.0." + "000A" * 16 + "0.0.0.0 ")
# a hash inside a file name: the marker in its place must not expose a domain
# an IP run on into a hash: why IPs are scanned before hashes
@example("", "0.0.0.0" + "A" * 32 + " ")
@example("", "0.0.0.256.CVE-1999-10000.0.0.00000000000000000000000000000000.0.0.0evil.exe ")
@settings(max_examples=300, deadline=None)
def test_masked_text_holds_only_the_cves(first, second):
    text = first + " and again " + second + " and again " + first  # repeats
    spans = scan_iocs(text)
    masked = mask_observables(text, spans)
    cves = [(m.ioc_type, m.value) for m in unique_iocs(scan_iocs(text)) if m.ioc_type == "cve"]
    assert [(m.ioc_type, m.value) for m in unique_iocs(scan_iocs(masked))] == cves
    observables = [m for m in spans if m.ioc_type != "cve"]
    assert len(_MARKER_RE.findall(masked)) == len(observables)
    kept, pos = [], 0
    for m in observables:
        kept.append(text[pos:m.start])
        pos = m.end
    kept.append(text[pos:])
    assert _MARKER_RE.sub("", masked) == "".join(kept)


# ---------------------------------------------------------------------------
# folding: a masked IoC table becomes one count line


def test_masked_table_folds_into_one_count_line():
    masked = ("GrimVault beacons to [ipv4].\n\ntype\n\nvalue\n\n"
              + "SHA-256\n\n[sha256]\n\nIP\n\n[ipv4]\n\n" * 3 + "Domain: [domain]\n\nEnd.")
    assert fold_observables(masked) == (
        "GrimVault beacons to [ipv4].\n\ntype\n\nvalue\n\n"
        "[7 observables: 3 sha256, 3 ipv4, 1 domain]\n\nEnd.", 7)


@pytest.mark.parametrize("line,ioc_type,n", [
    ("sha256 | [sha256]", "sha256", 1), ("SHA-1, [sha1]", "sha1", 1), ("md5; [md5]", "md5", 1),
    ("IPv4 [ipv4]", "ipv4", 1), ("ip: [ipv4]", "ipv4", 1), ("URL [url]", "url", 1),
    ("  DOMAIN  [domain]", "domain", 1), ("[url][url]", "url", 2),
])
def test_the_labels_vendors_print_fold(line, ioc_type, n):
    assert fold_observables("\n".join([line] * 4)) == (
        f"[{4 * n} observables: {4 * n} {ioc_type}]", 4 * n)


@pytest.mark.parametrize("masked", [
    "[sha256]",  # the count line would be longer
    "sha256\n[sha256]",
    "sha256 sums of [sha256] and [sha256]",  # a line with another word
    "IPs\n[ipv4]\nIPs\n[ipv4]",
    "sha256sum\n\n[sha256] [sha256]",
    "[ipv4].\n[ipv4].\n[ipv4].",  # a period is no separator
    "[SHA256]\n[SHA256]\n[SHA256]",  # markers are lower case
    "IP\nURL\nDomain\nSHA-256\nmd5",  # no marker
])
def test_what_does_not_fold(masked):
    assert fold_observables(masked) == (masked, 0)


_MARKERS = st.sampled_from(["[url]", "[ipv4]", "[domain]", "[sha256]", "[sha1]", "[md5]"])
_TYPE_LABELS = st.sampled_from(["sha256", "SHA-256", "Sha-1", "sha1", "MD5", "md5", "IPv4",
                                "IP", "ip", "Domain", "URL", "url"])
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " | ", ", ", ": ", ";", "|", ""])
_table_lines = st.builds(
    lambda lead, cells, seps: lead + "".join(c + s for c, s in zip(cells, seps)),
    st.sampled_from(["", " ", "| "]),
    st.lists(_MARKERS | _TYPE_LABELS, min_size=1, max_size=4),
    st.lists(_SEPARATORS, min_size=4, max_size=4),
)
_prose_lines = st.sampled_from([
    "GrimVault beacons to [ipv4] for tasking.",
    "The IP was blocked at the border.",
    "Indicators of compromise",
    "type | value",
    "URL shortener abuse",
    "sha256sum [sha256]",
    "IPs: [ipv4], [ipv4]",
    "[sha256].",
    "[12 observables: 12 md5]",
    "The operators exploit CVE-2023-1234.",
    "Domain-wide policy",
    "ſha256 [sha256]",
    "Type",
    "Hashes",
    "IPs",
])
_blank_lines = st.sampled_from(["", " ", "\t"])
_tables = st.builds(lambda lines, gap: gap.join(lines),
                    st.lists(_table_lines, min_size=1, max_size=12), st.sampled_from(["\n", "\n\n"]))
_masked_texts = st.lists(_tables | _prose_lines | _blank_lines, max_size=12).map("\n".join)
_FOLD_LABELS = {"sha256", "sha-256", "sha1", "sha-1", "md5", "ipv4", "ip", "domain", "url"}
_COUNT_LINE_RE = re.compile(r"\[\d+ observables?: \d+ \w+(?:, \d+ \w+)*\]")


def has_other_word(line):
    """Whether *line* holds a word besides markers and type labels, by a
    split on the separators the fold allows."""
    pieces = re.split(r"[\s,;:|]+", _MARKER_RE.sub(" ", line))
    return any(piece and piece.casefold() not in _FOLD_LABELS for piece in pieces)


def marker_counts(text):
    """Markers in *text* per type, plus those its count-shaped lines carry:
    (markers, carried, count lines)."""
    markers, carried, lines = Counter(), Counter(), Counter()
    markers.update(marker[1:-1] for marker in _MARKER_RE.findall(text))
    for line in text.split("\n"):
        if _COUNT_LINE_RE.fullmatch(line):
            lines[line] += 1
            total, _, parts = line[1:-1].partition(": ")
            assert int(total.split()[0]) == sum(int(p.split()[0]) for p in parts.split(", "))
            for part in parts.split(", "):
                n, ioc_type = part.split()
                carried[ioc_type] += int(n)
    return markers, carried, lines


@given(_masked_texts)
@example("[sha256]\n" * 3)
@example("sha256\n\n[sha256]\n\nIP: [ipv4]")
@example("ip[ipv4]ip\n[ipv4]ip")
@settings(max_examples=300, deadline=None)
def test_fold_properties(masked):
    folded, count = fold_observables(masked)
    # idempotent
    assert fold_observables(folded) == (folded, 0)
    # never more estimated tokens
    assert estimate_tokens(folded) <= estimate_tokens(masked)
    # every line with another word survives, in order; only count lines are new
    lines = folded.split("\n")
    assert all(_COUNT_LINE_RE.fullmatch(line) for line in set(lines) - set(masked.split("\n")))
    kept = [line for line in lines if has_other_word(line) and not _COUNT_LINE_RE.fullmatch(line)]
    assert kept == [line for line in masked.split("\n")
                    if has_other_word(line) and not _COUNT_LINE_RE.fullmatch(line)]
    # the new count lines' totals are the markers they replaced, per type
    markers_before, carried_before, lines_before = marker_counts(masked)
    markers_after, carried_after, lines_after = marker_counts(folded)
    assert lines_after >= lines_before
    assert carried_after - carried_before == markers_before - markers_after
    assert count == (markers_before - markers_after).total()


@given(_masked_texts)
@settings(max_examples=200, deadline=None)
def test_possessive_runs_are_the_greedy_runs(masked):
    # iocs makes the run repeat possessive where Python has it (3.11+)
    greedy = re.compile(iocs._FOLD_RUN_RE.pattern.replace(")*+$", ")*$"), re.MULTILINE)
    assert ([m.span() for m in iocs._FOLD_RUN_RE.finditer(masked)]
            == [m.span() for m in greedy.finditer(masked)])


@given(st.lists(_TYPE_LABELS | _prose_lines.filter(lambda line: "[" not in line)
                | _blank_lines, max_size=20).map("\n".join))
def test_fold_is_the_identity_without_markers(text):
    assert fold_observables(text) == (text, 0)
