import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cti2stix.attack_patterns import (
    _QUERY_BLOCK,
    SBSA_PROMPT,
    VTE_PROMPT,
    AttackPatternConfig,
    classify_vector,
    classify_vectors,
    detect_explicit_techniques,
    run_attack_pattern_pipeline,
    strategy_ot,
    strategy_sbsa,
    strategy_vte,
)
from cti2stix.catalog import TechniqueCatalog
from cti2stix.audit import AuditTrail
from cti2stix.ingest import make_report
from cti2stix.llm import HashEmbedder, ScriptedProvider

from conftest import SBSA_RESPONSE, VTE_CANDIDATE, cosine, row_technique_ids


def vte_provider(response):
    return ScriptedProvider(script=[("Return any relevant text verbatim", response)])


def sbsa_provider(response):
    return ScriptedProvider(script=[("Describe step by step", response)])


def candidate_counts(trail):
    (event,) = [e for e in trail.events if e.data.get("rule") == "candidates"]
    return event.data["counts"]


def explicit_ids(trail):
    return [e.data["technique"] for e in trail.events if e.data.get("rule") == "explicit-id"]


def run_pipeline(report, catalog, provider, config=None):
    """(technique ids, matches, trail) of one pipeline run on a fresh trail."""
    trail = AuditTrail(report.id)
    matches = run_attack_pattern_pipeline(report, catalog, provider, trail, config)
    return [m.technique_id for m in matches], matches, trail


def run_vte(report, provider):
    """(candidates, warning decisions) of one vte run on a fresh trail."""
    trail = AuditTrail("test")
    found = strategy_vte(report, provider, trail)
    return found, trail.warnings()


class TestVte:
    def test_prompt_is_exact(self, helloxd_report):
        provider = vte_provider("No relevant text")
        run_vte(helloxd_report, provider)
        assert provider.prompts == [VTE_PROMPT.format(text=helloxd_report.text)]

    def test_negative_response_yields_nothing(self, helloxd_report):
        for response in ("No relevant text.", "Nothing."):
            found, warnings = run_vte(helloxd_report, vte_provider(response))
            assert found == []
            assert warnings == []

    def test_verbatim_sentence_kept(self, helloxd_report):
        found, warnings = run_vte(helloxd_report, vte_provider(VTE_CANDIDATE))
        assert found == [VTE_CANDIDATE]
        assert warnings == []

    def test_paraphrase_dropped_with_warning(self, helloxd_report):
        fake = "The malware encrypts absolutely everything it can reach."
        found, warnings = run_vte(helloxd_report, vte_provider(fake))
        assert found == []
        assert warnings == [{"seq": 2, "stage": "attack-pattern", "rule": "non-verbatim",
                             "strategy": "vte", "chunk": 0, "text": fake,
                             "warning": "quote is not verbatim in its chunk"}]

    def test_two_paragraphs_become_two_candidates(self, helloxd_report):
        first = "HelloXD is a ransomware family that surfaced in November 2021"
        response = f"{first}\n\n{VTE_CANDIDATE}"
        found, warnings = run_vte(helloxd_report, vte_provider(response))
        assert found == [first, VTE_CANDIDATE]
        assert warnings == []

    def test_guard_is_whitespace_insensitive(self, helloxd_report):
        # model re-wrapped the quoted line; still verbatim after squashing
        rewrapped = VTE_CANDIDATE.replace("secures its", "secures\nits")
        found, warnings = run_vte(helloxd_report, vte_provider(rewrapped))
        assert len(found) == 1
        assert warnings == []

    def test_mixed_response_keeps_only_verbatim(self, helloxd_report):
        response = f"{VTE_CANDIDATE}\n\nTotally invented claim about kernels."
        found, warnings = run_vte(helloxd_report, vte_provider(response))
        assert found == [VTE_CANDIDATE]
        assert len(warnings) == 1


class TestSbsa:
    def test_prompt_is_exact(self, helloxd_report):
        provider = sbsa_provider("1. One fact.")
        strategy_sbsa(helloxd_report, provider, AuditTrail("test"))
        assert provider.prompts == [SBSA_PROMPT.format(text=helloxd_report.text)]

    def test_three_steps_in_order(self, helloxd_report):
        found = strategy_sbsa(helloxd_report, sbsa_provider(SBSA_RESPONSE), AuditTrail("test"))
        assert found == [
            "HelloXD encrypts victim files on Windows and Linux hosts.",
            "The malware talks to its operators over a custom encrypted channel.",
            "Victims negotiate through the Tox messenger.",
        ]

    @pytest.mark.parametrize(
        "line,expected",
        [
            ("- dash bullet", "dash bullet"),
            ("* star bullet", "star bullet"),
            ("3) paren number", "paren number"),
            ("Step 2: labelled step", "labelled step"),
            ("plain sentence.", "plain sentence."),
        ],
    )
    def test_step_prefixes_stripped(self, helloxd_report, line, expected):
        found = strategy_sbsa(helloxd_report, sbsa_provider(line), AuditTrail("test"))
        assert found == [expected]

    def test_blank_and_negative_lines_dropped(self, helloxd_report):
        found = strategy_sbsa(helloxd_report,
                              sbsa_provider("1. Fact.\n\nnone\n2. Other.\n3. Unknown."),
                              AuditTrail("test"))
        assert found == ["Fact.", "Other."]


class TestOt:
    def test_every_sentence_is_a_candidate(self, helloxd_report):
        found = strategy_ot(helloxd_report)
        assert len(found) == len(helloxd_report.sentences)
        assert VTE_CANDIDATE in found

    def test_needs_no_provider(self):
        report = make_report("One sentence. Two sentences here.", report_id="r")
        found = strategy_ot(report)
        assert found == ["One sentence.", "Two sentences here."]


class TestCosine:
    def test_identical_is_one(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_opposite_is_minus_one(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, -v) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_tiny_vector_keeps_its_direction(self):
        # squared, these components underflow to subnormals or to zero
        a = np.array([0.0, 8.426796176162971e-160, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert cosine(a, b) == 1.0
        assert cosine(a * 0.125, b) == 1.0
        assert cosine(np.array([1e-170, 1e-170]), np.array([1.0, 0.0])) == (
            pytest.approx(np.sqrt(0.5))
        )

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.1, 7.0),
    )
    @example(a=[5e-324, 0.0, 0.0], b=[1.0, 0.0, 0.0], scale=0.5)
    def test_symmetric_and_scale_invariant(self, a, b, scale):
        va, vb = np.array(a), np.array(b)
        assert cosine(va, vb) == pytest.approx(cosine(vb, va))
        # scaling keeps a vector's direction only while its nonzero components
        # stay normal floats: below that they lose bits, or vanish as
        # 5e-324 * 0.5 does (test_vector_scaled_to_zero_scores_zero)
        assume(((va == 0) | (np.abs(va * scale) >= np.finfo(np.float64).tiny)).all())
        assert cosine(va * scale, vb) == pytest.approx(cosine(va, vb), abs=1e-9)

    def test_vector_scaled_to_zero_scores_zero(self):
        a = np.array([5e-324, 0.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        assert cosine(a, b) == 1.0
        assert not (a * 0.5).any()
        assert cosine(a * 0.5, b) == 0.0


def catalog_of(technique_ids, vectors):
    """A catalog whose row i, ``vectors[i]``, belongs to ``technique_ids[i]``,
    each technique named by its id."""
    return TechniqueCatalog.from_rows("stub", "s", [(tid, tid) for tid in technique_ids],
                                      vectors)


def geometry_catalog(dtype=np.float64):
    return TechniqueCatalog.from_rows(
        "stub", "stub",
        [("T1001", "Alpha"), ("T1001", "Alpha"), ("T1002", "Bravo"), ("T1003", "Charlie")],
        np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0], [0.0, 1.0]], dtype=dtype),
    )


def brute_force_classify(vector, catalog, threshold):
    """Reference classifier: pure-python cosines, no numpy reductions."""
    best = {}
    for tid, row in zip(row_technique_ids(catalog), catalog.vectors):
        score = reference_cosine(vector, row)
        best[tid] = max(score, best.get(tid, score))
    return {tid: score for tid, score in sorted(best.items()) if score >= threshold}


class TestClassify:
    def test_single_match_at_high_threshold(self):
        hits = classify_vector(np.array([1.0, 0.0]), geometry_catalog(), 0.9)
        assert list(hits) == ["T1001"]
        assert hits["T1001"] == pytest.approx(1.0)

    def test_multi_label(self):
        hits = classify_vector(np.array([1.0, 0.3]), geometry_catalog(), 0.85)
        assert list(hits) == ["T1001", "T1002"]

    def test_threshold_monotonic(self):
        vec = np.array([0.9, 0.45])
        catalog = geometry_catalog()
        previous = None
        for threshold in (0.5, 0.7, 0.8, 0.9, 0.99):
            now = set(classify_vector(vec, catalog, threshold))
            if previous is not None:
                assert now <= previous
            previous = now

    @given(
        st.lists(
            st.lists(st.floats(-1, 1), min_size=4, max_size=4),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        st.floats(0.1, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    @example(entry_vecs=[[0.0, 0.0, 0.0, -1.0]], candidate=[0.0, 0.0, 0.0, -7.45e-206],
             threshold=0.5)
    @example(entry_vecs=[[0.0, 0.0, 0.0, 1.9e-226]], candidate=[0.0, 0.0, 0.0, 1.0],
             threshold=0.5)
    def test_matches_brute_force(self, entry_vecs, candidate, threshold):
        catalog = catalog_of([f"T10{i:02d}" for i in range(len(entry_vecs))],
                             np.array(entry_vecs, dtype=np.float64))
        vec = np.array(candidate, dtype=np.float64)
        fast = classify_vector(vec, catalog, threshold)
        slow = brute_force_classify(vec, catalog, threshold)
        assert list(fast) == list(slow)
        assert list(fast.values()) == pytest.approx(list(slow.values()))


# smallest norm whose square is still a normal float
_TINY = math.sqrt(sys.float_info.min)


def reference_cosine(a, b):
    """Pure-python cosine with the tiny-vector rule: when either norm is below
    ``_TINY``, both vectors are first divided by their largest magnitude."""
    a = [float(x) for x in a]
    b = [float(y) for y in b]
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na < _TINY or nb < _TINY:
        pa = max((abs(x) for x in a), default=0.0) or 1.0
        pb = max((abs(y) for y in b), default=0.0) or 1.0
        a = [x / pa for x in a]
        b = [y / pb for y in b]
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def assert_matches_reference(hits, queries, catalog, threshold, tol=1e-9):
    """``hits`` agree with reference cosines of every query with every entry:
    every technique whose best score clears (misses) the threshold by more than
    ``tol`` is in (out of) ``hits``, which runs in technique-id order and maps
    each technique to its best score as a float.  A query holding a NaN
    scores nothing."""
    best = {}
    for query in queries:
        if any(math.isnan(x) for x in query):
            continue
        for tid, row in zip(row_technique_ids(catalog), catalog.vectors):
            score = reference_cosine(query, row)
            best[tid] = max(score, best.get(tid, score))
    assert list(hits) == sorted(hits)
    assert set(hits) <= set(best)
    for tid, score in best.items():
        if score >= threshold + tol:
            assert tid in hits
        elif score < threshold - tol:
            assert tid not in hits
        if tid in hits:
            assert type(hits[tid]) is float
            assert math.isclose(hits[tid], score, rel_tol=0, abs_tol=tol)


def _row(kind, values):
    if kind == "zero":
        return [0.0] * len(values)
    if kind == "tiny":  # squared components underflow
        return [v * 1e-160 for v in values]
    return values


_rows = st.tuples(
    st.sampled_from(["normal", "normal", "zero", "tiny"]),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
).map(lambda kv: _row(*kv))


def _row32(kind, values):
    if kind == "tiny":  # squared components underflow in float32
        return [v * 1e-25 for v in values]
    if kind == "huge":  # squared components overflow in float32
        return [v * 1e25 for v in values]
    return _row(kind, values)


_rows32 = st.tuples(
    st.sampled_from(["normal", "normal", "zero", "tiny", "huge"]),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
).map(lambda kv: _row32(*kv))

# a float32 cosine of 4-dimensional vectors against the exact one: the cast of
# the query, the two 4-term sums of squares, the 4-term dot product, the
# square roots and the division each round by at most 2**-24 relative, which
# sums to about 16 * 2**-24 (1e-6) on the cosine; twice that leaves headroom
_FLOAT32_TOL = 2e-6


class TestClassifyVectors:
    @given(
        st.lists(st.tuples(st.sampled_from(["T1001", "T1002", "T1003"]), _rows),
                 min_size=1, max_size=12),
        st.lists(_rows, min_size=1, max_size=4),
        st.floats(-0.5, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_row_by_row(self, catalog_rows, queries, threshold):
        catalog = catalog_of([tid for tid, _ in catalog_rows],
                             np.array([row for _, row in catalog_rows]))
        for query in queries:
            hits = classify_vectors(np.array([query]), catalog, threshold)
            assert_matches_reference(hits, [query], catalog, threshold)
        hits = classify_vectors(np.array(queries), catalog, threshold)
        assert_matches_reference(hits, queries, catalog, threshold)

    @given(
        st.lists(st.tuples(st.sampled_from(["T1001", "T1002", "T1003"]), _rows32),
                 min_size=1, max_size=12),
        st.lists(_rows32, min_size=1, max_size=4),
        st.floats(-0.5, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_float32_catalog_matches_reference(self, catalog_rows, queries, threshold):
        catalog = catalog_of([tid for tid, _ in catalog_rows],
                             np.array([row for _, row in catalog_rows], dtype=np.float32))
        assert catalog.vectors.dtype == np.float32
        hits = classify_vectors(np.array(queries), catalog, threshold)
        assert_matches_reference(hits, queries, catalog, threshold, tol=_FLOAT32_TOL)

    @pytest.mark.parametrize("dtype, scale", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_vectors_too_large_to_square_keep_their_direction(self, dtype, scale):
        catalog = catalog_of(["T1001", "T1002"],
                             np.array([[1.0, 0.0], [0.0, scale]], dtype=dtype))
        assert list(classify_vectors(np.array([[scale, 0.0]]), catalog, 0.5)) == ["T1001"]
        assert list(classify_vectors(np.array([[0.0, 1.0]]), catalog, 0.5)) == ["T1002"]

    def test_float32_scores_meet_the_threshold_as_float64(self):
        # float32(1 + 1e-8) is 1.0: compared in float32, a score of 1.0 would pass
        catalog = catalog_of(["T1001"], np.array([[1.0, 0.0]], dtype=np.float32))
        assert classify_vectors(np.array([[2.0, 0.0]]), catalog, 1.0) == {"T1001": 1.0}
        assert classify_vectors(np.array([[2.0, 0.0]]), catalog, 1.0 + 1e-8) == {}

    def test_float32_catalog_scores_without_a_float64_copy(self):
        rng = np.random.default_rng(11)
        catalog = catalog_of([f"T1{i % 50:03d}" for i in range(2000)],
                             rng.standard_normal((2000, 256)).astype(np.float32))
        query = rng.standard_normal((1, 256))
        classify_vectors(query, catalog, 0.5)  # warm up lazily built state
        tracemalloc.start()
        try:
            classify_vectors(query, catalog, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 copy of the matrix would be twice its 2 MB
        assert peak < catalog.vectors.nbytes // 4

    def test_empty_catalog(self):
        empty = catalog_of([], np.zeros((0, 0)))
        assert classify_vectors(np.ones((3, 4)), empty, 0.5) == {}
        assert classify_vector(np.ones(4), empty, 0.5) == {}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_row_scores_nothing(self, dtype):
        # a NaN embedding neither matches nor hides another row's hits, in a
        # block of queries with other rows or in a block of NaN rows only
        catalog = geometry_catalog(dtype)
        assert classify_vectors(np.full((1, 2), math.nan), catalog, -1.0) == {}
        queries = np.random.default_rng(3).standard_normal((300, 2))
        nan_rows = [0, *range(_QUERY_BLOCK, 2 * _QUERY_BLOCK)]
        queries[nan_rows] = math.nan
        hits = classify_vectors(queries, catalog, 0.9)
        expected = classify_vectors(np.delete(queries, nan_rows, axis=0), catalog, 0.9)
        assert list(hits) == list(expected) == ["T1001", "T1002", "T1003"]
        assert list(hits.values()) == pytest.approx(list(expected.values()))
        assert_matches_reference(hits, queries, catalog, 0.9, tol=_FLOAT32_TOL)

    def test_rows_beyond_one_product_block(self):
        rng = np.random.default_rng(5)
        catalog = catalog_of([f"T10{i % 7:02d}" for i in range(40)],
                             rng.standard_normal((40, 6)))
        queries = rng.standard_normal((300, 6))
        hits = classify_vectors(queries, catalog, 0.3)
        assert_matches_reference(hits, queries, catalog, 0.3)
        # at threshold -1 every technique is kept, with its best over all blocks
        first, rest = (classify_vectors(q, catalog, -1.0)
                       for q in (queries[:_QUERY_BLOCK], queries[_QUERY_BLOCK:]))
        assert classify_vectors(queries, catalog, -1.0) == {
            tid: max(first[tid], rest[tid]) for tid in first}


class TestExplicitIds:
    def test_collapse_and_order(self):
        text = "First T1059.001 then T1027 and again T1059."
        assert detect_explicit_techniques(text) == ["T1059", "T1027"]

    def test_dedup_across_sub_and_parent(self):
        assert detect_explicit_techniques("T1027 T1027.002") == ["T1027"]

    def test_no_ids(self):
        assert detect_explicit_techniques("nothing numeric here, not even T99.") == []
        # digits of other scripts are not ATT&CK ids
        assert detect_explicit_techniques("T\u0661\u0660\u0665\u0669 T\uff11\uff10\uff12\uff17") == []

    def test_requires_word_boundary(self):
        assert detect_explicit_techniques("AT1059 T10590") == []


class TestPipeline:
    def test_golden_report_matches_t1573(self, helloxd_report, golden_script, mini_catalog):
        provider = ScriptedProvider(script=golden_script)
        ids, matches, trail = run_pipeline(helloxd_report, mini_catalog, provider)
        assert ids == ["T1573"]
        match = matches[0]
        assert match.name == "Encrypted Channel"
        assert match.score == pytest.approx(1.0)
        assert explicit_ids(trail) == []
        assert trail.warnings() == []

    def test_candidate_counts(self, helloxd_report, golden_script, mini_catalog):
        provider = ScriptedProvider(script=golden_script)
        _, _, trail = run_pipeline(helloxd_report, mini_catalog, provider)
        assert candidate_counts(trail) == {
            "vte": 1, "sbsa": 3, "ot": len(helloxd_report.sentences)}

    def test_duplicate_candidate_embedded_once(self, helloxd_report, golden_script,
                                               mini_catalog):
        # VTE quotes the same sentence OT already contributes; one embedding.
        provider = ScriptedProvider(script=golden_script)
        run_pipeline(helloxd_report, mini_catalog, provider)
        assert provider.embedded.count(VTE_CANDIDATE) == 1

    def test_explicit_id_unioned(self, golden_script, mini_catalog):
        report = make_report(
            "The loader applies packing tricks tracked as T1027.002 before launch.",
            report_id="explicit-1",
        )
        provider = ScriptedProvider(
            script=[
                ("Return any relevant text verbatim", "No relevant text"),
                ("Describe step by step", "none"),
            ]
        )
        ids, matches, trail = run_pipeline(report, mini_catalog, provider)
        assert ids == ["T1027"]
        match = matches[0]
        assert explicit_ids(trail) == ["T1027"]
        assert match.score is None
        assert match.name == "Obfuscated Files or Information"

    def test_explicit_flag_set_on_embedded_match(self, mini_catalog):
        text = f"Analysts mapped the channel to T1573. {VTE_CANDIDATE}"
        report = make_report(text, report_id="explicit-2")
        provider = ScriptedProvider(
            script=[
                ("Return any relevant text verbatim", VTE_CANDIDATE),
                ("Describe step by step", "none"),
            ]
        )
        ids, matches, trail = run_pipeline(report, mini_catalog, provider)
        assert ids == ["T1573"]
        match = matches[0]
        assert explicit_ids(trail) == ["T1573"]
        assert match.score == pytest.approx(1.0)

    def test_strategy_subset_respected(self, helloxd_report, mini_catalog):
        provider = ScriptedProvider(script=[])  # any prompt would raise
        config = AttackPatternConfig(strategies=("ot",))
        ids, _, trail = run_pipeline(helloxd_report, mini_catalog, provider, config)
        assert list(candidate_counts(trail)) == ["ot"]
        assert ids == ["T1573"]  # the sentence itself

    def test_unknown_strategy_raises(self):
        # at construction, before any report asks the model
        with pytest.raises(ValueError, match="telepathy"):
            AttackPatternConfig(strategies=("vte", "telepathy"))

    def test_repeated_strategy_raises(self):
        with pytest.raises(ValueError, match="'vte' is named twice"):
            AttackPatternConfig(strategies=("vte", "ot", "vte"))

    def test_audit_records_prompts_and_decisions(self, helloxd_report, golden_script,
                                                 mini_catalog):
        provider = ScriptedProvider(script=golden_script)
        _, _, trail = run_pipeline(helloxd_report, mini_catalog, provider)
        events = trail.events
        assert any(e.event == "prompt" and e.data.get("strategy") == "vte" for e in events)
        assert any(e.event == "prompt" and e.data.get("strategy") == "sbsa" for e in events)
        assert any(e.event == "decision" and e.data.get("rule") == "candidates"
                   for e in events)

    def test_duplicate_candidates_match_per_candidate_reference(self):
        s1, s2, s3 = ("The loader decrypts its configuration.",
                      "Traffic is tunneled over DNS.",
                      "Operators clear the event logs.")
        report = make_report(f"{s1} {s2} {s1} {s3}", report_id="dups")
        script = [("Return any relevant text verbatim", s2),
                  ("Describe step by step", f"1. {s1}\n2. {s3}")]
        embed = HashEmbedder().embed_one
        e1, e2, e3 = embed(s1), embed(s2), embed(s3)
        catalog = catalog_of(["T1001", "T1002", "T1001", "T1003", "T1002"],
                             np.array([0.9 * e1 + 0.3 * e2, e2, e1, 0.8 * e3 + 0.5 * e1,
                                       0.7 * e2 + 0.7 * e3]))
        config = AttackPatternConfig(threshold=0.5)
        ids, matches, _ = run_pipeline(report, catalog, ScriptedProvider(script), config)

        # reference: classify each candidate on its own, keep each
        # technique's best score over every candidate
        provider = ScriptedProvider(script)
        candidates = (run_vte(report, provider)[0] + strategy_sbsa(
            report, provider, AuditTrail("r")) + strategy_ot(report))
        assert len(set(candidates)) < len(candidates)
        expected = {}
        for c in candidates:
            best = {}
            for tid, row in zip(row_technique_ids(catalog), catalog.vectors):
                score = reference_cosine(embed(c), row)
                best[tid] = max(score, best.get(tid, score))
            for tid, score in best.items():
                if score >= config.threshold:
                    expected[tid] = max(score, expected.get(tid, score))

        assert ids == sorted(expected) == ["T1001", "T1002", "T1003"]
        for m in matches:
            assert m.score == pytest.approx(expected[m.technique_id], abs=1e-9)

    def test_technique_without_description_match_is_named(self):
        sentence = "The group mailed lures to staff."
        catalog = TechniqueCatalog.from_rows("stub", "s", [("T1566", "Phishing")],
                                             np.array([HashEmbedder().embed_one(sentence)]))
        _, matches, _ = run_pipeline(make_report(sentence, report_id="r"), catalog,
                                     ScriptedProvider(script=[]),
                                     AttackPatternConfig(strategies=("ot",)))
        assert [(m.technique_id, m.name) for m in matches] == [("T1566", "Phishing")]
        assert matches[0].score == pytest.approx(1.0)

    def test_higher_threshold_prunes(self, helloxd_report, golden_script, mini_catalog):
        loose, _, _ = run_pipeline(
            helloxd_report, mini_catalog, ScriptedProvider(script=golden_script),
            AttackPatternConfig(threshold=0.80),
        )
        # nothing in the fixture scores between 0.80 and 0.999 except noise;
        # the exact-match candidate survives any threshold <= 1.0
        tight, _, _ = run_pipeline(
            helloxd_report, mini_catalog, ScriptedProvider(script=golden_script),
            AttackPatternConfig(threshold=0.999),
        )
        assert set(tight) <= set(loose)
        assert "T1573" in tight
