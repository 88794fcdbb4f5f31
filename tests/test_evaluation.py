import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modir.errors import EmptyInputError, InvalidConfigError, ParseError
from modir.evaluation import (
    HardwareProfile,
    UnitCorpus,
    brute_force_search,
    estimate_energy_emissions,
    evaluable_queries,
    mrr_at_k,
    read_qrels,
    read_run,
    recall_at_k,
    write_run,
)
from modir.index import SearchParams, build_index, search
from modir.scoring import maxsim_score


def make_run(rankings):
    """{qid: [pid, ...]} -> run dict with descending synthetic scores."""
    return {qid: [(pid, float(len(pids) - i)) for i, pid in enumerate(pids)] for qid, pids in rankings.items()}


class TestMrr:
    def test_all_rank_one(self):
        run = make_run({"q1": ["a", "b"], "q2": ["c", "d"]})
        qrels = {"q1": {"a": 1}, "q2": {"c": 2}}
        assert mrr_at_k(run, qrels, 10) == 1.0

    def test_first_relevant_at_rank_four(self):
        run = make_run({"q1": ["a", "b", "c", "d", "e"]})
        qrels = {"q1": {"d": 1}}
        assert mrr_at_k(run, qrels, 10) == 0.25

    def test_relevant_beyond_cutoff_scores_zero(self):
        run = make_run({"q1": [f"p{i}" for i in range(12)]})
        qrels = {"q1": {"p10": 1}}  # rank 11
        assert mrr_at_k(run, qrels, 10) == 0.0
        assert mrr_at_k(run, qrels, 11) == pytest.approx(1.0 / 11.0)

    def test_unjudged_query_skipped(self):
        run = make_run({"q1": ["a"], "q2": ["b"]})
        qrels = {"q1": {"a": 1}}
        good, skipped = evaluable_queries(run, qrels)
        assert good == ["q1"] and skipped == ["q2"]
        assert mrr_at_k(run, qrels, 10) == 1.0  # mean over judged queries only

    def test_all_negative_judgments_skipped(self):
        run = make_run({"q1": ["a"]})
        qrels = {"q1": {"a": 0}}
        assert evaluable_queries(run, qrels)[1] == ["q1"]

    def test_invalid_cutoff(self):
        with pytest.raises(InvalidConfigError):
            mrr_at_k({}, {}, 0)


class TestRecall:
    def test_all_relevant_retrieved(self):
        run = make_run({"q1": ["a", "b", "c"]})
        qrels = {"q1": {"a": 1, "b": 1}}
        assert recall_at_k(run, qrels, 3) == 1.0

    def test_half_retrieved(self):
        run = make_run({"q1": ["a", "x", "y"]})
        qrels = {"q1": {"a": 1, "b": 1}}
        assert recall_at_k(run, qrels, 3) == 0.5

    def test_mean_over_queries(self):
        run = make_run({"q1": ["a"], "q2": ["x"], "q3": ["c", "m"]})
        qrels = {"q1": {"a": 1}, "q2": {"b": 1}, "q3": {"c": 1, "d": 1}}
        # per-query recalls 1, 0, 0.5
        assert recall_at_k(run, qrels, 10) == pytest.approx(0.5)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        pids = [f"p{i}" for i in range(30)]
        run = {"q": [(p, 30.0 - i) for i, p in enumerate(pids)]}
        qrels = {"q": {p: 1 for p in rng.choice(pids, size=7, replace=False)}}
        values_r = [recall_at_k(run, qrels, k) for k in range(1, 31)]
        values_m = [mrr_at_k(run, qrels, k) for k in range(1, 31)]
        assert all(b >= a for a, b in zip(values_r, values_r[1:]))
        assert all(b >= a for a, b in zip(values_m, values_m[1:]))

    def test_rank_based_invariance_to_monotone_score_transform(self):
        run = {"q": [("a", 9.0), ("b", 5.0), ("c", 1.0)]}
        squashed = {"q": [(p, np.tanh(s)) for p, s in run["q"]]}
        qrels = {"q": {"b": 1}}
        for k in (1, 2, 3):
            assert mrr_at_k(run, qrels, k) == mrr_at_k(squashed, qrels, k)
            assert recall_at_k(run, qrels, k) == recall_at_k(squashed, qrels, k)


def reference_mrr_at_k(run, qrels, k):
    """The per-metric loop ``mrr_at_k`` ran before the metrics shared one
    judged-query mean, with its own judged-query split."""
    qids = [qid for qid in run if qrels.get(qid) and any(g > 0 for g in qrels[qid].values())]
    if not qids:
        return 0.0
    total = 0.0
    for qid in qids:
        relevant = {pid for pid, grade in qrels[qid].items() if grade > 0}
        for rank, (pid, _score) in enumerate(run[qid][:k], start=1):
            if pid in relevant:
                total += 1.0 / rank
                break
    return total / len(qids)


def reference_recall_at_k(run, qrels, k):
    """The per-metric loop ``recall_at_k`` ran before the metrics shared one
    judged-query mean."""
    qids = [qid for qid in run if qrels.get(qid) and any(g > 0 for g in qrels[qid].values())]
    if not qids:
        return 0.0
    total = 0.0
    for qid in qids:
        relevant = {pid for pid, grade in qrels[qid].items() if grade > 0}
        retrieved = {pid for pid, _score in run[qid][:k]}
        total += len(relevant & retrieved) / len(relevant)
    return total / len(qids)


PIDS = [f"p{i}" for i in range(9)]


@st.composite
def runs_and_qrels(draw):
    """Up to 12 queries ranking up to 9 passages; each query's judgments are
    missing, all zero, or mixed grades, and a judged passage may be unranked."""
    qids = [f"q{i}" for i in range(draw(st.integers(0, 12)))]
    run = {qid: make_run({qid: draw(st.lists(st.sampled_from(PIDS), unique=True, max_size=9))})[qid] for qid in qids}
    qrels = {}
    for qid in qids + ["unranked"]:
        kind = draw(st.sampled_from(["none", "zeros", "graded"]))
        judged = draw(st.lists(st.sampled_from(PIDS), unique=True, min_size=1, max_size=9))
        if kind != "none":
            qrels[qid] = {pid: 0 if kind == "zeros" else draw(st.integers(0, 3)) for pid in judged}
    return run, qrels


class TestJudgedMean:
    @settings(max_examples=400, deadline=None)
    @given(case=runs_and_qrels(), cutoffs=st.lists(st.integers(1, 12), min_size=1, max_size=4))
    def test_both_metrics_equal_their_reference_loops_bit_for_bit(self, case, cutoffs):
        run, qrels = case
        for k in cutoffs + cutoffs:  # every cutoff twice, some beyond the longest ranking
            assert mrr_at_k(run, qrels, k).hex() == reference_mrr_at_k(run, qrels, k).hex()
            assert recall_at_k(run, qrels, k).hex() == reference_recall_at_k(run, qrels, k).hex()

    @pytest.mark.parametrize("metric", [mrr_at_k, recall_at_k])
    def test_no_judged_query_means_zero(self, metric):
        run = make_run({"q1": ["a"], "q2": ["b"]})
        assert metric(run, {"q1": {"a": 0}}, 10) == 0.0
        assert metric({}, {"q1": {"a": 1}}, 10) == 0.0

    @pytest.mark.parametrize("metric", [mrr_at_k, recall_at_k])
    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, metric, k):
        with pytest.raises(InvalidConfigError, match=f"cutoff k must be >= 1, got {k}"):
            metric(make_run({"q1": ["a"]}), {"q1": {"a": 1}}, k)


class TestBruteForce:
    def test_single_passage(self):
        corpus = {"only": np.eye(2)}
        out = brute_force_search(np.eye(2), corpus, 5)
        assert out == [("only", pytest.approx(2.0))]

    def test_self_match_ranks_first_with_row_count_score(self):
        rng = np.random.default_rng(1)
        query = rng.normal(size=(4, 8))
        corpus = {f"p{i}": rng.normal(size=(5, 8)) for i in range(6)}
        corpus["dup"] = query.copy()
        out = brute_force_search(query, corpus, 3)
        assert out[0][0] == "dup"
        assert out[0][1] == pytest.approx(4.0, abs=1e-9)

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(2)
        query = rng.normal(size=(3, 6))
        items = [(f"p{i}", rng.normal(size=(4, 6))) for i in range(8)]
        fwd = brute_force_search(query, dict(items), 8)
        rev = brute_force_search(query, dict(reversed(items)), 8)
        assert fwd == rev

    def test_ties_break_toward_lower_id(self):
        mat = np.eye(3)
        corpus = {"b": mat, "a": mat.copy(), "c": mat.copy()}
        out = brute_force_search(mat, corpus, 3)
        assert [pid for pid, _ in out] == ["a", "b", "c"]

    @pytest.mark.filterwarnings("ignore::modir.index.DuplicateCentroidWarning")
    def test_mapping_ids_come_back_in_the_index_order(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0]])
        corpus = {i: mat.copy() for i in range(12)}
        query = np.array([[1.0, 0.5]])
        out = brute_force_search(query, corpus, 5)
        assert [pid for pid, _ in out] == ["0", "1", "10", "11", "2"]
        idx = build_index(corpus, seed=0)
        assert out == search(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=12, final_k=5))

    def test_mixed_int_and_str_keys(self):
        mat = np.eye(2)
        assert brute_force_search(mat, {"a": mat, 1: mat.copy()}, 2) == [("1", 2.0), ("a", 2.0)]

    def test_query_without_rows_rejected(self):
        with pytest.raises(EmptyInputError):
            brute_force_search(np.zeros((0, 2)), {"a": np.eye(2)}, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, k):
        with pytest.raises(InvalidConfigError, match=f"got {k}"):
            brute_force_search(np.eye(2), {"a": np.eye(2), "b": np.ones((1, 2))}, k)

    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True], ids=["zero", "negative", "float", "whole-float", "bool"])
    @pytest.mark.parametrize(
        "empty", [{}, UnitCorpus([], np.empty((0, 2)), [0], lambda passages: np.empty((0, 2)))], ids=["mapping", "unit-corpus"]
    )
    def test_a_bad_cutoff_is_refused_over_an_empty_corpus_too(self, empty, k):
        # the cutoff is checked before the empty corpus returns []
        with pytest.raises(InvalidConfigError, match="cutoff k"):
            brute_force_search(np.eye(2), empty, k)
        assert brute_force_search(np.eye(2), empty, 1) == brute_force_search(np.eye(2), empty, None) == []

    def test_scores_are_exact_maxsim(self):
        rng = np.random.default_rng(3)
        query = rng.normal(size=(3, 5))
        corpus = {f"p{i}": rng.normal(size=(4, 5)) for i in range(5)}
        out = dict(brute_force_search(query, corpus, 5))
        for pid, mat in corpus.items():
            assert out[pid] == maxsim_score(query, mat)


TABLE_ROWS = [
    # devices, tdp W, hours, expected kWh / kgCO2eq from the hardware columns,
    # and the rounded figures printed in the source table
    (32, 300.0, 24.0, 230.4, 99.5328, 230.4, 99.52),
    (1, 400.0, 50.0, 20.0, 8.64, 20.0, 8.64),
    (1, 300.0, 36.0, 10.8, 4.6656, 10.8, 4.67),
    (1, 283.0, 27.0, 7.641, 3.300912, 7.6, 3.30),
    (1, 310.0, 7.5, 2.325, 1.0044, 2.3, 1.01),
]


class TestEnergy:
    @pytest.mark.parametrize("devices,tdp,hours,kwh,kg,printed_kwh,printed_kg", TABLE_ROWS)
    def test_table_rows(self, devices, tdp, hours, kwh, kg, printed_kwh, printed_kg):
        profile = HardwareProfile(devices, tdp, hours, carbon_efficiency=0.432)
        got_kwh, got_kg = estimate_energy_emissions(profile)
        assert got_kwh == pytest.approx(kwh, rel=5e-3)
        assert got_kg == pytest.approx(kg, rel=5e-3)
        # published figures are printed at reduced precision
        assert got_kwh == pytest.approx(printed_kwh, abs=0.05)
        assert got_kg == pytest.approx(printed_kg, abs=0.02)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(InvalidConfigError):
            HardwareProfile(0, 300.0, 24.0, 0.432)
        with pytest.raises(InvalidConfigError):
            HardwareProfile(1, 300.0, -1.0, 0.432)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_a_non_finite_field_is_refused_by_name(self, field, value):
        fields = [1, 300.0, 24.0, 0.432]
        fields[field] = value
        name = ("device_count", "tdp_watts", "train_hours", "carbon_efficiency")[field]
        with pytest.raises(InvalidConfigError) as exc:
            HardwareProfile(*fields)
        assert exc.value.message == f"{name} must be finite and > 0"


class TestTrecIO:
    def test_round_trip(self, tmp_path):
        run = {"q1": [("a", 2.5), ("b", 1.5)], "q2": [("c", 9.0)]}
        path = tmp_path / "run.trec"
        write_run(run, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "q1 Q0 a 1 2.500000 modir"
        assert lines[1] == "q1 Q0 b 2 1.500000 modir"
        loaded = read_run(path)
        assert loaded["q1"] == [("a", 2.5), ("b", 1.5)]
        assert loaded["q2"] == [("c", 9.0)]

    @pytest.mark.parametrize("run, bad", [
        ({"query one": [("a", 1.0)]}, "query one"),
        ({"q1": [("a", 1.0), ("doc 9", 0.5)]}, "doc 9"),
        ({"": [("a", 1.0)]}, ""),
        ({"q1": [("", 1.0)]}, ""),
        ({"q1": [("a\tb", 1.0)]}, "a\tb"),
        ({"q1\n": [("a", 1.0)]}, "q1\n"),
        ({"q1": [("a\u2028b", 1.0)]}, "a\u2028b"),
    ], ids=["space-in-qid", "space-in-pid", "empty-qid", "empty-pid", "tab", "newline", "line-separator"])
    def test_an_id_that_would_not_read_back_is_refused_before_the_file_opens(self, tmp_path, run, bad):
        path = tmp_path / "run.trec"
        path.write_text("q Q0 a 1 1.000000 modir\n")
        with pytest.raises(InvalidConfigError) as exc:
            write_run(run, path)
        assert exc.value.message == f"id {bad!r} is empty or holds whitespace; a run file cannot hold it"
        assert path.read_text() == "q Q0 a 1 1.000000 modir\n" and list(tmp_path.iterdir()) == [path]

    def test_qrels_format(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 a 1\nq1 0 b 0\nq2 0 c 2\n")
        qrels = read_qrels(path)
        assert qrels == {"q1": {"a": 1, "b": 0}, "q2": {"c": 2}}

    def test_malformed_qrels_line_reports_number(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 a 1\nbroken line\n")
        with pytest.raises(ParseError, match="line 2"):
            read_qrels(path)

    @pytest.mark.parametrize("line", ["q1 Q0 b 2 1.0", "q1 Q0 b 2 1.0 t extra"], ids=["short", "long"])
    def test_wrong_width_run_line_quotes_the_layout_and_the_line(self, tmp_path, line):
        path = tmp_path / "run.trec"
        path.write_text(f"q1 Q0 a 1 2.0 t\n\n{line}\n")
        with pytest.raises(ParseError) as exc:
            read_run(path)
        assert exc.value.line == 3
        assert exc.value.message == f"line 3: expected 'qid Q0 pid rank score tag', got {line!r}"

    def test_wrong_width_qrels_line_quotes_the_layout_and_the_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 a 1\nq1 0 b\n")
        with pytest.raises(ParseError) as exc:
            read_qrels(path)
        assert exc.value.line == 2
        assert exc.value.message == "line 2: expected 'qid 0 pid grade', got 'q1 0 b'"

    def test_run_is_ordered_by_score_then_by_rank(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q Q0 a 2 1.0 t\nq Q0 b 1 2.0 t\nq Q0 d 4 0.5 t\nq Q0 c 3 0.5 t\nr Q0 e 2 1.0 t\nr Q0 f 1 1.0 t\n")
        assert read_run(path) == {"q": [("b", 2.0), ("a", 1.0), ("c", 0.5), ("d", 0.5)], "r": [("f", 1.0), ("e", 1.0)]}

    def test_written_run_reads_back_in_written_order_when_rounding_ties_scores(self, tmp_path):
        run = {"q": [("z", 1.0000004), ("a", 1.0000001), ("m", 0.5)]}
        path = tmp_path / "run.trec"
        write_run(run, path)
        assert [pid for pid, _ in read_run(path)["q"]] == ["z", "a", "m"]

    @pytest.mark.parametrize("rank", ["1.5", "x"])
    def test_rank_that_is_not_an_integer_names_its_line(self, tmp_path, rank):
        path = tmp_path / "run.trec"
        path.write_text(f"q Q0 a 1 2.0 t\nq Q0 b {rank} 1.0 t\n")
        with pytest.raises(ParseError) as exc:
            read_run(path)
        assert exc.value.message == f"line 2: rank {rank!r} is not an integer"

    @pytest.mark.parametrize("score", ["x", "nan", "NaN", "-nan"])
    def test_score_that_is_not_a_number_names_its_line(self, tmp_path, score):
        path = tmp_path / "run.trec"
        path.write_text(f"q1 Q0 a 1 {score} t\nq1 Q0 b 2 1.0 t\n")
        with pytest.raises(ParseError) as exc:
            read_run(path)
        assert exc.value.message == f"line 1: score {score!r} is not a number"

    def test_repeated_judgment_names_its_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q 0 a 1\nq 0 b 1\nq 0 b 0\n")
        with pytest.raises(ParseError) as exc:
            read_qrels(path)
        assert exc.value.message == "line 3: query 'q' judges passage 'b' twice"

    def test_duplicate_passage_in_run_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 a 1 2.0 t\nq1 Q0 a 2 1.0 t\n")
        with pytest.raises(ParseError):
            read_run(path)
