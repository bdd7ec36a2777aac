import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import confusion_oracle, report_oracle, topk_oracle

from lakeforge.common import EvaluationError
from lakeforge.evaluation import (
    EvalReport,
    difficulty_breakdown,
    evaluate,
    precision_recall_f1,
    render_report,
    task_truth,
    top_k_precision,
)
from lakeforge.matchers import Predictions, parse_predictions_csv
from lakeforge.model import JoinPair


def preds_of(*triples):
    return Predictions.best_of(((a, "c"), (b, "c"), s) for a, b, s in triples)


NONE = Predictions.best_of([])


def truth_of(*pairs):
    return {tuple(sorted([(a, "c"), (b, "c")])) for a, b in pairs}


def test_perfect_predictions():
    preds = preds_of(("A", "B", 1.0), ("C", "D", 1.0))
    truth = truth_of(("A", "B"), ("C", "D"))
    p, r, f1, degenerate = precision_recall_f1(preds.positives(0.5), truth)
    assert (p, r, f1) == (1.0, 1.0, 1.0)
    assert not degenerate


def test_hand_enumerated_confusion_case():
    # 10 positives, 5 of them true, truth size 20 -> P=0.5, R=0.25, F1=1/3
    rows = []
    for i in range(5):
        rows.append(((f"T{i}", "c"), (f"U{i}", "c"), 0.9))  # true positives
    for i in range(5):
        rows.append(((f"F{i}", "c"), (f"G{i}", "c"), 0.9))  # false positives
    truth = {tuple(sorted([(f"T{i}", "c"), (f"U{i}", "c")])) for i in range(20)}
    p, r, f1, _ = precision_recall_f1(Predictions.best_of(rows).positives(0.5), truth)
    assert p == 0.5
    assert r == 0.25
    assert f1 == pytest.approx(1 / 3)


def test_strict_threshold_inequality():
    preds = preds_of(("A", "B", 0.5))
    truth = truth_of(("A", "B"))
    p, r, f1, _ = precision_recall_f1(preds.positives(0.5), truth)
    assert (p, r) == (0.0, 0.0)  # score must exceed the threshold


def test_empty_truth_is_degenerate_not_zero():
    preds = preds_of(("A", "B", 0.9))
    p, r, f1, degenerate = precision_recall_f1(preds.positives(0.5), set())
    assert degenerate


def test_duplicate_predictions_keep_max_score():
    preds = preds_of(("A", "B", 0.2), ("B", "A", 0.9))
    truth = truth_of(("A", "B"))
    p, r, f1, _ = precision_recall_f1(preds.positives(0.5), truth)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def _random_fixture(rng):
    n_pairs = rng.randint(1, 200)
    names = [f"T{i}" for i in range(30)]
    rows = []
    for _ in range(n_pairs):
        a, b = rng.sample(names, 2)
        rows.append(((a, "c"), (b, "c"), rng.random()))
    truth = set()
    for _ in range(rng.randint(1, 200)):
        a, b = rng.sample(names, 2)
        truth.add(tuple(sorted([(a, "c"), (b, "c")])))
    return rows, truth


def test_metrics_match_confusion_oracle_100_fixtures():
    rng = random.Random(20240101)
    for _ in range(100):
        rows, truth = _random_fixture(rng)
        threshold = rng.choice([0.3, 0.5, 0.7])
        p, r, f1, _ = precision_recall_f1(Predictions.best_of(rows).positives(threshold), truth)
        op, orr, of1 = confusion_oracle(rows, truth, threshold)
        assert p == pytest.approx(op, abs=1e-12)
        assert r == pytest.approx(orr, abs=1e-12)
        assert f1 == pytest.approx(of1, abs=1e-12)


def test_top_k_matches_enumeration_oracle():
    rng = random.Random(31337)
    for _ in range(100):
        rows, truth = _random_fixture(rng)
        preds = Predictions.best_of(rows)
        for k in (1, 3, 5):
            assert top_k_precision(preds.ranked(k), truth, k) == pytest.approx(
                topk_oracle(rows, truth, k), abs=1e-12
            )


def test_top_k_direct_counts():
    preds = preds_of(("A", "B", 0.9), ("C", "D", 0.8), ("E", "F", 0.7),
                     ("G", "H", 0.6), ("I", "J", 0.5))
    truth = truth_of(("A", "B"), ("E", "F"), ("I", "J"))
    assert top_k_precision(preds.ranked(1), truth, 1) == 1.0
    assert top_k_precision(preds.ranked(5), truth, 5) == 0.6


def test_top_k_short_prediction_list_counts_misses():
    preds = preds_of(("A", "B", 0.9))
    truth = truth_of(("A", "B"))
    assert top_k_precision(preds.ranked(5), truth, 5) == 0.2


def test_top_k_non_increasing_when_correct_outrank():
    preds = preds_of(("A", "B", 0.9), ("C", "D", 0.8), ("E", "F", 0.2), ("G", "H", 0.1))
    truth = truth_of(("A", "B"), ("C", "D"))
    values = [top_k_precision(preds.ranked(k), truth, k) for k in (1, 2, 3, 4)]
    assert values == sorted(values, reverse=True)


def test_raising_threshold_never_increases_recall():
    rng = random.Random(5150)
    for _ in range(50):
        rows, truth = _random_fixture(rng)
        preds = Predictions.best_of(rows)
        recalls = [
            precision_recall_f1(preds.positives(t), truth)[1] for t in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert recalls == sorted(recalls, reverse=True)


def test_difficulty_breakdown_counts():
    truth_pairs = [
        JoinPair(("A", "Currency"), ("B", "Currency"), kind="semantic", difficulty="easy"),
        JoinPair(("A", "Currency"), ("C", "CRR"), kind="semantic", difficulty="difficult"),
        JoinPair(("A", "Currency"), ("D", "Currency"), kind="exact", difficulty="easy"),
    ]
    preds = Predictions.best_of([
        (("A", "Currency"), ("B", "Currency"), 0.8),
        (("A", "Currency"), ("C", "CRR"), 0.2),
    ])
    cells = difficulty_breakdown(preds, truth_pairs, 0.5)
    assert cells["easy"].total == 1 and cells["easy"].correct == 1
    assert cells["difficult"].total == 1 and cells["difficult"].correct == 0
    # exact pair excluded from the decomposition entirely
    assert cells["easy"].total + cells["difficult"].total == 2


def test_difficulty_breakdown_random_recount():
    rng = random.Random(99)
    names = [f"T{i}" for i in range(8)]
    pairs = []
    for i in range(10):
        a, b = rng.sample(names, 2)
        pairs.append(
            JoinPair(
                (a, f"c{i}"),
                (b, f"c{i}"),
                kind="semantic",
                difficulty=rng.choice(["easy", "difficult"]),
            )
        )
    score = {p.key(): rng.random() for p in pairs}
    cells = difficulty_breakdown(Predictions.best_of((*key, s) for key, s in score.items()), pairs, 0.5)
    for cat in ("easy", "difficult"):
        total = sum(1 for p in pairs if p.difficulty == cat)
        correct = sum(
            1 for p in pairs if p.difficulty == cat and score[p.key()] > 0.5
        )
        assert cells[cat].total == total
        assert cells[cat].correct == correct


def test_task_truth_filters():
    pairs = [
        JoinPair(("A", "x"), ("B", "x"), kind="pkfk"),
        JoinPair(("A", "y"), ("C", "y"), kind="exact"),
        JoinPair(("A", "z"), ("D", "z"), kind="semantic"),
    ]
    assert len(task_truth(pairs, "exact_joins")) == 2
    assert len(task_truth(pairs, "semantic_joins")) == 3  # superset reading
    assert len(task_truth(pairs, "all")) == 3


def test_render_report_deterministic_and_formatted():
    pairs = [
        JoinPair(("A", "x"), ("B", "x"), kind="pkfk"),
        JoinPair(("A", "z"), ("D", "z"), kind="semantic", difficulty="difficult"),
    ]
    preds = Predictions.best_of([
        (("A", "x"), ("B", "x"), 0.81),
        (("A", "z"), ("D", "z"), 0.41),
    ])
    reports = evaluate(preds, pairs, ["exact_joins", "semantic_joins"], matcher="jl", corpus_digest="abc123")
    text1, doc1 = render_report(reports)
    text2, doc2 = render_report(reports)
    assert text1 == text2 and doc1 == doc2
    assert "1.00 (1.00, 1.00)" in text1  # exact task row: F1 (P, R) cell
    assert "jl" in text1
    assert "0/1" in text1  # difficult cell
    assert '"f1"' in doc1


def test_render_report_degenerate_marker():
    reports = evaluate(NONE, [], ["exact_joins"], matcher="jl")
    text, doc = render_report(reports)
    assert "degenerate truth set" in text


def test_two_matchers_stable_ordering():
    pairs = [JoinPair(("A", "x"), ("B", "x"), kind="exact")]
    preds = Predictions.best_of([(("A", "x"), ("B", "x"), 0.9)])
    reports = [
        report for m in ("jl", "hybrid") for report in evaluate(preds, pairs, ["exact_joins"], matcher=m)
    ]
    text, _ = render_report(reports)
    lines = [l for l in text.splitlines() if l and not l.startswith("-") and "matcher" not in l]
    assert lines[0].startswith("jl") and lines[1].startswith("hybrid")


def test_render_report_golden_layout():
    pairs = [
        JoinPair(("A", "x"), ("B", "x"), kind="pkfk"),
        JoinPair(("A", "z"), ("D", "z"), kind="semantic", difficulty="difficult"),
    ]
    preds = Predictions.best_of([
        (("A", "x"), ("B", "x"), 0.81),
        (("A", "z"), ("D", "z"), 0.41),
    ])
    reports = evaluate(preds, pairs, ["exact_joins"], matcher="jl", corpus_digest="d")
    text, _doc = render_report(reports)
    golden = (
        "matcher      task             F1 (P, R)              top-k                difficult    easy        \n"
        "---------------------------------------------------------------------------------------------------\n"
        "jl           exact_joins      1.00 (1.00, 1.00)      1.00, 0.33, 0.20     0/1          0/0         \n"
    )
    assert text == golden


def test_evaluate_tasks_equal_per_task_metrics():
    # one scoring pass over the predictions of shuffled, duplicated rows with
    # tied scores gives, for each task, the report built from the per-task
    # metrics
    rng = random.Random(11)
    names = [f"T{i}" for i in range(6)]
    truth = {}
    for i in range(40):
        a, b = rng.sample(names, 2)
        left, right = sorted([(a, f"c{i % 4}"), (b, f"c{i % 3}")])
        pair = JoinPair(left, right, kind=rng.choice(["pkfk", "exact", "semantic"]),
                        difficulty=rng.choice(["easy", "difficult"]))
        truth.setdefault(pair.key(), pair)
    ground_truth = list(truth.values())
    keys = list(truth) + [((a, "c0"), (b, "c9")) for a in names for b in names if a < b]
    rows = []
    for left, right in keys:
        score = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        rows.append((left, right, score))
        rows.append((right, left, score * rng.random()))
    rng.shuffle(rows)
    preds = Predictions.best_of(rows)
    tasks = ["exact_joins", "semantic_joins", "all"]
    ks = (1, 3, 5, 100)
    reports = evaluate(preds, ground_truth, tasks, matcher="m", threshold=0.5, ks=ks, corpus_digest="d")
    want = []
    for task in tasks:
        task_pairs = task_truth(ground_truth, task)
        p, r, f1, degenerate = precision_recall_f1(preds.positives(0.5), task_pairs)
        want.append(
            EvalReport(
                matcher="m",
                task=task,
                threshold=0.5,
                precision=p,
                recall=r,
                f1=f1,
                top_k={k: top_k_precision(preds.ranked(k), task_pairs, k) for k in ks},
                difficulty=difficulty_breakdown(preds, ground_truth, 0.5),
                corpus_digest="d",
                degenerate=degenerate,
                truth_size=len(task_pairs),
                prediction_count=len(keys),
            )
        )
    assert reports == want
    # each report owns its difficulty cells
    reports[0].difficulty["easy"].correct += 1
    assert reports[1].difficulty["easy"] == want[1].difficulty["easy"]


def test_evaluate_takes_a_list_of_tasks():
    with pytest.raises(EvaluationError, match="list of task names"):
        evaluate(NONE, [], "exact_joins")
    with pytest.raises(EvaluationError, match="unknown task"):
        evaluate(NONE, [], ["exact_joins", "exact"])
    assert evaluate(NONE, [], []) == []


# few columns, so that predicted and true pairs overlap often
_refs = st.tuples(st.sampled_from(["T0", "T1"]), st.sampled_from(["c0", "c1"]))
# few scores, so that ties are common, each printed exactly in six decimals,
# so that the CSV keeps it
_scores = st.sampled_from([0.0, 0.125, 0.5, 1.0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_refs, _refs, _scores), max_size=12),
    repeats=st.lists(st.tuples(st.integers(0, 11), _scores), max_size=6),
    order=st.randoms(use_true_random=False),
    truth=st.lists(st.tuples(_refs, _refs, st.sampled_from(["exact", "pkfk", "semantic"]),
                             st.sampled_from(["easy", "difficult"])), max_size=8),
    threshold=st.sampled_from([0.0, 0.5, 0.75]),
    ks=st.sampled_from([(1,), (1, 3, 5), (2, 40)]),
)
def test_external_predictions_evaluate_equals_oracle(rows, repeats, order, truth, threshold, ks):
    # an external matcher's rows, shuffled, with pairs repeated (either way
    # round, at other or tied scores), go through the CSV and evaluate
    for i, score in repeats:
        if i < len(rows):
            left, right, _score = rows[i]
            rows.append((right, left, score))
    order.shuffle(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["left_table", "left_column", "right_table", "right_column", "score"])
    writer.writerows([*left, *right, f"{score:.6f}"] for left, right, score in rows)
    # canonical pairs, one per key
    ground_truth = list({p.key(): p for p in (JoinPair(*sorted((l, r)), kind, d) for l, r, kind, d in truth)}.values())
    tasks = ["exact_joins", "semantic_joins"]
    reports = evaluate(parse_predictions_csv(buf.getvalue()), ground_truth, tasks, threshold=threshold, ks=ks)
    for task, report in zip(tasks, reports):
        want = report_oracle(rows, ground_truth, task, threshold, ks)
        assert {key: report.to_dict()[key] for key in want} == want
