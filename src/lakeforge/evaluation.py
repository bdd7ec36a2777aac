"""Scoring matcher predictions against ground truth: thresholded
precision/recall/F1, top-k precision, and the easy/difficult decomposition of
the non-exact semantic pairs. The positive rule is strict: score > threshold.

evaluate scores one matcher's Predictions (a score per column pair, in
canonical order) for every task in one pass. It takes three things straight
from the score list once: the positives, the top max(ks) pairs and the
difficulty cells. Only the truth set differs from task to task.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .common import EvaluationError
from .model import (
    JoinPair,
    KIND_EXACT,
    KIND_PKFK,
    KIND_SEMANTIC,
)
from .matchers import PairKey, Predictions

DEFAULT_THRESHOLD = 0.5
DEFAULT_KS = (1, 3, 5)

TASK_EXACT = "exact_joins"
TASK_SEMANTIC = "semantic_joins"
TASKS = (TASK_EXACT, TASK_SEMANTIC)


def task_truth(pairs: list[JoinPair], task: str) -> set[PairKey]:
    """Truth set for a task. The exact task covers {exact, pkfk}; the semantic
    task covers every kind, since every pkfk/exact pair is also joinable under
    an identity mapping."""
    if task == TASK_EXACT:
        kinds = {KIND_EXACT, KIND_PKFK}
    elif task == TASK_SEMANTIC:
        kinds = {KIND_EXACT, KIND_PKFK, KIND_SEMANTIC}
    else:
        raise EvaluationError(f"unknown task {task!r}")
    return {p.key() for p in pairs if p.kind in kinds}


def precision_recall_f1(positives: set[PairKey], truth: set[PairKey]) -> tuple[float, float, float, bool]:
    """Returns (precision, recall, f1, degenerate) of the positive pairs
    (Predictions.positives). degenerate=True flags an empty truth set rather
    than silently reporting zeros."""
    tp = len(positives & truth)
    precision = tp / len(positives) if positives else 0.0
    degenerate = not truth
    recall = tp / len(truth) if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1, degenerate


def top_k_precision(ranked: list[PairKey], truth: set[PairKey], k: int) -> float:
    """Truth hits among the k highest-scored pairs of a ranking
    (Predictions.ranked, ties in canonical order), divided by k. If the
    ranking is shorter than k, the missing slots count as misses."""
    _check_k(k)
    return sum(1 for key in ranked[:k] if key in truth) / k


def _check_k(k: int) -> None:
    if k < 1:
        raise EvaluationError("k must be >= 1")


@dataclass
class DifficultyCell:
    total: int = 0
    correct: int = 0

    def as_fraction(self) -> str:
        return f"{self.correct}/{self.total}"


def difficulty_breakdown(
    preds: Predictions,
    truth_pairs: list[JoinPair],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, DifficultyCell]:
    """Per-difficulty hit counts over the non-exactly but semantically joinable
    pairs (kind == semantic; exact overlap pairs are excluded by kind
    exclusivity). A pair not predicted scores 0.0."""
    cells = {"easy": DifficultyCell(), "difficult": DifficultyCell()}
    for pair in truth_pairs:
        if pair.kind != KIND_SEMANTIC:
            continue
        cell = cells[pair.difficulty]
        cell.total += 1
        if preds.score_of(pair.key()) > threshold:
            cell.correct += 1
    return cells


@dataclass
class EvalReport:
    matcher: str
    task: str
    threshold: float
    precision: float
    recall: float
    f1: float
    top_k: dict[int, float]
    difficulty: dict[str, DifficultyCell]
    corpus_digest: str = ""
    degenerate: bool = False
    truth_size: int = 0
    prediction_count: int = 0

    def to_dict(self) -> dict:
        return {
            "matcher": self.matcher,
            "task": self.task,
            "threshold": self.threshold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "top_k": {str(k): v for k, v in sorted(self.top_k.items())},
            "difficulty": {
                name: {"total": c.total, "correct": c.correct}
                for name, c in sorted(self.difficulty.items())
            },
            "corpus_digest": self.corpus_digest,
            "degenerate": self.degenerate,
            "truth_size": self.truth_size,
            "prediction_count": self.prediction_count,
        }


def evaluate(
    preds: Predictions,
    ground_truth: list[JoinPair],
    tasks: list[str],
    matcher: str = "",
    threshold: float = DEFAULT_THRESHOLD,
    ks: tuple[int, ...] = DEFAULT_KS,
    corpus_digest: str = "",
) -> list[EvalReport]:
    """One matcher's report for each task, in the order given. The
    predictions are ranked (as far as the largest k) and thresholded once for
    all tasks; the difficulty cells do not depend on the task, and each
    report gets its own copy."""
    if isinstance(tasks, str):
        raise EvaluationError(f"tasks must be a list of task names, not the string {tasks!r}")
    for k in ks:
        _check_k(k)
    truths = [task_truth(ground_truth, task) for task in tasks]
    positives = preds.positives(threshold)
    top = preds.ranked(max(ks, default=0))
    difficulty = difficulty_breakdown(preds, ground_truth, threshold)
    reports = []
    for task, truth in zip(tasks, truths):
        precision, recall, f1, degenerate = precision_recall_f1(positives, truth)
        reports.append(
            EvalReport(
                matcher=matcher,
                task=task,
                threshold=threshold,
                precision=precision,
                recall=recall,
                f1=f1,
                top_k={k: top_k_precision(top, truth, k) for k in ks},
                difficulty={name: replace(cell) for name, cell in difficulty.items()},
                corpus_digest=corpus_digest,
                degenerate=degenerate,
                truth_size=len(truth),
                prediction_count=len(preds),
            )
        )
    return reports


def render_report(reports: list[EvalReport]) -> tuple[str, str]:
    """Fixed-layout text table plus a machine-readable JSON document.

    Byte-deterministic for a fixed input; rows keep their given order."""
    header = (
        f"{'matcher':<12} {'task':<16} {'F1 (P, R)':<22} "
        f"{'top-k':<20} {'difficult':<12} {'easy':<12}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        f1_cell = f"{r.f1:.2f} ({r.precision:.2f}, {r.recall:.2f})"
        if r.degenerate:
            f1_cell += " [degenerate truth set]"
        topk_cell = ", ".join(f"{r.top_k[k]:.2f}" for k in sorted(r.top_k))
        lines.append(
            f"{r.matcher:<12} {r.task:<16} {f1_cell:<22} {topk_cell:<20} "
            f"{r.difficulty['difficult'].as_fraction():<12} "
            f"{r.difficulty['easy'].as_fraction():<12}"
        )
    text = "\n".join(lines) + "\n"
    doc = json.dumps(
        {"format_version": 1, "reports": [r.to_dict() for r in reports]},
        sort_keys=True,
        indent=2,
        ensure_ascii=False,
    ) + "\n"
    return text, doc
