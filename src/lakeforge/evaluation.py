"""Scoring matcher predictions against ground truth: thresholded
precision/recall/F1, top-k precision, and the easy/difficult decomposition of
the non-exact semantic pairs. The positive rule is strict: score > threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .common import EvaluationError
from .model import (
    ColumnRef,
    JoinPair,
    KIND_EXACT,
    KIND_PKFK,
    KIND_SEMANTIC,
)
from .matchers import MatchPrediction, dedupe_predictions

DEFAULT_THRESHOLD = 0.5
DEFAULT_KS = (1, 3, 5)

TASK_EXACT = "exact_joins"
TASK_SEMANTIC = "semantic_joins"
TASK_ALL = "all"
TASKS = (TASK_EXACT, TASK_SEMANTIC, TASK_ALL)

PairKey = tuple[ColumnRef, ColumnRef]


def task_truth(
    pairs: list[JoinPair], task: str, semantic_includes_exact: bool = True
) -> set[PairKey]:
    """Truth set for a task. The exact task covers {exact, pkfk}; the semantic
    task includes the exact pairs by default (every pkfk/exact pair is also
    joinable under an identity mapping), configurable to semantic-only."""
    if task == TASK_EXACT:
        kinds = {KIND_EXACT, KIND_PKFK}
    elif task == TASK_SEMANTIC:
        kinds = (
            {KIND_EXACT, KIND_PKFK, KIND_SEMANTIC}
            if semantic_includes_exact
            else {KIND_SEMANTIC}
        )
    elif task == TASK_ALL:
        kinds = {KIND_EXACT, KIND_PKFK, KIND_SEMANTIC}
    else:
        raise EvaluationError(f"unknown task {task!r}")
    return {p.key() for p in pairs if p.kind in kinds}


def precision_recall_f1(
    preds: list[MatchPrediction], truth: set[PairKey], threshold: float = DEFAULT_THRESHOLD
) -> tuple[float, float, float, bool]:
    """Returns (precision, recall, f1, degenerate). Positives are predictions
    with score strictly above the threshold. degenerate=True flags an empty
    truth set rather than silently reporting zeros."""
    return _precision_recall_f1(dedupe_predictions(preds), truth, threshold)


def _precision_recall_f1(
    unique: list[MatchPrediction], truth: set[PairKey], threshold: float
) -> tuple[float, float, float, bool]:
    positives = {p.key() for p in unique if p.score > threshold}
    tp = len(positives & truth)
    precision = tp / len(positives) if positives else 0.0
    degenerate = not truth
    recall = tp / len(truth) if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1, degenerate


def top_k_precision(preds: list[MatchPrediction], truth: set[PairKey], k: int) -> float:
    """Truth hits among the k highest-scored predictions, divided by k.

    Ties break on canonical pair order; if fewer than k predictions exist the
    missing slots count as misses."""
    _check_k(k)
    return _top_k_precision(_ranked(dedupe_predictions(preds)), truth, k)


def _check_k(k: int) -> None:
    if k < 1:
        raise EvaluationError("k must be >= 1")


def _ranked(unique: list[MatchPrediction]) -> list[MatchPrediction]:
    """Highest score first. dedupe_predictions returns canonical pair order,
    so the stable sort breaks ties on it."""
    return sorted(unique, key=lambda p: -p.score)


def _top_k_precision(ranked: list[MatchPrediction], truth: set[PairKey], k: int) -> float:
    return sum(1 for p in ranked[:k] if p.key() in truth) / k


@dataclass
class DifficultyCell:
    total: int = 0
    correct: int = 0

    def as_fraction(self) -> str:
        return f"{self.correct}/{self.total}"


def difficulty_breakdown(
    preds: list[MatchPrediction],
    truth_pairs: list[JoinPair],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, DifficultyCell]:
    """Per-difficulty hit counts over the non-exactly but semantically joinable
    pairs (kind == semantic; exact overlap pairs are excluded by kind
    exclusivity)."""
    return _difficulty_breakdown(dedupe_predictions(preds), truth_pairs, threshold)


def _difficulty_breakdown(
    unique: list[MatchPrediction], truth_pairs: list[JoinPair], threshold: float
) -> dict[str, DifficultyCell]:
    score_of = {p.key(): p.score for p in unique}
    cells = {"easy": DifficultyCell(), "difficult": DifficultyCell()}
    for pair in truth_pairs:
        if pair.kind != KIND_SEMANTIC:
            continue
        cell = cells[pair.difficulty]
        cell.total += 1
        if score_of.get(pair.key(), 0.0) > threshold:
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
    preds: list[MatchPrediction],
    ground_truth: list[JoinPair],
    task: str,
    matcher: str = "",
    threshold: float = DEFAULT_THRESHOLD,
    ks: tuple[int, ...] = DEFAULT_KS,
    corpus_digest: str = "",
    semantic_includes_exact: bool = True,
) -> EvalReport:
    for k in ks:
        _check_k(k)
    truth = task_truth(ground_truth, task, semantic_includes_exact)
    unique = dedupe_predictions(preds)
    precision, recall, f1, degenerate = _precision_recall_f1(unique, truth, threshold)
    ranked = _ranked(unique)
    top_k = {k: _top_k_precision(ranked, truth, k) for k in ks}
    return EvalReport(
        matcher=matcher,
        task=task,
        threshold=threshold,
        precision=precision,
        recall=recall,
        f1=f1,
        top_k=top_k,
        difficulty=_difficulty_breakdown(unique, ground_truth, threshold),
        corpus_digest=corpus_digest,
        degenerate=degenerate,
        truth_size=len(truth),
        prediction_count=len(unique),
    )


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
