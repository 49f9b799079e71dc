"""Detection metrics: confusion counts, precision/recall/F1, rank AUC,
threshold sweeps, and per-pattern evaluation reports.

Scores are (similarity, label) with labels in {-1, +1}; a pair predicts
positive when its similarity is >= the threshold. Degenerate denominators
resolve to 0 (precision with no positive predictions, F1 with p + r = 0).
A report on rows of a single label has no AUC (None, shown as n/a).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Sequence, TYPE_CHECKING

import numpy as np

from .acfg import write_atomic, write_json
from .errors import DegenerateLabels

if TYPE_CHECKING:  # pragma: no cover
    from .pairgen import PairRef

Scored = tuple[float, int]


def confusion(
    scores: Sequence[Scored], threshold: float
) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) at the given threshold."""
    tp = fp = tn = fn = 0
    for score, label in scores:
        if label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {label!r}")
        predicted_positive = score >= threshold
        if predicted_positive:
            if label == 1:
                tp += 1
            else:
                fp += 1
        else:
            if label == 1:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def precision_recall_f1(
    tp: int, fp: int, tn: int, fn: int
) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def accuracy(tp: int, fp: int, tn: int, fn: int) -> float:
    total = tp + fp + tn + fn
    return (tp + tn) / total if total else 0.0


def auc(scores: Sequence[Scored]) -> float:
    """Rank-based two-sample AUC; tied scores share their average rank."""
    labels = np.array([label for _, label in scores])
    values = np.array([score for score, _ in scores], dtype=np.float64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == -1))
    if n_pos + n_neg != len(scores):
        raise ValueError("labels must be -1 or +1")
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("AUC needs both labels")
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalReport:
    pattern: str
    threshold: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int

    def to_json(self) -> dict:
        payload = asdict(self)
        counts = {k: payload.pop(k) for k in ("tp", "fp", "tn", "fn")}
        payload["counts"] = counts
        return payload


def _auc_or_none(scores: Sequence[Scored]) -> float | None:
    labels = {label for _, label in scores}
    return auc(scores) if labels == {-1, 1} else None


def report_at(scores: Sequence[Scored], threshold: float, pattern: str) -> EvalReport:
    return _report(scores, threshold, pattern, _auc_or_none(scores))


def _report(
    scores: Sequence[Scored], threshold: float, pattern: str, area: float | None
) -> EvalReport:
    tp, fp, tn, fn = confusion(scores, threshold)
    precision, recall, f1 = precision_recall_f1(tp, fp, tn, fn)
    return EvalReport(
        pattern=pattern,
        threshold=threshold,
        accuracy=accuracy(tp, fp, tn, fn),
        precision=precision,
        recall=recall,
        f1=f1,
        auc=area,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[EvalReport, ...]
    best_index: int

    @property
    def best(self) -> EvalReport:
        return self.reports[self.best_index]


def threshold_sweep(scores: Sequence[Scored], grid: Sequence[float]) -> SweepResult:
    """One report per grid threshold; best row is max F1, ties to the
    smallest threshold."""
    if not grid:
        raise ValueError("empty threshold grid")
    area = _auc_or_none(scores)  # the same at every threshold
    reports = tuple(_report(scores, t, "overall", area) for t in sorted(grid))
    best_index = 0
    for i, report in enumerate(reports):
        if report.f1 > reports[best_index].f1:
            best_index = i
    return SweepResult(reports=reports, best_index=best_index)


def write_sweep_csv(sweep: SweepResult, path: Path | str) -> None:
    """The sweep as CSV, its rows ended by \\r\\n, written through
    write_atomic."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(
        ["threshold", "accuracy", "precision", "recall", "f1", "auc", "best"]
    )
    for i, report in enumerate(sweep.reports):
        writer.writerow(
            [
                f"{report.threshold:.6g}",
                f"{report.accuracy:.6f}",
                f"{report.precision:.6f}",
                f"{report.recall:.6f}",
                f"{report.f1:.6f}",
                _format_auc(report.auc, 6),
                int(i == sweep.best_index),
            ]
        )
    write_atomic(path, handle.getvalue().encode("utf-8"))


def reports_from_scores(
    pairs: Sequence["PairRef"], scores: Sequence[float], threshold: float
) -> dict[str, EvalReport]:
    """Per-pattern reports plus an overall row at the given threshold.

    Pairs group by their pattern tag (negatives carry the tag of the pattern
    run they were generated for); scores[i] belongs to pairs[i].
    """
    if len(scores) != len(pairs):
        raise ValueError(f"{len(scores)} scores for {len(pairs)} pairs")
    overall = [(score, pair.label) for pair, score in zip(pairs, scores)]
    by_pattern: dict[str, list[Scored]] = {}
    for pair, row in zip(pairs, overall):
        by_pattern.setdefault(pair.pattern.value, []).append(row)
    reports = {
        pattern: report_at(rows, threshold, pattern)
        for pattern, rows in sorted(by_pattern.items())
    }
    reports["overall"] = report_at(overall, threshold, "overall")
    return reports


def _format_auc(value: float | None, digits: int) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}"


def format_report_table(reports: Mapping[str, EvalReport]) -> str:
    header = ("pattern", "acc", "prec", "recall", "f1", "auc")
    rows = [header]
    for name, report in reports.items():
        rows.append(
            (
                name,
                f"{report.accuracy:.3f}",
                f"{report.precision:.3f}",
                f"{report.recall:.3f}",
                f"{report.f1:.3f}",
                _format_auc(report.auc, 3),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def write_reports(reports: Mapping[str, EvalReport], path: Path | str) -> None:
    write_json(path, {name: report.to_json() for name, report in reports.items()})
