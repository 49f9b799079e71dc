import csv
import json

import numpy as np
import pytest

from cidetect.errors import DegenerateLabels
from cidetect.evaluation import (
    accuracy,
    auc,
    confusion,
    format_report_table,
    precision_recall_f1,
    report_at,
    reports_from_scores,
    threshold_sweep,
    write_reports,
    write_sweep_csv,
)


def test_confusion_counts():
    scores = [(0.9, 1), (0.8, -1), (0.4, 1), (0.1, -1)]
    assert confusion(scores, 0.5) == (1, 1, 1, 1)
    # threshold comparison is inclusive
    assert confusion([(0.5, 1)], 0.5) == (1, 0, 0, 0)
    assert confusion([(0.5, -1)], 0.5) == (0, 1, 0, 0)


def test_confusion_rejects_bad_label():
    with pytest.raises(ValueError):
        confusion([(0.5, 0)], 0.5)


def test_precision_recall_f1_zero_conventions():
    assert precision_recall_f1(0, 0, 5, 3) == (0.0, 0.0, 0.0)
    p, r, f1 = precision_recall_f1(2, 1, 0, 2)
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(0.5)
    assert f1 == pytest.approx(2 * p * r / (p + r))


def test_accuracy():
    assert accuracy(2, 1, 3, 2) == pytest.approx(5 / 8)
    assert accuracy(0, 0, 0, 0) == 0.0


def test_auc_known_values():
    perfect = [(0.9, 1), (0.8, 1), (0.2, -1), (0.1, -1)]
    assert auc(perfect) == 1.0
    inverted = [(0.1, 1), (0.2, 1), (0.8, -1), (0.9, -1)]
    assert auc(inverted) == 0.0
    all_tied = [(0.5, 1), (0.5, -1), (0.5, 1), (0.5, -1)]
    assert auc(all_tied) == 0.5


def test_auc_requires_both_labels():
    with pytest.raises(DegenerateLabels):
        auc([(0.5, 1), (0.7, 1)])


def _auc_brute_force(scores):
    wins = 0.0
    pos = [s for s, l in scores if l == 1]
    neg = [s for s, l in scores if l == -1]
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_against_brute_force_with_ties():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = 60
        # coarse grid forces plenty of tied scores
        scores = [
            (float(rng.integers(0, 8)) / 7.0, 1 if rng.random() < 0.5 else -1)
            for _ in range(n)
        ]
        labels = {l for _, l in scores}
        if labels != {-1, 1}:
            continue
        assert auc(scores) == pytest.approx(_auc_brute_force(scores), abs=1e-12)


def test_report_at_fields():
    scores = [(0.9, 1), (0.8, -1), (0.4, 1), (0.1, -1)]
    report = report_at(scores, 0.5, "leaf")
    assert report.pattern == "leaf"
    assert report.threshold == 0.5
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 1, 1)
    assert report.accuracy == 0.5
    payload = report.to_json()
    assert payload["counts"] == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
    assert payload["auc"] == report.auc


def test_threshold_sweep_best_row():
    """Best row must match an exhaustive max-F1 scan with ties broken toward
    the smaller threshold."""
    rng = np.random.default_rng(31)
    grid = [i / 20 for i in range(1, 20)]
    for _ in range(20):
        scores = [
            (float(rng.integers(0, 10)) / 9.0, 1 if rng.random() < 0.5 else -1)
            for _ in range(40)
        ]
        if {l for _, l in scores} != {-1, 1}:
            continue
        sweep = threshold_sweep(scores, grid)
        best_f1 = None
        best_t = None
        for t in sorted(grid):
            tp, fp, tn, fn = confusion(scores, t)
            _, _, f1 = precision_recall_f1(tp, fp, tn, fn)
            if best_f1 is None or f1 > best_f1:
                best_f1, best_t = f1, t
        assert sweep.best.threshold == best_t
        assert sweep.best.f1 == pytest.approx(best_f1)


def test_threshold_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        threshold_sweep([(0.5, 1), (0.4, -1)], [])


def test_write_sweep_csv(tmp_path):
    scores = [(0.9, 1), (0.8, -1), (0.4, 1), (0.1, -1)]
    sweep = threshold_sweep(scores, [0.3, 0.5, 0.7])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, path)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["threshold", "accuracy", "precision", "recall", "f1", "auc", "best"]
    assert len(rows) == 4
    assert sum(int(r[-1]) for r in rows[1:]) == 1


def test_write_reports(tmp_path):
    report = report_at([(0.9, 1), (0.1, -1)], 0.5, "overall")
    path = tmp_path / "reports.json"
    write_reports({"overall": report}, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["overall"]["counts"]["tp"] == 1


def test_format_report_table():
    reports = {
        "leaf": report_at([(0.9, 1), (0.1, -1)], 0.5, "leaf"),
        "overall": report_at([(0.9, 1), (0.1, -1)], 0.5, "overall"),
    }
    table = format_report_table(reports)
    lines = table.splitlines()
    assert any("leaf" in line for line in lines)
    assert any("overall" in line for line in lines)
    assert "auc" in lines[0]


def test_evaluate_detector_groups_by_pattern():
    from dataclasses import replace

    from cidetect.acfg import build_vocabulary, count_opcodes
    from cidetect.detector import EnsembleDetector, score_pairs
    from cidetect.gnn import ModelConfig, init_params
    from cidetect.labeling import Pattern
    from cidetect.pairgen import FunctionPair
    from helpers import OPCODE_POOL, random_acfg

    rng = np.random.default_rng(7)
    graphs = [random_acfg(rng, f"f{i}", OPCODE_POOL[:4], max_nodes=3) for i in range(6)]
    vocab = build_vocabulary(count_opcodes(graphs), max_size=4)
    config = ModelConfig(
        feature_dim=vocab.feature_dim,
        node_state_dim=3,
        graph_embedding_dim=4,
        propagation_layers=1,
        encoder_hidden=(),
        update_hidden=(),
        output_hidden=(),
        seed=0,
    )
    models = {
        key: init_params(replace(config, seed=i))
        for i, key in enumerate(("leaf", "root", "internal"))
    }
    det = EnsembleDetector(models=models, vocab=vocab, config=config, threshold=0.5)

    def pair(i, j, label, pattern):
        return FunctionPair(
            query=graphs[i],
            target=graphs[j],
            label=label,
            pattern=pattern,
            query_ref=("noinline", "b", f"f{i}"),
            target_ref=("inline", "b", f"f{j}"),
            bridge="x" if label == 1 else None,
        )

    pairs = [
        pair(0, 1, 1, Pattern.LEAF),
        pair(2, 3, -1, Pattern.LEAF),
        pair(4, 5, 1, Pattern.ROOT),
        pair(1, 2, -1, Pattern.ROOT),
    ]
    reports = reports_from_scores(pairs, score_pairs(det, pairs), det.threshold)
    assert set(reports) == {"leaf", "root", "overall"}
    assert reports["overall"].tp + reports["overall"].fn == 2
