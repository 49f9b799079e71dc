"""Max-similarity ensemble over pattern-specific embedding models.

Each pattern (leaf, root, internal) gets its own model; a query/target pair
is scored by every model, similarity = 1 / (1 + distance), and the ensemble
keeps the maximum. The pair is flagged as inlined when that maximum reaches
the decision threshold. A single mixed model trained on all patterns at once
is supported as an ablation configuration.

Scoring prepares its pairs with gnn.prepare_pairs, which prepares each
distinct ref once, and makes one gnn.pair_distances call for every model.
gnn embeds graphs in buckets of one node count, where a graph's embedding
depends only on the graph, so a pair's score depends only on its two
graphs, never on the other pairs it is scored with, and a function scores
exactly 1 against itself, under one ref or two. It runs in the calling
thread; there is no worker pool. detect is the same call on a single pair.
An eval scores its pair file once with score_pairs and builds every report
from those scores (evaluation.reports_from_scores).

save_models writes a bundle's model-<key>.ckpt files and vocab.json, and
refuses a bundle whose vocab.json holds another vocabulary; finalize_bundle
adds its manifest.json once every model is there.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .acfg import (
    AttributedCFG,
    OpcodeVocabulary,
    read_json,
    vocabulary_from_json,
    vocabulary_to_json,
    write_atomic,
    write_json,
)
from .errors import CorruptArtifact, DegenerateLabels, NegativeDistance, ValidationError
from .evaluation import Scored, threshold_sweep
from .gnn import (
    ModelConfig,
    ModelParams,
    PreparedGraph,
    config_to_json,
    load_checkpoint,
    pair_distances,
    prepare_graph,
    prepare_pairs,
    save_checkpoint,
)
from .labeling import CROSS_PATTERNS
from .pairgen import FunctionPair

PATTERN_KEYS = tuple(pattern.value for pattern in CROSS_PATTERNS)
MIXED_KEY = "mixed"


def similarity(distance: float | np.ndarray) -> float | np.ndarray:
    """Map a distance, or each of an array of them, to (0, 1]; identical
    embeddings score exactly 1."""
    if np.any(distance < 0):
        raise NegativeDistance(f"distance must be >= 0, got {np.min(distance)}")
    return 1.0 / (1.0 + distance)


def _check_ensemble(models: Mapping[str, object], threshold: object) -> None:
    """ValueError unless the models are keyed by the pattern keys or by the
    mixed key alone, and the threshold is a number in (0, 1]."""
    keys = tuple(sorted(models))
    if keys != tuple(sorted(PATTERN_KEYS)) and keys != (MIXED_KEY,):
        raise ValueError(
            f"models must be {set(PATTERN_KEYS)} or {{{MIXED_KEY!r}}}, got {set(keys)}"
        )
    if isinstance(threshold, bool) or not (
        isinstance(threshold, numbers.Real) and 0.0 < threshold <= 1.0
    ):
        raise ValueError(f"threshold must be a number in (0, 1], got {threshold!r}")


@dataclass(frozen=True)
class EnsembleDetector:
    """Pattern models sharing one vocabulary, config, and threshold."""

    models: Mapping[str, ModelParams]
    vocab: OpcodeVocabulary
    config: ModelConfig
    threshold: float

    def __post_init__(self) -> None:
        _check_ensemble(self.models, self.threshold)
        if self.vocab.feature_dim != self.config.feature_dim:
            raise ValueError(
                f"vocabulary dim {self.vocab.feature_dim} != "
                f"config feature dim {self.config.feature_dim}"
            )

    @property
    def mode(self) -> str:
        return MIXED_KEY if MIXED_KEY in self.models else "ensemble"

    def detect(self, query: AttributedCFG, target: AttributedCFG) -> "Verdict":
        return detect(query, target, self)


@dataclass(frozen=True)
class Verdict:
    similarities: dict[str, float]
    final: float
    label: bool


def detect(
    query: AttributedCFG, target: AttributedCFG, detector: EnsembleDetector
) -> Verdict:
    """Score one pair with every model and keep the maximum similarity."""
    pair = [prepare_graph(g, detector.vocab, detector.config) for g in (query, target)]
    sims = {key: float(s[0]) for key, s in _similarities(detector, [pair]).items()}
    final = max(sims.values())
    return Verdict(similarities=sims, final=final, label=final >= detector.threshold)


def score_pairs(
    detector: EnsembleDetector, pairs: Sequence[FunctionPair]
) -> list[float]:
    """Ensemble similarity per pair."""
    prepared = prepare_pairs(pairs, detector.vocab, detector.config)
    sims = _similarities(detector, [(p.query, p.target) for p in prepared])
    return np.max(list(sims.values()), axis=0).tolist()


def _similarities(
    detector: EnsembleDetector, pairs: Sequence[tuple[PreparedGraph, PreparedGraph]]
) -> dict[str, np.ndarray]:
    """Similarity per pair under each model, by sorted model key."""
    keys = sorted(detector.models)
    distance = pair_distances(
        pairs, [detector.models[key] for key in keys], detector.config
    )
    return dict(zip(keys, similarity(distance)))


# ---------------------------------------------------------------------------
# Threshold selection

def paper_grid() -> list[float]:
    """Ten thresholds from 0.50 to 0.95 in steps of 0.05."""
    return [i / 20 for i in range(10, 20)]


def extended_grid() -> list[float]:
    """Nineteen thresholds from 0.05 to 0.95 in steps of 0.05."""
    return [i / 20 for i in range(1, 20)]


GRIDS = {"paper": paper_grid, "extended": extended_grid}


def select_threshold(scored: Sequence[Scored], grid: Sequence[float]) -> float:
    """Grid threshold with the best F1; ties resolve to the smallest one."""
    labels = {label for _, label in scored}
    if 1 not in labels or -1 not in labels:
        raise DegenerateLabels("threshold selection needs both labels")
    return float(threshold_sweep(scored, grid).best.threshold)


# ---------------------------------------------------------------------------
# Bundle persistence

_BUNDLE_VERSION = 1


def config_hash(config: ModelConfig) -> str:
    canon = json.dumps(config_to_json(config), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _model_file(key: str) -> str:
    return f"model-{key}.ckpt"


def _vocab_text(vocab: OpcodeVocabulary) -> str:
    return json.dumps(vocabulary_to_json(vocab), sort_keys=True) + "\n"


def check_vocab(directory: Path | str, vocab: OpcodeVocabulary) -> None:
    """A bundle holds one vocabulary: if the directory's vocab.json differs
    from vocab, its models were featurized otherwise; ValidationError."""
    path = Path(directory) / "vocab.json"
    if path.is_file() and path.read_text(encoding="utf-8") != _vocab_text(vocab):
        raise ValidationError(
            f"{path} holds another vocabulary; models trained on different "
            "corpora or settings cannot share a bundle"
        )


def save_models(
    directory: Path | str,
    models: Mapping[str, ModelParams],
    vocab: OpcodeVocabulary,
    config: ModelConfig,
) -> None:
    """Write a checkpoint per model and vocab.json, but no manifest. A
    vocab.json already there with other contents is refused (check_vocab)
    before anything is written."""
    directory = Path(directory)
    check_vocab(directory, vocab)
    directory.mkdir(parents=True, exist_ok=True)
    for key in sorted(models):
        save_checkpoint(directory / _model_file(key), models[key], config)
    write_atomic(directory / "vocab.json", _vocab_text(vocab).encode("utf-8"))


def missing_models(directory: Path | str, keys: Sequence[str]) -> list[str]:
    """The keys, in order, whose checkpoint is not in the directory yet."""
    return [key for key in keys if not (Path(directory) / _model_file(key)).is_file()]


def _write_manifest(
    detector: EnsembleDetector, directory: Path, provenance: Mapping[str, str] | None
) -> None:
    manifest = {
        "format_version": _BUNDLE_VERSION,
        "mode": detector.mode,
        "threshold": detector.threshold,
        "models": {key: _model_file(key) for key in sorted(detector.models)},
        "config": config_to_json(detector.config),
        "config_sha256": config_hash(detector.config),
        "provenance": dict(provenance or {}),
    }
    write_json(directory / "manifest.json", manifest)


def finalize_bundle(
    directory: Path | str,
    keys: Sequence[str],
    threshold_pairs: Sequence[FunctionPair],
    grid: Sequence[float],
    provenance: Mapping[str, str] | None = None,
) -> EnsembleDetector:
    """Pick the threshold for the saved models of the keys on the pairs and
    write the manifest; the checkpoints and vocab.json stay as they are."""
    directory = Path(directory)
    det = _load_detector(directory, {k: _model_file(k) for k in keys}, threshold=1.0)
    labels = [pair.label for pair in threshold_pairs]
    scored = list(zip(score_pairs(det, threshold_pairs), labels))
    det = replace(det, threshold=select_threshold(scored, grid))
    _write_manifest(det, directory, provenance)
    return det


def _load_detector(
    directory: Path, model_files: Mapping[str, str], threshold: float
) -> EnsembleDetector:
    """Checkpoints by key and vocab.json; every config must agree."""
    path = directory / "vocab.json"
    payload = read_json(path, ["key_sequence"], CorruptArtifact)
    try:
        vocab = vocabulary_from_json(payload)
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from None
    models: dict[str, ModelParams] = {}
    config = None
    for key, filename in model_files.items():
        models[key], ckpt_config = load_checkpoint(directory / filename)
        if config not in (None, ckpt_config):
            raise ValidationError(f"{directory / filename} disagrees on model config")
        config = ckpt_config
    if vocab.feature_dim != config.feature_dim:
        raise CorruptArtifact(
            f"{path}: {vocab.feature_dim} features per node, "
            f"but the models take {config.feature_dim}"
        )
    return EnsembleDetector(models, vocab, config, threshold)


def load_bundle(directory: Path | str) -> EnsembleDetector:
    path = Path(directory) / "manifest.json"
    keys = ["format_version", "models", "config_sha256", "threshold"]
    manifest = read_json(path, keys, CorruptArtifact)
    if manifest["format_version"] != _BUNDLE_VERSION:
        raise CorruptArtifact(
            f"{path}: unsupported bundle version {manifest['format_version']}"
        )
    models, threshold = manifest["models"], manifest["threshold"]
    try:
        if not isinstance(models, dict) or not all(
            isinstance(name, str) for name in models.values()
        ):
            raise ValueError(f"models must map keys to file names, got {models!r}")
        _check_ensemble(models, threshold)
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from None
    det = _load_detector(path.parent, models, float(threshold))
    if config_hash(det.config) != manifest["config_sha256"]:
        raise CorruptArtifact(f"{path}: config hash mismatch")
    return det
