"""Max-similarity ensemble over pattern-specific embedding models.

Each pattern (leaf, root, internal) gets its own model; a query/target pair
is scored by every model, similarity = 1 / (1 + distance), and the ensemble
keeps the maximum. The pair is flagged as inlined when that maximum reaches
the decision threshold. A single mixed model trained on all patterns at once
is supported as an ablation configuration.

gnn embeds graphs in buckets of one node count, where a graph's embedding
depends only on the graph, so a pair's score depends only on its two
graphs, never on the other pairs it is scored with, and a function scores
exactly 1 against itself, under one ref or two. score_pairs therefore
splits the distinct refs of its pairs into shares of whole graph files,
one per CPU while each share has at least _GRAPHS_PER_SHARE graphs. Each
share builds, prepares and embeds its graphs under every model: share 0
in the calling process, every other share in a child made with os.fork,
which sends its embeddings back through a pipe. When a share does not
return its rows (a bad input, or a child that ends without sending
them), the calling process embeds every graph itself, one share as on
one CPU, and so raises the failure the serial order meets first. The
scores come out the same, bit for bit, at any share count. A single
share forks nothing, so detect, which prepares its two graphs and makes
one gnn.pair_distances call, never does. An eval scores its pair file
once with score_pairs and builds every report from those scores
(evaluation.reports_from_scores).

save_models writes a bundle's model-<key>.ckpt files and vocab.json, and
refuses a bundle whose vocab.json holds another vocabulary; finalize_bundle
adds its manifest.json once every model is there.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NoReturn, Sequence

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
    embed_graphs,
    load_checkpoint,
    pair_distances,
    prepare_graph,
    row_distances,
    save_checkpoint,
)
from .labeling import CROSS_PATTERNS
from .pairgen import (
    FunctionPair, GraphRef, GraphStore, PairRef, at_place, build_refs, first_refs
)

logger = logging.getLogger(__name__)

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
    detector: EnsembleDetector,
    pairs: Sequence[PairRef],
    graphs: GraphStore | None = None,
    places: Sequence[str] | None = None,
) -> list[float]:
    """Ensemble similarity per pair. The pairs' graphs come from graphs,
    or, without it, from the pairs themselves, which are then
    FunctionPairs.

    The distinct refs are split into shares by graph file (_shares). Each
    share builds its graphs, prepares them and embeds them under every
    model; share 0 runs here and every other share in a forked process
    (_run_shares). When a share does not return its rows, every ref is
    embedded here, in the serial order, which raises the failure that
    order meets first: every graph is built before any is prepared, and a
    failure to build a graph is raised as it is, or, given each pair's
    place (path:line), at the place of the first pair of its ref
    (pairgen.at_place)."""
    if not pairs:
        return []
    if graphs is None:
        graphs = {}
        for pair in pairs:
            graphs.setdefault(pair.query_ref, pair.query)
            graphs.setdefault(pair.target_ref, pair.target)
    first = first_refs(pairs)
    refs = list(first)
    models = [detector.models[key] for key in sorted(detector.models)]

    def embed(share: list[GraphRef]) -> np.ndarray:
        """The embeddings of the share's graphs under every model."""
        built, failure = build_refs(graphs, share)
        if failure is not None:
            if places is None:
                raise failure
            raise at_place(places[first[share[len(built)]]], failure)
        prepared = [prepare_graph(g, detector.vocab, detector.config) for g in built]
        return embed_graphs(prepared, models, detector.config)

    shares = _shares(refs)
    outcomes = _run_shares(lambda k: embed(shares[k]), len(shares))
    if outcomes is None:
        shares, outcomes = [refs], [embed(refs)]
    rank = {ref: i for i, ref in enumerate(refs)}
    emb = np.empty((len(models), len(refs), 1, detector.config.graph_embedding_dim))
    for share, share_emb in zip(shares, outcomes):
        emb[:, [rank[ref] for ref in share]] = share_emb
    rows = np.array(
        [(rank[p.query_ref], rank[p.target_ref]) for p in pairs], dtype=np.intp
    ).reshape(len(pairs), 2)
    return np.max(similarity(row_distances(emb, rows)), axis=0).tolist()


# Fewest distinct graphs per share. A fork costs more than its share's
# wall time: a page the two processes share is copied when either writes
# it while the child runs, and what the calling process runs afterwards
# runs slower (each first write to a page faults, and OpenBLAS's fork
# handler has shut its thread pool down). Measured on 2
# vCPUs (Python 3.11.7, numpy 2.4.6): timed alone, two shares broke even
# with one at about 45 graphs of a 40-project corpus at call density 2.0
# (18 blocks each) and about 100 criterion-06 graphs (4.5 blocks each).
# In perfbench's long-lived process, an eval of 364 criterion-06 graphs
# ran no faster in two shares than in one (x1.00; --seconds 20, 5
# alternated pairs), while label and pairs after it fell to x0.92 of their
# rate and detect's p95 latency rose x1.13; an eval of 656 graphs of the
# larger kind in two shares ran x1.33 as fast as the serial scorer before
# shares (--seconds 45, 10 of 10 alternated pairs). So two shares start at
# 512 graphs.
_GRAPHS_PER_SHARE = 256


def _share_count(files: int, graphs: int) -> int:
    """How many shares score graphs from so many graph files: one per CPU
    this process may run on, but no more than the files, nor than one per
    _GRAPHS_PER_SHARE graphs, and one where there is no fork or another
    thread runs (a forked child would hold a copy of its locks)."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, files, graphs // _GRAPHS_PER_SHARE))


def _shares(refs: Sequence[GraphRef]) -> list[list[GraphRef]]:
    """The refs split into _share_count shares of whole graph files: each
    file, the one with the most refs first, goes to the share with the
    fewest refs so far (the first of them on a tie). A share lists its refs
    in the order of refs; an empty share is dropped."""
    by_file: dict[tuple[str, str], list[GraphRef]] = {}
    for ref in refs:
        by_file.setdefault(ref[:2], []).append(ref)
    shares: list[list[GraphRef]] = [
        [] for _ in range(_share_count(len(by_file), len(refs)))
    ]
    for file_refs in sorted(by_file.values(), key=len, reverse=True):
        min(shares, key=len).extend(file_refs)
    order = {ref: i for i, ref in enumerate(refs)}
    return [sorted(share, key=order.__getitem__) for share in shares if share]


def _run_shares(work: Callable[[int], object], count: int) -> list[object] | None:
    """work(k) for each share k < count: share 0 here, every other share in
    a child made with os.fork, which sends its result back pickled through
    a pipe and leaves by os._exit. None, when there is more than one share,
    if share 0 raises an Exception or a child ends without sending its
    result, which logs a WARNING saying how it ended. Every child is waited
    for however this returns or raises, and killed first unless it has sent
    its result."""
    if count == 1:
        return [work(0)]
    children: dict[int, tuple[int, int]] = {}  # share -> (pid, read end)
    try:
        for k in range(1, count):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(work, k, write_end)
            os.close(write_end)
            children[k] = pid, read_end
        try:
            outcomes = [work(0)]
        except Exception:  # the caller meets it again in the serial order
            return None
        for k in range(1, count):
            pid, read_end = children[k]
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[k]
            os.close(read_end)
            if code != 0 or not data:
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                logger.warning(
                    "the process scoring share %d of %d ended without its "
                    "result (%s); scoring every pair in this process",
                    k + 1, count, how,
                )
                return None
            outcomes.append(pickle.loads(data))
        return outcomes
    finally:
        for pid, read_end in children.values():
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _child(work: Callable[[int], object], k: int, write_end: int) -> NoReturn:
    """Share k in a forked child: its pickled result down write_end, then
    os._exit, never a return into the caller's code."""
    code = 1
    try:
        # the child is short-lived: a collection would only touch, and so
        # copy, the pages of the parent's heap
        gc.disable()
        with open(write_end, "wb") as pipe:
            pickle.dump(work(k), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


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
