import json
from dataclasses import replace

import numpy as np
import pytest

from cidetect import gnn
from cidetect.acfg import build_vocabulary, count_opcodes
from cidetect.detector import (
    GRIDS,
    PATTERN_KEYS,
    EnsembleDetector,
    config_hash,
    detect,
    extended_grid,
    finalize_bundle,
    load_bundle,
    paper_grid,
    save_models,
    score_pairs,
    select_threshold,
    similarity,
)
from cidetect.errors import CorruptArtifact, DegenerateLabels, NegativeDistance
from cidetect.evaluation import confusion, precision_recall_f1
from cidetect.gnn import ModelConfig, init_params
from cidetect.labeling import Pattern
from cidetect.pairgen import FunctionPair

from helpers import OPCODE_POOL, random_acfg


def test_similarity_table():
    assert similarity(0.0) == 1.0
    assert similarity(1.0) == 0.5
    assert similarity(3.0) == 0.25


def test_similarity_rejects_negative_distance():
    with pytest.raises(NegativeDistance):
        similarity(-1e-9)


def _tiny_setup(seed=0, n_graphs=6):
    rng = np.random.default_rng(seed)
    graphs = [
        random_acfg(rng, f"f{i}", OPCODE_POOL[:5], max_nodes=4)
        for i in range(n_graphs)
    ]
    vocab = build_vocabulary(count_opcodes(graphs), max_size=4)
    config = ModelConfig(
        feature_dim=vocab.feature_dim,
        node_state_dim=3,
        graph_embedding_dim=4,
        propagation_layers=1,
        encoder_hidden=(),
        update_hidden=(4,),
        output_hidden=(),
        seed=seed,
    )
    return graphs, vocab, config


def _tiny_detector(seed=0, threshold=0.5, keys=("leaf", "root", "internal")):
    graphs, vocab, config = _tiny_setup(seed)
    models = {
        key: init_params(replace(config, seed=seed + i))
        for i, key in enumerate(keys)
    }
    det = EnsembleDetector(
        models=models, vocab=vocab, config=config, threshold=threshold
    )
    return graphs, det


def test_detector_rejects_bad_model_keys():
    graphs, vocab, config = _tiny_setup()
    params = init_params(config)
    for keys in (("leaf",), ("leaf", "root"), ("leaf", "root", "internal", "mixed"), ("equal",)):
        with pytest.raises(ValueError, match="models must be"):
            EnsembleDetector(
                models={k: params for k in keys},
                vocab=vocab,
                config=config,
                threshold=0.5,
            )
    # both sanctioned key sets construct fine
    EnsembleDetector(
        models={k: params for k in ("leaf", "root", "internal")},
        vocab=vocab, config=config, threshold=0.5,
    )
    EnsembleDetector(models={"mixed": params}, vocab=vocab, config=config, threshold=0.5)


def test_detector_rejects_bad_threshold():
    graphs, vocab, config = _tiny_setup()
    models = {k: init_params(config) for k in ("leaf", "root", "internal")}
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(ValueError, match="threshold"):
            EnsembleDetector(models=models, vocab=vocab, config=config, threshold=bad)
    det = EnsembleDetector(models=models, vocab=vocab, config=config, threshold=1.0)
    assert det.threshold == 1.0


def test_detector_rejects_vocab_config_mismatch():
    graphs, vocab, config = _tiny_setup()
    models = {k: init_params(config) for k in ("leaf", "root", "internal")}
    wrong = replace(config, feature_dim=config.feature_dim + 1)
    with pytest.raises(ValueError, match="feature dim"):
        EnsembleDetector(models=models, vocab=vocab, config=wrong, threshold=0.5)


def test_detector_mode():
    graphs, det = _tiny_detector()
    assert det.mode == "ensemble"
    _, mixed = _tiny_detector(keys=("mixed",))
    assert mixed.mode == "mixed"


def test_detect_final_is_max_and_dominates():
    rng = np.random.default_rng(11)
    for trial in range(10):
        graphs, det = _tiny_detector(seed=trial)
        q, t = rng.choice(len(graphs), size=2, replace=False)
        verdict = detect(graphs[q], graphs[t], det)
        assert set(verdict.similarities) == {"leaf", "root", "internal"}
        assert verdict.final == max(verdict.similarities.values())
        for sim in verdict.similarities.values():
            assert verdict.final >= sim
            assert 0.0 < sim <= 1.0
        assert verdict.label == (verdict.final >= det.threshold)


def test_detect_self_pair_scores_one():
    for trial in range(5):
        graphs, det = _tiny_detector(seed=trial + 20)
        verdict = detect(graphs[0], graphs[0], det)
        assert verdict.final == 1.0
        assert all(s == 1.0 for s in verdict.similarities.values())
        assert verdict.label


def test_detect_method_matches_function():
    graphs, det = _tiny_detector()
    assert det.detect(graphs[0], graphs[1]) == detect(graphs[0], graphs[1], det)


def _pairs_from(graphs):
    pairs = []
    for i in range(0, len(graphs) - 1, 2):
        label = 1 if i % 4 == 0 else -1
        pairs.append(
            FunctionPair(
                query=graphs[i],
                target=graphs[i + 1],
                label=label,
                pattern=Pattern.LEAF,
                query_ref=("noinline", "b", f"f{i}"),
                target_ref=("inline", "b", f"f{i+1}"),
                bridge="x" if label == 1 else None,
            )
        )
    return pairs


def _full_size_detector(seed, n_graphs=40):
    """Graphs of up to 8 blocks and an ensemble on the default model dims,
    where graphs stacked into one 2-D product get other bits than alone."""
    rng = np.random.default_rng(seed)
    graphs = [
        random_acfg(rng, f"f{i}", OPCODE_POOL[:8], max_nodes=8)
        for i in range(n_graphs)
    ]
    vocab = build_vocabulary(count_opcodes(graphs), max_size=6)
    config = ModelConfig(feature_dim=vocab.feature_dim, seed=seed)
    models = {
        key: init_params(replace(config, seed=seed + i))
        for i, key in enumerate(PATTERN_KEYS)
    }
    return graphs, EnsembleDetector(models, vocab, config, threshold=0.5)


def test_score_pairs_matches_detect():
    for graphs, det in (_tiny_detector(seed=3), _full_size_detector(seed=3)):
        pairs = _pairs_from(graphs)
        finals = score_pairs(det, pairs)
        assert len(finals) == len(pairs)
        for pair, final in zip(pairs, finals):
            assert final == detect(pair.query, pair.target, det).final


def test_score_pairs_scores_a_function_against_itself_as_one():
    """A function paired with itself under a noinline and an inline ref,
    among other pairs, scores exactly 1, as detect does: the two refs'
    prepared graphs embed to equal bits."""
    for seed in range(5):
        graphs, det = _full_size_detector(seed)

        def pair(q, t, label):
            return FunctionPair(
                query=graphs[q],
                target=graphs[t],
                label=label,
                pattern=Pattern.LEAF,
                query_ref=("noinline", "b", f"f{q}"),
                target_ref=("inline", "b", f"f{t}"),
                bridge="x" if label == 1 else None,
            )

        pairs = [
            pair(i, j, label)
            for i in range(0, len(graphs), 2)
            for j, label in ((i + 1, -1), (i, 1))
        ]
        finals = score_pairs(det, pairs)
        for p, final in zip(pairs, finals):
            if p.label == 1:
                assert final == 1.0 == detect(p.query, p.target, det).final


def test_detect_scores_a_function_against_itself_as_one_at_any_bucket_budget(
    monkeypatch,
):
    """detect prepares the query and the target apart, so a function
    against itself is two prepared copies of one graph: they embed alone
    (budget 1), in buckets of a few, or stacked together, and still score
    exactly 1."""
    graphs, det = _full_size_detector(seed=7)
    for budget in (1, 5, 512):
        monkeypatch.setattr(gnn, "CHUNK_NODES", budget)
        for graph in graphs[:10]:
            verdict = detect(graph, graph, det)
            assert all(s == 1.0 for s in verdict.similarities.values())


def test_score_pairs_chunking_changes_no_score(monkeypatch):
    graphs, det = _full_size_detector(seed=5)
    pairs = _pairs_from(graphs)
    default = score_pairs(det, pairs)
    for budget in (1, 7, 10_000):
        monkeypatch.setattr(gnn, "CHUNK_NODES", budget)
        np.testing.assert_array_equal(score_pairs(det, pairs), default)


def test_a_score_depends_only_on_its_pair():
    """Each pair's score keeps every bit when the pair list is reversed or
    cut to that one pair."""
    graphs, det = _full_size_detector(seed=6)
    pairs = _pairs_from(graphs)
    finals = score_pairs(det, pairs)
    assert score_pairs(det, pairs[::-1]) == finals[::-1]
    for pair, final in zip(pairs, finals):
        assert score_pairs(det, [pair]) == [final]


# ---------------------------------------------------------------------------
# Threshold selection

def test_paper_grid_values():
    assert paper_grid() == [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
    assert extended_grid() == [i / 20 for i in range(1, 20)]
    assert set(GRIDS) == {"paper", "extended"}
    assert GRIDS["paper"]() == paper_grid()


def test_select_threshold_tie_prefers_smallest():
    # every grid point separates the two pairs perfectly, so all tie at f1=1
    scored = [(0.9, 1), (0.1, -1)]
    assert select_threshold(scored, [0.7, 0.3, 0.5]) == 0.3


def test_select_threshold_against_exhaustive_oracle():
    rng = np.random.default_rng(17)
    grid = extended_grid()
    checked = 0
    for _ in range(40):
        scored = [
            (float(rng.integers(0, 12)) / 11.0, 1 if rng.random() < 0.5 else -1)
            for _ in range(30)
        ]
        if {l for _, l in scored} != {-1, 1}:
            continue
        best_f1 = -1.0
        best_t = None
        for t in sorted(grid):
            tp, fp, tn, fn = confusion(scored, t)
            _, _, f1 = precision_recall_f1(tp, fp, tn, fn)
            if f1 > best_f1:
                best_f1, best_t = f1, t
        assert select_threshold(scored, grid) == best_t
        checked += 1
    assert checked >= 30


def test_select_threshold_degenerate_and_empty():
    with pytest.raises(DegenerateLabels):
        select_threshold([(0.5, 1), (0.6, 1)], paper_grid())
    with pytest.raises(ValueError, match="empty"):
        select_threshold([(0.5, 1), (0.6, -1)], [])


# ---------------------------------------------------------------------------
# Bundles

def _saved_bundle(directory, provenance=None):
    """A bundle written the way train writes one: save_models, then
    finalize_bundle, which returns the detector the bundle holds."""
    graphs, det = _tiny_detector(seed=9)
    save_models(directory, det.models, det.vocab, det.config)
    det = finalize_bundle(
        directory, PATTERN_KEYS, _pairs_from(graphs), extended_grid(), provenance
    )
    return graphs, det


def test_bundle_round_trip(tmp_path):
    graphs, det = _saved_bundle(tmp_path / "bundle", {"note": "round trip"})
    loaded = load_bundle(tmp_path / "bundle")
    assert loaded.threshold == det.threshold
    assert loaded.config == det.config
    assert set(loaded.models) == set(det.models)
    for key in det.models:
        for name, value in det.models[key].items():
            assert np.array_equal(loaded.models[key][name], value)
    before = detect(graphs[0], graphs[1], det)
    after = detect(graphs[0], graphs[1], loaded)
    assert before == after


def test_bundle_manifest_fields(tmp_path):
    graphs, det = _saved_bundle(tmp_path / "bundle")
    manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
    assert manifest["mode"] == "ensemble"
    assert manifest["threshold"] == det.threshold
    assert manifest["config_sha256"] == config_hash(det.config)
    assert set(manifest["models"]) == {"leaf", "root", "internal"}
    for filename in manifest["models"].values():
        assert (tmp_path / "bundle" / filename).exists()
    assert (tmp_path / "bundle" / "vocab.json").exists()


def test_bundle_rejects_config_hash_mismatch(tmp_path):
    _saved_bundle(tmp_path / "bundle")
    manifest_path = tmp_path / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config_sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifact, match="hash mismatch"):
        load_bundle(tmp_path / "bundle")


def test_bundle_rejects_unknown_version(tmp_path):
    _saved_bundle(tmp_path / "bundle")
    manifest_path = tmp_path / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CorruptArtifact, match="unsupported bundle version 99"):
        load_bundle(tmp_path / "bundle")


def test_bundle_missing_checkpoint(tmp_path):
    _saved_bundle(tmp_path / "bundle")
    (tmp_path / "bundle" / "model-root.ckpt").unlink()
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path / "bundle")


def test_finalize_bundle_writes_only_the_manifest(tmp_path):
    graphs, det = _tiny_detector(seed=6)
    bundle = tmp_path / "bundle"
    save_models(bundle, det.models, det.vocab, det.config)
    before = {path.name: path.read_bytes() for path in bundle.iterdir()}
    pairs = _pairs_from(graphs)
    grid = extended_grid()
    finalized = finalize_bundle(bundle, PATTERN_KEYS, pairs, grid, {"note": "x"})
    scored = list(zip(score_pairs(det, pairs), (p.label for p in pairs)))
    assert finalized.threshold == select_threshold(scored, grid)
    after = {path.name: path.read_bytes() for path in bundle.iterdir()}
    assert set(after) == set(before) | {"manifest.json"}
    assert all(after[name] == data for name, data in before.items())
    loaded = load_bundle(bundle)
    assert loaded.threshold == finalized.threshold
    assert score_pairs(loaded, pairs) == score_pairs(det, pairs)
