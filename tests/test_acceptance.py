"""Acceptance checklist. One test per numbered gate, in order; each prints a
single PASS line with its measured figures, so a verbose run reads as a
checklist. Tolerances and sample sizes are pinned in the assertions."""

import time

import numpy as np
import pytest

from cidetect import acfg, detector, evaluation, gnn, labeling, pairgen, synth
from cidetect.cli import build_index_from_corpus, main

from helpers import OPCODE_POOL, call_pair, random_acfg

_PATS = (labeling.Pattern.LEAF, labeling.Pattern.ROOT, labeling.Pattern.INTERNAL)


# ---------------------------------------------------------------------------
# 1: analytic gradients against central finite differences

def _fd_worst(config, graphs, vocab, label, h=1e-5, atol=1e-6):
    """Worst relative error over every parameter entry, or None when the
    sample lands on the hinge kink (|margin - t(1-d)| < 1e-6) or at d ~ 0.

    Entries where both sides sit below atol count as agreeing at zero: a
    central difference of an unused parameter is pure rounding noise of
    order eps*loss/(2h), far above any sensible relative floor."""
    params = gnn.init_params(config)
    q = gnn.prepare_graph(graphs[0], vocab, config)
    t = gnn.prepare_graph(graphs[1], vocab, config)
    d = gnn.euclidean_distance(
        gnn.embed_prepared(q, params, config),
        gnn.embed_prepared(t, params, config),
    )
    if abs(config.margin - label * (1.0 - d)) < 1e-6 or d < 1e-9:
        return None
    _, grads = gnn.pair_loss_and_grads(q, t, label, params, config)

    def loss_now():
        return gnn.pair_loss(
            gnn.euclidean_distance(
                gnn.embed_prepared(q, params, config),
                gnn.embed_prepared(t, params, config),
            ),
            label,
            config.margin,
        )

    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        analytic = grads[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_now()
            flat[k] = orig - h
            down = loss_now()
            flat[k] = orig
            fd = (up - down) / (2.0 * h)
            if abs(fd) < atol and abs(analytic[k]) < atol:
                continue
            scale = max(abs(fd), abs(analytic[k]))
            worst = max(worst, abs(fd - analytic[k]) / scale)
    return worst


def test_criterion_01_gradient_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    trial = 0
    while checked < 20:
        trial += 1
        assert trial < 200, "too many hinge-kink resamples"
        graphs = [
            random_acfg(rng, f"g{trial}_{i}", OPCODE_POOL[:4], max_nodes=5)
            for i in range(2)
        ]
        vocab = acfg.build_vocabulary(acfg.count_opcodes(graphs), max_size=3)
        config = gnn.ModelConfig(
            feature_dim=vocab.feature_dim,
            node_state_dim=int(rng.integers(2, 5)),
            graph_embedding_dim=int(rng.integers(2, 5)),
            propagation_layers=int(rng.integers(0, 3)),
            encoder_hidden=() if rng.random() < 0.5 else (3,),
            update_hidden=() if rng.random() < 0.5 else (4,),
            output_hidden=() if rng.random() < 0.5 else (3,),
            margin=float(rng.choice((0.1, 0.3))),
            seed=trial,
        )
        label = 1 if rng.random() < 0.5 else -1
        err = _fd_worst(config, graphs, vocab, label)
        if err is None:
            continue
        assert err < 1e-4, f"model {trial}: rel err {err}"
        worst = max(worst, err)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 20
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    print(
        f"criterion 01 gradient oracle: PASS ({checked} models, "
        f"max rel err {worst:.3e}, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 2: loss and similarity substitution tables

def test_criterion_02_formula_fidelity():
    assert gnn.pair_loss(0.5, 1, 0.1) == 0.0
    assert gnn.pair_loss(1.0, 1, 0.1) == 0.1
    assert gnn.pair_loss(0.5, -1, 0.1) == 0.6
    assert detector.similarity(0.0) == 1.0
    assert detector.similarity(1.0) == 0.5
    assert detector.similarity(3.0) == 0.25
    print("criterion 02 formula fidelity: PASS (all table rows exact)")


# ---------------------------------------------------------------------------
# 3: line tables back to the generator's ground truth

def test_criterion_03_labeling_round_trip(tmp_path):
    started = time.monotonic()
    mismatches = 0
    bridges = 0
    for seed in range(10):
        config = synth.SynthConfig(seed=seed)  # 10 projects x 10 functions
        corpus = synth.generate_corpus(config)
        root = tmp_path / f"corpus{seed}"
        synth.write_corpus(corpus, root)
        rebuilt = build_index_from_corpus(root)
        truth = corpus.ground_truth.entries
        assert set(rebuilt.entries) == set(truth)
        for bridge, entry in truth.items():
            got = rebuilt.entries[bridge]
            if set(got.equal) != set(entry.equal):
                mismatches += 1
            elif set(got.cross_inlining) != set(entry.cross_inlining):
                mismatches += 1
            bridges += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 120.0, f"round trip took {elapsed:.1f}s"
    print(
        f"criterion 03 labeling round trip: PASS (10 corpora, "
        f"{bridges} bridges, 0 mismatches, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 4: pattern classification against direct degree counting

def test_criterion_04_pattern_classifier_oracle():
    rng = np.random.default_rng(41)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        names = [f"f{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.15
        ]
        fcg = labeling.build_fcg(edges)
        k = int(rng.integers(1, n + 1))
        mapped = frozenset(names[i] for i in rng.choice(n, size=k, replace=False))
        bridge = sorted(mapped)[int(rng.integers(k))]
        out_deg = sum(1 for u, v in edges if u == bridge and v in mapped)
        in_deg = sum(1 for u, v in edges if v == bridge and u in mapped)
        if k == 1:
            expected = labeling.Pattern.EQUAL
        elif out_deg == 0:
            expected = labeling.Pattern.LEAF
        elif in_deg == 0:
            expected = labeling.Pattern.ROOT
        else:
            expected = labeling.Pattern.INTERNAL
        if labeling.classify_pattern(bridge, mapped, fcg) is not expected:
            mismatches += 1
    assert mismatches == 0
    print("criterion 04 pattern classifier oracle: PASS (1000 subgraphs, 0 mismatches)")


# ---------------------------------------------------------------------------
# 5: rank AUC against quadratic brute force

def test_criterion_05_auc_oracle():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(100):
        while True:
            labels = np.where(rng.random(200) < 0.5, 1, -1)
            if (labels == 1).any() and (labels == -1).any():
                break
        values = rng.integers(0, 40, size=200) / 39.0  # coarse grid, many ties
        scores = list(zip(values.tolist(), labels.tolist()))
        pos = values[labels == 1]
        neg = values[labels == -1]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (float(wins) + 0.5 * float(ties)) / (len(pos) * len(neg))
        worst = max(worst, abs(evaluation.auc(scores) - brute))
    assert worst <= 1e-12
    print(f"criterion 05 auc oracle: PASS (100 sets of 200, worst |diff| {worst:.2e})")


# ---------------------------------------------------------------------------
# 6: end-to-end synthetic detection gate

def _epoch_source(index, graphs, patterns, tag, n_per_side):
    def source(epoch):
        pairs = []
        share = n_per_side // len(patterns)
        for i, pattern in enumerate(patterns):
            pairs.extend(
                pairgen.generate_positive_pairs(
                    index, pattern, share, [7, tag, epoch, 2 * i], graphs
                )
            )
            pairs.extend(
                pairgen.generate_negative_pairs(
                    index, pattern, share, [7, tag, epoch, 2 * i + 1], graphs
                )
            )
        rng = np.random.default_rng([7, tag, epoch, 99])
        return [pairs[i] for i in rng.permutation(len(pairs))]

    return source


def _validation_pairs(index, graphs, patterns, tag, n_per_side):
    pairs = []
    share = n_per_side // len(patterns)
    for i, pattern in enumerate(patterns):
        pairs.extend(
            pairgen.generate_positive_pairs(
                index, pattern, share, [7, tag, 2 * i, 1000], graphs
            )
        )
        pairs.extend(
            pairgen.generate_negative_pairs(
                index, pattern, share, [7, tag, 2 * i + 1, 1000], graphs
            )
        )
    return pairs


def test_criterion_06_end_to_end_detection():
    started = time.monotonic()
    config = synth.SynthConfig(
        n_projects=30, functions_per_project=10, seed=7, mutation_rate=0.05,
        opcode_alphabet_size=32, preferred_opcodes=4, preferred_weight=0.9,
        block_count_range=(4, 5), block_size_range=(6, 8),
        inline_budget=65, call_density=0.9,
    )
    corpus = synth.generate_corpus(config)
    index = corpus.ground_truth
    split = pairgen.split_projects(sorted(corpus.projects), [7, 5])

    def functions_of(projects):
        return {
            name
            for project in projects
            for name in corpus.projects[project]["source_functions"]
        }

    train_index = pairgen.filter_index(index, functions_of(split.train))
    val_index = pairgen.filter_index(index, functions_of(split.validation))
    test_index = pairgen.filter_index(index, functions_of(split.test))
    train_binaries = {
        corpus.projects[p]["binaries"][ds]
        for p in split.train
        for ds in ("noinline", "inline")
    }
    vocab = acfg.build_vocabulary(
        acfg.count_opcodes(
            corpus.graphs[k] for k in sorted(corpus.graphs) if k[1] in train_binaries
        ),
        max_size=96,
    )
    model_config = gnn.ModelConfig(
        feature_dim=vocab.feature_dim, node_state_dim=24,
        graph_embedding_dim=64, propagation_layers=2,
        encoder_hidden=(32,), update_hidden=(32,), output_hidden=(64,),
        margin=0.1, learning_rate=1e-3, seed=6,
    )

    models = {}
    for i, pattern in enumerate(_PATS):
        params, _ = gnn.train_model(
            _epoch_source(train_index, corpus.graphs, (pattern,), 10 + i, 2000),
            _validation_pairs(val_index, corpus.graphs, (pattern,), 10 + i, 600),
            vocab, model_config, 30,
        )
        models[pattern.value] = params
    mixed_params, _ = gnn.train_model(
        _epoch_source(train_index, corpus.graphs, _PATS, 20, 2000),
        _validation_pairs(val_index, corpus.graphs, _PATS, 20, 600),
        vocab, model_config, 30,
    )

    ensemble = detector.EnsembleDetector(
        models=models, vocab=vocab, config=model_config, threshold=0.5
    )
    mixed = detector.EnsembleDetector(
        models={"mixed": mixed_params}, vocab=vocab, config=model_config,
        threshold=0.5,
    )

    ensemble_auc = {}
    mixed_auc = {}
    for i, pattern in enumerate(_PATS):
        pairs = pairgen.generate_positive_pairs(
            test_index, pattern, 300, [7, 30 + i, 0], corpus.graphs
        )
        pairs += pairgen.generate_negative_pairs(
            test_index, pattern, 300, [7, 30 + i, 1], corpus.graphs
        )
        labels = [p.label for p in pairs]
        ensemble_auc[pattern.value] = evaluation.auc(
            list(zip(detector.score_pairs(ensemble, pairs), labels))
        )
        mixed_auc[pattern.value] = evaluation.auc(
            list(zip(detector.score_pairs(mixed, pairs), labels))
        )

    elapsed = time.monotonic() - started
    mixed_floor = min(mixed_auc.values())
    for pattern, value in ensemble_auc.items():
        assert value >= 0.85, f"{pattern} ensemble AUC {value:.4f} is below 0.85"
        assert value > mixed_floor, (
            f"{pattern} ensemble AUC {value:.4f} does not beat the mixed "
            f"model floor {mixed_floor:.4f}"
        )
    assert elapsed < 1800.0, f"end-to-end run took {elapsed:.0f}s"
    print(
        "criterion 06 end-to-end detection: PASS (ensemble AUC "
        + " ".join(f"{p.value} {ensemble_auc[p.value]:.4f}" for p in _PATS)
        + f"; mixed floor {mixed_floor:.4f}; {elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# 7: ensemble max rule and self-similarity

def _tiny_detector(seed):
    rng = np.random.default_rng(seed)
    graphs = [
        random_acfg(rng, f"d{seed}_g{i}", OPCODE_POOL[:5], max_nodes=4)
        for i in range(8)
    ]
    vocab = acfg.build_vocabulary(acfg.count_opcodes(graphs), max_size=4)
    base = gnn.ModelConfig(
        feature_dim=vocab.feature_dim, node_state_dim=3,
        graph_embedding_dim=4, propagation_layers=1,
        encoder_hidden=(), update_hidden=(4,), output_hidden=(),
        seed=seed,
    )
    models = {
        key: gnn.init_params(
            gnn.ModelConfig(
                feature_dim=base.feature_dim, node_state_dim=3,
                graph_embedding_dim=4, propagation_layers=1,
                encoder_hidden=(), update_hidden=(4,), output_hidden=(),
                seed=3 * seed + offset,
            )
        )
        for offset, key in enumerate(("leaf", "root", "internal"))
    }
    det = detector.EnsembleDetector(
        models=models, vocab=vocab, config=base, threshold=0.5
    )
    return graphs, det


def test_criterion_07_ensemble_properties():
    rng = np.random.default_rng(71)
    pool = [_tiny_detector(seed) for seed in range(10)]
    failures = 0
    for _ in range(10_000):
        graphs, det = pool[int(rng.integers(len(pool)))]
        qi, ti = rng.integers(len(graphs), size=2)
        verdict = detector.detect(graphs[int(qi)], graphs[int(ti)], det)
        sims = verdict.similarities
        ok = (
            set(sims) == {"leaf", "root", "internal"}
            and verdict.final == max(sims.values())
            and all(verdict.final >= s for s in sims.values())
            and all(0.0 < s <= 1.0 for s in sims.values())
        )
        if not ok:
            failures += 1
    assert failures == 0

    for trial in range(50):
        graphs, det = _tiny_detector(100 + trial)
        graph = graphs[int(rng.integers(len(graphs)))]
        assert detector.detect(graph, graph, det).final == 1.0
    print(
        "criterion 07 ensemble properties: PASS "
        "(10000 triples max+dominance, 50 exact self-similarities)"
    )


# ---------------------------------------------------------------------------
# 8: threshold selection against an exhaustive sweep

def _oracle_threshold(scored, grid):
    rows = []
    for threshold in sorted(grid):
        tp, fp, tn, fn = evaluation.confusion(scored, threshold)
        _, _, f1 = evaluation.precision_recall_f1(tp, fp, tn, fn)
        rows.append((threshold, f1))
    best_f1 = max(f1 for _, f1 in rows)
    return min(threshold for threshold, f1 in rows if f1 == best_f1)


def test_criterion_08_threshold_selection():
    grids = (detector.paper_grid(), detector.extended_grid())
    # perfectly separable sets tie every threshold at f1=1, so only the
    # smallest-threshold rule decides
    for scored in ([(0.99, 1), (0.98, 1), (0.01, -1)],) * 10:
        for grid in grids:
            assert detector.select_threshold(scored, grid) == sorted(grid)[0]

    rng = np.random.default_rng(83)
    mismatches = 0
    checked = 0
    while checked < 100:
        scored = [
            (float(rng.integers(0, 10)) / 9.0, 1 if rng.random() < 0.5 else -1)
            for _ in range(40)
        ]
        if {label for _, label in scored} != {-1, 1}:
            continue
        grid = grids[checked % 2]
        if detector.select_threshold(scored, grid) != _oracle_threshold(scored, grid):
            mismatches += 1
        checked += 1
    assert mismatches == 0
    assert detector.paper_grid() == [
        0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95,
    ]
    print(
        "criterion 08 threshold selection: PASS "
        "(100 sets + 10 tie sets, grid preset exact)"
    )


# ---------------------------------------------------------------------------
# 9: byte-identical reruns

_SYNTH_ARGS = [
    "--seed", "3", "--projects", "4", "--functions", "8",
    "--block-count", "2:4", "--block-size", "2:4",
    "--call-density", "2.0", "--alphabet-size", "12",
]

_TRAIN_ARGS = [
    "--pattern", "leaf", "--seed", "3", "--epochs", "2", "--epoch-size", "8",
    "--val-pairs", "4", "--thresh-pairs", "4", "--vocab-size", "16",
    "--node-dim", "4", "--embed-dim", "6", "--layers", "1",
    "--encoder-hidden", "", "--update-hidden", "8", "--output-hidden", "",
    "--batch-size", "8",
]


def _assert_trees_identical(a, b):
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a and files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)
    return len(files_a)


def test_criterion_09_determinism(tmp_path):
    for run in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / f"corpus-{run}")] + _SYNTH_ARGS) == 0
    corpus_files = _assert_trees_identical(tmp_path / "corpus-a", tmp_path / "corpus-b")
    for run in ("a", "b"):
        assert main([
            "train", "--corpus", str(tmp_path / "corpus-a"),
            "--out", str(tmp_path / f"bundle-{run}"),
        ] + _TRAIN_ARGS) == 0
    bundle_files = _assert_trees_identical(tmp_path / "bundle-a", tmp_path / "bundle-b")
    print(
        f"criterion 09 determinism: PASS ({corpus_files} corpus files and "
        f"{bundle_files} bundle files byte-identical on rerun)"
    )


# ---------------------------------------------------------------------------
# 10: splice conservation

def test_criterion_10_splice_conservation():
    rng = np.random.default_rng(97)
    failures = 0
    for trial in range(500):
        caller, callee, site = call_pair(rng, OPCODE_POOL, f"acc{trial}")
        spliced, prov = synth.inline_transform(caller, callee, site)
        expected = caller.instruction_count + callee.instruction_count - 1
        ok = (
            spliced.instruction_count == expected
            and len(prov) == expected
            and spliced.entry == caller.entry
            and len(spliced.block_ids) == len(caller.block_ids) + len(callee.block_ids)
        )
        try:
            spliced.validate()
        except Exception:
            ok = False
        if not ok:
            failures += 1
    assert failures == 0
    print("criterion 10 splice conservation: PASS (500 splices, 0 failures)")
