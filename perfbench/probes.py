"""Layer probes of the traced run, timed with tracing off.

- The gnn split times the public functions on a fixed sample of prepared
  pairs: forward is ``embed_prepared``; backward is ``pair_loss_and_grads``
  minus its two forwards, on active pairs; Adam (with gradient summing) is
  ``grad_step`` minus the ``pair_loss_and_grads`` calls it makes.
- The size curve times ``build_bridge_index`` and ``generate_negative_pairs``
  on corpora of growing project count and reports the growth per doubling.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

from cidetect import detector, gnn, labeling, pairgen, synth

SAMPLE_PAIRS_PER_LABEL = 64
REPEATS = 3
CURVE_PROJECTS = (25, 50, 100)
CURVE_NEGATIVES = 100


def _timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return result, time.perf_counter() - start


def gnn_split(corpus_dir: Path, index_path: Path, bundle: Path, seed: int) -> dict:
    """Seconds for forward, backward and Adam over one fixed pair sample."""
    corpus = synth.load_corpus(corpus_dir)
    index = labeling.load_index(index_path)
    det = detector.load_bundle(bundle)
    pairs = pairgen.generate_positive_pairs(
        index, labeling.Pattern.LEAF, SAMPLE_PAIRS_PER_LABEL, [seed, 1], corpus.graphs
    ) + pairgen.generate_negative_pairs(
        index, labeling.Pattern.LEAF, SAMPLE_PAIRS_PER_LABEL, [seed, 2], corpus.graphs
    )
    config = det.config
    prepared = gnn.prepare_pairs(pairs, det.vocab, config)
    state = gnn.init_train_state(config)
    batches = [
        prepared[i : i + config.batch_size]
        for i in range(0, len(prepared), config.batch_size)
    ]
    rows = {"forward_s": [], "backward_s": [], "adam_s": []}
    for _ in range(REPEATS):
        forward = []
        for pair in prepared:
            start = time.perf_counter()
            gnn.embed_prepared(pair.query, state.params, config)
            gnn.embed_prepared(pair.target, state.params, config)
            forward.append(time.perf_counter() - start)
        plg_total = 0.0
        backward = 0.0
        for pair, fwd in zip(prepared, forward):
            (loss, _), seconds = _timed(
                gnn.pair_loss_and_grads,
                pair.query, pair.target, pair.label, state.params, config,
            )
            plg_total += seconds
            if loss > 0:
                backward += seconds - fwd
        step_total = sum(_timed(gnn.grad_step, b, state, config)[1] for b in batches)
        rows["forward_s"].append(sum(forward))
        rows["backward_s"].append(backward)
        rows["adam_s"].append(step_total - plg_total)
    return {f"gnn.sample.{k}": statistics.median(v) for k, v in rows.items()}


def _index_for(corpus: synth.SynthCorpus):
    mappings = {}
    for dataset in ("noinline", "inline"):
        ids = {p["binaries"][dataset] for p in corpus.projects.values()}
        mappings[dataset] = labeling.construct_mapping(
            [r for r in corpus.addr2line if r[0] in ids],
            [r for r in corpus.binfuncs if r[0] in ids],
            corpus.srcfuncs,
        ).mappings
    return mappings["noinline"], mappings["inline"], labeling.build_fcg(corpus.fcg_edges)


def size_curve(seed: int) -> dict:
    """Time growth per doubling of projects, smallest to largest corpus."""
    index_s, negative_s = [], []
    for n in CURVE_PROJECTS:
        corpus = synth.generate_corpus(
            synth.SynthConfig(n_projects=n, call_density=2.0, seed=seed)
        )
        no_inline, inline, fcg = _index_for(corpus)
        runs = [_timed(labeling.build_bridge_index, no_inline, inline, fcg) for _ in range(REPEATS)]
        index_s.append(statistics.median(t for _, t in runs))
        index = runs[0][0]
        negative_s.append(statistics.median(
            _timed(
                pairgen.generate_negative_pairs, index, labeling.Pattern.LEAF,
                CURVE_NEGATIVES, [seed, 3], corpus.graphs,
            )[1]
            for _ in range(REPEATS)
        ))
    doublings = math.log2(CURVE_PROJECTS[-1] / CURVE_PROJECTS[0])
    return {
        "labeling.build_bridge_index.growth_per_doubling":
            (index_s[-1] / index_s[0]) ** (1.0 / doublings),
        "pairgen.generate_negative_pairs.growth_per_doubling":
            (negative_s[-1] / negative_s[0]) ** (1.0 / doublings),
    }
