"""Command line interface.

Subcommands: synth (generate a corpus), label (bridge index from line
tables), pairs (sample training/eval pairs), train (fit one pattern model,
finalizing the detector bundle when all its models exist), detect (score one
query/target pair), eval (per-pattern reports for a pair file), sweep
(re-threshold an existing score file).

Every option can also come from a flat key=value config file (--config);
explicit flags win. All randomness derives from --seed. Exit codes: 0 ok,
2 validation error, 3 numeric/runtime error.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import acfg, detector, evaluation, gnn, labeling, pairgen, synth
from .errors import InvalidLabel, NumericError, ValidationError

logger = logging.getLogger(__name__)

_SEED_VOCAB_SPLIT = 5  # split tag; one --seed drives every derived stream
_SEED_PAIRS = {"leaf": 101, "root": 102, "internal": 103, detector.MIXED_KEY: 104}
_SEED_VAL = 211
_SEED_THRESH = 223
_EXAMPLES = 3  # unresolved line-table rows quoted per kind in the label log


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _at_least(low: int) -> Callable[[str], int]:
    """An int converter that refuses values below low, so a bad count is
    reported as a bad value for its flag before any work."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return convert


_count = _at_least(0)


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


@dataclass(frozen=True)
class Opt:
    """One option; one that sets a field of the command's SynthConfig or
    ModelConfig names that field and takes its default from there."""

    name: str
    convert: Callable[[str], object]
    default: object
    help: str
    required: bool = False
    field: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _field(name: str, convert: Callable[[str], object], field: str, help: str) -> Opt:
    return Opt(name, convert, None, help, field=field)


def _add_options(parser: argparse.ArgumentParser, opts: Sequence[Opt]) -> None:
    for opt in opts:
        parser.add_argument(
            f"--{opt.name}", dest=opt.dest, type=str, default=None, help=opt.help
        )


def _resolve(
    args: argparse.Namespace, opts: Sequence[Opt], config: type | None = None
) -> dict:
    """Merge precedence: explicit flag, then config file, then default; the
    default of a field option is the one its field has in config."""
    defaults = {f.name: f.default for f in fields(config)} if config else {}
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(Path(args.config))
    known = {opt.name for opt in opts}
    for key in file_values:
        if key not in known:
            raise ValidationError(f"unknown config key {key!r}")
    resolved = {}
    for opt in opts:
        raw = getattr(args, opt.dest)
        if raw is None:
            raw = file_values.get(opt.name)
        if raw is None:
            if opt.required:
                raise ValidationError(f"missing required option --{opt.name}")
            resolved[opt.dest] = defaults[opt.field] if opt.field else opt.default
        else:
            try:
                resolved[opt.dest] = opt.convert(raw)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad value for --{opt.name}: {exc}") from exc
    return resolved


def _config_fields(opts: Sequence[Opt], resolved: dict) -> dict:
    """The resolved values of the field options, keyed by field."""
    return {opt.field: resolved[opt.dest] for opt in opts if opt.field}


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        values[key.strip()] = value.strip()
    return values


def _pattern_arg(text: str) -> str:
    if text not in (*detector.PATTERN_KEYS, detector.MIXED_KEY):
        keys = ", ".join(detector.PATTERN_KEYS)
        raise ValueError(f"pattern must be {keys} or {detector.MIXED_KEY}")
    return text


def _grid_arg(text: str) -> str:
    if text not in detector.GRIDS:
        raise ValueError(f"grid must be one of {sorted(detector.GRIDS)}")
    return text


# ---------------------------------------------------------------------------
# synth

_SYNTH_OPTS = [
    Opt("out", Path, None, "corpus output directory", required=True),
    _field("seed", int, "seed", "generator seed"),
    _field("projects", int, "n_projects", "number of projects"),
    _field("functions", int, "functions_per_project", "functions per project"),
    _field("alphabet-size", int, "opcode_alphabet_size", "opcode alphabet size"),
    _field("block-count", _parse_range, "block_count_range",
           "blocks per function, lo:hi"),
    _field("block-size", _parse_range, "block_size_range",
           "instructions per block, lo:hi"),
    _field("call-density", float, "call_density",
           "expected outgoing calls per function"),
    _field("extra-edge-prob", float, "extra_edge_prob", "extra CFG edge probability"),
    _field("preferred-opcodes", int, "preferred_opcodes",
           "per-function biased opcode subset size"),
    _field("preferred-weight", float, "preferred_weight",
           "weight of the biased subset"),
    _field("inline-budget", int, "inline_budget",
           "instruction budget for inlined callees"),
    _field("inline-probability", float, "inline_probability",
           "per-call inline probability"),
    _field("mutation-rate", float, "mutation_rate",
           "opcode perturbation rate, inline side"),
]


def cmd_synth(args: argparse.Namespace) -> int:
    opts = _resolve(args, _SYNTH_OPTS, synth.SynthConfig)
    config = synth.SynthConfig(**_config_fields(_SYNTH_OPTS, opts))
    corpus = synth.generate_corpus(config)
    synth.write_corpus(corpus, opts["out"])
    dist = labeling.pattern_distribution(corpus.ground_truth)
    print(
        f"wrote corpus to {opts['out']}: "
        f"{len(corpus.world.functions)} source functions, "
        + ", ".join(f"{p.value}={dist[p]}" for p in labeling.Pattern)
    )
    return 0


# ---------------------------------------------------------------------------
# label

_LABEL_OPTS = [
    Opt("corpus", Path, None, "corpus directory", required=True),
    Opt("out", Path, None, "bridge index JSON path", required=True),
]


def build_index_from_corpus(
    corpus_dir: Path, manifest: dict | None = None
) -> labeling.BridgeIndex:
    """The bridge index of the corpus's line tables. manifest is the corpus
    manifest when the caller has read it already, as load_corpus has."""
    if manifest is None:
        manifest = synth.read_corpus_manifest(corpus_dir)
    tables = corpus_dir / "tables"
    for name in ("addr2line.tsv", "binfuncs.tsv", "srcfuncs.tsv", "fcg.tsv"):
        if not (tables / name).is_file():
            raise ValidationError(f"missing table {tables / name}")
    addr2line = labeling.read_addr2line(tables / "addr2line.tsv")
    binfuncs = labeling.read_binfuncs(tables / "binfuncs.tsv")
    srcfuncs = labeling.read_srcfuncs(tables / "srcfuncs.tsv")
    fcg = labeling.build_fcg(labeling.read_fcg(tables / "fcg.tsv"))
    mappings = []
    kept = {"addr2line.tsv": 0, "binfuncs.tsv": 0}
    for dataset in labeling.DATASETS:
        ids = synth.binary_ids(manifest, manifest["projects"], dataset)
        rows = addr2line.of_binaries(ids)
        funcs = [row for row in binfuncs if row[0] in ids]
        kept["addr2line.tsv"] += len(rows)
        kept["binfuncs.tsv"] += len(funcs)
        result = labeling.construct_mapping(rows, funcs, srcfuncs)
        by_kind: dict[str, list[str]] = {}
        for kind, detail in result.inconsistencies:
            by_kind.setdefault(kind, []).append(detail)
        for kind, details in sorted(by_kind.items()):
            logger.warning(
                "%s: %d line-table rows with %s, e.g. %s",
                dataset, len(details), kind, ", ".join(details[:_EXAMPLES]),
            )
        mappings.append(result.mappings)
    listed = synth.binary_ids(manifest, manifest["projects"])
    present = {
        "addr2line.tsv": set(addr2line.binaries),
        "binfuncs.tsv": {row[0] for row in binfuncs},
    }
    for name, table in (("addr2line.tsv", addr2line), ("binfuncs.tsv", binfuncs)):
        if len(table) > kept[name]:
            unlisted = sorted(present[name] - listed)
            logger.warning(
                "%s: %d rows of binaries the manifest does not list, dropped: %s",
                name, len(table) - kept[name], ", ".join(unlisted),
            )
    return labeling.build_bridge_index(*mappings, fcg)  # no-inline, inline


def cmd_label(args: argparse.Namespace) -> int:
    opts = _resolve(args, _LABEL_OPTS)
    index = build_index_from_corpus(opts["corpus"])
    labeling.save_index(index, opts["out"])
    dist = labeling.pattern_distribution(index)
    print(
        f"wrote {opts['out']}: {len(index.entries)} bridges, "
        + ", ".join(f"{p.value}={dist[p]}" for p in labeling.Pattern)
        + f", excluded_no_inline={index.excluded_no_inline}"
        + f", isolated_bridges={index.isolated_bridges}"
    )
    return 0


# ---------------------------------------------------------------------------
# pairs

_PAIRS_OPTS = [
    Opt("corpus", Path, None, "corpus directory", required=True),
    Opt("index", Path, None, "bridge index JSON (default: relabel corpus)"),
    Opt("pattern", _pattern_arg, None, "leaf, root, internal or mixed", required=True),
    Opt("num-pos", _count, 100, "positive pairs"),
    Opt("num-neg", _count, 100, "negative pairs"),
    Opt("seed", int, 0, "sampling seed"),
    Opt("projects", str, "", "comma list restricting bridge projects"),
    Opt("out", Path, None, "pairs JSONL path", required=True),
]


def _load_index_for(
    corpus: synth.LoadedCorpus, index_path: Path | None
) -> labeling.BridgeIndex:
    if index_path is not None:
        if not index_path.is_file():
            raise ValidationError(f"index file not found: {index_path}")
        return labeling.load_index(index_path)
    return build_index_from_corpus(corpus.root, corpus.manifest)


def _patterns(key: str) -> tuple[labeling.Pattern, ...]:
    """The patterns a model key trains on: its own, or all three for mixed."""
    if key == detector.MIXED_KEY:
        return labeling.CROSS_PATTERNS
    return (labeling.Pattern(key),)


def cmd_pairs(args: argparse.Namespace) -> int:
    opts = _resolve(args, _PAIRS_OPTS)
    corpus = synth.load_corpus(opts["corpus"])
    index = _load_index_for(corpus, opts["index"])
    if opts["projects"]:
        wanted = {p.strip() for p in opts["projects"].split(",") if p.strip()}
        unknown = wanted - set(corpus.project_ids())
        if unknown:
            raise ValidationError(f"unknown projects: {sorted(unknown)}")
        index = pairgen.filter_index(index, corpus.source_functions(wanted))
    pairs = pairgen.draw_pairs(
        index,
        _patterns(opts["pattern"]),
        opts["num_pos"],
        opts["num_neg"],
        [opts["seed"], _SEED_PAIRS[opts["pattern"]]],
    )
    # a pair file holds refs only, to records that must still be the ones
    # synth wrote
    pairgen.check_refs(pairs, corpus.graphs)
    corpus.graphs.verify(
        ref[:2] for pair in pairs for ref in (pair.query_ref, pair.target_ref)
    )
    pairgen.write_pairs(pairs, opts["out"])
    print(f"wrote {len(pairs)} pairs to {opts['out']}")
    return 0


# ---------------------------------------------------------------------------
# train

_TRAIN_OPTS = [
    Opt("corpus", Path, None, "corpus directory", required=True),
    Opt("index", Path, None, "bridge index JSON (default: relabel corpus)"),
    Opt("pattern", _pattern_arg, None, "leaf, root, internal or mixed", required=True),
    Opt("out", Path, None, "bundle output directory", required=True),
    _field("seed", int, "seed", "master seed"),
    Opt("epochs", _count, 30, "training epochs"),
    Opt("epoch-size", _count, 2000, "positive pairs per epoch (negatives match)"),
    Opt("val-pairs", _count, 200, "validation pairs per label"),
    Opt("thresh-pairs", _count, 300, "threshold-selection pairs per label per pattern"),
    Opt("grid", _grid_arg, "paper", "threshold grid preset"),
    Opt("vocab-size", _at_least(1), 256, "opcode vocabulary cap"),
    _field("node-dim", int, "node_state_dim", "node state width"),
    _field("embed-dim", int, "graph_embedding_dim", "graph embedding width"),
    _field("layers", int, "propagation_layers", "propagation layers"),
    _field("encoder-hidden", _parse_hidden, "encoder_hidden", "encoder hidden widths"),
    _field("update-hidden", _parse_hidden, "update_hidden", "update hidden widths"),
    _field("output-hidden", _parse_hidden, "output_hidden", "aggregator hidden widths"),
    _field("margin", float, "margin", "loss margin"),
    _field("lr", float, "learning_rate", "learning rate"),
    _field("batch-size", int, "batch_size", "pairs per optimizer step"),
    _field("max-nodes", int, "max_nodes", "reject graphs above this many blocks"),
]


def _check_model_flags(opts: dict) -> None:
    """Refuse a train flag outside the range its ModelConfig field allows,
    naming the flag, before any work: each field is checked alone, with the
    feature dim, which needs the vocabulary, set to 1."""
    for opt in _TRAIN_OPTS:
        if opt.field:
            try:
                gnn.ModelConfig(feature_dim=1, **{opt.field: opts[opt.dest]})
            except ValueError as exc:
                raise ValidationError(f"bad value for --{opt.name}: {exc}") from None


def _train_setup(opts: dict):
    corpus = synth.load_corpus(opts["corpus"])
    index = _load_index_for(corpus, opts["index"])
    split = pairgen.split_projects(
        corpus.project_ids(), [opts["seed"], _SEED_VOCAB_SPLIT]
    )
    train_index = pairgen.filter_index(
        index, corpus.source_functions(split.train)
    )
    val_index = pairgen.filter_index(
        index, corpus.source_functions(split.validation)
    )
    # the manifest's counts, checked against each file's sha256: train
    # builds only the graphs of the pairs it samples
    counts = corpus.opcode_counts(split.train)
    vocab = acfg.build_vocabulary(counts, max_size=opts["vocab_size"])
    config = gnn.ModelConfig(
        feature_dim=vocab.feature_dim, **_config_fields(_TRAIN_OPTS, opts)
    )
    return corpus, split, train_index, val_index, vocab, config


def cmd_train(args: argparse.Namespace) -> int:
    opts = _resolve(args, _TRAIN_OPTS, gnn.ModelConfig)
    _check_model_flags(opts)
    corpus, split, train_index, val_index, vocab, config = _train_setup(opts)
    pattern = opts["pattern"]
    seed = opts["seed"]
    out_dir: Path = opts["out"]
    detector.check_vocab(out_dir, vocab)  # fail before training, not after

    def sample(
        index: labeling.BridgeIndex, patterns: Sequence[labeling.Pattern],
        count: int, *tags: int,
    ) -> list[pairgen.FunctionPair]:
        """count positives and count negatives, seeded by [seed, *tags]."""
        return pairgen.sample_pairs(
            index, corpus.graphs, patterns, count, count, [seed, *tags]
        )

    patterns, tag = _patterns(pattern), _SEED_PAIRS[pattern]

    def source(epoch: int) -> list[pairgen.FunctionPair]:
        return sample(train_index, patterns, opts["epoch_size"], tag, epoch)

    val_pairs = sample(val_index, patterns, opts["val_pairs"], tag, _SEED_VAL)
    logger.info(
        "training %s model: %d epochs x %d+%d pairs, %d/%d/%d projects",
        pattern, opts["epochs"], opts["epoch_size"], opts["epoch_size"],
        len(split.train), len(split.validation), len(split.test),
    )
    params, history = gnn.train_model(
        source, val_pairs, vocab, config, opts["epochs"]
    )
    for row in history:
        logger.info(
            "epoch %d: loss %.6f, val auc %.4f",
            row["epoch"], row["train_loss"], row["val_auc"],
        )
    detector.save_models(out_dir, {pattern: params}, vocab, config)
    acfg.write_json(out_dir / f"history-{pattern}.json", history)
    print(f"wrote the {pattern} model to {out_dir}")

    keys = [pattern] if pattern == detector.MIXED_KEY else detector.PATTERN_KEYS
    missing = detector.missing_models(out_dir, keys)
    if missing:
        print(f"bundle incomplete, still missing: {', '.join(missing)}")
        return 0
    # thresholds are picked on a mixed-pattern pool either way
    thresh_pairs = sample(
        train_index, labeling.CROSS_PATTERNS, 3 * opts["thresh_pairs"], _SEED_THRESH
    )
    grid = detector.GRIDS[opts["grid"]]()
    provenance = {"corpus": str(opts["corpus"]), "seed": str(seed)}
    det = detector.finalize_bundle(out_dir, keys, thresh_pairs, grid, provenance)
    print(f"finalized bundle at {out_dir} (threshold {det.threshold})")
    return 0


# ---------------------------------------------------------------------------
# detect

_DETECT_OPTS = [
    Opt("bundle", Path, None, "detector bundle directory", required=True),
    Opt("query", Path, None, "query function JSONL (no inlining)", required=True),
    Opt("target", Path, None, "target function JSONL", required=True),
    Opt("query-name", str, "", "function name if the file has several"),
    Opt("target-name", str, "", "function name if the file has several"),
    Opt("out", Path, None, "verdict JSON path (default: stdout)"),
]


def _load_single_graph(path: Path, name: str):
    if not path.is_file():
        raise ValidationError(f"graph file not found: {path}")
    graphs = list(acfg.read_graphs(path))
    if not graphs:
        raise ValidationError(f"{path} holds no function record")
    if name:
        matches = [g for g in graphs if g.function_name == name]
        if not matches:
            raise ValidationError(f"{path} has no function named {name!r}")
        return matches[0]
    if len(graphs) != 1:
        raise ValidationError(
            f"{path} holds {len(graphs)} functions; pick one by name"
        )
    return graphs[0]


def cmd_detect(args: argparse.Namespace) -> int:
    opts = _resolve(args, _DETECT_OPTS)
    det = detector.load_bundle(opts["bundle"])
    query = _load_single_graph(opts["query"], opts["query_name"])
    target = _load_single_graph(opts["target"], opts["target_name"])
    verdict = detector.detect(query, target, det)
    if not all(math.isfinite(s) for s in verdict.similarities.values()):
        raise NumericError("non-finite similarity while scoring the pair")
    payload = {
        "similarities": verdict.similarities,
        "final": verdict.final,
        "label": verdict.label,
        "threshold": det.threshold,
    }
    if opts["out"] is None:
        sys.stdout.write(acfg.json_text(payload))
    else:
        acfg.write_json(opts["out"], payload)
        print(f"wrote {opts['out']}")
    return 0


# ---------------------------------------------------------------------------
# eval

_EVAL_OPTS = [
    Opt("bundle", Path, None, "detector bundle directory", required=True),
    Opt("corpus", Path, None, "corpus directory resolving pair refs", required=True),
    Opt("pairs", Path, None, "pairs JSONL", required=True),
    Opt("out", Path, None, "report output directory", required=True),
    Opt("grid", _grid_arg, "extended", "sweep grid preset"),
]


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _resolve(args, _EVAL_OPTS)
    det = detector.load_bundle(opts["bundle"])
    corpus = synth.load_corpus(opts["corpus"])
    if not opts["pairs"].is_file():
        raise ValidationError(f"pairs file not found: {opts['pairs']}")
    pairs = pairgen.read_pairs(opts["pairs"], corpus.graphs)
    if not pairs:
        raise ValidationError(f"{opts['pairs']} holds no pairs")
    out_dir: Path = opts["out"]
    out_dir.mkdir(parents=True, exist_ok=True)

    finals = detector.score_pairs(det, pairs)
    scored = list(zip(finals, (p.label for p in pairs)))
    if not all(np.isfinite(s) for s, _ in scored):
        raise NumericError("non-finite similarity while scoring pairs")
    reports = evaluation.reports_from_scores(pairs, finals, det.threshold)
    evaluation.write_reports(reports, out_dir / "reports.json")
    sweep = evaluation.threshold_sweep(scored, detector.GRIDS[opts["grid"]]())
    evaluation.write_sweep_csv(sweep, out_dir / "sweep.csv")
    acfg.write_records(
        out_dir / "scores.jsonl",
        (
            {"score": final, "label": pair.label, "pattern": pair.pattern.value}
            for pair, final in zip(pairs, finals)
        ),
    )
    print(evaluation.format_report_table(reports))
    print(f"wrote {out_dir / 'reports.json'}")
    return 0


# ---------------------------------------------------------------------------
# sweep

_SWEEP_OPTS = [
    Opt("scores", Path, None, "scores JSONL from eval", required=True),
    Opt("grid", _grid_arg, "extended", "threshold grid preset"),
    Opt("out", Path, None, "sweep CSV path", required=True),
]


def _scored(record: dict) -> evaluation.Scored:
    """The score and label of a record: a finite number and the integer -1
    or +1."""
    score, label = record["score"], record["label"]
    if type(score) not in (int, float) or not math.isfinite(score):
        raise ValidationError(f"score must be a finite number, got {score!r}")
    if type(label) is not int or label not in (-1, 1):
        raise InvalidLabel(f"label must be -1 or +1, got {label!r}")
    return float(score), label


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _resolve(args, _SWEEP_OPTS)
    if not opts["scores"].is_file():
        raise ValidationError(f"scores file not found: {opts['scores']}")
    scored = list(acfg.read_records(opts["scores"], _scored))
    if not scored:
        raise ValidationError(f"{opts['scores']} holds no scores")
    sweep = evaluation.threshold_sweep(scored, detector.GRIDS[opts["grid"]]())
    evaluation.write_sweep_csv(sweep, opts["out"])
    best = sweep.best
    print(
        f"wrote {opts['out']}: best threshold {best.threshold} "
        f"(f1 {best.f1:.4f})"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "synth": (cmd_synth, _SYNTH_OPTS, "generate a synthetic corpus"),
    "label": (cmd_label, _LABEL_OPTS, "build the bridge index from line tables"),
    "pairs": (cmd_pairs, _PAIRS_OPTS, "sample pairs from a bridge index"),
    "train": (cmd_train, _TRAIN_OPTS, "train one pattern model"),
    "detect": (cmd_detect, _DETECT_OPTS, "score one query/target pair"),
    "eval": (cmd_eval, _EVAL_OPTS, "evaluate a bundle on a pair file"),
    "sweep": (cmd_sweep, _SWEEP_OPTS, "re-threshold an existing score file"),
}


def build_parser(commands: dict = _COMMANDS) -> argparse.ArgumentParser:
    """The parser of the given subcommands, by default all of them."""
    parser = argparse.ArgumentParser(
        prog="cidetect",
        description="cross-inlining binary function similarity detection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, opts, help_text) in commands.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", type=str, default=None,
                         help="key=value config file (flags win)")
        _add_options(sub, opts)
        sub.set_defaults(func=func)
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("CIDETECT_LOG", "INFO").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    # argparse sets up a help formatter per option, so a run that names its
    # subcommand builds that one alone; --help, no argument and an unknown
    # command get the parser of all of them
    named = {name: _COMMANDS[name] for name in argv[:1] if name in _COMMANDS}
    args = build_parser(named or _COMMANDS).parse_args(argv)
    # A command builds graphs, tapes and arrays by the thousand and keeps
    # most of them to its end, while the reference cycles it leaves are a
    # fixed few hundred objects whatever its input. The cyclic collector
    # would rescan all that was built so far, again and again, so it is
    # paused for the command and left as it was found on every way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        logger.error("%s", exc)
        return 2
    except NumericError as exc:
        logger.error("numeric failure: %s", exc)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
