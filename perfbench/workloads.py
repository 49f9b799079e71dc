"""The workloads and the closed-loop rounds they share.

Every workload runs the paper's whole pipeline through ``cidetect.cli.main``.
Each call waits for the previous one. The workloads differ in their corpus
and stage sizes, which decides the layer that dominates:

- train: the acceptance-criterion-06 corpus with its model dims; most time
  is gnn forward, backward and Adam on small graphs.
- score: large inlined targets (8-16 source blocks, call density 2.0) and a
  large eval pair file; most time is forward-only embedding, with heavy
  graph reuse in eval and none across detect calls.
- corpus: many projects at call density 2.0; most time is labeling, corpus
  loading and pair sampling, with only a token amount of training.

Set-up generates the corpus with ``cidetect synth``. An untimed warm-up pass
then runs label, pairs, train for leaf, root and internal into one bundle,
and eval, and writes the detect inputs. The timed part repeats a round:
label, pairs, train for one pattern (the patterns take turns, into a bundle
of their own that finalizes every third round), eval and a chunk of detect
calls, both on the warm-up bundle. Short stages in every round spread each
stage's samples over the whole run.

Each workload's corpus and training seed are fixed, as acceptance criterion
06 fixes its corpus seed: the training inputs, and so ``val_auc``, must be
the same in every run for that quality guard to compare like with like. The
run's seed draws every sampled input: the eval pair file and, from it, the
detect pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from cidetect import cli
# own bindings, so the traced run never times the benchmark's own reads
from cidetect.acfg import iter_function_records
from cidetect.labeling import BridgeIndex, load_index

PATTERNS = ("leaf", "root", "internal")
PAPER_GRID = tuple(i / 20 for i in range(10, 20))
CORPUS_SEED = 7
TRAIN_SEED = 7  # also picks the project split, as [7, 5] does in criterion 06
SETUP_REPEATS = 5
DETECT_TOLERANCE = 1e-9

# the criterion-06 model, used by every workload
MODEL_FLAGS = (
    "--vocab-size", "96", "--node-dim", "24", "--embed-dim", "64",
    "--layers", "2", "--encoder-hidden", "32", "--update-hidden", "32",
    "--output-hidden", "64", "--lr", "0.001", "--margin", "0.1",
)

CRITERION_06_SYNTH = (
    "--projects", "30", "--functions", "10", "--mutation-rate", "0.05",
    "--alphabet-size", "32", "--preferred-opcodes", "4",
    "--preferred-weight", "0.9", "--block-count", "4:5", "--block-size", "6:8",
    "--inline-budget", "65", "--call-density", "0.9",
)


@dataclass(frozen=True)
class Workload:
    name: str
    synth_flags: tuple[str, ...]
    pairs_per_label: int  # positives, and as many negatives, per pairs call
    epochs: int
    epoch_size: int  # positives per epoch; negatives match
    val_pairs: int
    thresh_pairs: int
    detect_pairs: int  # distinct detect inputs, sharing no graph
    detect_per_round: int

    @property
    def train_pairs_per_cycle(self) -> int:
        return len(PATTERNS) * self.epochs * 2 * self.epoch_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train",
            synth_flags=CRITERION_06_SYNTH,
            pairs_per_label=300,
            epochs=1,
            epoch_size=500,
            val_pairs=200,
            thresh_pairs=100,
            detect_pairs=200,
            detect_per_round=30,
        ),
        Workload(
            name="score",
            synth_flags=(
                "--projects", "16", "--block-count", "8:16",
                "--call-density", "2.0",
            ),
            pairs_per_label=1500,
            epochs=1,
            epoch_size=100,
            val_pairs=50,
            thresh_pairs=25,
            detect_pairs=200,
            detect_per_round=60,
        ),
        Workload(
            name="corpus",
            synth_flags=("--projects", "40", "--call-density", "2.0"),
            pairs_per_label=500,
            epochs=1,
            epoch_size=50,
            val_pairs=50,
            thresh_pairs=25,
            detect_pairs=200,
            detect_per_round=60,
        ),
    )
}


def _no_span(name: str):
    return contextlib.nullcontext()


@dataclass
class Op:
    """Attempted and failed operations; a failure is a non-zero exit or a
    failed output check, counted once per operation."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {problems[0]}")


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one subcommand in-process; returns exit code, stdout, seconds."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an unhandled program error fails the operation
        code = 1
        out.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), time.perf_counter() - start


def _verdict(code: int, out: str, check, *args) -> list[str]:
    """Problems with one operation: its exit code, then its output check."""
    if code != 0:
        return [f"exit {code}: {out.strip()[-200:]}"]
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def _index_sets(index: BridgeIndex) -> dict:
    return {
        bridge: (set(entry.equal), set(entry.cross_inlining))
        for bridge, entry in index.entries.items()
    }


class Pipeline:
    """One workload's inputs, outputs and measurements inside a work dir."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.corpus = work / "corpus"
        self.index = work / "index.json"
        self.pairs = work / "pairs.jsonl"
        self.bundle = work / "bundle"
        self.train_bundle = work / "train-bundle"
        self.report = work / "report"
        self.detect_dir = work / "detect"
        self.ops = Op()
        self.rows = 0
        self.detect_pairs: list[tuple[int, Path, Path]] = []
        self.truth: dict = {}
        self.owner: dict = {}
        self.samples: dict = {
            "label": [], "pairs": [], "train": {p: [] for p in PATTERNS},
            "eval": [], "detect": [],
        }
        self.scores: dict[int, float] = {}
        self.rounds = 0
        self.detect_next = 0
        self.val_auc = math.nan

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Generate the corpus SETUP_REPEATS times; median seconds."""
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.corpus, ignore_errors=True)
            code, out, seconds = call_cli(
                ["synth", "--out", str(self.corpus), "--seed", str(CORPUS_SEED),
                 *self.w.synth_flags]
            )
            if code != 0:
                raise RuntimeError(f"synth failed with exit {code}: {out}")
            times.append(seconds)
        with (self.corpus / "tables" / "addr2line.tsv").open() as handle:
            self.rows = sum(1 for line in handle if line.strip())
        truth = load_index(self.corpus / "ground_truth.json")
        self.truth = _index_sets(truth)
        self.owner = {
            (ref.binary_id, ref.name): bridge
            for bridge, entry in truth.entries.items()
            for ref in entry.equal
        }
        return statistics.median(times)

    # -- warm-up and rounds ----------------------------------------------------

    def _run(self, span, stage: str, argv: list[str]) -> tuple[int, str, float]:
        with span(f"cli.{stage}"):
            return call_cli(argv)

    def _train(self, span, pattern: str, bundle: Path) -> float:
        code, out, t = self._run(span, "train", [
            "train", "--corpus", str(self.corpus), "--index", str(self.index),
            "--pattern", pattern, "--out", str(bundle),
            "--seed", str(TRAIN_SEED),
            "--epochs", str(self.w.epochs),
            "--epoch-size", str(self.w.epoch_size),
            "--val-pairs", str(self.w.val_pairs),
            "--thresh-pairs", str(self.w.thresh_pairs),
            "--grid", "paper", *MODEL_FLAGS,
        ])
        self.ops.record(
            f"train {pattern}", _verdict(code, out, self._check_history, pattern, bundle)
        )
        if pattern == PATTERNS[-1]:
            self.ops.record("finalize", _verdict(0, "", self._check_bundle, bundle))
        return t

    def warm_up(self) -> None:
        """One untimed pass that writes every input the rounds need: the
        index, the pair file, the finalized bundle that eval and detect
        read, the eval scores and the detect graph files."""
        span = _no_span
        self._label(span)
        self._pairs(span)
        for pattern in PATTERNS:
            self._train(span, pattern, self.bundle)
        self.val_auc = self._bundle_auc(self.bundle)
        self._eval(span)
        problems = _verdict(0, "", self._write_detect_inputs)
        if problems:
            raise RuntimeError(f"no detect inputs: {problems[0]}")
        self._detect(span)

    def round(self, span) -> None:
        """label, pairs, train one pattern, eval, a chunk of detect calls;
        `span(name)` wraps each CLI call (a no-op outside the traced run).

        Training rotates through the patterns, one per round, into a bundle
        of its own, finalized every third round; eval and detect read the
        warm-up bundle, so every round scores the same model."""
        self.samples["label"].append(self._label(span))
        self.samples["pairs"].append(self._pairs(span))
        pattern = PATTERNS[self.rounds % len(PATTERNS)]
        if pattern == PATTERNS[0]:
            # a bundle left by the previous rotation would finalize on every call
            shutil.rmtree(self.train_bundle, ignore_errors=True)
        self.samples["train"][pattern].append(self._train(span, pattern, self.train_bundle))
        self.samples["eval"].append(self._eval(span))
        self.samples["detect"].extend(self._detect(span))
        self.rounds += 1

    def cycle(self, span) -> None:
        """Rounds for every pattern once: the unit of the traced run. Each
        cycle starts its detect calls at the first input, so every cycle
        does the same work and its counts repeat exactly."""
        self.detect_next = 0
        for _ in PATTERNS:
            self.round(span)

    def _label(self, span) -> float:
        code, out, t = self._run(
            span, "label", ["label", "--corpus", str(self.corpus), "--out", str(self.index)]
        )
        self.ops.record("label", _verdict(code, out, self._check_label))
        return t

    def _pairs(self, span) -> float:
        n = self.w.pairs_per_label
        code, out, t = self._run(span, "pairs", [
            "pairs", "--corpus", str(self.corpus), "--index", str(self.index),
            "--pattern", "mixed", "--num-pos", str(n), "--num-neg", str(n),
            "--seed", str(self.seed), "--out", str(self.pairs),
        ])
        self.ops.record("pairs", _verdict(code, out, self._check_pairs))
        return t

    def _eval(self, span) -> float:
        code, out, t = self._run(span, "eval", [
            "eval", "--bundle", str(self.bundle), "--corpus", str(self.corpus),
            "--pairs", str(self.pairs), "--out", str(self.report),
        ])
        self.ops.record("eval", _verdict(code, out, self._check_scores))
        return t

    def _detect(self, span) -> list[tuple[int, float]]:
        """The next chunk of detect calls, in turn over the inputs; returns
        (input number, seconds) per call."""
        times = []
        for _ in range(self.w.detect_per_round):
            k = self.detect_next % len(self.detect_pairs)
            line, query, target = self.detect_pairs[k]
            self.detect_next += 1
            code, out, t = self._run(span, "detect", [
                "detect", "--bundle", str(self.bundle),
                "--query", str(query), "--target", str(target),
            ])
            times.append((k, t))
            self.ops.record(
                "detect",
                _verdict(code, out, self._check_detect, out, self.scores.get(line)),
            )
        return times

    # -- output checks ---------------------------------------------------------

    def _check_label(self) -> list[str]:
        got = _index_sets(load_index(self.index))
        if set(got) != set(self.truth):
            return ["label index bridges differ from ground_truth.json"]
        bad = [b for b in self.truth if got[b] != self.truth[b]]
        if bad:
            return [f"{len(bad)} bridges differ from ground truth, e.g. {bad[0]}"]
        return []

    def _check_pairs(self) -> list[str]:
        problems = []
        count = 0
        with self.pairs.open() as handle:
            for line in handle:
                rec = json.loads(line)
                count += 1
                if rec["label"] == 1:
                    bridge = rec["bridge"]
                else:
                    bridge = self.owner.get(tuple(rec["query_ref"][1:]))
                if bridge not in self.truth:
                    problems.append(f"query {rec['query_ref']} has no bridge")
                    continue
                cross = {(r.binary_id, r.name) for r, _ in self.truth[bridge][1]}
                target = tuple(rec["target_ref"][1:])
                if (target in cross) != (rec["label"] == 1):
                    problems.append(
                        f"label {rec['label']} target {target} vs bridge {bridge}"
                    )
        expected = 2 * self.w.pairs_per_label
        if count != expected:
            problems.append(f"{count} pairs written, expected {expected}")
        return problems

    def _check_history(self, pattern: str, bundle: Path) -> list[str]:
        path = bundle / f"history-{pattern}.json"
        if not path.is_file():
            return [f"no {path.name}"]
        history = json.loads(path.read_text())
        if len(history) != self.w.epochs:
            return [f"{path.name} has {len(history)} epochs, not {self.w.epochs}"]
        if not all(math.isfinite(row["train_loss"]) for row in history):
            return [f"{path.name} has a non-finite loss"]
        return []

    def _check_bundle(self, bundle: Path) -> list[str]:
        manifest = bundle / "manifest.json"
        if not manifest.is_file():
            return ["bundle did not finalize"]
        threshold = json.loads(manifest.read_text())["threshold"]
        if not any(abs(threshold - t) < 1e-12 for t in PAPER_GRID):
            return [f"threshold {threshold} is not on the paper grid"]
        return []

    @staticmethod
    def _bundle_auc(bundle: Path) -> float:
        """Mean over patterns of the best validation AUC of each history."""
        best = []
        for pattern in PATTERNS:
            path = bundle / f"history-{pattern}.json"
            if not path.is_file():
                return math.nan
            best.append(max(row["val_auc"] for row in json.loads(path.read_text())))
        return statistics.fmean(best)

    def _check_scores(self) -> list[str]:
        """Scores in (0, 1], one per pair; every eval of the run scores the
        same bundle on the same pair file, so all must equal the first."""
        scores = {}
        with (self.report / "scores.jsonl").open() as handle:
            for i, line in enumerate(handle):
                scores[i] = float(json.loads(line)["score"])
        problems = []
        bad = [v for v in scores.values() if not (math.isfinite(v) and 0.0 < v <= 1.0)]
        if bad:
            problems.append(f"{len(bad)} scores outside (0, 1], e.g. {bad[0]}")
        if len(scores) != 2 * self.w.pairs_per_label:
            problems.append(f"{len(scores)} scores, expected {2 * self.w.pairs_per_label}")
        if not self.scores:
            self.scores = scores
        elif scores.keys() != self.scores.keys() or any(
            abs(v - self.scores[i]) > DETECT_TOLERANCE for i, v in scores.items()
        ):
            problems.append("eval scores differ from the run's first eval")
        return problems

    def _check_detect(self, out: str, expected: float | None) -> list[str]:
        verdict = json.loads(out)
        sims = list(verdict["similarities"].values())
        if not all(math.isfinite(v) and 0.0 < v <= 1.0 for v in sims):
            return [f"similarity outside (0, 1]: {sims}"]
        if expected is None:
            return ["no eval score for the detect pair"]
        if abs(verdict["final"] - expected) > DETECT_TOLERANCE:
            return [f"detect {verdict['final']!r} != eval {expected!r}"]
        return []

    # -- detect inputs ---------------------------------------------------------

    def _write_detect_inputs(self) -> list[str]:
        """Single-function graph files for eval pairs that share no graph
        with each other, so no detect call can reuse another's work."""
        used: set[tuple] = set()
        chosen: list[tuple[int, tuple, tuple]] = []
        with self.pairs.open() as handle:
            for i, line in enumerate(handle):
                rec = json.loads(line)
                q, t = tuple(rec["query_ref"]), tuple(rec["target_ref"])
                if q in used or t in used:
                    continue
                used.update((q, t))
                chosen.append((i, q, t))
                if len(chosen) == self.w.detect_pairs:
                    break
        records: dict[tuple, dict] = {}
        wanted = {ref for _, q, t in chosen for ref in (q, t)}
        for dataset, binary_id in sorted({ref[:2] for ref in wanted}):
            path = self.corpus / "graphs" / dataset / f"{binary_id}.jsonl"
            for rec in iter_function_records(path):
                ref = (dataset, binary_id, rec["name"])
                if ref in wanted:
                    records[ref] = rec
        self.detect_dir.mkdir(parents=True, exist_ok=True)
        for k, (line, q, t) in enumerate(chosen):
            files = []
            for side, ref in (("query", q), ("target", t)):
                path = self.detect_dir / f"{k:03d}-{side}.jsonl"
                path.write_text(json.dumps(records[ref], sort_keys=True) + "\n")
                files.append(path)
            self.detect_pairs.append((line, files[0], files[1]))
        return [] if self.detect_pairs else ["no pairs to detect on"]
