"""cidetect benchmark: one workload per process, closed loop, one seed.

Usage, from the repository root:

    python3 perfbench/run.py --workload train|score|corpus|all --seed N \
        --seconds S --trace 0|1

``all`` runs the three workloads one after another, each in a fresh child
process, and prints a combined line with workload-prefixed metric names.

It builds nothing: the program is imported from ``src/`` of the checkout the
script sits in, and the run fails when that source is missing. Set-up
generates the workload's corpus; an untimed warm-up pass writes the index,
the pair file drawn from the seed, the bundle and the detect inputs. The
timed part repeats the round of ``workloads.py`` until S seconds have
passed, at least once per pattern. Stage rates are work over the summed time
of all the run's calls of that stage. All files go to a work directory
inside the checkout, removed at exit.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates plain and traced cycles of three rounds (one per pattern) and
prints the per-layer metrics, including the tracing overhead. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "score", "corpus")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_pairs_per_s": "1/s",
    "val_auc": "auc",
    "eval_pairs_per_s": "1/s",
    "detect_p50_ms": "ms",
    "detect_p95_ms": "ms",
    "label_rows_per_s": "1/s",
    "sample_pairs_per_s": "1/s",
}

# span statistics reported per traced cycle (median over traced cycles)
SPAN_METRICS = (
    "gnn.grad_step.s", "gnn.grad_step.calls", "gnn.grad_step.self_s",
    "gnn.pair_loss_and_grads.s", "gnn.pair_loss_and_grads.calls",
    "gnn.embed_prepared.s", "gnn.embed_prepared.calls",
    "gnn.embed_prepared.nodes",
    "gnn.prepare_graph.s", "gnn.prepare_graph.calls",
    "detector.score_pairs.s", "detector.score_pairs.calls",
    "detector.score_pairs.pairs",
    "detector.detect.s",
    "detector.load_bundle.s", "detector.load_bundle.calls",
    "detector.save_bundle.s",
    "evaluation.evaluate_detector.self_s",
    "evaluation.threshold_sweep.s",
    "evaluation.auc.s", "evaluation.auc.calls",
    "pairgen.generate_positive_pairs.s", "pairgen.generate_positive_pairs.calls",
    "pairgen.generate_positive_pairs.pairs",
    "pairgen.generate_negative_pairs.s", "pairgen.generate_negative_pairs.calls",
    "pairgen.generate_negative_pairs.pairs",
    "pairgen.read_pairs.s", "pairgen.write_pairs.s",
    "labeling.construct_mapping.s", "labeling.build_bridge_index.s",
    "labeling.save_index.s", "labeling.load_index.s",
    "synth.load_corpus.s", "synth.load_corpus.calls",
    "acfg.build_acfg.s", "acfg.build_acfg.calls",
    "acfg.featurize_graph.s", "acfg.build_vocabulary.s",
    "cli.label.s", "cli.pairs.s", "cli.train.s", "cli.eval.s", "cli.detect.s",
)
READ_TABLES = ("read_addr2line", "read_binfuncs", "read_srcfuncs", "read_fcg")
DERIVED_METRICS = (
    "labeling.read_tables.s",
    "labeling.unresolved_row_share",
    "gnn.active_pair_share",
    "gnn.graph_reuse",
    "detector.score_pairs.calls_per_eval",
)
PROBE_METRICS = (
    "gnn.sample.forward_s", "gnn.sample.backward_s", "gnn.sample.adam_s",
    "labeling.build_bridge_index.growth_per_doubling",
    "pairgen.generate_negative_pairs.growth_per_doubling",
)
OVERHEAD_METRICS = ("trace.cycle_s", "trace.untraced_cycle_s", "trace.overhead_share")


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_share", "growth_per_doubling", ".graph_reuse")):
        return "ratio"
    return "count"


PER_LAYER = {
    name: per_layer_unit(name)
    for name in SPAN_METRICS + DERIVED_METRICS + PROBE_METRICS + OVERHEAD_METRICS
}


def import_program():
    """Import cidetect from this checkout's src/, never from elsewhere."""
    if not (SRC / "cidetect" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'cidetect'}")
    sys.path.insert(0, str(SRC))
    import cidetect

    if Path(cidetect.__file__).resolve().parent != (SRC / "cidetect").resolve():
        sys.exit(f"perfbench: cidetect imported from {cidetect.__file__}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    threads = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads or "library default",
        "commit": git_commit(),
    }


def end_to_end(pipe, setup_s: float) -> dict[str, float]:
    """Stage rates are work over the summed wall time of all the run's calls
    of that stage; train sums the mean call time of each pattern."""
    w = pipe.w
    s = pipe.samples
    pairs = 2 * w.pairs_per_label
    train_s = sum(statistics.fmean(t) for t in s["train"].values())
    detect_ms = sorted(detect_latencies_ms(s["detect"]).values())
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_pairs_per_s": w.train_pairs_per_cycle / train_s,
        "val_auc": pipe.val_auc,
        "eval_pairs_per_s": pairs * len(s["eval"]) / sum(s["eval"]),
        "detect_p50_ms": statistics.median(detect_ms),
        "detect_p95_ms": statistics.quantiles(detect_ms, n=100)[94],
        "label_rows_per_s": pipe.rows * len(s["label"]) / sum(s["label"]),
        "sample_pairs_per_s": pairs * len(s["pairs"]) / sum(s["pairs"]),
    }


def detect_latencies_ms(calls: list[tuple[int, float]]) -> dict[int, float]:
    """Latency of each detect input: the median of its calls in the run.

    Every input is called several times, in different rounds, so a burst of
    host contention during one call does not set that input's latency, and
    p50 and p95 taken over inputs follow the program, not the host."""
    per_input: dict[int, list[float]] = {}
    for k, seconds in calls:
        per_input.setdefault(k, []).append(1000.0 * seconds)
    return {k: statistics.median(v) for k, v in per_input.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(snapshots: list[dict], plain_s: list[float], traced_s: list[float]) -> dict:
    def med(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in snapshots)

    out = {name: med(name) for name in SPAN_METRICS}
    out["labeling.read_tables.s"] = sum(med(f"labeling.{n}.s") for n in READ_TABLES)
    out["labeling.unresolved_row_share"] = _ratio(
        med("labeling.unresolved_rows"), med("labeling.rows"))
    out["gnn.active_pair_share"] = _ratio(med("gnn.pairs_active"), med("gnn.pairs_seen"))
    out["gnn.graph_reuse"] = _ratio(
        med("gnn.step_embeddings"), med("gnn.step_distinct_graphs"))
    out["detector.score_pairs.calls_per_eval"] = _ratio(
        med("detector.score_pairs.eval_calls"), med("cli.eval.calls"))
    out["trace.cycle_s"] = statistics.median(traced_s)
    out["trace.untraced_cycle_s"] = statistics.median(plain_s)
    out["trace.overhead_share"] = out["trace.cycle_s"] / out["trace.untraced_cycle_s"] - 1.0
    return out


def run(args) -> dict:
    import workloads
    from spans import Tracer

    pipe = workloads.Pipeline(workloads.WORKLOADS[args.workload], args.seed, args.work)
    setup_s = pipe.setup()
    pipe.warm_up()
    # as in a fresh CLI process, the program's collections should not scan the
    # benchmark's own long-lived data
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    snapshots, plain_s, traced_s = [], [], []
    # the timed unit: one round, or in the traced run a cycle of three rounds,
    # plain and traced in turn
    step = pipe.cycle if tracer else pipe.round
    minimum = 2 if tracer else len(workloads.PATTERNS)
    start = time.perf_counter()
    steps = 0
    last = 0.0
    # start another step only while it should end nearer the deadline than now
    while steps < minimum or time.perf_counter() - start + last / 2 < args.seconds:
        traced = tracer is not None and steps % 2 == 1
        step_start = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                step(tracer.span)
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot())
            traced_s.append(time.perf_counter() - step_start)
        else:
            step(lambda name: nullcontext())
            plain_s.append(time.perf_counter() - step_start)
        last = time.perf_counter() - step_start
        steps += 1
    calls = collections.Counter(k for k, _ in pipe.samples["detect"])
    print(f"rounds: {pipe.rounds}, detect inputs: {len(calls)}, "
          f"calls per input: {min(calls.values(), default=0)}-{max(calls.values(), default=0)}, "
          f"ops: {pipe.ops.attempted}, failed: {pipe.ops.failed}", file=sys.stderr)
    flat = {k: v for k, v in pipe.samples.items() if k not in ("train", "detect")}
    flat["detect"] = [t for _, t in pipe.samples["detect"]]
    flat.update({f"train {p}": v for p, v in pipe.samples["train"].items()})
    print("stage medians (s): " + ", ".join(
        f"{k} {statistics.median(v):.3f}" for k, v in flat.items() if v
    ), file=sys.stderr)
    print("stage samples " + json.dumps(pipe.samples), file=sys.stderr)
    for message in pipe.ops.messages:
        print(f"FAILED {message}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(pipe, setup_s)
        units = END_TO_END
    else:
        import probes

        if tracer.absent:
            print(f"absent, not traced: {', '.join(tracer.absent)}", file=sys.stderr)
        metrics = per_layer(snapshots, plain_s, traced_s)
        metrics.update(probes.gnn_split(pipe.corpus, pipe.index, pipe.bundle, args.seed))
        metrics.update(probes.size_curve(args.seed))
        units = PER_LAYER
    return {
        "correct": pipe.ops.failed == 0,
        "attempted": pipe.ops.attempted,
        "failed": pipe.ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(args) -> int:
    """Each workload in a fresh child process; a combined line comes last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    sys.dont_write_bytecode = True
    import_program()
    os.environ["CIDETECT_LOG"] = "ERROR"  # label logs one line per bad row
    env = environment(args.workload, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    work_parent = ROOT / ".perfbench-work"
    work_parent.mkdir(exist_ok=True)
    args.work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
