"""Spans and counters recorded from outside the program.

A Tracer replaces public functions of the ``cidetect`` modules with timing
wrappers while it is installed. A function imported into another module with
``from .x import f`` has a second binding there, so every binding that refers
to the original object is patched, and restored on uninstall. A name that no
longer exists is recorded as absent; the run goes on without it.

Each span has a parent (the span open when it started). Its self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "cidetect"

# (module, function) pairs traced in the traced run. The modules are the
# program's layers; cli is traced by spans around each cli.main call.
TRACED = (
    ("gnn", "grad_step"),
    ("gnn", "pair_loss_and_grads"),
    ("gnn", "embed_prepared"),
    ("gnn", "prepare_graph"),
    ("detector", "score_pairs"),
    ("detector", "detect"),
    ("detector", "load_bundle"),
    ("detector", "save_bundle"),
    ("evaluation", "evaluate_detector"),
    ("evaluation", "threshold_sweep"),
    ("evaluation", "auc"),
    ("pairgen", "generate_positive_pairs"),
    ("pairgen", "generate_negative_pairs"),
    ("pairgen", "read_pairs"),
    ("pairgen", "write_pairs"),
    ("labeling", "read_addr2line"),
    ("labeling", "read_binfuncs"),
    ("labeling", "read_srcfuncs"),
    ("labeling", "read_fcg"),
    ("labeling", "construct_mapping"),
    ("labeling", "build_bridge_index"),
    ("labeling", "save_index"),
    ("labeling", "load_index"),
    ("synth", "load_corpus"),
    ("acfg", "build_acfg"),
    ("acfg", "featurize_graph"),
    ("acfg", "build_vocabulary"),
)


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _graph_ids(batch) -> set[int]:
    ids = set()
    for pair in batch or ():
        for side in ("query", "target"):
            graph = getattr(pair, side, None)
            if graph is not None:
                ids.add(id(graph))
    return ids


class Tracer:
    """In-memory span statistics and counters for one traced interval."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [s, self_s, calls]
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        duration = time.perf_counter() - start
        name, child = self._stack.pop()
        row = self.stats.setdefault(name, [0.0, 0.0, 0])
        row[0] += duration
        row[1] += duration - child
        row[2] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    def reset(self) -> None:
        self.stats = {}
        self.counts = Counter()

    # -- counters taken where the work happens -----------------------------

    def _observe(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "gnn.pair_loss_and_grads":
            c["gnn.pairs_seen"] += 1
            if result[0] > 0:
                c["gnn.pairs_active"] += 1
            if self.inside("gnn.grad_step"):
                c["gnn.step_embeddings"] += 2
        elif name == "gnn.embed_prepared":
            prep = _arg(args, kwargs, 0, "prep")
            c["gnn.embed_prepared.nodes"] += int(getattr(prep, "n_nodes", 0))
            if self.inside("gnn.grad_step"):
                c["gnn.step_embeddings"] += 1
        elif name == "gnn.grad_step":
            c["gnn.step_distinct_graphs"] += len(
                _graph_ids(_arg(args, kwargs, 0, "batch"))
            )
        elif name == "detector.score_pairs":
            c["detector.score_pairs.pairs"] += len(_arg(args, kwargs, 1, "pairs"))
            if self.inside("cli.eval"):
                c["detector.score_pairs.eval_calls"] += 1
        elif name in (
            "pairgen.generate_positive_pairs", "pairgen.generate_negative_pairs"
        ):
            c[name + ".pairs"] += len(result)
        elif name == "labeling.construct_mapping":
            c["labeling.rows"] += len(_arg(args, kwargs, 0, "addr2line"))
            c["labeling.unresolved_rows"] += len(result.inconsistencies)

    def _wrap(self, name: str, func):
        def traced(*args, **kwargs):
            start = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(start)
            try:
                self._observe(name, args, kwargs, result)
            except (AttributeError, TypeError, IndexError):
                # a changed signature loses a counter, never the program call
                self.counts["trace.observe_errors"] += 1
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets=TRACED) -> None:
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for module_name, func_name in targets:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(owner, func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- one traced cycle as flat metrics ----------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat per-interval figures: <span>.s, .self_s, .calls and counters."""
        out: dict[str, float] = {}
        for name, (total, self_s, calls) in self.stats.items():
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        out.update({k: float(v) for k, v in self.counts.items()})
        return out
