"""Training pair generation from a bridge index.

Positives pair an equal-form binary of a bridge (query, compiled without
inlining) with a cross-inlining binary whose code embeds that bridge
(target). Negatives pair the same kind of query with a cross-inlining binary
that does not embed the bridge. Pairs are drawn as refs into a corpus
(PairRef), which is all a pair file holds; resolving them against the
corpus's graphs gives FunctionPairs, whose queries and targets are stripped
of symbol names. No name reaches a model either way: a graph reaches one
only through gnn.prepare_graph, whose PreparedGraph holds features and
edges and no name, so the named corpus graphs that eval and detect
prepare embed exactly as their stripped copies do. read_pairs gives a pair
file's PairRefs, checked against the corpus, and builds no graph: the
scorer builds them (build_refs), each process the graphs of its own share.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .acfg import (
    RECORD_ERRORS, AttributedCFG, parse_record, placed, strip_name, write_records
)
from .errors import Exhausted, TooFewProjects, ValidationError
from .labeling import (
    DATASET_INLINE, DATASET_NOINLINE, BinaryFunctionRef, BridgeIndex, Pattern
)

GraphRef = tuple[str, str, str]  # (dataset_id, binary_id, func_name)
GraphStore = Mapping[GraphRef, AttributedCFG]


@dataclass(frozen=True)
class PairRef:
    """A labelled pair as references into a corpus, without graphs."""

    query_ref: GraphRef
    target_ref: GraphRef
    label: int
    pattern: Pattern
    bridge: str | None = None

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        if self.pattern == Pattern.EQUAL:
            raise ValueError("pairs are generated for cross-inlining patterns")
        if self.label == 1 and self.bridge is None:
            raise ValueError("positive pair needs its bridge")
        if self.label == -1 and self.bridge is not None:
            raise ValueError("negative pair must not carry a bridge")


@dataclass(frozen=True, kw_only=True)
class FunctionPair(PairRef):
    """A pair with its query and target graphs, stripped of their names."""

    query: AttributedCFG
    target: AttributedCFG


def _no_entry(ref: GraphRef) -> KeyError:
    return KeyError(f"graph store has no entry for {ref}")


def _resolver(graphs: GraphStore) -> Callable[[PairRef], FunctionPair]:
    """A function that gives a pair its graphs from graphs; each graph is
    stripped once per resolver, and pairs that share a ref share the
    stripped copy."""
    memo: dict[GraphRef, AttributedCFG] = {}

    def lookup(ref: GraphRef) -> AttributedCFG:
        graph = memo.get(ref)
        if graph is None:
            try:
                graph = memo[ref] = strip_name(graphs[ref])
            except KeyError:
                raise _no_entry(ref) from None
        return graph

    def resolve(pair: PairRef) -> FunctionPair:
        return FunctionPair(
            query_ref=pair.query_ref, target_ref=pair.target_ref,
            label=pair.label, pattern=pair.pattern, bridge=pair.bridge,
            query=lookup(pair.query_ref), target=lookup(pair.target_ref),
        )

    return resolve


def resolve_pairs(pairs: Iterable[PairRef], graphs: GraphStore) -> list[FunctionPair]:
    """The pairs with their graphs; a ref graphs lacks raises KeyError."""
    return list(map(_resolver(graphs), pairs))


def check_refs(pairs: Iterable[PairRef], graphs: GraphStore) -> None:
    """Raise KeyError for the first ref of pairs that graphs lacks, the
    error resolve_pairs would raise, without building a graph."""
    for pair in pairs:
        for ref in (pair.query_ref, pair.target_ref):
            if ref not in graphs:
                raise _no_entry(ref)


def _pair_ref(
    query: BinaryFunctionRef, target: BinaryFunctionRef, label: int,
    pattern: Pattern, bridge: str | None = None,
) -> PairRef:
    return PairRef(
        (DATASET_NOINLINE, query.binary_id, query.name),
        (DATASET_INLINE, target.binary_id, target.name),
        label, pattern, bridge,
    )


def draw_pairs(
    index: BridgeIndex,
    patterns: Sequence[Pattern],
    n_pos: int,
    n_neg: int,
    seed: Sequence[int],
) -> list[PairRef]:
    """n_pos positives and n_neg negatives, shuffled together. Each pattern
    gets an equal share of either count, the earlier patterns one more while
    a remainder lasts; pattern i draws its positives from seed [*seed, 1, i]
    and its negatives from [*seed, 2, i], and [*seed, 3] shuffles. A
    negative count raises ValueError naming it."""
    for kind, count in (("positive", n_pos), ("negative", n_neg)):
        if count < 0:
            raise ValueError(f"{kind} pair count must be >= 0, got {count}")
    pairs: list[PairRef] = []
    for i, pattern in enumerate(patterns):
        for stream, draw, count in (
            (1, positive_refs, n_pos),
            (2, negative_refs, n_neg),
        ):
            share = count // len(patterns) + (1 if i < count % len(patterns) else 0)
            if share:
                pairs.extend(draw(index, pattern, share, [*seed, stream, i]))
    rng = np.random.default_rng([*seed, 3])
    return [pairs[i] for i in rng.permutation(len(pairs))]


def sample_pairs(
    index: BridgeIndex,
    graphs: GraphStore,
    patterns: Sequence[Pattern],
    n_pos: int,
    n_neg: int,
    seed: Sequence[int],
) -> list[FunctionPair]:
    """The pairs of draw_pairs, with their graphs."""
    return resolve_pairs(draw_pairs(index, patterns, n_pos, n_neg, seed), graphs)


def generate_positive_pairs(
    index: BridgeIndex,
    pattern: Pattern,
    count: int,
    seed: int | Sequence[int],
    graphs: GraphStore,
) -> list[FunctionPair]:
    """The pairs of positive_refs, with their graphs."""
    return resolve_pairs(positive_refs(index, pattern, count, seed), graphs)


def generate_negative_pairs(
    index: BridgeIndex,
    pattern: Pattern,
    count: int,
    seed: int | Sequence[int],
    graphs: GraphStore,
) -> list[FunctionPair]:
    """The pairs of negative_refs, with their graphs."""
    return resolve_pairs(negative_refs(index, pattern, count, seed), graphs)


def positive_refs(
    index: BridgeIndex, pattern: Pattern, count: int, seed: int | Sequence[int]
) -> list[PairRef]:
    """Sample `count` positive pairs of one pattern, with replacement."""
    eligible = [
        (bridge, entry)
        for bridge, entry in sorted(index.entries.items())
        if entry.equal
        and any(p == pattern for _, p in entry.cross_inlining)
    ]
    if not eligible:
        raise Exhausted(f"no bridge offers {pattern.value} positives")
    rng = np.random.default_rng(seed)
    pairs: list[PairRef] = []
    for _ in range(count):
        bridge, entry = eligible[rng.integers(len(eligible))]
        query = entry.equal[rng.integers(len(entry.equal))]
        targets = [ref for ref, p in entry.cross_inlining if p == pattern]
        target = targets[rng.integers(len(targets))]
        pairs.append(_pair_ref(query, target, 1, pattern, bridge))
    return pairs


def negative_refs(
    index: BridgeIndex, pattern: Pattern, count: int, seed: int | Sequence[int]
) -> list[PairRef]:
    """Sample negatives: query from a bridge, target embedding other bridges.

    Targets are drawn from the corpus-wide pool of cross-inlining binaries
    minus the ones on the query bridge's own list. The pattern argument only
    tags the produced pairs (negatives accompany a per-pattern training run).
    """
    ref_by_key = {
        (ref.binary_id, ref.name): ref
        for entry in index.entries.values()
        for ref, _ in entry.cross_inlining
    }
    universe = sorted(ref_by_key)
    position = {key: i for i, key in enumerate(universe)}
    # Per bridge: its query pool, its complement size, and the shifted sorted
    # positions of its own targets, own[j] - j. Complement element k is then
    # universe[k + bisect_right(shifted, k)]: the same element as index k of
    # the sorted complement, without building the complement.
    eligible: list[tuple[tuple, int, list[int]]] = []
    for _, entry in sorted(index.entries.items()):
        if not entry.equal:
            continue
        own = sorted(
            {position[(ref.binary_id, ref.name)] for ref, _ in entry.cross_inlining}
        )
        if len(own) < len(universe):
            shifted = [pos - j for j, pos in enumerate(own)]
            eligible.append((entry.equal, len(universe) - len(own), shifted))
    if not eligible:
        raise Exhausted("no bridge has out-of-bridge targets for negatives")
    rng = np.random.default_rng(seed)
    pairs: list[PairRef] = []
    for _ in range(count):
        equal_pool, n_complement, shifted = eligible[rng.integers(len(eligible))]
        query = equal_pool[rng.integers(len(equal_pool))]
        k = int(rng.integers(n_complement))
        target = ref_by_key[universe[k + bisect_right(shifted, k)]]
        pairs.append(_pair_ref(query, target, -1, pattern))
    return pairs


# ---------------------------------------------------------------------------
# Project split

@dataclass(frozen=True)
class SplitSpec:
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def split_projects(project_ids: Sequence[str], seed: int | Sequence[int]) -> SplitSpec:
    """Disjoint project-level split, 80/10/10: validation and test each get
    a tenth of the projects, rounded down but at least one."""
    if len(set(project_ids)) != len(project_ids):
        raise ValueError("duplicate project ids")
    if len(project_ids) < 3:
        raise TooFewProjects(f"need at least 3 projects, got {len(project_ids)}")
    total = len(project_ids)
    n_val = n_test = max(1, total // 10)  # 3 projects or more: one trains
    n_train = total - n_val - n_test
    rng = np.random.default_rng(seed)
    order = [project_ids[i] for i in rng.permutation(total)]
    return SplitSpec(
        train=tuple(sorted(order[:n_train])),
        validation=tuple(sorted(order[n_train : n_train + n_val])),
        test=tuple(sorted(order[n_train + n_val :])),
    )


def filter_index(index: BridgeIndex, bridges: Iterable[str]) -> BridgeIndex:
    """Restrict a bridge index to the given bridge names."""
    keep = set(bridges)
    return BridgeIndex(
        entries={b: e for b, e in index.entries.items() if b in keep},
        excluded_no_inline=index.excluded_no_inline,
        isolated_bridges=index.isolated_bridges,
    )


# ---------------------------------------------------------------------------
# Pair file exchange (refs only; graphs resolve against a corpus)

def _pair_record(pair: PairRef) -> dict:
    record = {
        "query_ref": list(pair.query_ref),
        "target_ref": list(pair.target_ref),
        "label": pair.label,
        "pattern": pair.pattern.value,
    }
    if pair.bridge is not None:
        record["bridge"] = pair.bridge
    return record


def write_pairs(pairs: Iterable[PairRef], path: Path | str) -> None:
    write_records(path, map(_pair_record, pairs))


def _record_pair(record: dict) -> PairRef:
    """The pair of a record; a field of the wrong type raises ValueError."""
    refs = record["query_ref"], record["target_ref"]
    label, bridge = record["label"], record.get("bridge")
    for ref in refs:
        if type(ref) is not list or len(ref) != 3 or not all(
            type(part) is str for part in ref
        ):
            raise ValueError(f"a ref must be [dataset, binary, name], got {ref!r}")
    if type(label) is not int:
        raise ValueError(f"label must be -1 or +1, got {label!r}")
    if bridge is not None and type(bridge) is not str:
        raise ValueError(f"bridge must be a string, got {bridge!r}")
    return PairRef(
        tuple(refs[0]), tuple(refs[1]), label, Pattern(record["pattern"]), bridge
    )


def read_pairs(
    path: Path | str, graphs: GraphStore
) -> tuple[list[PairRef], list[str]]:
    """The pairs of a pair file, and the place (path:line) of each. Every
    ref is checked against graphs, but no graph is built. A bad record, or
    a ref graphs lacks, raises ValidationError naming path:line, unless a
    graph of an earlier pair fails to build: the refs of the pairs before
    it are built first, in the order they first appear, and the first
    failure is raised at the place of its ref's first pair (at_place)."""

    def pair_of(record: dict) -> PairRef:
        pair = _record_pair(record)
        check_refs([pair], graphs)
        return pair

    pairs: list[PairRef] = []
    places: list[str] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.strip():
                where = f"{path}:{lineno}"
                try:
                    pairs.append(parse_record(line, pair_of, where))
                except ValidationError:
                    first = first_refs(pairs)
                    refs = list(first)
                    built, failure = build_refs(graphs, refs)
                    if failure is not None:
                        place = places[first[refs[len(built)]]]
                        raise at_place(place, failure) from None
                    raise
                places.append(where)
    return pairs, places


def first_refs(pairs: Iterable[PairRef]) -> dict[GraphRef, int]:
    """Each distinct ref of the pairs, in the order refs first appear
    (query before target), mapped to the index of the pair it first
    appears in."""
    first: dict[GraphRef, int] = {}
    for i, pair in enumerate(pairs):
        first.setdefault(pair.query_ref, i)
        first.setdefault(pair.target_ref, i)
    return first


def build_refs(
    graphs: GraphStore, refs: Sequence[GraphRef]
) -> tuple[list[AttributedCFG], Exception | None]:
    """The graphs of refs, in order, up to the first that fails to build,
    and that failure (None when every one builds)."""
    built: list[AttributedCFG] = []
    try:
        for ref in refs:
            built.append(graphs[ref])
    except Exception as exc:  # raised by the caller, at the failing ref's place
        return built, exc
    return built, None


def at_place(place: str, failure: Exception) -> Exception:
    """A ref's failure to build as the failure of the pair at place
    (path:line), as parse_record reports a bad record; a failure of
    another kind, such as an OSError, as it is."""
    return placed(place, failure) if isinstance(failure, RECORD_ERRORS) else failure
