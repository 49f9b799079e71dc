"""Binary-to-source mapping and cross-inlining pattern labeling.

Inputs are line-table style TSVs from two builds of the same projects, one
with inlining disabled and one with it enabled, plus the source-level call
graph. A binary function compiled from more than one source function has
inlining; for each source function ("bridge") embedded in it, the bridge's
position inside the call graph induced on the mapped source set gives the
cross-inlining pattern.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .acfg import read_json, write_json
from .errors import InconsistentTables, ValidationError

logger = logging.getLogger(__name__)


class Pattern(enum.Enum):
    EQUAL = "equal"
    LEAF = "leaf"
    ROOT = "root"
    INTERNAL = "internal"


CROSS_PATTERNS = (Pattern.LEAF, Pattern.ROOT, Pattern.INTERNAL)

_CROSS_OF = {pattern.value: pattern for pattern in CROSS_PATTERNS}

# the two builds of every project: without inlining, then with it
DATASETS = DATASET_NOINLINE, DATASET_INLINE = ("noinline", "inline")


@dataclass(frozen=True, order=True)
class BinaryFunctionRef:
    binary_id: str
    name: str
    addr_start: int
    addr_end: int


@dataclass(frozen=True)
class Binary2Source:
    """One binary function and the source functions that produced its code."""

    function: BinaryFunctionRef
    source_functions: frozenset[str]

    def __post_init__(self) -> None:
        if not self.source_functions:
            raise ValueError("mapped source set must be non-empty")


def has_inlining(mapping: Binary2Source) -> bool:
    return len(mapping.source_functions) > 1


@dataclass(frozen=True)
class SourceFCG:
    """Source-level call graph; self calls are dropped at construction."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    self_loops_dropped: int = 0


def build_fcg(edges: Iterable[tuple[str, str]]) -> SourceFCG:
    kept: set[tuple[str, str]] = set()
    dropped = 0
    for caller, callee in edges:
        if caller == callee:
            dropped += 1
            continue
        kept.add((caller, callee))
    nodes = frozenset(n for e in kept for n in e)
    if dropped:
        logger.debug("dropped %d self call(s) from FCG", dropped)
    return SourceFCG(nodes=nodes, edges=frozenset(kept), self_loops_dropped=dropped)


def classify_pattern(
    bridge: str, mapped: frozenset[str] | set[str], fcg: SourceFCG
) -> Pattern:
    """Position of the bridge in the call graph induced on the mapped set.

    No outgoing induced call: leaf. Otherwise no incoming: root. Both:
    internal. A single-function mapped set is the equal (no inlining) case.
    An isolated bridge inside a multi-function set classifies as leaf.
    """
    if bridge not in mapped:
        raise ValueError(f"bridge {bridge!r} not in mapped set")
    if len(mapped) == 1:
        return Pattern.EQUAL
    calls, called = _induced_calls(bridge, mapped, fcg)
    if not calls:
        return Pattern.LEAF
    if not called:
        return Pattern.ROOT
    return Pattern.INTERNAL


def _induced_calls(
    bridge: str, mapped: frozenset[str] | set[str], fcg: SourceFCG
) -> tuple[bool, bool]:
    """Whether the bridge calls, and is called by, another mapped function."""
    others = mapped - {bridge}
    return (
        any((bridge, other) in fcg.edges for other in others),
        any((other, bridge) in fcg.edges for other in others),
    )


# ---------------------------------------------------------------------------
# Table parsing

_HEX = functools.partial(int, base=16)


def _parse_tsv(path: Path, n_cols: int, check: Sequence = ()) -> list[list[str]]:
    """The rows of a TSV table; a cell that its column's converter in
    `check` rejects raises InconsistentTables naming path:line."""
    rows = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != n_cols:
                raise InconsistentTables(
                    f"{path}:{lineno}: expected {n_cols} columns, "
                    f"got {len(cols)}"
                )
            if check:  # given on the error path only; readers convert in bulk
                for convert, cell in zip(check, cols):
                    try:
                        convert(cell)
                    except ValueError as exc:
                        raise InconsistentTables(f"{path}:{lineno}: {exc}") from None
            rows.append(cols)
    return rows


@contextlib.contextmanager
def _naming_bad_cells(path: Path, check: Sequence):
    """Turn a failed conversion into InconsistentTables naming path:line."""
    try:
        yield
    except ValueError:
        _parse_tsv(path, len(check), check)
        raise


def read_addr2line(path: Path | str) -> list[tuple[str, int, str, int]]:
    """Rows (binary_id, address, file, line); addresses are 0x hex."""
    path = Path(path)
    with _naming_bad_cells(path, (str, _HEX, str, int)):
        return [
            (bid, int(addr, 16), file, int(line))
            for bid, addr, file, line in _parse_tsv(path, 4)
        ]


def read_binfuncs(path: Path | str) -> list[tuple[str, str, int, int]]:
    """Rows (binary_id, func_name, addr_start, addr_end), [start, end)."""
    path = Path(path)
    with _naming_bad_cells(path, (str, str, _HEX, _HEX)):
        return [
            (bid, name, int(start, 16), int(end, 16))
            for bid, name, start, end in _parse_tsv(path, 4)
        ]


def read_srcfuncs(path: Path | str) -> list[tuple[str, str, int, int]]:
    """Rows (file, func_name, line_start, line_end), closed line range."""
    path = Path(path)
    with _naming_bad_cells(path, (str, str, int, int)):
        return [
            (file, name, int(start), int(end))
            for file, name, start, end in _parse_tsv(path, 4)
        ]


def read_fcg(path: Path | str) -> list[tuple[str, str]]:
    return [(caller, callee) for caller, callee in _parse_tsv(Path(path), 2)]


# ---------------------------------------------------------------------------
# Mapping construction

# kinds of line-table rows that construct_mapping cannot resolve
UNMAPPED_ADDRESS = "an address in no binary function"
UNMAPPED_LINE = "a line in no source function"


@dataclass
class MappingResult:
    mappings: list[Binary2Source]
    # one (kind, row detail) per unresolved line-table row
    inconsistencies: list[tuple[str, str]] = field(default_factory=list)


class _IntervalIndex:
    """Sorted non-overlapping intervals with point lookup."""

    def __init__(self, items: Sequence[tuple[int, int, object]]):
        ordered = sorted(items, key=lambda it: it[0])
        self._starts = [it[0] for it in ordered]
        self._items = ordered

    def find(self, point: int):
        pos = bisect_right(self._starts, point) - 1
        if pos < 0:
            return None
        start, end, payload = self._items[pos]
        return payload if start <= point < end else None


def construct_mapping(
    addr2line: Sequence[tuple[str, int, str, int]],
    binfuncs: Sequence[tuple[str, str, int, int]],
    srcfuncs: Sequence[tuple[str, str, int, int]],
) -> MappingResult:
    """Join line-table rows against the two function tables.

    Each binary function maps to the set of source functions owning any line
    its addresses map to. Rows whose address or line falls inside no known
    function are reported as inconsistencies and skipped; binary functions
    with no resolvable rows at all are omitted from the result.
    """
    bin_index: dict[str, _IntervalIndex] = {}
    by_binary: dict[str, list[tuple[int, int, object]]] = {}
    refs: dict[tuple[str, str], BinaryFunctionRef] = {}
    for bid, name, start, end in binfuncs:
        ref = BinaryFunctionRef(binary_id=bid, name=name, addr_start=start, addr_end=end)
        refs[(bid, name)] = ref
        by_binary.setdefault(bid, []).append((start, end, ref))
    for bid, items in by_binary.items():
        bin_index[bid] = _IntervalIndex(items)

    src_index: dict[str, _IntervalIndex] = {}
    by_file: dict[str, list[tuple[int, int, object]]] = {}
    for file, name, lstart, lend in srcfuncs:
        # closed line range, stored half-open for the shared index
        by_file.setdefault(file, []).append((lstart, lend + 1, name))
    for file, items in by_file.items():
        src_index[file] = _IntervalIndex(items)

    sets: dict[tuple[str, str], set[str]] = {}
    problems: list[tuple[str, str]] = []
    for bid, addr, file, line in addr2line:
        index = bin_index.get(bid)
        ref = index.find(addr) if index is not None else None
        if ref is None:
            problems.append((UNMAPPED_ADDRESS, f"{bid}@{addr:#x}"))
            continue
        file_index = src_index.get(file)
        src_name = file_index.find(line) if file_index is not None else None
        if src_name is None:
            problems.append((UNMAPPED_LINE, f"{file}:{line}"))
            continue
        sets.setdefault((bid, ref.name), set()).add(src_name)

    mappings = [
        Binary2Source(function=refs[key], source_functions=frozenset(srcs))
        for key, srcs in sorted(sets.items())
    ]
    for kind, detail in problems:
        logger.debug("mapping inconsistency: %s: %s", kind, detail)
    return MappingResult(mappings=mappings, inconsistencies=problems)


# ---------------------------------------------------------------------------
# Bridge index

@dataclass
class BridgeEntry:
    equal: tuple[BinaryFunctionRef, ...] = ()
    cross_inlining: tuple[tuple[BinaryFunctionRef, Pattern], ...] = ()


@dataclass
class BridgeIndex:
    """Per-bridge pools of equal-form and cross-inlining binary functions.

    An entry exists for every source function with at least one equal-form
    binary (a no-inlining binary mapping to exactly that function). Binary
    functions with inlining attach, pattern-tagged, to every indexed bridge
    in their mapped source set.
    """

    entries: dict[str, BridgeEntry]
    excluded_no_inline: int = 0
    isolated_bridges: int = 0


def build_bridge_index(
    no_inline: Sequence[Binary2Source],
    inline: Sequence[Binary2Source],
    fcg: SourceFCG,
) -> BridgeIndex:
    equal_pools: dict[str, list[BinaryFunctionRef]] = {}
    excluded = 0
    for mapping in no_inline:
        if has_inlining(mapping):
            excluded += 1
            continue
        (bridge,) = mapping.source_functions
        equal_pools.setdefault(bridge, []).append(mapping.function)
    if excluded:
        logger.warning(
            "excluded %d no-inlining mapping(s) that had inlining", excluded
        )

    cross_pools: dict[str, list[tuple[BinaryFunctionRef, Pattern]]] = {}
    isolated = 0
    for mapping in inline:
        if not has_inlining(mapping):
            continue
        for bridge in sorted(mapping.source_functions):
            if bridge not in equal_pools:
                continue
            pattern = classify_pattern(bridge, mapping.source_functions, fcg)
            if not any(_induced_calls(bridge, mapping.source_functions, fcg)):
                isolated += 1
            cross_pools.setdefault(bridge, []).append((mapping.function, pattern))
    if isolated:
        logger.warning(
            "%d bridge occurrence(s) isolated in the induced call graph "
            "(classified leaf)",
            isolated,
        )

    entries = {
        bridge: BridgeEntry(
            equal=tuple(sorted(pool)),
            cross_inlining=tuple(
                sorted(cross_pools.get(bridge, ()), key=lambda it: (it[0], it[1].value))
            ),
        )
        for bridge, pool in sorted(equal_pools.items())
    }
    return BridgeIndex(
        entries=entries, excluded_no_inline=excluded, isolated_bridges=isolated
    )


def pattern_distribution(index: BridgeIndex) -> dict[Pattern, int]:
    counts = {pattern: 0 for pattern in Pattern}
    for entry in index.entries.values():
        counts[Pattern.EQUAL] += len(entry.equal)
        for _, pattern in entry.cross_inlining:
            counts[pattern] += 1
    return counts


# ---------------------------------------------------------------------------
# Index serialization (CLI exchange format)

def _ref_to_json(ref: BinaryFunctionRef) -> list:
    return [ref.binary_id, ref.name, ref.addr_start, ref.addr_end]


def _ref_from_json(payload: list) -> BinaryFunctionRef:
    if [type(value) for value in payload] != [str, str, int, int]:
        raise TypeError(f"ref must be [str, str, int, int], got {payload!r}")
    return BinaryFunctionRef(*payload)


def index_to_json(index: BridgeIndex) -> dict:
    return {
        "version": 1,
        "entries": {
            bridge: {
                "equal": [_ref_to_json(r) for r in entry.equal],
                "cross_inlining": [
                    [_ref_to_json(r), pattern.value]
                    for r, pattern in entry.cross_inlining
                ],
            }
            for bridge, entry in sorted(index.entries.items())
        },
        "diagnostics": {
            "excluded_no_inline": index.excluded_no_inline,
            "isolated_bridges": index.isolated_bridges,
        },
    }


def index_from_json(payload: dict) -> BridgeIndex:
    entries = {
        bridge: BridgeEntry(
            equal=tuple(_ref_from_json(r) for r in body["equal"]),
            cross_inlining=tuple(
                (_ref_from_json(r), _CROSS_OF[p]) for r, p in body["cross_inlining"]
            ),
        )
        for bridge, body in payload["entries"].items()
    }
    diag = payload.get("diagnostics", {})
    return BridgeIndex(
        entries=entries,
        excluded_no_inline=int(diag.get("excluded_no_inline", 0)),
        isolated_bridges=int(diag.get("isolated_bridges", 0)),
    )


def save_index(index: BridgeIndex, path: Path | str) -> None:
    write_json(path, index_to_json(index))


def load_index(path: Path | str) -> BridgeIndex:
    """The bridge index of a `save_index` file; a file that is not JSON or
    holds an entry of the wrong shape raises ValidationError naming it."""
    payload = read_json(path, ["entries"])
    try:
        return index_from_json(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        kind = type(exc).__name__
        raise ValidationError(f"{path}: bad index entry ({kind}: {exc})") from None
