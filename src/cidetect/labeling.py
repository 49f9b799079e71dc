"""Binary-to-source mapping and cross-inlining pattern labeling.

Inputs are line-table style TSVs from two builds of the same projects, one
with inlining disabled and one with it enabled, plus the source-level call
graph. A binary function compiled from more than one source function has
inlining; for each source function ("bridge") embedded in it, the bridge's
position inside the call graph induced on the mapped source set gives the
cross-inlining pattern.

The tables are read as columns: one reader splits a whole file once and
converts each column in one pass, and the address-to-line table stays a
`LineTable` (binary ids, int64 addresses, files, int64 lines) from the file
to the join. `construct_mapping` places the rows of each binary in its
functions with one `np.searchsorted`, and the rows of each file in its
source functions with another, and collects the distinct (binary function,
source function) pairs with `np.unique`. A number that does not fit int64
is refused, naming the line that holds it.
"""

from __future__ import annotations

import contextlib
import enum
import logging
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Sequence

import numpy as np

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

_INT64 = np.iinfo(np.int64)


def _int64(cell: str, base: int) -> int:
    """The integer a cell spells in base; ValueError if it spells none or
    does not fit int64."""
    value = int(cell, base)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{cell!r} does not fit int64")
    return value


def _raise_at_bad_line(path: Path, bases: Sequence[int | None]) -> None:
    """Raise InconsistentTables naming path:line of the first row of another
    width or with a cell that is no int64 in its column's base."""
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != len(bases):
                raise InconsistentTables(
                    f"{path}:{lineno}: expected {len(bases)} columns, "
                    f"got {len(cols)}"
                )
            for base, cell in zip(bases, cols):
                if base is not None:
                    try:
                        _int64(cell, base)
                    except ValueError as exc:
                        raise InconsistentTables(f"{path}:{lineno}: {exc}") from None


@contextlib.contextmanager
def _naming_bad_cells(path: Path, bases: Sequence[int | None]):
    """Turn a failed conversion into InconsistentTables naming path:line."""
    try:
        yield
    except (ValueError, OverflowError):
        _raise_at_bad_line(path, bases)
        raise


def _read_tsv(path: Path, bases: Sequence[int | None]) -> list:
    """The columns of a TSV table, one per entry of bases: a column of base
    None is the list of its cells, any other the int64 array of the integers
    its cells spell in that base. Blank lines and lines that start with #
    are skipped. The file is split once and each column converted in one
    pass; a row of another width, or a cell that is no int64, raises
    InconsistentTables naming path:line."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = path.read_bytes()[: exc.start].count(b"\n") + 1
        raise InconsistentTables(f"{path}:{lineno}: not UTF-8 text") from None
    n_cols = len(bases)
    with _naming_bad_cells(path, bases):
        lines = [line for line in text.split("\n") if line and line[0] != "#"]
        if set(map(str.count, lines, repeat("\t"))) - {n_cols - 1}:
            raise ValueError("a row of another width")
        cells = "\t".join(lines).split("\t") if lines else []
        columns = [cells[i::n_cols] for i in range(n_cols)]
        return [
            column if base is None
            else np.fromiter(map(int, column, repeat(base)), np.int64, len(column))
            for column, base in zip(columns, bases)
        ]


def _codes(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values in order of first appearance, and each value's
    position among them."""
    distinct = tuple(dict.fromkeys(values))
    position = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(
        map(position.__getitem__, values), np.intp, len(values)
    )


@dataclass(frozen=True, eq=False)
class LineTable:
    """addr2line rows as columns. Row i is (binaries[binary_codes[i]],
    addresses[i], files[file_codes[i]], lines[i]); addresses and lines are
    int64."""

    binaries: tuple[str, ...]
    binary_codes: np.ndarray
    addresses: np.ndarray
    files: tuple[str, ...]
    file_codes: np.ndarray
    lines: np.ndarray

    @classmethod
    def from_columns(
        cls, binaries: Sequence[str], addresses: np.ndarray,
        files: Sequence[str], lines: np.ndarray,
    ) -> LineTable:
        return cls(*_codes(binaries), addresses, *_codes(files), lines)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, int, str, int]]) -> LineTable:
        binaries, addresses, files, lines = list(zip(*rows)) or [()] * 4
        return cls.from_columns(
            binaries, np.array(addresses, dtype=np.int64),
            files, np.array(lines, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[tuple[str, int, str, int]]:
        return zip(
            map(self.binaries.__getitem__, self.binary_codes.tolist()),
            self.addresses.tolist(),
            map(self.files.__getitem__, self.file_codes.tolist()),
            self.lines.tolist(),
        )

    def of_binaries(self, ids: Container[str]) -> LineTable:
        """The table of the rows whose binary is in ids, in row order."""
        listed = np.array([bid in ids for bid in self.binaries], dtype=bool)
        rows = listed[self.binary_codes]
        return LineTable(
            self.binaries, self.binary_codes[rows], self.addresses[rows],
            self.files, self.file_codes[rows], self.lines[rows],
        )


def read_addr2line(path: Path | str) -> LineTable:
    """Rows (binary_id, address, file, line); addresses are 0x hex."""
    return LineTable.from_columns(*_read_tsv(Path(path), (None, 16, None, 10)))


def read_binfuncs(path: Path | str) -> list[tuple[str, str, int, int]]:
    """Rows (binary_id, func_name, addr_start, addr_end), [start, end)."""
    bids, names, starts, ends = _read_tsv(Path(path), (None, None, 16, 16))
    return list(zip(bids, names, starts.tolist(), ends.tolist()))


def read_srcfuncs(path: Path | str) -> list[tuple[str, str, int, int]]:
    """Rows (file, func_name, line_start, line_end), closed line range."""
    files, names, starts, ends = _read_tsv(Path(path), (None, None, 10, 10))
    return list(zip(files, names, starts.tolist(), ends.tolist()))


def read_fcg(path: Path | str) -> list[tuple[str, str]]:
    return list(zip(*_read_tsv(Path(path), (None, None))))


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


def _place(
    points: np.ndarray,
    codes: np.ndarray,
    keys: Sequence[str],
    intervals: dict[str, list[tuple[int, int, int]]],
    below_end: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """For each point, the payload of the interval of its key that holds it,
    or -1. Intervals are (start, end, payload), and a point at or after the
    start is inside if below_end(point, end) holds. As with a bisect over
    the starts, a point can fall only in the last interval that starts at or
    before it, in start order and then in list order."""
    found = np.full(len(points), -1, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    bounds = np.cumsum(np.bincount(codes, minlength=len(keys)))
    for key, rows in zip(keys, np.split(order, bounds[:-1])):
        items = intervals.get(key)
        if not items or not len(rows):
            continue
        starts, ends, payloads = np.array(items, dtype=np.int64).T
        by_start = np.argsort(starts, kind="stable")
        starts, ends, payloads = starts[by_start], ends[by_start], payloads[by_start]
        at = points[rows]
        pos = np.searchsorted(starts, at, side="right") - 1
        inside = (pos >= 0) & below_end(at, ends[pos])
        found[rows[inside]] = payloads[pos[inside]]
    return found


def construct_mapping(
    addr2line: LineTable | Sequence[tuple[str, int, str, int]],
    binfuncs: Sequence[tuple[str, str, int, int]],
    srcfuncs: Sequence[tuple[str, str, int, int]],
) -> MappingResult:
    """Join line-table rows against the two function tables.

    Each binary function maps to the set of source functions owning any line
    its addresses map to. Rows whose address or line falls inside no known
    function are reported as inconsistencies, in row order, and skipped;
    binary functions with no resolvable rows at all are omitted from the
    result. A function listed twice under one (binary, name) is one
    function, with the address range of its last row. The rows may be a
    LineTable or (binary_id, address, file, line) tuples.
    """
    table = addr2line if isinstance(addr2line, LineTable) else LineTable.from_rows(addr2line)
    refs: dict[tuple[str, str], BinaryFunctionRef] = {}
    for bid, name, start, end in binfuncs:
        refs[(bid, name)] = BinaryFunctionRef(
            binary_id=bid, name=name, addr_start=start, addr_end=end
        )
    keys = sorted(refs)
    key_of = {key: i for i, key in enumerate(keys)}
    by_binary: dict[str, list[tuple[int, int, int]]] = {}
    for bid, name, start, end in binfuncs:
        by_binary.setdefault(bid, []).append((start, end, key_of[(bid, name)]))

    names = sorted({name for _, name, _, _ in srcfuncs})
    name_of = {name: i for i, name in enumerate(names)}
    by_file: dict[str, list[tuple[int, int, int]]] = {}
    for file, name, lstart, lend in srcfuncs:
        by_file.setdefault(file, []).append((lstart, lend, name_of[name]))

    # address ranges are half-open, line ranges closed
    func = _place(
        table.addresses, table.binary_codes, table.binaries, by_binary, np.less
    )
    src = _place(table.lines, table.file_codes, table.files, by_file, np.less_equal)

    resolved = (func >= 0) & (src >= 0)
    width = max(len(names), 1)
    pairs = np.unique(func[resolved] * width + src[resolved])
    sets: dict[int, list[str]] = {}
    for key, name in zip(*(part.tolist() for part in np.divmod(pairs, width))):
        sets.setdefault(key, []).append(names[name])
    mappings = [
        Binary2Source(function=refs[keys[key]], source_functions=frozenset(srcs))
        for key, srcs in sets.items()
    ]

    problems: list[tuple[str, str]] = []
    for row in np.flatnonzero(~resolved).tolist():
        if func[row] < 0:
            bid = table.binaries[table.binary_codes[row]]
            problems.append((UNMAPPED_ADDRESS, f"{bid}@{int(table.addresses[row]):#x}"))
        else:
            file = table.files[table.file_codes[row]]
            problems.append((UNMAPPED_LINE, f"{file}:{int(table.lines[row])}"))
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
