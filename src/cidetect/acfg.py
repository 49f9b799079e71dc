"""Attributed control-flow graphs and bag-of-words node features.

A function is an attributed CFG: basic blocks carrying instruction sequences,
directed edges for control flow, a single entry block. Node features are
opcode count vectors over a corpus-level vocabulary with a trailing
out-of-vocabulary slot.

A basic block is columnar: three equal-length tuples hold, per instruction,
its lowercased opcode, its address and its operand tuple. There is no object
per instruction; the model reads only the opcode column and the edges. A
function record, the JSON form of a graph, holds the same columns over all
its blocks at once, with each block's size (build_acfg, acfg_to_record).

The toolkit reads its JSON files here, with read_records (JSONL: graphs,
pairs, scores) or read_json (one object per file); a bad one raises an
error naming the file, and the line of a JSONL record. It writes them here
too, with write_records and write_json, so each kind has one format; every
write goes through write_atomic, a temp file moved over the final name.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter, itemgetter, lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

from .errors import EmptyCorpus, MalformedGraph, ValidationError

T = TypeVar("T")

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class BasicBlock:
    """One block as columns: instruction i is (opcodes[i], addresses[i],
    operands[i])."""

    id: int
    opcodes: tuple[str, ...]
    addresses: tuple[int, ...]
    operands: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class AttributedCFG:
    """Immutable function graph. Nodes are stored sorted by block id."""

    function_name: str
    nodes: tuple[BasicBlock, ...]
    edges: tuple[tuple[int, int], ...]
    entry: int

    @cached_property
    def node_index(self) -> dict[int, int]:
        return {block.id: pos for pos, block in enumerate(self.nodes)}

    def block(self, block_id: int) -> BasicBlock:
        return self.nodes[self.node_index[block_id]]

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(block.id for block in self.nodes)

    @property
    def instruction_count(self) -> int:
        return sum(len(block.opcodes) for block in self.nodes)

    def validate(self) -> None:
        """Raise MalformedGraph unless every structural invariant holds."""
        ids = self.node_ids
        _check_topology(self.function_name, ids, self.edges, self.entry)
        _check_blocks(self.function_name, self.nodes)
        if _reachable(set(ids), self.edges, self.entry) != set(ids):
            raise MalformedGraph(
                f"{self.function_name!r}: unreachable blocks present"
            )


def _check_topology(
    name: str,
    ids: tuple[int, ...],
    edges: Iterable[tuple[int, int]],
    entry: int,
) -> None:
    """Block ids present, unique and sorted; entry and edge ends are blocks."""
    if not ids:
        raise MalformedGraph(f"{name!r}: no basic blocks")
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise MalformedGraph(f"{name!r}: duplicate block ids")
    if list(ids) != sorted(ids):
        raise MalformedGraph(f"{name!r}: nodes not sorted by id")
    if entry not in id_set:
        raise MalformedGraph(f"{name!r}: entry {entry} is not a block")
    for src, dst in edges:
        if src not in id_set or dst not in id_set:
            raise MalformedGraph(f"{name!r}: dangling edge ({src}, {dst})")


def _check_blocks(name: str, blocks: Iterable[BasicBlock]) -> None:
    """Non-empty equal-length columns, no empty opcode, addresses strictly
    increasing within a block and unique within the function."""
    all_addrs: list[int] = []
    for block in blocks:
        n = len(block.opcodes)
        if not n:
            raise MalformedGraph(f"{name!r}: block {block.id} is empty")
        if len(block.addresses) != n or len(block.operands) != n:
            raise MalformedGraph(
                f"{name!r}: block {block.id} has columns of unequal length"
            )
        if "" in block.opcodes:
            raise MalformedGraph(f"{name!r}: empty opcode in block {block.id}")
        addrs = block.addresses
        if not all(map(lt, addrs, addrs[1:])):
            raise MalformedGraph(
                f"{name!r}: addresses not strictly increasing in block {block.id}"
            )
        all_addrs.extend(addrs)
    if len(set(all_addrs)) != len(all_addrs):
        seen: set[int] = set()
        dup = next(a for a in all_addrs if a in seen or seen.add(a))
        raise MalformedGraph(f"{name!r}: duplicate address {dup:#x}")


def _reachable(
    ids: set[int], edges: Iterable[tuple[int, int]], entry: int
) -> set[int]:
    succ: dict[int, list[int]] = {i: [] for i in ids}
    for src, dst in edges:
        succ[src].append(dst)
    seen = {entry}
    stack = [entry]
    while stack:
        node = stack.pop()
        for nxt in succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _only(values: Iterable, *kinds: type) -> bool:
    """True when every value's exact type is one of `kinds` (so a bool is
    no int)."""
    return set(map(type, values)) <= set(kinds)


_OPCODES = attrgetter("opcodes")

# in the order a missing key is reported, the name first
_RECORD_KEYS = ("name", "entry", "edges", "block_ids", "block_sizes",
                "insn_ops", "insn_addrs", "insn_args")
_RECORD = itemgetter(*_RECORD_KEYS)


def build_acfg(record: dict) -> AttributedCFG:
    """Construct a validated graph from one function record, which holds
    its blocks and instructions as columns, block i the next block_sizes[i]
    instructions. The types are enforced:
      {"name": str, "entry": int, "edges": [[int, int], ...],
       "block_ids": [int, ...], "block_sizes": [int, ...],
       "insn_ops": [str, ...], "insn_addrs": [int, ...],
       "insn_args": [[str, ...], ...]}

    Opcodes are lowercased, operands kept verbatim, duplicate edges merged.
    Blocks unreachable from the entry are dropped (with a warning); an entry
    or edge referencing a missing block is an error. Any defect raises
    MalformedGraph, and a record of the earlier layout, one object per
    instruction under "blocks", is refused naming the layout expected.

    A record whose block ids and addresses both strictly increase, as synth
    writes them, holds every per-block invariant at once. Any other record
    is checked block by block, by the rules validate() applies.
    """
    try:
        name, entry, raw_edges, ids, sizes, ops, addrs, args = _RECORD(record)
    except KeyError as exc:
        if "blocks" in record:
            raise MalformedGraph(
                "bad record: instruction objects under 'blocks', the layout "
                "before format version 3; a function record holds its "
                f"instructions as the columns {', '.join(_RECORD_KEYS[3:])}"
            ) from None
        raise MalformedGraph(f"bad record: missing key {exc}") from None
    except TypeError:
        raise MalformedGraph("bad record: not a JSON object") from None
    if type(name) is not str:
        raise MalformedGraph("bad record: name must be a string")
    if type(entry) is not int:
        raise MalformedGraph(f"{name!r}: entry must be an integer")
    if not _only((raw_edges, ids, sizes, ops, addrs, args), list):
        raise MalformedGraph(f"{name!r}: edges and columns must be lists")
    if not ids:
        raise MalformedGraph(f"{name!r}: no basic blocks")
    try:
        edge_set = set(map(tuple, raw_edges))
        if set(map(len, edge_set)) - {2}:
            raise ValueError("an edge is not two ends")
    except (TypeError, ValueError) as exc:
        raise MalformedGraph(
            f"{name!r}: edges must be [src, dst] pairs: {exc}"
        ) from None
    if not _only(chain(ids, sizes, addrs, chain.from_iterable(edge_set)), int):
        raise MalformedGraph(
            f"{name!r}: block ids, block sizes, addresses and edge ends must "
            "be integers"
        )
    if not _only(ops, str):
        raise MalformedGraph(f"{name!r}: opcodes must be strings")
    if not (_only(args, list, tuple) and _only(chain.from_iterable(args), str)):
        raise MalformedGraph(f"{name!r}: args must be lists of strings")
    n = len(ops)
    if not (len(sizes) == len(ids) and len(addrs) == len(args) == n == sum(sizes)
            and min(sizes) >= 0):
        raise MalformedGraph(
            f"{name!r}: columns that do not line up: {len(ids)} block ids, "
            f"{len(sizes)} block sizes (each >= 0) that sum to {sum(sizes)}, "
            f"{n} ops, {len(addrs)} addrs and {len(args)} args"
        )

    lowered = tuple(map(str.lower, ops))
    addrs = tuple(addrs)
    operands = tuple(map(tuple, args))
    bounds = list(accumulate(sizes, initial=0))
    blocks = [
        BasicBlock(id_, lowered[start:stop], addrs[start:stop], operands[start:stop])
        for id_, start, stop in zip(ids, bounds, bounds[1:])
    ]
    id_set = set(ids)
    edges = sorted(edge_set)
    if not (
        all(map(lt, ids, ids[1:]))
        and all(map(lt, addrs, addrs[1:]))
        and all(sizes)
        and "" not in ops
        and entry in id_set
        and id_set.issuperset(chain.from_iterable(edges))
    ):
        # the rules of validate(), which name the first defect in id order
        blocks.sort(key=attrgetter("id"))
        _check_topology(name, tuple(block.id for block in blocks), edges, entry)
        _check_blocks(name, blocks)
    keep = _reachable(id_set, edges, entry)
    if len(keep) < len(blocks):
        logger.warning(
            "%s: dropped %d unreachable block(s)", name, len(blocks) - len(keep)
        )
        blocks = [block for block in blocks if block.id in keep]
        edges = [e for e in edges if e[0] in keep and e[1] in keep]
    # every invariant validate() checks holds by construction from here
    return AttributedCFG(
        function_name=name, nodes=tuple(blocks), edges=tuple(edges), entry=entry
    )


def acfg_to_record(graph: AttributedCFG) -> dict:
    """The function record of graph, in the layout build_acfg reads."""
    nodes = graph.nodes
    return {
        "name": graph.function_name,
        "entry": graph.entry,
        "edges": [list(e) for e in graph.edges],
        "block_ids": [block.id for block in nodes],
        "block_sizes": [len(block.opcodes) for block in nodes],
        "insn_ops": [op for block in nodes for op in block.opcodes],
        "insn_addrs": [addr for block in nodes for addr in block.addresses],
        "insn_args": [list(args) for block in nodes for args in block.operands],
    }


def strip_name(graph: AttributedCFG) -> AttributedCFG:
    """Drop the symbol name (model inputs must not see names)."""
    return replace(graph, function_name="")


def parse_record(
    line: str | bytes,
    convert: Callable[[dict], T],
    where: str,
    error: type[ValidationError] = ValidationError,
) -> T:
    """convert(record) of one JSONL line, text or UTF-8 bytes. A line that
    is not UTF-8 or JSON, or whose record convert rejects, raises `error`
    naming `where` (path:line)."""
    try:
        # json.loads decodes bytes by a slower path than str.decode
        text = line.decode("utf-8") if isinstance(line, bytes) else line
        return convert(json.loads(text))
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{where}: {type(exc).__name__}: {exc}") from None


def read_records(
    path: Path | str,
    convert: Callable[[dict], T],
    error: type[ValidationError] = ValidationError,
) -> Iterator[T]:
    """convert(record) per non-blank line of a JSONL file, through
    parse_record."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.strip():
                yield parse_record(line, convert, f"{path}:{lineno}", error)


def read_json(
    path: Path | str,
    keys: Iterable[str],
    error: type[ValidationError] = ValidationError,
) -> dict:
    """The JSON object of a whole file, which must hold every one of keys.
    A file that is not JSON, or not an object with those keys, raises
    `error` naming the path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: not JSON: {exc}") from None
    fields = payload if isinstance(payload, dict) else {}
    missing = set(keys) - set(fields)
    if missing:
        raise error(f"{path} lacks {', '.join(sorted(missing))}")
    return payload


def write_atomic(path: Path | str, data: bytes) -> None:
    """Write data to path through a temp file in the same directory that
    os.replace then moves over path, so path holds either its old bytes or
    all of data, never a part: a write that fails, or a process killed
    while writing, leaves no truncated file under the final name. An
    OSError names path, not the temp file."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):
            exc.filename, exc.filename2 = str(path), None
        raise


def write_records(path: Path | str, records: Iterable) -> bytes:
    """One JSON record per line, keys sorted: the JSONL format that
    read_records reads. Returns the bytes written."""
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    data = text.encode("utf-8")
    write_atomic(path, data)
    return data


def json_text(payload: object) -> str:
    """The format of every whole-file JSON value the toolkit writes: keys
    sorted, indented one space, with a final newline."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_json(path: Path | str, payload: object) -> None:
    write_atomic(path, json_text(payload).encode("utf-8"))


def iter_function_records(path: Path | str) -> Iterator[dict]:
    """The raw function records of a JSONL file, one dict per line."""
    return read_records(path, lambda record: record, MalformedGraph)


def read_graphs(path: Path | str) -> Iterator[AttributedCFG]:
    """The graphs of a JSONL file; a bad record raises MalformedGraph
    naming path:line."""
    return read_records(path, build_acfg, MalformedGraph)


def write_function_records(path: Path | str, graphs: Iterable[AttributedCFG]) -> bytes:
    return write_records(path, map(acfg_to_record, graphs))


@dataclass(frozen=True)
class OpcodeVocabulary:
    """Opcode to feature-slot mapping; the last slot is out-of-vocabulary."""

    key_sequence: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.key_sequence)) != len(self.key_sequence):
            raise ValueError("vocabulary keys must be unique")

    @cached_property
    def index(self) -> dict[str, int]:
        return {op: i for i, op in enumerate(self.key_sequence)}

    @property
    def unk_index(self) -> int:
        return len(self.key_sequence)

    @property
    def feature_dim(self) -> int:
        return len(self.key_sequence) + 1

    def slot(self, opcode: str) -> int:
        return self.index.get(opcode, self.unk_index)


def count_opcodes(graphs: Iterable[AttributedCFG]) -> Counter[str]:
    """How often each opcode occurs in the graphs' blocks: the one counting
    rule of the vocabulary, whether the counts come from graphs in memory or
    from the corpus manifest that synth wrote from them."""
    return Counter(
        chain.from_iterable(block.opcodes for graph in graphs for block in graph.nodes)
    )


def build_vocabulary(counts: Mapping[str, int], max_size: int) -> OpcodeVocabulary:
    """The max_size most frequent opcodes of counts (count_opcodes' result,
    or a sum of them), most frequent first; frequency ties break
    lexicographically."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if not counts:
        raise EmptyCorpus("no opcodes in corpus")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return OpcodeVocabulary(key_sequence=tuple(op for op, _ in ranked[:max_size]))


def featurize_graph(graph: AttributedCFG, vocab: OpcodeVocabulary) -> np.ndarray:
    """Node feature matrix (n_nodes, feature_dim), rows in node-id order:
    row i counts block i's opcodes per vocabulary slot, the last slot
    collecting out-of-vocabulary opcodes."""
    dim = vocab.feature_dim
    slot = vocab.index.get
    unk = vocab.unk_index
    n = len(graph.nodes)
    # each opcode's slot in the flattened matrix: its row's offset plus its
    # vocabulary slot
    flat = [
        offset + slot(op, unk)
        for offset, opcodes in zip(range(0, n * dim, dim), map(_OPCODES, graph.nodes))
        for op in opcodes
    ]
    counts = np.bincount(np.asarray(flat, dtype=np.intp), minlength=n * dim)
    return counts.reshape(n, dim).astype(np.float64)


def vocabulary_to_json(vocab: OpcodeVocabulary) -> dict:
    return {"key_sequence": list(vocab.key_sequence)}


def vocabulary_from_json(payload: dict) -> OpcodeVocabulary:
    """A key_sequence that is not a list of distinct strings: ValueError."""
    keys = payload["key_sequence"]
    if type(keys) is not list or not _only(keys, str):
        raise ValueError("key_sequence must be a list of strings")
    return OpcodeVocabulary(key_sequence=tuple(keys))
