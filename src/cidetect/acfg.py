"""Attributed control-flow graphs and bag-of-words node features.

A function is an attributed CFG: basic blocks carrying instruction sequences,
directed edges for control flow, a single entry block. Node features are
opcode count vectors over a corpus-level vocabulary with a trailing
out-of-vocabulary slot.

A graph is columnar, in memory as in its JSON record: one column of block
ids and one of block sizes, and one column each of lowercased opcodes,
addresses and operand tuples over all the function's instructions, block i
owning the next block_sizes[i] of them. There is no object per block or per
instruction; the model reads only the opcode column, the block sizes and
the edges. build_acfg reads a record and acfg_to_record writes one.

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
from itertools import accumulate, chain, repeat
from operator import itemgetter, lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import EmptyCorpus, MalformedGraph, ValidationError

T = TypeVar("T")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AttributedCFG:
    """Immutable function graph, blocks sorted by id. Block i owns the next
    block_sizes[i] entries of the instruction columns: instruction j is
    (insn_ops[j], insn_addrs[j], insn_args[j])."""

    function_name: str
    block_ids: tuple[int, ...]
    block_sizes: tuple[int, ...]
    insn_ops: tuple[str, ...]
    insn_addrs: tuple[int, ...]
    insn_args: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]
    entry: int

    @cached_property
    def node_index(self) -> dict[int, int]:
        return {block_id: pos for pos, block_id in enumerate(self.block_ids)}

    @property
    def instruction_count(self) -> int:
        return len(self.insn_ops)

    def validate(self) -> None:
        """Raise MalformedGraph unless every structural invariant holds."""
        _check_columns(self)
        ids = self.block_ids
        _check_topology(self.function_name, ids, self.edges, self.entry)
        _check_blocks(self)
        if _reachable(set(ids), self.edges, self.entry) != set(ids):
            raise MalformedGraph(
                f"{self.function_name!r}: unreachable blocks present"
            )


def _check_columns(graph: AttributedCFG) -> None:
    """One size per block id, one opcode, address and operand tuple per
    instruction, and sizes >= 0 that sum to the instruction count."""
    ids, sizes, n = graph.block_ids, graph.block_sizes, len(graph.insn_ops)
    addrs, args = graph.insn_addrs, graph.insn_args
    if not (len(sizes) == len(ids) and len(addrs) == len(args) == n == sum(sizes)
            and min(sizes, default=0) >= 0):
        raise MalformedGraph(
            f"{graph.function_name!r}: columns that do not line up: "
            f"{len(ids)} block ids, {len(sizes)} block sizes (each >= 0) that "
            f"sum to {sum(sizes)}, {n} ops, {len(addrs)} addrs and {len(args)} args"
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


def _check_blocks(graph: AttributedCFG) -> None:
    """No empty block or opcode, addresses strictly increasing within a
    block and unique within the function; the first defect in block order
    is the one named."""
    name, ops, addrs = graph.function_name, graph.insn_ops, graph.insn_addrs
    bounds = list(accumulate(graph.block_sizes, initial=0))
    for block_id, start, stop in zip(graph.block_ids, bounds, bounds[1:]):
        if start == stop:
            raise MalformedGraph(f"{name!r}: block {block_id} is empty")
        if "" in ops[start:stop]:
            raise MalformedGraph(f"{name!r}: empty opcode in block {block_id}")
        block_addrs = addrs[start:stop]
        if not all(map(lt, block_addrs, block_addrs[1:])):
            raise MalformedGraph(
                f"{name!r}: addresses not strictly increasing in block {block_id}"
            )
    if len(set(addrs)) != len(addrs):
        seen: set[int] = set()
        dup = next(a for a in addrs if a in seen or seen.add(a))
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
    writes them, holds every per-block invariant at once and is kept as it
    is. Any other record is reordered by block id and checked block by
    block, by the rules validate() applies.
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
    graph = AttributedCFG(
        function_name=name,
        block_ids=tuple(ids),
        block_sizes=tuple(sizes),
        insn_ops=tuple(map(str.lower, ops)),
        insn_addrs=tuple(addrs),
        insn_args=tuple(map(tuple, args)),
        edges=tuple(sorted(edge_set)),
        entry=entry,
    )
    _check_columns(graph)
    id_set = set(ids)
    if not (
        all(map(lt, ids, ids[1:]))
        and all(map(lt, addrs, addrs[1:]))
        and all(sizes)
        and "" not in ops
        and entry in id_set
        and id_set.issuperset(chain.from_iterable(edge_set))
    ):
        # the rules of validate(), which name the first defect in id order;
        # the topology check sees the dangling edges that _subgraph drops
        edges = graph.edges
        graph = _subgraph(graph, sorted(range(len(ids)), key=ids.__getitem__))
        _check_topology(name, graph.block_ids, edges, entry)
        _check_blocks(graph)
    keep = _reachable(id_set, graph.edges, entry)
    if len(keep) < len(id_set):
        logger.warning(
            "%s: dropped %d unreachable block(s)", name, len(id_set) - len(keep)
        )
        graph = _subgraph(
            graph, [pos for pos, id_ in enumerate(graph.block_ids) if id_ in keep]
        )
    # every invariant validate() checks holds by construction from here
    return graph


def _subgraph(graph: AttributedCFG, positions: Sequence[int]) -> AttributedCFG:
    """The blocks of graph at the given positions, in that order, with
    their instructions and the edges between them."""
    bounds = list(accumulate(graph.block_sizes, initial=0))
    insns = [j for pos in positions for j in range(bounds[pos], bounds[pos + 1])]
    ids = [graph.block_ids[pos] for pos in positions]
    kept = set(ids)
    return replace(
        graph,
        block_ids=tuple(ids),
        block_sizes=tuple(graph.block_sizes[pos] for pos in positions),
        insn_ops=tuple(graph.insn_ops[j] for j in insns),
        insn_addrs=tuple(graph.insn_addrs[j] for j in insns),
        insn_args=tuple(graph.insn_args[j] for j in insns),
        edges=tuple(e for e in graph.edges if e[0] in kept and e[1] in kept),
    )


def acfg_to_record(graph: AttributedCFG) -> dict:
    """The function record of graph, in the layout build_acfg reads."""
    return {
        "name": graph.function_name,
        "entry": graph.entry,
        "edges": [list(e) for e in graph.edges],
        "block_ids": list(graph.block_ids),
        "block_sizes": list(graph.block_sizes),
        "insn_ops": list(graph.insn_ops),
        "insn_addrs": list(graph.insn_addrs),
        "insn_args": [list(args) for args in graph.insn_args],
    }


def strip_name(graph: AttributedCFG) -> AttributedCFG:
    """Drop the symbol name (model inputs must not see names)."""
    return replace(graph, function_name="")


def parse_record(
    line: bytes,
    convert: Callable[[dict], T],
    where: str,
    error: type[ValidationError] = ValidationError,
) -> T:
    """convert(record) of one JSONL line of UTF-8 bytes. A line that is not
    UTF-8 or JSON, or whose record convert rejects, raises `error` naming
    `where` (path:line)."""
    try:
        # json.loads decodes bytes by a slower path than str.decode
        return convert(json.loads(line.decode("utf-8")))
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{where}: {type(exc).__name__}: {exc}") from None


def read_records(
    path: Path | str,
    convert: Callable[[dict], T],
    error: type[ValidationError] = ValidationError,
) -> Iterator[T]:
    """convert(record) per non-blank line of a JSONL file, through
    parse_record. The file is read as bytes, split at newline bytes only,
    and parse_record decodes each line, so a line that is not UTF-8 is
    named by path:line as any other bad record is."""
    with Path(path).open("rb") as handle:
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
    """How often each opcode occurs in the graphs: the one counting rule of
    the vocabulary, whether the counts come from graphs in memory or from
    the corpus manifest that synth wrote from them."""
    return Counter(chain.from_iterable(graph.insn_ops for graph in graphs))


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
    n = len(graph.block_ids)
    ops = graph.insn_ops
    # each opcode's slot in the flattened matrix: its block's row offset
    # plus its vocabulary slot
    flat = np.arange(0, n * dim, dim).repeat(graph.block_sizes)
    flat += np.fromiter(map(slot, ops, repeat(unk)), dtype=np.intp, count=len(ops))
    counts = np.bincount(flat, minlength=n * dim)
    return counts.reshape(n, dim).astype(np.float64)


def vocabulary_to_json(vocab: OpcodeVocabulary) -> dict:
    return {"key_sequence": list(vocab.key_sequence)}


def vocabulary_from_json(payload: dict) -> OpcodeVocabulary:
    """A key_sequence that is not a list of distinct strings: ValueError."""
    keys = payload["key_sequence"]
    if type(keys) is not list or not _only(keys, str):
        raise ValueError("key_sequence must be a list of strings")
    return OpcodeVocabulary(key_sequence=tuple(keys))
