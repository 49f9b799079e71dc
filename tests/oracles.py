"""Frozen copies of earlier implementations, kept as test oracles.

`build_acfg` is the one-object-per-instruction parser that the columnar
`cidetect.acfg.build_acfg` replaced, together with the classes it built.
`columnar_build_acfg`, with `_columns` and the checks it ran
(`_check_topology`, `_check_blocks`, `_only`), is that columnar parser
before it became one pass over flat instruction columns, and
`featurize_graph` the per-block featurizer of that time.
`one_pass_build_acfg` is that one pass, the last parser of records that held
one object per instruction under "blocks", and `acfg_to_object_record` the
writer of that layout, before records held instruction columns. These build
`ColumnarBlock` and `ColumnarCFG`, the library's graph classes (then named
`BasicBlock` and `AttributedCFG`) before a graph held the instruction
columns of its record, one object per block; `acfg_to_record` is the writer
of columnar records from them, and `inline_transform`, with
`_default_prov`, the splice over them, which kept provenance per block.
`generate_negative_pairs` is the
sampler that sorted a complement of the cross-inlining universe for every
bridge, with `_lookup`, which stripped a fresh copy of the graph for every
pair. `_is_isolated` is the full scan
of the call graph's edges that the bridge index made for every (mapping,
bridge) to count isolated bridges. `grad_step`, `pair_loss_and_grads` and
`_adam_update`, with the dict-of-tensors `TrainState` they used, are the
training step before flat parameter vectors: one gradient dict per pair,
two forward passes per pair and an Adam loop over the tensors; they run on
the library's own forward and backward passes. `_validation_auc` is the
validation score before it moved onto the batched inference engine: it
embedded one graph at a time with `embed_prepared` and ranked the pairs by
`-euclidean_distance`. `_sample_pairs` is the command line's own share,
seed and shuffle logic before `pairgen.sample_pairs` took it over.
`read_addr2line`, `read_binfuncs`, `read_srcfuncs` and `read_fcg` are the
row-by-row table readers, and `construct_mapping` with its `_IntervalIndex`
the one-bisect-per-row join, that the columnar line table replaced;
`build_index_from_corpus` runs them as `label` did, without its warnings.
All are kept verbatim; the tests require the library's versions to produce
the same graphs, feature matrices, pairs, counts, training states,
validation AUCs, mappings and bridge indexes.
"""

from __future__ import annotations

import contextlib
import functools
import logging
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter, itemgetter, lt
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from cidetect import detector, labeling, pairgen, synth
from cidetect.acfg import OpcodeVocabulary, strip_name
from cidetect.errors import (
    Exhausted, InconsistentTables, InvalidLabel, MalformedGraph, NonFiniteGradient,
    SiteNotFound,
)
from cidetect.gnn import (
    ModelConfig,
    ModelParams,
    PreparedGraph,
    PreparedPair,
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    _backward,
    _forward,
    embed_prepared,
    euclidean_distance,
)
from cidetect.evaluation import auc
from cidetect.labeling import BridgeIndex, Pattern, SourceFCG
from cidetect.pairgen import (
    DATASET_INLINE,
    DATASET_NOINLINE,
    FunctionPair,
    GraphRef,
    GraphStore,
)

logger = logging.getLogger("cidetect.acfg")


@dataclass(frozen=True)
class Instruction:
    address: int
    opcode: str
    operands: tuple[str, ...] = ()


@dataclass(frozen=True)
class BasicBlock:
    id: int
    instructions: tuple[Instruction, ...]

    @property
    def opcodes(self) -> tuple[str, ...]:
        return tuple(ins.opcode for ins in self.instructions)


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
        return sum(len(block.instructions) for block in self.nodes)

    def opcode_counts(self) -> Counter[str]:
        counts: Counter[str] = Counter()
        for block in self.nodes:
            counts.update(block.opcodes)
        return counts

    def validate(self) -> None:
        """Raise MalformedGraph unless every structural invariant holds."""
        if not self.nodes:
            raise MalformedGraph(f"{self.function_name!r}: no basic blocks")
        ids = [block.id for block in self.nodes]
        if len(set(ids)) != len(ids):
            raise MalformedGraph(f"{self.function_name!r}: duplicate block ids")
        if ids != sorted(ids):
            raise MalformedGraph(f"{self.function_name!r}: nodes not sorted by id")
        id_set = set(ids)
        if self.entry not in id_set:
            raise MalformedGraph(
                f"{self.function_name!r}: entry {self.entry} is not a block"
            )
        seen_addrs: set[int] = set()
        for block in self.nodes:
            if not block.instructions:
                raise MalformedGraph(
                    f"{self.function_name!r}: block {block.id} is empty"
                )
            prev = None
            for ins in block.instructions:
                if not ins.opcode:
                    raise MalformedGraph(
                        f"{self.function_name!r}: empty opcode in block {block.id}"
                    )
                if prev is not None and ins.address <= prev:
                    raise MalformedGraph(
                        f"{self.function_name!r}: addresses not strictly "
                        f"increasing in block {block.id}"
                    )
                if ins.address in seen_addrs:
                    raise MalformedGraph(
                        f"{self.function_name!r}: duplicate address "
                        f"{ins.address:#x}"
                    )
                seen_addrs.add(ins.address)
                prev = ins.address
        for src, dst in self.edges:
            if src not in id_set or dst not in id_set:
                raise MalformedGraph(
                    f"{self.function_name!r}: dangling edge ({src}, {dst})"
                )
        if not _reachable(id_set, self.edges, self.entry) == id_set:
            raise MalformedGraph(
                f"{self.function_name!r}: unreachable blocks present"
            )


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


def build_acfg(record: dict) -> AttributedCFG:
    """Construct a validated graph from one ingestion record.

    Record shape:
      {"name": str, "entry": int,
       "blocks": [{"id": int, "insns": [{"addr": int, "op": str, "args": [...]}]}],
       "edges": [[int, int], ...]}

    Opcodes are lowercased, operands kept verbatim. Blocks unreachable from
    the entry are dropped (with a warning); an entry or edge referencing a
    missing block is an error.
    """
    try:
        name = str(record["name"])
        raw_blocks = record["blocks"]
        raw_edges = record["edges"]
        entry = int(record["entry"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGraph(f"bad record: {exc}") from exc
    if not raw_blocks:
        raise MalformedGraph(f"{name!r}: no basic blocks")

    blocks: dict[int, BasicBlock] = {}
    for raw in raw_blocks:
        block_id = int(raw["id"])
        if block_id in blocks:
            raise MalformedGraph(f"{name!r}: duplicate block id {block_id}")
        insns = tuple(
            Instruction(
                address=int(ins["addr"]),
                opcode=str(ins["op"]).lower(),
                operands=tuple(str(a) for a in ins.get("args", ())),
            )
            for ins in raw["insns"]
        )
        if not insns:
            raise MalformedGraph(f"{name!r}: block {block_id} is empty")
        blocks[block_id] = BasicBlock(id=block_id, instructions=insns)

    if entry not in blocks:
        raise MalformedGraph(f"{name!r}: entry {entry} is not a block")
    edge_set: set[tuple[int, int]] = set()
    for raw_edge in raw_edges:
        src, dst = int(raw_edge[0]), int(raw_edge[1])
        if src not in blocks or dst not in blocks:
            raise MalformedGraph(f"{name!r}: dangling edge ({src}, {dst})")
        edge_set.add((src, dst))

    keep = _reachable(set(blocks), edge_set, entry)
    dropped = len(blocks) - len(keep)
    if dropped:
        logger.warning("%s: dropped %d unreachable block(s)", name, dropped)
    nodes = tuple(blocks[i] for i in sorted(keep))
    edges = tuple(sorted(e for e in edge_set if e[0] in keep and e[1] in keep))
    graph = AttributedCFG(function_name=name, nodes=nodes, edges=edges, entry=entry)
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# The graph classes of blocks as columns, before a graph held the
# instruction columns of its record, and the record writer and the splice
# of that time


@dataclass(frozen=True, slots=True)
class ColumnarBlock:
    """One block as columns: instruction i is (opcodes[i], addresses[i],
    operands[i])."""

    id: int
    opcodes: tuple[str, ...]
    addresses: tuple[int, ...]
    operands: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ColumnarCFG:
    """Immutable function graph. Nodes are stored sorted by block id."""

    function_name: str
    nodes: tuple[ColumnarBlock, ...]
    edges: tuple[tuple[int, int], ...]
    entry: int

    @cached_property
    def node_index(self) -> dict[int, int]:
        return {block.id: pos for pos, block in enumerate(self.nodes)}

    def block(self, block_id: int) -> ColumnarBlock:
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


def acfg_to_record(graph: ColumnarCFG) -> dict:
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


CALL_OPCODE = "call"

# Provenance: per-node tuples of per-instruction tags. The generator tags
# every instruction with (source function, source line).
Prov = dict[int, tuple]


def _default_prov(graph: ColumnarCFG) -> Prov:
    return {
        block.id: (graph.function_name,) * len(block.opcodes)
        for block in graph.nodes
    }


def inline_transform(
    caller: ColumnarCFG,
    callee: ColumnarCFG,
    call_site: int,
    caller_prov: Prov | None = None,
    callee_prov: Prov | None = None,
) -> tuple[ColumnarCFG, Prov]:
    """Splice the callee body into the caller at one call site.

    The call site block must end with a call instruction naming the callee
    and carry at least one instruction before it. The call goes away, the
    prefix jumps to the (renumbered) callee entry, and every callee exit
    inherits the call site's original successors. Addresses are reassigned
    sequentially afterwards; provenance tags follow their instructions.
    """
    caller_prov = _default_prov(caller) if caller_prov is None else caller_prov
    callee_prov = _default_prov(callee) if callee_prov is None else callee_prov
    if call_site not in caller.node_index:
        raise SiteNotFound(f"no block {call_site} in {caller.function_name!r}")
    site_block = caller.block(call_site)
    last_args = site_block.operands[-1]
    if site_block.opcodes[-1] != CALL_OPCODE or not last_args or (
        last_args[0] != callee.function_name
    ):
        raise SiteNotFound(
            f"block {call_site} of {caller.function_name!r} does not end "
            f"with a call to {callee.function_name!r}"
        )
    if len(site_block.opcodes) < 2:
        raise MalformedGraph(
            f"call site {call_site} has no instructions besides the call"
        )

    offset = max(caller.node_ids) + 1
    remap = {
        old: offset + rank for rank, old in enumerate(sorted(callee.node_ids))
    }
    callee_exits = sorted(
        set(callee.node_ids) - {src for src, _ in callee.edges}
    )
    site_successors = sorted(
        dst for src, dst in caller.edges if src == call_site
    )

    # block id -> (opcodes, operands); addresses are reassigned below
    blocks: dict[int, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]] = {}
    prov: Prov = {}
    for block in caller.nodes:
        ops, args = block.opcodes, block.operands
        tags = tuple(caller_prov[block.id])
        if block.id == call_site:
            ops, args, tags = ops[:-1], args[:-1], tags[:-1]
        blocks[block.id] = (ops, args)
        prov[block.id] = tags
    for block in callee.nodes:
        new_id = remap[block.id]
        blocks[new_id] = (block.opcodes, block.operands)
        prov[new_id] = tuple(callee_prov[block.id])

    edges: set[tuple[int, int]] = set()
    for src, dst in caller.edges:
        if src != call_site:
            edges.add((src, dst))
    edges.add((call_site, remap[callee.entry]))
    for src, dst in callee.edges:
        edges.add((remap[src], remap[dst]))
    for exit_id in callee_exits:
        for successor in site_successors:
            edges.add((remap[exit_id], successor))

    nodes = []
    cursor = 0
    for block_id in sorted(blocks):
        ops, args = blocks[block_id]
        nodes.append(
            ColumnarBlock(
                id=block_id,
                opcodes=ops,
                addresses=tuple(range(4 * cursor, 4 * (cursor + len(ops)), 4)),
                operands=args,
            )
        )
        cursor += len(ops)
    graph = ColumnarCFG(
        function_name=caller.function_name,
        nodes=tuple(nodes),
        edges=tuple(sorted(edges)),
        entry=caller.entry,
    )
    graph.validate()
    return graph, prov


# ---------------------------------------------------------------------------
# The columnar parser and featurizer, before the one-pass build


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


def _check_blocks(name: str, blocks: Iterable[ColumnarBlock]) -> None:
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


def _only(values: Iterable, *kinds: type) -> bool:
    """True when every value's exact type is one of `kinds` (so a bool is
    no int)."""
    return set(map(type, values)) <= set(kinds)


_OP_ADDR = itemgetter("op", "addr")


def _columns(insns: list) -> tuple[tuple, tuple, tuple]:
    """Raw (opcodes, addresses, args) columns of one block's instructions."""
    if type(insns) is not list:
        raise TypeError("insns must be a list")
    if not insns:
        return (), (), ()
    ops, addrs = zip(*map(_OP_ADDR, insns))
    return ops, addrs, tuple([ins.get("args", ()) for ins in insns])


def columnar_build_acfg(record: dict) -> ColumnarCFG:
    """Construct a validated graph from one ingestion record.

    Record shape, with the types enforced:
      {"name": str, "entry": int,
       "blocks": [{"id": int, "insns": [{"addr": int, "op": str,
                                          "args": [str, ...]}]}],
       "edges": [[int, int], ...]}

    "args" may be left out. Opcodes are lowercased, operands kept verbatim,
    duplicate edges merged. Blocks unreachable from the entry are dropped
    (with a warning); an entry or edge referencing a missing block is an
    error. Any defect raises MalformedGraph.
    """
    try:
        name = record["name"]
        raw_blocks = record["blocks"]
        raw_edges = record["edges"]
        entry = record["entry"]
    except KeyError as exc:
        raise MalformedGraph(f"bad record: missing key {exc}") from None
    except TypeError:
        raise MalformedGraph("bad record: not a JSON object") from None
    if type(name) is not str:
        raise MalformedGraph("bad record: name must be a string")
    if type(entry) is not int:
        raise MalformedGraph(f"{name!r}: entry must be an integer")
    if type(raw_blocks) is not list or type(raw_edges) is not list:
        raise MalformedGraph(f"{name!r}: blocks and edges must be lists")

    try:
        ids = [raw["id"] for raw in raw_blocks]
        columns = [_columns(raw["insns"]) for raw in raw_blocks]
    except KeyError as exc:
        raise MalformedGraph(
            f"{name!r}: block or instruction lacks {exc}"
        ) from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise MalformedGraph(f"{name!r}: bad block: {exc}") from None
    try:
        edge_set = {(src, dst) for src, dst in raw_edges}
    except (TypeError, ValueError) as exc:
        raise MalformedGraph(
            f"{name!r}: edges must be [src, dst] pairs: {exc}"
        ) from None
    if not (
        _only(ids, int)
        and _only(chain.from_iterable(addrs for _, addrs, _ in columns), int)
        and _only(chain.from_iterable(edge_set), int)
    ):
        raise MalformedGraph(
            f"{name!r}: block ids, addresses and edge ends must be integers"
        )
    if not _only(chain.from_iterable(ops for ops, _, _ in columns), str):
        raise MalformedGraph(f"{name!r}: opcodes must be strings")
    all_args = list(chain.from_iterable(args for _, _, args in columns))
    if not (
        _only(all_args, list, tuple) and _only(chain.from_iterable(all_args), str)
    ):
        raise MalformedGraph(f"{name!r}: args must be lists of strings")

    blocks = sorted(
        (
            ColumnarBlock(
                id=block_id,
                opcodes=tuple(map(str.lower, ops)),
                addresses=addrs,
                operands=tuple(map(tuple, args)),
            )
            for block_id, (ops, addrs, args) in zip(ids, columns)
        ),
        key=attrgetter("id"),
    )
    edges = sorted(edge_set)
    _check_topology(name, tuple(block.id for block in blocks), edges, entry)
    _check_blocks(name, blocks)
    keep = _reachable({block.id for block in blocks}, edges, entry)
    if len(keep) < len(blocks):
        logger.warning(
            "%s: dropped %d unreachable block(s)", name, len(blocks) - len(keep)
        )
        blocks = [block for block in blocks if block.id in keep]
        edges = [e for e in edges if e[0] in keep and e[1] in keep]
    # every invariant validate() checks holds by construction from here
    return ColumnarCFG(
        function_name=name, nodes=tuple(blocks), edges=tuple(edges), entry=entry
    )


def featurize_graph(graph: ColumnarCFG, vocab: OpcodeVocabulary) -> np.ndarray:
    """Node feature matrix (n_nodes, feature_dim), rows in node-id order:
    row i counts block i's opcodes per vocabulary slot, the last slot
    collecting out-of-vocabulary opcodes."""
    dim = vocab.feature_dim
    slot = vocab.index.get
    unk = vocab.unk_index
    flat = [
        row * dim + slot(op, unk)
        for row, block in enumerate(graph.nodes)
        for op in block.opcodes
    ]
    n = len(graph.nodes)
    counts = np.bincount(np.asarray(flat, dtype=np.intp), minlength=n * dim)
    return counts.reshape(n, dim).astype(np.float64)


# ---------------------------------------------------------------------------
# The one-pass parser of the one-object-per-instruction layout, and the
# writer of that layout, before function records held instruction columns

_ID_INSNS = itemgetter("id", "insns")


def one_pass_build_acfg(record: dict) -> ColumnarCFG:
    """Construct a validated graph from one ingestion record.

    Record shape, with the types enforced:
      {"name": str, "entry": int,
       "blocks": [{"id": int, "insns": [{"addr": int, "op": str,
                                          "args": [str, ...]}]}],
       "edges": [[int, int], ...]}

    "args" may be left out. Opcodes are lowercased, operands kept verbatim,
    duplicate edges merged. Blocks unreachable from the entry are dropped
    (with a warning); an entry or edge referencing a missing block is an
    error. Any defect raises MalformedGraph.

    The record is read in one pass into flat columns over all its
    instructions, and checked there: a record whose block ids and flat
    addresses both strictly increase, as synth writes them, holds every
    per-block invariant at once. Any other record is checked block by
    block, by the rules validate() applies.
    """
    try:
        name = record["name"]
        raw_blocks = record["blocks"]
        raw_edges = record["edges"]
        entry = record["entry"]
    except KeyError as exc:
        raise MalformedGraph(f"bad record: missing key {exc}") from None
    except TypeError:
        raise MalformedGraph("bad record: not a JSON object") from None
    if type(name) is not str:
        raise MalformedGraph("bad record: name must be a string")
    if type(entry) is not int:
        raise MalformedGraph(f"{name!r}: entry must be an integer")
    if type(raw_blocks) is not list or type(raw_edges) is not list:
        raise MalformedGraph(f"{name!r}: blocks and edges must be lists")
    if not raw_blocks:
        raise MalformedGraph(f"{name!r}: no basic blocks")

    try:
        ids, insn_lists = zip(*map(_ID_INSNS, raw_blocks))
        if not _only(insn_lists, list):
            raise TypeError("insns must be a list")
        insns = list(chain.from_iterable(insn_lists))
        ops, addrs = zip(*map(_OP_ADDR, insns)) if insns else ((), ())
        args = [ins.get("args", ()) for ins in insns]
    except KeyError as exc:
        raise MalformedGraph(
            f"{name!r}: block or instruction lacks {exc}"
        ) from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise MalformedGraph(f"{name!r}: bad block: {exc}") from None
    try:
        edge_set = set(map(tuple, raw_edges))
        if set(map(len, edge_set)) - {2}:
            raise ValueError("an edge is not two ends")
    except (TypeError, ValueError) as exc:
        raise MalformedGraph(
            f"{name!r}: edges must be [src, dst] pairs: {exc}"
        ) from None
    if not (
        _only(ids, int)
        and _only(addrs, int)
        and _only(chain.from_iterable(edge_set), int)
    ):
        raise MalformedGraph(
            f"{name!r}: block ids, addresses and edge ends must be integers"
        )
    if not _only(ops, str):
        raise MalformedGraph(f"{name!r}: opcodes must be strings")
    if not (_only(args, list, tuple) and _only(chain.from_iterable(args), str)):
        raise MalformedGraph(f"{name!r}: args must be lists of strings")

    lowered = tuple(map(str.lower, ops))
    operands = tuple(map(tuple, args))
    bounds = list(accumulate(map(len, insn_lists), initial=0))
    blocks = [
        ColumnarBlock(id_, lowered[start:stop], addrs[start:stop], operands[start:stop])
        for id_, start, stop in zip(ids, bounds, bounds[1:])
    ]
    id_set = set(ids)
    edges = sorted(edge_set)
    if not (
        all(map(lt, ids, ids[1:]))
        and all(map(lt, addrs, addrs[1:]))
        and all(insn_lists)
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
    return ColumnarCFG(
        function_name=name, nodes=tuple(blocks), edges=tuple(edges), entry=entry
    )


def acfg_to_object_record(graph: ColumnarCFG) -> dict:
    return {
        "name": graph.function_name,
        "entry": graph.entry,
        "blocks": [
            {
                "id": block.id,
                "insns": [
                    {"addr": addr, "op": op, "args": list(args)}
                    for op, addr, args in zip(
                        block.opcodes, block.addresses, block.operands
                    )
                ],
            }
            for block in graph.nodes
        ],
        "edges": [list(e) for e in graph.edges],
    }


def _lookup(graphs: GraphStore, ref: GraphRef) -> AttributedCFG:
    try:
        return strip_name(graphs[ref])
    except KeyError:
        raise KeyError(f"graph store has no entry for {ref}") from None


def generate_negative_pairs(
    index: BridgeIndex,
    pattern: Pattern,
    count: int,
    seed: int | Sequence[int],
    graphs: GraphStore,
) -> list[FunctionPair]:
    """Sample negatives: query from a bridge, target embedding other bridges.

    Targets are drawn from the corpus-wide pool of cross-inlining binaries
    minus the ones on the query bridge's own list. The pattern argument only
    tags the produced pairs (negatives accompany a per-pattern training run).
    """
    universe: set[tuple[str, str]] = set()
    for entry in index.entries.values():
        for ref, _ in entry.cross_inlining:
            universe.add((ref.binary_id, ref.name))
    ref_by_key = {
        (ref.binary_id, ref.name): ref
        for entry in index.entries.values()
        for ref, _ in entry.cross_inlining
    }
    eligible: list[tuple[str, tuple, list]] = []
    for bridge, entry in sorted(index.entries.items()):
        if not entry.equal:
            continue
        own = {(ref.binary_id, ref.name) for ref, _ in entry.cross_inlining}
        complement = sorted(universe - own)
        if complement:
            eligible.append((bridge, entry.equal, complement))
    if not eligible:
        raise Exhausted("no bridge has out-of-bridge targets for negatives")
    rng = np.random.default_rng(seed)
    pairs: list[FunctionPair] = []
    for _ in range(count):
        _, equal_pool, complement = eligible[rng.integers(len(eligible))]
        query = equal_pool[rng.integers(len(equal_pool))]
        target = ref_by_key[complement[rng.integers(len(complement))]]
        query_ref = (DATASET_NOINLINE, query.binary_id, query.name)
        target_ref = (DATASET_INLINE, target.binary_id, target.name)
        pairs.append(
            FunctionPair(
                query=_lookup(graphs, query_ref),
                target=_lookup(graphs, target_ref),
                label=-1,
                pattern=pattern,
                query_ref=query_ref,
                target_ref=target_ref,
            )
        )
    return pairs


def _sample_pairs(
    index: labeling.BridgeIndex,
    graphs: pairgen.GraphStore,
    pattern: str,
    n_pos: int,
    n_neg: int,
    seed_seq: list[int],
) -> list[pairgen.FunctionPair]:
    """Positive and negative pairs, shuffled together deterministically."""
    if pattern == detector.MIXED_KEY:
        patterns = labeling.CROSS_PATTERNS
    else:
        patterns = (labeling.Pattern(pattern),)
    pairs: list[pairgen.FunctionPair] = []
    for i, pat in enumerate(patterns):
        pos_share = n_pos // len(patterns) + (1 if i < n_pos % len(patterns) else 0)
        neg_share = n_neg // len(patterns) + (1 if i < n_neg % len(patterns) else 0)
        if pos_share:
            pairs.extend(
                pairgen.generate_positive_pairs(
                    index, pat, pos_share, seed_seq + [1, i], graphs
                )
            )
        if neg_share:
            pairs.extend(
                pairgen.generate_negative_pairs(
                    index, pat, neg_share, seed_seq + [2, i], graphs
                )
            )
    rng = np.random.default_rng(seed_seq + [3])
    return [pairs[i] for i in rng.permutation(len(pairs))]


def _is_isolated(bridge: str, mapped: frozenset[str], fcg: SourceFCG) -> bool:
    for caller, callee in fcg.edges:
        if caller == bridge and callee in mapped:
            return False
        if callee == bridge and caller in mapped:
            return False
    return True


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
) -> labeling.MappingResult:
    """Join line-table rows against the two function tables.

    Each binary function maps to the set of source functions owning any line
    its addresses map to. Rows whose address or line falls inside no known
    function are reported as inconsistencies and skipped; binary functions
    with no resolvable rows at all are omitted from the result.
    """
    bin_index: dict[str, _IntervalIndex] = {}
    by_binary: dict[str, list[tuple[int, int, object]]] = {}
    refs: dict[tuple[str, str], labeling.BinaryFunctionRef] = {}
    for bid, name, start, end in binfuncs:
        ref = labeling.BinaryFunctionRef(
            binary_id=bid, name=name, addr_start=start, addr_end=end
        )
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
            problems.append((labeling.UNMAPPED_ADDRESS, f"{bid}@{addr:#x}"))
            continue
        file_index = src_index.get(file)
        src_name = file_index.find(line) if file_index is not None else None
        if src_name is None:
            problems.append((labeling.UNMAPPED_LINE, f"{file}:{line}"))
            continue
        sets.setdefault((bid, ref.name), set()).add(src_name)

    mappings = [
        labeling.Binary2Source(function=refs[key], source_functions=frozenset(srcs))
        for key, srcs in sorted(sets.items())
    ]
    return labeling.MappingResult(mappings=mappings, inconsistencies=problems)


def build_index_from_corpus(corpus_dir: Path) -> labeling.BridgeIndex:
    manifest = synth.read_corpus_manifest(corpus_dir)
    tables = corpus_dir / "tables"
    addr2line = read_addr2line(tables / "addr2line.tsv")
    binfuncs = read_binfuncs(tables / "binfuncs.tsv")
    srcfuncs = read_srcfuncs(tables / "srcfuncs.tsv")
    fcg = labeling.build_fcg(read_fcg(tables / "fcg.tsv"))
    mappings = []
    for dataset in labeling.DATASETS:
        ids = synth.binary_ids(manifest, manifest["projects"], dataset)
        rows = [row for row in addr2line if row[0] in ids]
        funcs = [row for row in binfuncs if row[0] in ids]
        mappings.append(construct_mapping(rows, funcs, srcfuncs).mappings)
    return labeling.build_bridge_index(*mappings, fcg)  # no-inline, inline


def pair_loss_and_grads(
    query: PreparedGraph,
    target: PreparedGraph,
    label: int,
    params: ModelParams,
    config: ModelConfig,
) -> tuple[float, ModelParams]:
    """Loss for one pair plus exact gradients for every parameter.

    At the hinge kink and at zero distance the subgradient 0 is used.
    """
    if label not in (-1, 1):
        raise InvalidLabel(f"label must be -1 or +1, got {label!r}")
    grads = {name: np.zeros_like(tensor) for name, tensor in params.items()}
    tape1: list = []
    tape2: list = []
    e1 = _forward(query, params, config, tape1)
    e2 = _forward(target, params, config, tape2)
    diff = e1[0] - e2[0]
    distance = float(np.sqrt(np.sum(diff**2)))
    if not np.isfinite(distance):
        # a NaN distance would otherwise read as an inactive hinge
        raise NonFiniteGradient(f"non-finite pair distance {distance}")
    active = config.margin - label * (1.0 - distance)
    loss = max(0.0, active)
    if active > 0.0 and distance > 0.0:
        dd = float(label)
        de1 = (dd * diff / distance)[None, :]
        _backward(de1, tape1, query, params, config, grads)
        _backward(-de1, tape2, target, params, config, grads)
    return loss, grads


@dataclass
class TrainState:
    params: ModelParams
    adam_m: ModelParams
    adam_v: ModelParams
    step: int = 0


def _adam_update(
    state: TrainState, grads: ModelParams, config: ModelConfig
) -> TrainState:
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    step = state.step + 1
    lr = config.learning_rate
    new_params: ModelParams = {}
    new_m: ModelParams = {}
    new_v: ModelParams = {}
    bias1 = 1.0 - _ADAM_BETA1**step
    bias2 = 1.0 - _ADAM_BETA2**step
    for name, param in state.params.items():
        g = grads[name]
        m = _ADAM_BETA1 * state.adam_m[name] + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * state.adam_v[name] + (1.0 - _ADAM_BETA2) * g**2
        new_m[name] = m
        new_v[name] = v
        new_params[name] = param - lr * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)
    return TrainState(params=new_params, adam_m=new_m, adam_v=new_v, step=step)


def grad_step(
    batch: Sequence[PreparedPair], state: TrainState, config: ModelConfig
) -> tuple[TrainState, float]:
    """One Adam update on the mean pair loss of the batch."""
    if not batch:
        raise ValueError("empty batch")
    total = {name: np.zeros_like(t) for name, t in state.params.items()}
    loss_sum = 0.0
    for pair in batch:
        loss, grads = pair_loss_and_grads(
            pair.query, pair.target, pair.label, state.params, config
        )
        loss_sum += loss
        for name, grad in grads.items():
            total[name] += grad
    scale = 1.0 / len(batch)
    for name in total:
        total[name] *= scale
    new_state = _adam_update(state, total, config)
    return new_state, loss_sum * scale


def _validation_auc(
    prepared: Sequence[PreparedPair],
    labels: Sequence[int],
    params: ModelParams,
    config: ModelConfig,
) -> float:
    # ranking by -distance matches ranking by similarity (monotone transform)
    emb_cache: dict[int, np.ndarray] = {}

    def emb_of(prep: PreparedGraph) -> np.ndarray:
        key = id(prep)
        if key not in emb_cache:
            emb_cache[key] = embed_prepared(prep, params, config)
        return emb_cache[key]

    scores = [
        (-euclidean_distance(emb_of(p.query), emb_of(p.target)), label)
        for p, label in zip(prepared, labels)
    ]
    return auc(scores)
