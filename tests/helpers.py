"""Shared builders for the test suite.

Everything here constructs small, fully valid graphs by hand so the tests
can state expected values independently of the library's own plumbing.
"""

from __future__ import annotations

import hashlib
import json
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cidetect.acfg import AttributedCFG, OpcodeVocabulary
from cidetect.synth import SynthConfig

# the corpora that differential tests compare the library and its frozen
# references on: acceptance criterion 06's, and one with dense calls
DIFFERENTIAL_CONFIGS = {
    "criterion-06": SynthConfig(
        n_projects=30, functions_per_project=10, seed=7, mutation_rate=0.05,
        opcode_alphabet_size=32, preferred_opcodes=4, preferred_weight=0.9,
        block_count_range=(4, 5), block_size_range=(6, 8),
        inline_budget=65, call_density=0.9,
    ),
    "call-density-2": SynthConfig(n_projects=12, call_density=2.0, seed=7),
}


COLUMNS = ("block_ids", "block_sizes", "insn_ops", "insn_addrs", "insn_args")


def columnar_record(record):
    """A function record of the layout with one object per instruction,
    {"blocks": [{"id", "insns": [{"addr", "op", "args"}]}], ...}, laid out
    as the columns build_acfg reads; anything but a dict with "blocks" is
    returned as it is.

    Every value is carried over unchanged, and an instruction without
    "args" gets none, so a valid record converts to one of the same graph
    and a bad value stays bad. What the old layout's parsers could not
    read at all (blocks that are not a list, a block that is not an object
    or lacks "id" or "insns", insns that are not a list, an instruction
    that is not an object or lacks "op" or "addr") becomes None in its
    column, which build_acfg refuses too."""
    if not isinstance(record, dict) or "blocks" not in record:
        return record
    columnar = {key: value for key, value in record.items() if key != "blocks"}
    blocks = record["blocks"]
    if type(blocks) is not list:
        return {**columnar, **dict.fromkeys(COLUMNS)}
    ids, sizes, ops, addrs, args = ([] for _ in COLUMNS)
    for block in blocks:
        readable = isinstance(block, dict) and "id" in block and "insns" in block
        ids.append(block["id"] if readable else None)
        insns = block["insns"] if readable else None
        sizes.append(len(insns) if type(insns) is list else None)
        for ins in insns if type(insns) is list else ():
            readable = isinstance(ins, dict) and "op" in ins and "addr" in ins
            ops.append(ins["op"] if readable else None)
            addrs.append(ins["addr"] if readable else None)
            args.append(ins.get("args", []) if readable else None)
    return {**columnar, **dict(zip(COLUMNS, (ids, sizes, ops, addrs, args)))}


def object_record(record: dict) -> dict:
    """A valid function record laid out with one object per instruction,
    the layout the frozen parsers read: columnar_record undone."""
    objects = {key: value for key, value in record.items() if key not in COLUMNS}
    insns = [
        {"addr": addr, "op": op, "args": list(args)}
        for op, addr, args in zip(
            record["insn_ops"], record["insn_addrs"], record["insn_args"]
        )
    ]
    bounds = list(accumulate(record["block_sizes"], initial=0))
    objects["blocks"] = [
        {"id": block_id, "insns": insns[start:stop]}
        for block_id, start, stop in zip(record["block_ids"], bounds, bounds[1:])
    ]
    return objects


def rehash_graph_file(path: Path, functions=None) -> None:
    """Record the sha256 of the graph file at path, edited after synth, in
    its corpus manifest, and functions as its function names if given: the
    corpus is then one that synth could have written."""
    manifest_path = path.parents[2] / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["graph_files"][path.stem]
    entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    if functions is not None:
        entry["functions"] = list(functions)
    manifest_path.write_text(json.dumps(manifest))


class Block(NamedTuple):
    """One block of a graph: its id and its slices of the instruction
    columns."""

    id: int
    opcodes: tuple[str, ...]
    addresses: tuple[int, ...]
    operands: tuple[tuple[str, ...], ...]


def blocks(graph: AttributedCFG) -> list[Block]:
    """The per-block view of graph, in its block order."""
    bounds = list(accumulate(graph.block_sizes, initial=0))
    return [
        Block(
            block_id,
            graph.insn_ops[start:stop],
            graph.insn_addrs[start:stop],
            graph.insn_args[start:stop],
        )
        for block_id, start, stop in zip(graph.block_ids, bounds, bounds[1:])
    ]


def from_blocks(name, blocks, edges, entry=0) -> AttributedCFG:
    """The graph of the given blocks, in the order given, with their
    instructions as its columns; not validated."""
    return AttributedCFG(
        function_name=name,
        block_ids=tuple(block.id for block in blocks),
        block_sizes=tuple(len(block.opcodes) for block in blocks),
        insn_ops=tuple(chain.from_iterable(block.opcodes for block in blocks)),
        insn_addrs=tuple(chain.from_iterable(block.addresses for block in blocks)),
        insn_args=tuple(chain.from_iterable(block.operands for block in blocks)),
        edges=tuple(edges),
        entry=entry,
    )


def make_block(block_id: int, opcodes, base_addr: int, operands=None) -> Block:
    """Instruction i sits at base_addr + 4*i; operands default to none."""
    n = len(opcodes)
    return Block(
        id=block_id,
        opcodes=tuple(opcodes),
        addresses=tuple(base_addr + 4 * i for i in range(n)),
        operands=((),) * n if operands is None else tuple(operands),
    )


def make_graph(name, blocks, edges, entry=0) -> AttributedCFG:
    """blocks: list of (block_id, [opcodes]); addresses assigned block by
    block with non-overlapping ranges."""
    nodes = []
    cursor = 0x1000
    for block_id, opcodes in sorted(blocks):
        nodes.append(make_block(block_id, opcodes, cursor))
        cursor += 4 * len(opcodes)
    graph = from_blocks(name, nodes, sorted(set(edges)), entry)
    graph.validate()
    return graph


def diamond() -> AttributedCFG:
    """Entry branching to two arms that rejoin; known opcode counts."""
    return make_graph(
        "diamond",
        [
            (0, ["push", "push", "cmp", "je"]),
            (1, ["mov", "add"]),
            (2, ["mov", "sub", "xor"]),
            (3, ["pop", "ret"]),
        ],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )


DIAMOND_OPCODE_COUNTS = {
    "push": 2,
    "cmp": 1,
    "je": 1,
    "mov": 2,
    "add": 1,
    "sub": 1,
    "xor": 1,
    "pop": 1,
    "ret": 1,
}


def tiny_vocab(keys) -> OpcodeVocabulary:
    return OpcodeVocabulary(key_sequence=tuple(keys))


def random_acfg(rng: np.random.Generator, name: str, opcodes, max_nodes: int = 6) -> AttributedCFG:
    """Random DAG-shaped function over the given opcode pool."""
    n = int(rng.integers(1, max_nodes + 1))
    blocks = []
    for i in range(n):
        size = int(rng.integers(1, 5))
        ops = [opcodes[int(rng.integers(len(opcodes)))] for _ in range(size)]
        blocks.append((i, ops))
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(i)), i))
    for _ in range(n):
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a < b:
            edges.add((a, b))
    return make_graph(name, blocks, sorted(edges))


def call_pair(rng: np.random.Generator, opcodes, tag: str):
    """A (caller, callee, call_site) triple ready for splicing.

    The caller gets one dedicated block whose last instruction is a call to
    the callee, with at least one instruction in front of it.
    """
    from cidetect.synth import CALL_OPCODE

    callee = random_acfg(rng, f"callee_{tag}", opcodes)
    caller_base = random_acfg(rng, f"caller_{tag}", opcodes)
    call_site = int(rng.integers(len(caller_base.block_ids)))
    nodes = []
    cursor = 0x1000
    for block in blocks(caller_base):
        ops = list(block.opcodes)
        if block.id == call_site:
            ops.append(CALL_OPCODE)
        operands = [
            (callee.function_name,) if op == CALL_OPCODE else () for op in ops
        ]
        nodes.append(make_block(block.id, ops, cursor, operands))
        cursor += 4 * len(ops)
    caller = from_blocks(
        f"caller_{tag}", nodes, caller_base.edges, caller_base.entry
    )
    caller.validate()
    return caller, callee, call_site


OPCODE_POOL = ("mov", "add", "sub", "xor", "cmp", "push", "pop", "test", "lea", "shl")
