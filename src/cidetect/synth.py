"""Synthetic corpus generator with exact inlining ground truth.

Builds small source "projects": an acyclic per-project call graph whose
functions each get a connected DAG-shaped control-flow graph, designated
call-site blocks (one call per block, call last), and per-instruction
provenance tags (source function, source line). Two binaries are derived per
project: one that keeps every call, and one where calls are transitively
spliced away under a budgeted random policy. Line tables emitted from the
provenance tags let the labeling pipeline be checked against the generator's
own ground truth.

load_corpus reads a written corpus back: its CorpusGraphs reads each graph
file once, whole, checks it against the sha256 the manifest records, keeps
its lines and builds each graph from those checked bytes on first lookup.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .acfg import (
    AttributedCFG,
    build_acfg,
    count_opcodes,
    parse_record,
    read_json,
    write_atomic,
    write_function_records,
    write_json,
)
from .errors import (
    GraphFileChanged,
    MalformedGraph,
    PatternStarvation,
    SiteNotFound,
    ValidationError,
)
from .labeling import (
    DATASETS,
    BinaryFunctionRef,
    BridgeEntry,
    BridgeIndex,
    CROSS_PATTERNS,
    Pattern,
    index_to_json,
)
from .pairgen import GraphRef

CALL_OPCODE = "call"

_OPCODE_POOL = (
    "mov", "push", "pop", "add", "sub", "xor", "cmp", "test", "jmp", "je",
    "jne", "lea", "and", "or", "shl", "shr", "imul", "not", "neg", "inc",
    "dec", "movzx", "movsx", "xchg", "sete", "setne", "cmovz", "adc", "sbb",
    "mul", "div", "rol", "ror", "bt", "bts", "bsf", "bsr", "nop",
)

_ARG_POOL = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9",
    "0x0", "0x8", "0x10", "[rbp-0x8]", "[rbp-0x10]",
)

_SEED_WORLD = 11
_SEED_POLICY = 23
_SEED_MUTATE = 37


@dataclass(frozen=True)
class SynthConfig:
    n_projects: int = 10
    functions_per_project: int = 10
    opcode_alphabet_size: int = 24
    block_count_range: tuple[int, int] = (3, 8)
    block_size_range: tuple[int, int] = (3, 8)
    call_density: float = 1.2
    extra_edge_prob: float = 0.15
    preferred_opcodes: int = 6
    preferred_weight: float = 0.85
    inline_budget: int = 400
    inline_probability: float = 1.0
    mutation_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_projects < 1 or self.functions_per_project < 1:
            raise ValueError("need at least one project and one function")
        if self.opcode_alphabet_size < 2:
            raise ValueError("alphabet needs at least 2 opcodes")
        for lo, hi in (self.block_count_range, self.block_size_range):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must be 1 <= lo <= hi")
        if self.call_density < 0 or self.extra_edge_prob < 0:
            raise ValueError("densities must be non-negative")
        if not 0.0 <= self.inline_probability <= 1.0:
            raise ValueError("inline_probability must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= self.preferred_weight <= 1.0:
            raise ValueError("preferred_weight must be in [0, 1]")
        if self.preferred_opcodes < 1 or self.inline_budget < 1:
            raise ValueError("preferred_opcodes and inline_budget must be >= 1")


def synth_config_to_json(config: SynthConfig) -> dict:
    payload = asdict(config)
    payload["block_count_range"] = list(config.block_count_range)
    payload["block_size_range"] = list(config.block_size_range)
    return payload


def synth_config_from_json(payload: dict) -> SynthConfig:
    kwargs = dict(payload)
    kwargs["block_count_range"] = tuple(kwargs["block_count_range"])
    kwargs["block_size_range"] = tuple(kwargs["block_size_range"])
    return SynthConfig(**kwargs)


def opcode_alphabet(config: SynthConfig) -> tuple[str, ...]:
    """Deterministic alphabet; the call opcode stays reserved outside it."""
    n = config.opcode_alphabet_size
    pool = list(_OPCODE_POOL)
    while len(pool) < n:
        pool.append(f"op{len(pool):02d}")
    return tuple(pool[:n])


# Provenance: one tag per instruction, in the graph's column order. The
# generator tags every instruction with (source function, source line).
Prov = tuple


@dataclass(frozen=True)
class SourceFunction:
    name: str
    project: str
    file: str
    line_start: int
    line_end: int
    graph: AttributedCFG
    provenance: Prov
    callees: tuple[str, ...]
    call_sites: Mapping[str, int]


@dataclass(frozen=True)
class SourceWorld:
    config: SynthConfig
    functions: Mapping[str, SourceFunction]
    projects: Mapping[str, tuple[str, ...]]  # names in call-graph topo order
    fcg_edges: tuple[tuple[str, str], ...]


def _materialize(
    name: str,
    line_start: int,
    block_ops: list[list[tuple[str, tuple[str, ...]]]],
    edges: set[tuple[int, int]],
) -> tuple[AttributedCFG, Prov, int]:
    """Turn opcode lists into a validated graph with addresses and lines."""
    insns = [insn for ops in block_ops for insn in ops]
    n = len(insns)
    graph = AttributedCFG(
        function_name=name,
        block_ids=tuple(range(len(block_ops))),
        block_sizes=tuple(map(len, block_ops)),
        insn_ops=tuple(op for op, _ in insns),
        insn_addrs=tuple(range(0, 4 * n, 4)),
        insn_args=tuple(args for _, args in insns),
        edges=tuple(sorted(edges)),
        entry=0,
    )
    graph.validate()
    prov = tuple((name, line_start + i) for i in range(n))
    return graph, prov, line_start + n - 1


def gen_source_world(config: SynthConfig) -> SourceWorld:
    """Random projects: acyclic call graphs over DAG-bodied functions."""
    rng = np.random.default_rng([config.seed, _SEED_WORLD])
    alphabet = opcode_alphabet(config)
    functions: dict[str, SourceFunction] = {}
    projects: dict[str, tuple[str, ...]] = {}
    fcg_edges: list[tuple[str, str]] = []

    for pi in range(config.n_projects):
        project = f"p{pi:03d}"
        file = f"{project}.c"
        m = config.functions_per_project
        names = [f"{project}_f{j:02d}" for j in range(m)]
        topo = [names[i] for i in rng.permutation(m)]
        projects[project] = tuple(topo)
        line_cursor = 1

        for pos, name in enumerate(topo):
            lo, hi = config.block_count_range
            n_blocks = int(rng.integers(lo, hi + 1))
            later = topo[pos + 1 :]
            max_callees = min(len(later), n_blocks)
            n_callees = min(int(rng.poisson(config.call_density)), max_callees)
            callee_idx = (
                sorted(rng.choice(len(later), size=n_callees, replace=False))
                if n_callees
                else []
            )
            callees = tuple(later[i] for i in callee_idx)
            site_blocks = (
                [int(b) for b in rng.choice(n_blocks, size=n_callees, replace=False)]
                if n_callees
                else []
            )
            call_sites = dict(zip(callees, site_blocks))

            edges: set[tuple[int, int]] = set()
            for i in range(1, n_blocks):
                edges.add((int(rng.integers(0, i)), i))
            for i in range(n_blocks):
                for j in range(i + 1, n_blocks):
                    if rng.random() < config.extra_edge_prob:
                        edges.add((i, j))

            preferred = [
                alphabet[i]
                for i in rng.choice(
                    len(alphabet),
                    size=min(config.preferred_opcodes, len(alphabet)),
                    replace=False,
                )
            ]

            def draw_op() -> tuple[str, tuple[str, ...]]:
                if rng.random() < config.preferred_weight:
                    opcode = preferred[int(rng.integers(len(preferred)))]
                else:
                    opcode = alphabet[int(rng.integers(len(alphabet)))]
                n_args = int(rng.integers(0, 3))
                args = tuple(
                    _ARG_POOL[int(rng.integers(len(_ARG_POOL)))]
                    for _ in range(n_args)
                )
                return opcode, args

            slo, shi = config.block_size_range
            block_ops: list[list[tuple[str, tuple[str, ...]]]] = []
            for block_id in range(n_blocks):
                size = int(rng.integers(slo, shi + 1))
                block_ops.append([draw_op() for _ in range(size)])
            for callee, site in call_sites.items():
                block_ops[site].append((CALL_OPCODE, (callee,)))

            graph, prov, line_end = _materialize(
                name, line_cursor, block_ops, edges
            )
            functions[name] = SourceFunction(
                name=name,
                project=project,
                file=file,
                line_start=line_cursor,
                line_end=line_end,
                graph=graph,
                provenance=prov,
                callees=callees,
                call_sites=call_sites,
            )
            fcg_edges.extend((name, callee) for callee in callees)
            line_cursor = line_end + 2

    return SourceWorld(
        config=config,
        functions=functions,
        projects=projects,
        fcg_edges=tuple(sorted(fcg_edges)),
    )


# ---------------------------------------------------------------------------
# Splicing

def _default_prov(graph: AttributedCFG) -> Prov:
    return (graph.function_name,) * graph.instruction_count


def inline_transform(
    caller: AttributedCFG,
    callee: AttributedCFG,
    call_site: int,
    caller_prov: Prov | None = None,
    callee_prov: Prov | None = None,
) -> tuple[AttributedCFG, Prov]:
    """Splice the callee body into the caller at one call site.

    The call site block must end with a call instruction naming the callee
    and carry at least one instruction before it. The call goes away, the
    prefix jumps to the (renumbered) callee entry, and every callee exit
    inherits the call site's original successors. Addresses are reassigned
    sequentially afterwards; provenance tags follow their instructions.
    """
    caller_prov = _default_prov(caller) if caller_prov is None else caller_prov
    callee_prov = _default_prov(callee) if callee_prov is None else callee_prov
    site = caller.node_index.get(call_site)
    if site is None:
        raise SiteNotFound(f"no block {call_site} in {caller.function_name!r}")
    # the call is the last instruction of the site block
    call = sum(caller.block_sizes[: site + 1]) - 1
    last_args = caller.insn_args[call]
    if caller.insn_ops[call] != CALL_OPCODE or not last_args or (
        last_args[0] != callee.function_name
    ):
        raise SiteNotFound(
            f"block {call_site} of {caller.function_name!r} does not end "
            f"with a call to {callee.function_name!r}"
        )
    if caller.block_sizes[site] < 2:
        raise MalformedGraph(
            f"call site {call_site} has no instructions besides the call"
        )

    # the callee's blocks follow the caller's, renumbered past its last id
    offset = caller.block_ids[-1] + 1
    remap = {old: offset + rank for rank, old in enumerate(callee.block_ids)}
    callee_exits = sorted(
        set(callee.block_ids) - {src for src, _ in callee.edges}
    )
    site_successors = sorted(
        dst for src, dst in caller.edges if src == call_site
    )
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

    def spliced(caller_column: tuple, callee_column: tuple) -> tuple:
        return caller_column[:call] + caller_column[call + 1 :] + callee_column

    sizes = list(caller.block_sizes)
    sizes[site] -= 1
    n = caller.instruction_count - 1 + callee.instruction_count
    graph = AttributedCFG(
        function_name=caller.function_name,
        block_ids=caller.block_ids + tuple(remap.values()),
        block_sizes=tuple(sizes) + callee.block_sizes,
        insn_ops=spliced(caller.insn_ops, callee.insn_ops),
        insn_addrs=tuple(range(0, 4 * n, 4)),
        insn_args=spliced(caller.insn_args, callee.insn_args),
        edges=tuple(sorted(edges)),
        entry=caller.entry,
    )
    graph.validate()
    return graph, spliced(tuple(caller_prov), tuple(callee_prov))


def apply_inlining_policy(world: SourceWorld) -> dict[str, tuple[AttributedCFG, Prov]]:
    """Transitive bottom-up splicing: each call edge is inlined with the
    world config's probability when the callee's already-inlined body fits
    the instruction budget. Optionally perturbs opcodes afterwards (never
    the remaining calls, never the provenance tags)."""
    config = world.config
    rng = np.random.default_rng([config.seed, _SEED_POLICY])
    alphabet = opcode_alphabet(config)
    bodies: dict[str, tuple[AttributedCFG, Prov]] = {}
    for project in sorted(world.projects):
        for name in reversed(world.projects[project]):
            info = world.functions[name]
            graph, prov = info.graph, info.provenance
            for callee in info.callees:
                callee_graph, callee_prov = bodies[callee]
                coin = rng.random()
                if (
                    coin < config.inline_probability
                    and callee_graph.instruction_count <= config.inline_budget
                ):
                    graph, prov = inline_transform(
                        graph,
                        callee_graph,
                        info.call_sites[callee],
                        caller_prov=prov,
                        callee_prov=callee_prov,
                    )
            bodies[name] = (graph, prov)

    if config.mutation_rate > 0:
        mrng = np.random.default_rng([config.seed, _SEED_MUTATE])

        def mutate(opcode: str) -> str:
            if opcode != CALL_OPCODE and mrng.random() < config.mutation_rate:
                return alphabet[int(mrng.integers(len(alphabet)))]
            return opcode

        for name in sorted(bodies):
            graph, prov = bodies[name]
            ops = tuple(map(mutate, graph.insn_ops))
            bodies[name] = (replace(graph, insn_ops=ops), prov)
    return bodies


# ---------------------------------------------------------------------------
# Corpus assembly

@dataclass
class SynthCorpus:
    config: SynthConfig
    world: SourceWorld
    graphs: dict[tuple[str, str, str], AttributedCFG]
    addr2line: list[tuple[str, int, str, int]]
    binfuncs: list[tuple[str, str, int, int]]
    srcfuncs: list[tuple[str, str, int, int]]
    fcg_edges: list[tuple[str, str]]
    ground_truth: BridgeIndex
    projects: dict[str, dict]


def _ground_pattern(
    bridge: str, mapped: set[str], edges: Iterable[tuple[str, str]]
) -> Pattern:
    # intentionally a second, direct degree computation (round-trip oracle)
    out_deg = sum(1 for u, v in edges if u == bridge and v in mapped)
    in_deg = sum(1 for u, v in edges if v == bridge and u in mapped)
    if out_deg == 0:
        return Pattern.LEAF
    if in_deg == 0:
        return Pattern.ROOT
    return Pattern.INTERNAL


def _layout_binary(
    binary_id: str,
    names: Sequence[str],
    bodies: Mapping[str, tuple[AttributedCFG, Prov]],
    world: SourceWorld,
    corpus: SynthCorpus,
    dataset: str,
) -> dict[str, BinaryFunctionRef]:
    refs: dict[str, BinaryFunctionRef] = {}
    cursor = 0x1000
    for name in sorted(names):
        graph, prov = bodies[name]
        length = 4 * graph.instruction_count
        base = cursor
        cursor = base + length + 16
        refs[name] = BinaryFunctionRef(
            binary_id=binary_id, name=name, addr_start=base, addr_end=base + length
        )
        corpus.binfuncs.append((binary_id, name, base, base + length))
        addrs = tuple(addr + base for addr in graph.insn_addrs)
        corpus.addr2line.extend(
            (binary_id, addr, world.functions[src].file, line)
            for addr, (src, line) in zip(addrs, prov)
        )
        corpus.graphs[(dataset, binary_id, name)] = replace(graph, insn_addrs=addrs)
    return refs


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """World, both binaries per project, tables, and ground-truth index."""
    world = gen_source_world(config)
    inline_bodies = apply_inlining_policy(world)
    corpus = SynthCorpus(
        config=config,
        world=world,
        graphs={},
        addr2line=[],
        binfuncs=[],
        srcfuncs=[],
        fcg_edges=sorted(world.fcg_edges),
        ground_truth=BridgeIndex(entries={}),
        projects={},
    )
    for name in sorted(world.functions):
        info = world.functions[name]
        corpus.srcfuncs.append((info.file, name, info.line_start, info.line_end))

    equal_refs: dict[str, BinaryFunctionRef] = {}
    cross: dict[str, list[tuple[BinaryFunctionRef, Pattern]]] = {}
    for project in sorted(world.projects):
        names = world.projects[project]
        binaries = {dataset: f"{project}-{dataset}" for dataset in DATASETS}
        corpus.projects[project] = {
            "source_functions": sorted(names), "binaries": binaries
        }
        base_bodies = {
            n: (world.functions[n].graph, world.functions[n].provenance)
            for n in names
        }
        refs_no, refs_in = (
            _layout_binary(binaries[dataset], names, bodies, world, corpus, dataset)
            for dataset, bodies in zip(DATASETS, (base_bodies, inline_bodies))
        )
        equal_refs.update(refs_no)
        for name in sorted(names):
            _, prov = inline_bodies[name]
            mapped = {src for src, _ in prov}
            if len(mapped) <= 1:
                continue
            for bridge in sorted(mapped):
                pattern = _ground_pattern(bridge, mapped, world.fcg_edges)
                cross.setdefault(bridge, []).append((refs_in[name], pattern))

    corpus.ground_truth = BridgeIndex(
        entries={
            name: BridgeEntry(
                equal=(equal_refs[name],),
                cross_inlining=tuple(
                    sorted(cross.get(name, ()), key=lambda it: (it[0], it[1].value))
                ),
            )
            for name in sorted(world.functions)
        }
    )
    corpus.addr2line.sort()
    corpus.binfuncs.sort()
    corpus.srcfuncs.sort()

    if config.inline_probability > 0 and config.call_density > 0:
        present = {
            pattern
            for entry in corpus.ground_truth.entries.values()
            for _, pattern in entry.cross_inlining
        }
        missing = [p.value for p in CROSS_PATTERNS if p not in present]
        if missing:
            raise PatternStarvation(
                f"config permits all patterns but none of: {', '.join(missing)}"
            )
    return corpus


# ---------------------------------------------------------------------------
# On-disk corpus

_CORPUS_VERSION = 3
_SHA256 = re.compile("[0-9a-f]{64}")


def graph_file(directory: Path | str, dataset: str, binary_id: str) -> Path:
    """Where a corpus keeps the function records of one binary."""
    return Path(directory) / "graphs" / dataset / f"{binary_id}.jsonl"


def write_corpus(corpus: SynthCorpus, directory: Path | str) -> None:
    """The corpus directory. Its manifest.json lists the projects and, in
    graph_files, each binary's function names in the order of its graph
    file's lines, its opcode counts (acfg.count_opcodes) and the sha256 of
    its graph file, hashed from the bytes written. Every file is written
    through write_atomic."""
    directory = Path(directory)
    for dataset in DATASETS:
        (directory / "graphs" / dataset).mkdir(parents=True, exist_ok=True)
    (directory / "tables").mkdir(parents=True, exist_ok=True)

    by_binary: dict[tuple[str, str], list[AttributedCFG]] = {}
    for (dataset, binary_id, name), graph in sorted(corpus.graphs.items()):
        by_binary.setdefault((dataset, binary_id), []).append(graph)
    graph_files = {}
    for (dataset, binary_id), graphs in by_binary.items():
        written = write_function_records(
            graph_file(directory, dataset, binary_id), graphs
        )
        graph_files[binary_id] = {
            "functions": [graph.function_name for graph in graphs],
            "opcode_counts": dict(count_opcodes(graphs)),
            "sha256": hashlib.sha256(written).hexdigest(),
        }

    tables = {
        "addr2line.tsv": (
            f"{bid}\t0x{addr:x}\t{file}\t{line}\n"
            for bid, addr, file, line in corpus.addr2line
        ),
        "binfuncs.tsv": (
            f"{bid}\t{name}\t0x{start:x}\t0x{end:x}\n"
            for bid, name, start, end in corpus.binfuncs
        ),
        "srcfuncs.tsv": (
            f"{file}\t{name}\t{start}\t{end}\n"
            for file, name, start, end in corpus.srcfuncs
        ),
        "fcg.tsv": (f"{caller}\t{callee}\n" for caller, callee in corpus.fcg_edges),
    }
    for table, rows in tables.items():
        write_atomic(directory / "tables" / table, "".join(rows).encode("utf-8"))

    write_json(directory / "ground_truth.json", index_to_json(corpus.ground_truth))
    manifest = {
        "format_version": _CORPUS_VERSION,
        "config": synth_config_to_json(corpus.config),
        "projects": corpus.projects,
        "graph_files": graph_files,
    }
    write_json(directory / "manifest.json", manifest)


def graph_file_lines(path: Path, sha256: str) -> list[bytes]:
    """The lines of a graph file, from one read of the whole file. The file
    must hash to sha256, the digest its corpus manifest records: one changed
    after synth wrote it raises GraphFileChanged naming it."""
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != sha256:
        raise GraphFileChanged(
            f"{path}: sha256 is not the one manifest.json records; "
            "the file changed after synth wrote it"
        )
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return lines


class CorpusGraphs(Mapping[GraphRef, AttributedCFG]):
    """The graphs of a corpus, keyed by (dataset, binary_id, name): line i
    of a binary's graph file holds the i-th function its manifest entry
    lists. A graph is built from its line on first access and kept.

    The first read of a graph file reads it whole, checks it and keeps its
    lines (graph_file_lines), so every graph of the file is built from the
    bytes that were checked, and the file is not opened again. A bad
    record, or one that is not the function the manifest lists at its line,
    raises MalformedGraph naming path:line."""

    def __init__(self, root: Path, manifest: dict):
        self._entries = manifest["graph_files"]
        self._where: dict[GraphRef, int] = {}  # key -> line index
        self._paths: dict[tuple[str, str], Path] = {}
        projects = manifest["projects"]
        for dataset in DATASETS:
            for binary_id in sorted(binary_ids(manifest, projects, dataset)):
                path = graph_file(root, dataset, binary_id)
                if not path.is_file():
                    raise ValidationError(f"graph file not found: {path}")
                self._paths[dataset, binary_id] = path
                for index, name in enumerate(self._entries[binary_id]["functions"]):
                    self._where[(dataset, binary_id, name)] = index
        self._lines: dict[tuple[str, str], list[bytes]] = {}  # checked files
        self._built: dict[GraphRef, AttributedCFG] = {}

    def verify(self, files: Iterable[tuple[str, str]]) -> None:
        """Read and check each (dataset, binary_id) graph file not read yet,
        in sorted order. A file of another line count than the functions
        its manifest entry lists raises ValidationError naming it."""
        for dataset, binary_id in sorted(set(files) - self._lines.keys()):
            path, entry = self._paths[dataset, binary_id], self._entries[binary_id]
            lines = graph_file_lines(path, entry["sha256"])
            if len(lines) != len(entry["functions"]):
                raise ValidationError(
                    f"{path}: holds {len(lines)} lines, but manifest.json "
                    f"lists {len(entry['functions'])} functions for it"
                )
            self._lines[(dataset, binary_id)] = lines

    def __getitem__(self, key: GraphRef) -> AttributedCFG:
        graph = self._built.get(key)
        if graph is None:
            index, file = self._where[key], key[:2]
            self.verify([file])
            where = f"{self._paths[file]}:{index + 1}"
            line = self._lines[file][index]
            graph = parse_record(line, build_acfg, where, MalformedGraph)
            if graph.function_name != key[2]:
                raise MalformedGraph(
                    f"{where}: holds {graph.function_name!r}, not {key[2]!r}, "
                    "the function manifest.json lists at this line"
                )
            self._built[key] = graph
        return graph

    def __contains__(self, key: object) -> bool:
        return key in self._where

    def __iter__(self) -> Iterator[GraphRef]:
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)


@dataclass
class LoadedCorpus:
    root: Path
    manifest: dict
    graphs: CorpusGraphs

    def project_ids(self) -> list[str]:
        return sorted(self.manifest["projects"])

    def opcode_counts(self, projects: Iterable[str]) -> Counter[str]:
        """The summed opcode counts of the projects' binaries, as synth
        recorded them in the manifest's graph_files; no graph is built. An
        edited file's counts are stale, so each file is checked first
        (CorpusGraphs.verify, whose kept lines later lookups build from)."""
        projects = list(projects)
        files = [
            (dataset, binary_id)
            for dataset in DATASETS
            for binary_id in sorted(binary_ids(self.manifest, projects, dataset))
        ]
        self.graphs.verify(files)
        entries = self.manifest["graph_files"]
        return sum((Counter(entries[b]["opcode_counts"]) for _, b in files), Counter())

    def source_functions(self, projects: Iterable[str]) -> set[str]:
        return {
            name
            for project in projects
            for name in self.manifest["projects"][project]["source_functions"]
        }


def binary_ids(manifest: dict, projects: Iterable[str], dataset: str = "") -> set[str]:
    """The ids of the given projects' binaries in one dataset, or in both."""
    datasets = (dataset,) if dataset else DATASETS
    listing = manifest["projects"]
    return {listing[p]["binaries"][ds] for p in projects for ds in datasets}


def read_corpus_manifest(directory: Path | str) -> dict:
    """The corpus manifest.json, of format version 3. Each project must list
    its source functions and name one binary per dataset by a plain file
    name, and graph_files must give every listed binary its function names
    (distinct strings, in the order of its graph file's lines), the sha256
    of its graph file (64 lowercase hex digits) and its opcode counts
    (positive ints). A manifest that does not raises ValidationError naming
    the file."""
    path = Path(directory) / "manifest.json"
    manifest = read_json(path, ["format_version", "projects"])
    version = manifest["format_version"]
    if type(version) is not int or version != _CORPUS_VERSION:
        raise ValidationError(
            f"{path}: corpus format version {version!r} is not {_CORPUS_VERSION}; "
            "write the corpus again with synth"
        )
    try:
        for name, project in manifest["projects"].items():
            functions = project["source_functions"]
            binaries = [project["binaries"][dataset] for dataset in DATASETS]
            if type(functions) is not list or not all(
                type(value) is str for value in (*functions, *binaries)
            ):
                raise TypeError(f"{name}: names must be strings in a list")
            if any(b in ("", ".", "..") or "/" in b or "\\" in b for b in binaries):
                raise ValueError(f"{name}: a binary id is not a plain file name")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        kind = type(exc).__name__
        raise ValidationError(f"{path}: bad project ({kind}: {exc})") from None
    try:
        entries = manifest["graph_files"]
        for binary_id in sorted(binary_ids(manifest, manifest["projects"])):
            _check_graph_file(binary_id, entries[binary_id])
    except (KeyError, TypeError, ValueError) as exc:
        kind = type(exc).__name__
        raise ValidationError(f"{path}: bad graph_files ({kind}: {exc})") from None
    return manifest


def _check_graph_file(binary_id: str, entry: object) -> None:
    """TypeError or ValueError unless entry holds function names, a sha256
    and opcode counts."""
    if type(entry) is not dict:
        raise TypeError(f"{binary_id}: not an object")
    functions = entry["functions"]
    sha256, counts = entry["sha256"], entry["opcode_counts"]
    if type(functions) is not list or not set(map(type, functions)) <= {str}:
        raise TypeError(f"{binary_id}: functions must be a list of strings")
    if len(set(functions)) != len(functions):
        repeated = sorted(name for name, n in Counter(functions).items() if n > 1)
        raise ValueError(f"{binary_id}: functions lists {repeated} more than once")
    if type(sha256) is not str or not _SHA256.fullmatch(sha256):
        raise ValueError(f"{binary_id}: sha256 is not 64 lowercase hex digits")
    if type(counts) is not dict or not all(
        opcode and type(n) is int and n > 0 for opcode, n in counts.items()
    ):
        raise ValueError(
            f"{binary_id}: opcode_counts must map opcodes to positive ints"
        )


def load_corpus(directory: Path | str) -> LoadedCorpus:
    """The manifest and the graphs of the binaries it lists, named by the
    manifest and built from their graphs/<dataset>/<binary>.jsonl on first
    use; no graph file is opened here, and a missing one raises naming it."""
    directory = Path(directory)
    manifest = read_corpus_manifest(directory)
    return LoadedCorpus(
        root=directory, manifest=manifest, graphs=CorpusGraphs(directory, manifest)
    )
