import hashlib
import json
import re
from dataclasses import replace
from itertools import accumulate, chain

import numpy as np
import pytest

from cidetect.acfg import (
    acfg_to_record, build_acfg, build_vocabulary, count_opcodes
)
from cidetect.errors import (
    GraphFileChanged, MalformedGraph, PatternStarvation, SiteNotFound, ValidationError
)
from cidetect.labeling import Pattern
from cidetect.pairgen import split_projects
from cidetect.synth import (
    CALL_OPCODE,
    SourceFunction,
    SourceWorld,
    SynthConfig,
    apply_inlining_policy,
    binary_ids,
    gen_source_world,
    generate_corpus,
    inline_transform,
    load_corpus,
    opcode_alphabet,
    synth_config_from_json,
    synth_config_to_json,
    write_corpus,
)

from cidetect import synth as synth_module

import oracles
from helpers import (
    DIFFERENTIAL_CONFIGS, OPCODE_POOL, blocks, call_pair, from_blocks,
    make_block, object_record, random_acfg, rehash_graph_file,
)


def test_synth_config_validation():
    bad = [
        dict(n_projects=0),
        dict(functions_per_project=0),
        dict(opcode_alphabet_size=1),
        dict(block_count_range=(0, 3)),
        dict(block_size_range=(5, 2)),
        dict(call_density=-1.0),
        dict(extra_edge_prob=-0.5),
        dict(inline_probability=1.5),
        dict(mutation_rate=-0.1),
        dict(preferred_weight=2.0),
        dict(preferred_opcodes=0),
        dict(inline_budget=0),
    ]
    for overrides in bad:
        with pytest.raises(ValueError):
            SynthConfig(**overrides)


def test_synth_config_json_round_trip():
    config = SynthConfig(
        n_projects=4, block_count_range=(2, 6), block_size_range=(1, 9),
        mutation_rate=0.07, seed=42,
    )
    payload = synth_config_to_json(config)
    assert payload["block_count_range"] == [2, 6]
    assert synth_config_from_json(json.loads(json.dumps(payload))) == config


def test_opcode_alphabet():
    small = opcode_alphabet(SynthConfig(opcode_alphabet_size=10))
    assert len(small) == 10
    big = opcode_alphabet(SynthConfig(opcode_alphabet_size=45))
    assert len(big) == 45
    assert len(set(big)) == 45
    assert "op44" in big
    for alphabet in (small, big):
        assert CALL_OPCODE not in alphabet
    # deterministic, not seed dependent
    assert opcode_alphabet(SynthConfig(opcode_alphabet_size=10, seed=99)) == small


# ---------------------------------------------------------------------------
# Source world

def test_world_determinism():
    config = SynthConfig(n_projects=3, functions_per_project=5, seed=13)
    a = gen_source_world(config)
    b = gen_source_world(config)
    assert a.projects == b.projects
    assert a.fcg_edges == b.fcg_edges
    assert a.functions == b.functions


def test_world_call_graph_is_acyclic_and_project_local():
    config = SynthConfig(n_projects=4, functions_per_project=8, seed=2, call_density=2.0)
    world = gen_source_world(config)
    topo_pos = {
        name: i
        for names in world.projects.values()
        for i, name in enumerate(names)
    }
    for caller, callee in world.fcg_edges:
        assert world.functions[caller].project == world.functions[callee].project
        assert topo_pos[caller] < topo_pos[callee]


def test_world_call_site_discipline():
    config = SynthConfig(n_projects=3, functions_per_project=7, seed=5, call_density=2.0)
    world = gen_source_world(config)
    saw_call = False
    for info in world.functions.values():
        sites = info.call_sites
        assert set(sites) == set(info.callees)
        assert len(set(sites.values())) == len(sites)
        graph_blocks = blocks(info.graph)
        for callee, block_id in sites.items():
            block = graph_blocks[info.graph.node_index[block_id]]
            assert block.opcodes[-1] == CALL_OPCODE
            assert block.operands[-1] == (callee,)
            assert len(block.opcodes) >= 2
            saw_call = True
        site_blocks = set(sites.values())
        for block in graph_blocks:
            calls = [op for op in block.opcodes if op == CALL_OPCODE]
            if block.id in site_blocks:
                assert len(calls) == 1
            else:
                assert not calls
    assert saw_call


def test_world_provenance_tags_instructions():
    config = SynthConfig(n_projects=2, functions_per_project=4, seed=8)
    world = gen_source_world(config)
    for info in world.functions.values():
        assert len(info.provenance) == info.graph.instruction_count
        lines = []
        for src, line in info.provenance:
            assert src == info.name
            lines.append(line)
        assert lines == list(range(info.line_start, info.line_end + 1))


# ---------------------------------------------------------------------------
# Splicing

def _graph(name, blocks, edges):
    nodes = []
    cursor = 0
    for block_id, ops in sorted(blocks.items()):
        nodes.append(
            make_block(
                block_id,
                [op for op, _ in ops],
                4 * cursor,
                [args for _, args in ops],
            )
        )
        cursor += len(ops)
    graph = from_blocks(name, nodes, sorted(edges))
    graph.validate()
    return graph


def _count_prov(graph, first_line=1):
    """One (function, line) tag per instruction, lines counted from
    first_line."""
    return tuple(
        (graph.function_name, first_line + i) for i in range(graph.instruction_count)
    )


def test_inline_transform_hand_oracle():
    caller = _graph(
        "outer",
        {0: [("mov", ()), (CALL_OPCODE, ("inner",))], 1: [("add", ())]},
        [(0, 1)],
    )
    callee = _graph("inner", {0: [("push", ())], 1: [("pop", ())]}, [(0, 1)])
    caller_prov = _count_prov(caller)
    callee_prov = _count_prov(callee)

    spliced, prov = inline_transform(caller, callee, 0, caller_prov, callee_prov)

    assert spliced.function_name == "outer"
    assert spliced.entry == 0
    assert spliced.block_ids == (0, 1, 2, 3)
    assert [b.opcodes for b in blocks(spliced)] == [("mov",), ("add",), ("push",), ("pop",)]
    # call edge rerouted through the spliced body, exits inherit successors
    assert spliced.edges == ((0, 2), (2, 3), (3, 1))
    assert spliced.insn_addrs == (0, 4, 8, 12)
    # the call's tag goes with it; the others follow their instructions
    assert prov == (caller_prov[0], caller_prov[2], *callee_prov)


def test_inline_transform_default_provenance():
    caller = _graph(
        "outer",
        {0: [("mov", ()), (CALL_OPCODE, ("inner",))], 1: [("add", ())]},
        [(0, 1)],
    )
    callee = _graph("inner", {0: [("push", ())]}, [])
    _, prov = inline_transform(caller, callee, 0)
    assert prov == ("outer", "outer", "inner")


def test_inline_transform_rejects_bad_sites():
    caller = _graph(
        "outer",
        {0: [("mov", ()), (CALL_OPCODE, ("inner",))], 1: [("add", ())]},
        [(0, 1)],
    )
    callee = _graph("inner", {0: [("push", ())]}, [])
    with pytest.raises(SiteNotFound, match="no block"):
        inline_transform(caller, callee, 7)
    with pytest.raises(SiteNotFound, match="does not end"):
        inline_transform(caller, callee, 1)
    other = _graph("other", {0: [("push", ())]}, [])
    with pytest.raises(SiteNotFound, match="does not end"):
        inline_transform(caller, other, 0)


def test_inline_transform_rejects_call_only_block():
    caller = _graph(
        "outer",
        {0: [("mov", ())], 1: [(CALL_OPCODE, ("inner",))]},
        [(0, 1)],
    )
    callee = _graph("inner", {0: [("push", ())]}, [])
    with pytest.raises(MalformedGraph, match="besides the call"):
        inline_transform(caller, callee, 1)


def test_inline_transform_conservation_sweep():
    rng = np.random.default_rng(23)
    for trial in range(40):
        caller, callee, site = call_pair(rng, OPCODE_POOL, str(trial))
        spliced, prov = inline_transform(caller, callee, site)
        expected = caller.instruction_count + callee.instruction_count - 1
        assert spliced.instruction_count == expected
        assert len(prov) == expected
        spliced.validate()
        # every original callee block survives under a remapped id
        assert len(spliced.block_ids) == len(caller.block_ids) + len(callee.block_ids)


def _caller_with_calls(rng, tag, callees):
    """A random caller in which distinct blocks end with a call to one of
    callees each, as many as it has blocks for, and its (site, callee)
    list."""
    base = random_acfg(rng, f"caller_{tag}", OPCODE_POOL)
    n = len(base.block_ids)
    sites = rng.choice(n, size=min(n, len(callees)), replace=False)
    calls = dict(zip(map(int, sites), callees))
    nodes = []
    cursor = 0x1000
    for block in blocks(base):
        ops, args = list(block.opcodes), list(block.operands)
        if block.id in calls:
            ops.append(CALL_OPCODE)
            args.append((calls[block.id].function_name,))
        nodes.append(make_block(block.id, ops, cursor, args))
        cursor += 4 * len(ops)
    caller = from_blocks(base.function_name, nodes, base.edges, base.entry)
    caller.validate()
    return caller, list(calls.items())


def _per_block(frozen_graph, tags):
    """Provenance of one tag per instruction, split by the blocks of a
    graph of the frozen classes, as the frozen splice takes it."""
    sizes = [len(block.opcodes) for block in frozen_graph.nodes]
    bounds = list(accumulate(sizes, initial=0))
    return {
        block.id: tags[start:stop]
        for block, start, stop in zip(frozen_graph.nodes, bounds, bounds[1:])
    }


def _splices_agree(caller, calls, with_prov):
    """Splice calls into caller one after another, each result the next
    caller, with inline_transform and with the frozen per-block splice,
    both sides' inputs built from the record of each graph. After each
    splice the two give the same record, and the same provenance flattened
    in block order. Provenance is the default one unless with_prov."""

    def sides(graph):
        record = acfg_to_record(graph)
        got = build_acfg(record)
        want = oracles.one_pass_build_acfg(object_record(record))
        tags = _count_prov(graph) if with_prov else None
        return got, want, tags, (_per_block(want, tags) if with_prov else None)

    got, want, got_prov, want_prov = sides(caller)
    for site, callee in calls:
        got_callee, want_callee, got_tags, want_tags = sides(callee)
        got, got_prov = inline_transform(got, got_callee, site, got_prov, got_tags)
        want, want_prov = oracles.inline_transform(
            want, want_callee, site, want_prov, want_tags
        )
        assert acfg_to_record(got) == oracles.acfg_to_record(want)
        assert got_prov == tuple(
            chain.from_iterable(want_prov[block_id] for block_id in want.node_ids)
        )


def test_inline_transform_matches_the_frozen_per_block_splice():
    """The differential splice oracle: criterion 10's 500 call_pair draws,
    with default and with counted provenance, and chains of up to three
    splices into one caller."""
    rng = np.random.default_rng(97)
    for trial in range(500):
        caller, callee, site = call_pair(rng, OPCODE_POOL, f"acc{trial}")
        for with_prov in (False, True):
            _splices_agree(caller, [(site, callee)], with_prov)
    rng = np.random.default_rng(41)
    chained = 0
    for trial in range(150):
        callees = [
            random_acfg(rng, f"callee_{trial}_{j}", OPCODE_POOL) for j in range(3)
        ]
        caller, calls = _caller_with_calls(rng, str(trial), callees)
        _splices_agree(caller, calls, with_prov=True)
        chained += len(calls) > 1
    assert chained >= 100


# ---------------------------------------------------------------------------
# Inlining policy

def _chain_world(**overrides):
    """alpha calls bravo, bravo calls charlie; sizes 3 / 3 / 4 insns."""
    kwargs = dict(
        n_projects=1, functions_per_project=3, seed=0, call_density=1.0,
        inline_probability=1.0, inline_budget=100,
    )
    kwargs.update(overrides)
    config = SynthConfig(**kwargs)
    charlie = _graph(
        "charlie",
        {0: [("pop", ())], 1: [("xor", ()), ("inc", ()), ("dec", ())]},
        [(0, 1)],
    )
    bravo = _graph(
        "bravo",
        {0: [("mov", ()), (CALL_OPCODE, ("charlie",))], 1: [("add", ())]},
        [(0, 1)],
    )
    alpha = _graph(
        "alpha",
        {0: [("push", ())], 1: [("sub", ()), (CALL_OPCODE, ("bravo",))]},
        [(0, 1)],
    )
    functions = {}
    cursor = 1
    for graph, callees, sites in (
        (alpha, ("bravo",), {"bravo": 1}),
        (bravo, ("charlie",), {"charlie": 0}),
        (charlie, (), {}),
    ):
        start = cursor
        prov = _count_prov(graph, start)
        cursor += graph.instruction_count
        functions[graph.function_name] = SourceFunction(
            name=graph.function_name,
            project="p000",
            file="p000.c",
            line_start=start,
            line_end=cursor - 1,
            graph=graph,
            provenance=prov,
            callees=callees,
            call_sites=sites,
        )
        cursor += 1
    return SourceWorld(
        config=config,
        functions=functions,
        projects={"p000": ("alpha", "bravo", "charlie")},
        fcg_edges=(("alpha", "bravo"), ("bravo", "charlie")),
    )


def _mapped(prov):
    return {src for src, _ in prov}


def test_policy_zero_probability_is_identity():
    world = _chain_world(inline_probability=0.0)
    bodies = apply_inlining_policy(world)
    for name, info in world.functions.items():
        graph, prov = bodies[name]
        assert graph == info.graph
        assert prov == info.provenance


def test_policy_inlines_transitively():
    world = _chain_world()
    bodies = apply_inlining_policy(world)
    bravo, bravo_prov = bodies["bravo"]
    assert bravo.instruction_count == 3 + 4 - 1
    assert _mapped(bravo_prov) == {"bravo", "charlie"}
    alpha, alpha_prov = bodies["alpha"]
    # the spliced bravo body carries charlie along into alpha
    assert alpha.instruction_count == 3 + 6 - 1
    assert _mapped(alpha_prov) == {"alpha", "bravo", "charlie"}
    assert CALL_OPCODE not in alpha.insn_ops


def test_policy_budget_gates_large_callees():
    # charlie (4 insns) fits a budget of 5; the spliced bravo (6) does not
    world = _chain_world(inline_budget=5)
    bodies = apply_inlining_policy(world)
    assert _mapped(bodies["bravo"][1]) == {"bravo", "charlie"}
    alpha, alpha_prov = bodies["alpha"]
    assert alpha == world.functions["alpha"].graph
    assert _mapped(alpha_prov) == {"alpha"}


def test_policy_mutation_perturbs_opcodes_only():
    world = _chain_world(inline_probability=0.0, mutation_rate=1.0)
    alphabet = set(opcode_alphabet(world.config))
    bodies = apply_inlining_policy(world)
    for name, info in world.functions.items():
        graph, prov = bodies[name]
        assert prov == info.provenance
        assert graph.edges == info.graph.edges
        for block, original in zip(blocks(graph), blocks(info.graph), strict=True):
            assert block.id == original.id
            assert len(block.opcodes) == len(original.opcodes)
            assert block.addresses == original.addresses
            assert block.operands == original.operands
            for opcode, orig in zip(block.opcodes, original.opcodes):
                if orig == CALL_OPCODE:
                    assert opcode == CALL_OPCODE
                else:
                    assert opcode in alphabet


# ---------------------------------------------------------------------------
# Corpus

def _small_config(**overrides):
    kwargs = dict(
        n_projects=3, functions_per_project=6, seed=1, call_density=1.2,
        block_count_range=(2, 4), block_size_range=(2, 5),
    )
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


def test_generate_corpus_tables_consistent():
    corpus = generate_corpus(_small_config())
    assert len(corpus.binfuncs) == 3 * 6 * 2
    by_ref = {(bid, name): (start, end) for bid, name, start, end in corpus.binfuncs}
    total_insns = 0
    for (dataset, binary_id, name), graph in corpus.graphs.items():
        start, end = by_ref[(binary_id, name)]
        assert end - start == 4 * graph.instruction_count
        assert dataset in ("noinline", "inline")
        total_insns += graph.instruction_count
        for addr in graph.insn_addrs:
            assert start <= addr < end
    assert len(corpus.addr2line) == total_insns
    assert len(corpus.srcfuncs) == 3 * 6


def test_generate_corpus_ground_truth_refs():
    corpus = generate_corpus(_small_config())
    entries = corpus.ground_truth.entries
    assert set(entries) == set(corpus.world.functions)
    for name, entry in entries.items():
        assert len(entry.equal) == 1
        ref = entry.equal[0]
        assert ref.name == name
        assert ref.binary_id.endswith("-noinline")
        for target, pattern in entry.cross_inlining:
            assert target.binary_id.endswith("-inline")
            assert pattern in (Pattern.LEAF, Pattern.ROOT, Pattern.INTERNAL)
            if target.name == name:
                # a function bridging into its own inline body swallowed its
                # callees, and the acyclic call graph makes that a root
                assert pattern is Pattern.ROOT


def test_generate_corpus_starves_without_deep_chains():
    # two functions per project cannot produce an internal bridge
    config = SynthConfig(
        n_projects=2, functions_per_project=2, seed=0, call_density=8.0,
        inline_probability=1.0,
    )
    with pytest.raises(PatternStarvation, match="internal"):
        generate_corpus(config)


def test_write_corpus_round_trip(tmp_path):
    corpus = generate_corpus(_small_config())
    write_corpus(corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus")
    assert loaded.graphs == corpus.graphs
    assert loaded.project_ids() == sorted(corpus.projects)
    assert loaded.source_functions(loaded.project_ids()) == set(
        corpus.world.functions
    )
    manifest = loaded.manifest
    assert synth_config_from_json(manifest["config"]) == corpus.config


def _written_corpus(tmp_path):
    corpus = generate_corpus(_small_config())
    write_corpus(corpus, tmp_path / "corpus")
    path = tmp_path / "corpus" / "graphs" / "noinline" / "p000-noinline.jsonl"
    return corpus, path, path.read_text().splitlines()


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(synth_module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(synth_module, name, counting)
    return calls


def test_load_corpus_builds_each_graph_on_first_access(tmp_path, monkeypatch):
    corpus, _, _ = _written_corpus(tmp_path)
    built = _count_calls(monkeypatch, "build_acfg")
    loaded = load_corpus(tmp_path / "corpus")
    assert set(loaded.graphs) == set(corpus.graphs)
    assert len(loaded.graphs) == len(corpus.graphs)
    key = sorted(corpus.graphs)[3]
    assert key in loaded.graphs and ("noinline", "p000-noinline", "ghost") not in loaded.graphs
    assert built == []
    graph = loaded.graphs[key]
    assert graph == corpus.graphs[key]
    assert loaded.graphs[key] is graph
    assert len(built) == 1
    with pytest.raises(KeyError):
        loaded.graphs[("noinline", "p000-noinline", "ghost")]


def test_load_corpus_indexes_a_line_of_unsorted_keys_by_full_parse(
    tmp_path, monkeypatch
):
    """A line is found by its position, whatever the order of its keys and
    its line ending: load_corpus parses no line, and the graph built from
    the whole line is the same."""
    corpus, path, lines = _written_corpus(tmp_path)
    record = json.loads(lines[1])
    name = record.pop("name")
    lines[1] = json.dumps({"name": name, **record})
    path.write_text("\r\n".join(lines) + "\r\n")
    rehash_graph_file(path)
    parsed = _count_calls(monkeypatch, "parse_record")
    loaded = load_corpus(tmp_path / "corpus")
    assert parsed == []
    key = ("noinline", "p000-noinline", name)
    assert loaded.graphs[key] == corpus.graphs[key]
    assert len(parsed) == 1 and json.loads(parsed[0][0])["name"] == name
    assert loaded.graphs == corpus.graphs


def test_corpus_graph_of_an_escaped_name_is_found_by_its_manifest_line(tmp_path):
    corpus, path, lines = _written_corpus(tmp_path)
    record = json.loads(lines[0])
    record["name"] = 'q"\\u00e9}"name": "x'
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    functions = [json.loads(line)["name"] for line in lines]
    rehash_graph_file(path, functions)
    loaded = load_corpus(tmp_path / "corpus")
    graph = loaded.graphs[("noinline", "p000-noinline", record["name"])]
    assert graph.function_name == record["name"]


def test_corpus_manifest_refuses_a_repeated_function_name(tmp_path):
    _, path, lines = _written_corpus(tmp_path)
    first, second = (json.loads(line)["name"] for line in lines[:2])
    functions = [json.loads(line)["name"] for line in lines]
    functions[1] = first
    rehash_graph_file(path, functions)
    manifest = tmp_path / "corpus" / "manifest.json"
    with pytest.raises(ValidationError, match=re.escape(f"['{first}'] more than once")) as exc:
        load_corpus(tmp_path / "corpus")
    assert str(exc.value).startswith(f"{manifest}: bad graph_files")


@pytest.mark.parametrize(
    "line, found",
    [("{not json", "JSONDecodeError"), ('{"edges": []}', "missing key 'name'"),
     (None, "name must be a string"), ("[1, 2]", "not a JSON object")],
    ids=["not-json", "no-name", "name-not-a-string", "not-an-object"],
)
def test_load_corpus_fails_on_a_line_it_cannot_name(tmp_path, line, found):
    """The manifest names the function of line 3, but the line itself does
    not: building that graph fails naming path:3, and the other lines still
    build."""
    corpus, path, lines = _written_corpus(tmp_path)
    name = json.loads(lines[2])["name"]
    if line is None:
        line = json.dumps({**json.loads(lines[2]), "name": 5}, sort_keys=True)
    path.write_text("\n".join([*lines[:2], line, *lines[3:]]) + "\n")
    rehash_graph_file(path)
    loaded = load_corpus(tmp_path / "corpus")
    with pytest.raises(MalformedGraph, match=found) as exc:
        loaded.graphs[("noinline", "p000-noinline", name)]
    assert f"{path}:3: " in str(exc.value)
    key = ("noinline", "p000-noinline", json.loads(lines[3])["name"])
    assert loaded.graphs[key] == corpus.graphs[key]


def test_corpus_graph_of_a_bad_record_fails_on_access_naming_its_line(tmp_path):
    _, path, lines = _written_corpus(tmp_path)
    record = json.loads(lines[1])
    del record["block_ids"][0]
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    rehash_graph_file(path)
    loaded = load_corpus(tmp_path / "corpus")
    loaded.graphs[("noinline", "p000-noinline", json.loads(lines[0])["name"])]
    with pytest.raises(MalformedGraph, match="columns that do not line up") as exc:
        loaded.graphs[("noinline", "p000-noinline", record["name"])]
    assert f"{path}:2: " in str(exc.value)


def test_corpus_graph_of_a_file_changed_after_synth_fails(tmp_path):
    """Its first read checks the file's sha256, and every graph of the file
    is built from the bytes that were checked: an edit made after the
    check does not reach a graph."""
    _, path, lines = _written_corpus(tmp_path)
    record = json.loads(lines[0])
    name, op = record["name"], record["insn_ops"][0]
    other = "z" * len(op)  # of the same length, so no line moves
    edited = lines[0].replace(f'"insn_ops": ["{op}"', f'"insn_ops": ["{other}"', 1)
    assert edited != lines[0]
    loaded = load_corpus(tmp_path / "corpus")
    path.write_text("\n".join([edited] + lines[1:]) + "\n")
    with pytest.raises(GraphFileChanged, match=f"^{re.escape(str(path))}: sha256"):
        loaded.graphs[("noinline", "p000-noinline", name)]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_corpus(tmp_path / "corpus")
    loaded.graphs[("noinline", "p000-noinline", json.loads(lines[2])["name"])]
    path.write_text("\n".join([edited] + lines[1:]) + "\n")  # after the check
    graph = loaded.graphs[("noinline", "p000-noinline", name)]
    assert graph.insn_ops[0] == op


def test_corpus_graph_of_another_function_than_the_manifest_lists_fails(tmp_path):
    """A rehashed file passes its check, but a line must still hold the
    function the manifest lists there."""
    _, path, lines = _written_corpus(tmp_path)
    name = json.loads(lines[0])["name"]
    renamed = name[:-2] + "99"
    lines[0] = lines[0].replace(f'"{name}"', f'"{renamed}"')
    path.write_text("\n".join(lines) + "\n")
    rehash_graph_file(path)
    loaded = load_corpus(tmp_path / "corpus")
    with pytest.raises(MalformedGraph, match=f"not {name!r}, the function") as exc:
        loaded.graphs[("noinline", "p000-noinline", name)]
    assert f"{path}:1: holds {renamed!r}" in str(exc.value)


def test_write_corpus_deterministic(tmp_path):
    config = _small_config(mutation_rate=0.05)
    for run in ("one", "two"):
        write_corpus(generate_corpus(config), tmp_path / run)
    files_one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    files_two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
    assert files_one == files_two
    for rel in files_one:
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


@pytest.fixture(scope="module", params=sorted(DIFFERENTIAL_CONFIGS))
def written(request, tmp_path_factory):
    """A differential corpus written by synth and loaded back."""
    directory = tmp_path_factory.mktemp(request.param)
    write_corpus(generate_corpus(DIFFERENTIAL_CONFIGS[request.param]), directory)
    return load_corpus(directory)


def test_manifest_records_each_binarys_counts_and_file_hash(written):
    """Every binary's manifest counts are count_opcodes of its graphs read
    back through load_corpus, and its sha256 is that of its file."""
    entries = written.manifest["graph_files"]
    by_binary = {}
    for key in written.graphs:
        by_binary.setdefault(key[:2], []).append(written.graphs[key])
    assert {binary_id for _, binary_id in by_binary} == set(entries)
    for (dataset, binary_id), graphs in by_binary.items():
        assert entries[binary_id]["opcode_counts"] == count_opcodes(graphs)
        path = written.root / "graphs" / dataset / f"{binary_id}.jsonl"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert entries[binary_id]["sha256"] == digest


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
@pytest.mark.parametrize("max_size", [8, 256])
def test_vocabulary_of_summed_counts_equals_vocabulary_of_graphs(
    written, seed, max_size, monkeypatch
):
    """The vocabulary train builds from the manifest's counts of its
    training projects is the one their graphs give, and building it
    builds no graph."""
    split = split_projects(written.project_ids(), [seed, 5])
    train_binaries = binary_ids(written.manifest, split.train)
    graphs = [
        written.graphs[key] for key in sorted(written.graphs) if key[1] in train_binaries
    ]
    built = _count_calls(monkeypatch, "build_acfg")
    counts = load_corpus(written.root).opcode_counts(split.train)
    assert built == []
    assert counts == count_opcodes(graphs)
    assert build_vocabulary(counts, max_size) == build_vocabulary(
        count_opcodes(graphs), max_size
    )


def test_opcode_counts_refuse_a_graph_file_changed_after_synth(tmp_path):
    corpus, path, lines = _written_corpus(tmp_path)
    record = json.loads(lines[0])
    ops = record["insn_ops"]
    ops[0] = "nop" if ops[0] != "nop" else "mov"
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    loaded = load_corpus(tmp_path / "corpus")
    with pytest.raises(GraphFileChanged, match=f"^{re.escape(str(path))}: sha256"):
        loaded.opcode_counts(["p000"])
    other = sorted(set(loaded.project_ids()) - {"p000"})
    assert loaded.opcode_counts(other)  # files that did not change still count
