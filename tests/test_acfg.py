import json
from collections import Counter

import numpy as np
import pytest

from cidetect.acfg import (
    AttributedCFG,
    BasicBlock,
    acfg_to_record,
    build_acfg,
    build_vocabulary,
    count_opcodes,
    featurize_graph,
    iter_function_records,
    strip_name,
    vocabulary_from_json,
    vocabulary_to_json,
    write_function_records,
    write_json,
)
from cidetect.errors import EmptyCorpus, MalformedGraph

from cidetect.synth import generate_corpus, write_corpus

import oracles
from helpers import (
    DIAMOND_OPCODE_COUNTS, DIFFERENTIAL_CONFIGS, OPCODE_POOL, diamond, make_graph,
    random_acfg, tiny_vocab,
)


def _block(block_id, *insns):
    """A block from (address, opcode) pairs, without operands."""
    return BasicBlock(
        id=block_id,
        opcodes=tuple(op for _, op in insns),
        addresses=tuple(addr for addr, _ in insns),
        operands=((),) * len(insns),
    )


def test_block_opcodes_order():
    block = _block(0, (0x10, "push"), (0x14, "mov"), (0x18, "ret"))
    assert block.opcodes == ("push", "mov", "ret")


def test_opcode_counts_against_counter_oracle():
    graph = diamond()
    oracle = Counter()
    for block in graph.nodes:
        for opcode in block.opcodes:
            oracle[opcode] += 1
    assert count_opcodes([graph]) == oracle
    assert dict(oracle) == DIAMOND_OPCODE_COUNTS


def test_instruction_count_and_block_lookup():
    graph = diamond()
    assert graph.instruction_count == sum(DIAMOND_OPCODE_COUNTS.values())
    assert graph.block(2).opcodes == ("mov", "sub", "xor")
    assert graph.node_ids == (0, 1, 2, 3)


def _validate_raises(graph, match):
    with pytest.raises(MalformedGraph, match=match):
        graph.validate()


def test_validate_rejects_structural_defects():
    ok = diamond()
    _validate_raises(AttributedCFG("g", (), (), 0), "no basic blocks")
    dup = AttributedCFG("g", (ok.nodes[0], ok.nodes[0]), (), 0)
    _validate_raises(dup, "duplicate block ids")
    unsorted_nodes = AttributedCFG("g", (ok.nodes[1], ok.nodes[0]), (), 0)
    _validate_raises(unsorted_nodes, "not sorted")
    bad_entry = AttributedCFG("g", (ok.nodes[0],), (), 9)
    _validate_raises(bad_entry, "entry 9")
    empty_block = AttributedCFG("g", (_block(0),), (), 0)
    _validate_raises(empty_block, "is empty")
    empty_opcode = AttributedCFG("g", (_block(0, (0, "")),), (), 0)
    _validate_raises(empty_opcode, "empty opcode")
    ragged = AttributedCFG(
        "g", (BasicBlock(0, ("mov", "add"), (0, 4), ((),)),), (), 0
    )
    _validate_raises(ragged, "unequal length")
    backwards = AttributedCFG("g", (_block(0, (8, "mov"), (4, "mov")),), (), 0)
    _validate_raises(backwards, "strictly increasing")
    duplicate_addr = AttributedCFG(
        "g", (_block(0, (4, "mov")), _block(1, (4, "add"))), ((0, 1),), 0
    )
    _validate_raises(duplicate_addr, "duplicate address")
    dangling = AttributedCFG("g", (_block(0, (4, "mov")),), ((0, 7),), 0)
    _validate_raises(dangling, "dangling edge")
    unreachable = AttributedCFG(
        "g", (_block(0, (4, "mov")), _block(1, (8, "add"))), (), 0
    )
    _validate_raises(unreachable, "unreachable")


def _diamond_record():
    return {
        "name": "diamond",
        "entry": 0,
        "blocks": [
            {
                "id": 0,
                "insns": [
                    {"addr": 0x1000, "op": "PUSH", "args": []},
                    {"addr": 0x1004, "op": "je", "args": ["l1"]},
                ],
            },
            {"id": 1, "insns": [{"addr": 0x1008, "op": "Mov", "args": []}]},
            {"id": 2, "insns": [{"addr": 0x100C, "op": "ret", "args": []}]},
        ],
        "edges": [[0, 1], [0, 2], [1, 2], [0, 1]],
    }


def test_build_acfg_lowercases_and_dedupes_edges():
    graph = build_acfg(_diamond_record())
    assert graph.block(0).opcodes == ("push", "je")
    assert graph.block(1).opcodes == ("mov",)
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    assert graph.entry == 0


def test_build_acfg_drops_unreachable_blocks(caplog):
    record = _diamond_record()
    record["blocks"].append(
        {"id": 5, "insns": [{"addr": 0x2000, "op": "nop", "args": []}]}
    )
    with caplog.at_level("WARNING", logger="cidetect.acfg"):
        graph = build_acfg(record)
    assert 5 not in graph.node_ids
    assert any("unreachable" in rec.message for rec in caplog.records)


def test_record_round_trip():
    graph = diamond()
    rebuilt = build_acfg(acfg_to_record(graph))
    assert rebuilt == graph


def test_strip_name():
    graph = diamond()
    stripped = strip_name(graph)
    assert stripped.function_name == ""
    assert stripped.nodes == graph.nodes


def test_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    graphs = [random_acfg(rng, f"f{i:02d}", OPCODE_POOL) for i in range(20)]
    path = tmp_path / "funcs.jsonl"
    write_function_records(path, graphs)
    rebuilt = [build_acfg(r) for r in iter_function_records(path)]
    assert rebuilt == graphs


def test_write_json_replaces_the_file_whole_and_names_it_on_failure(tmp_path):
    """A write goes to a temp file that then replaces the target; a write
    that cannot happen names the target, not the temp file, and leaves
    nothing behind."""
    path = tmp_path / "out.json"
    path.write_text("old\n")
    write_json(path, {"b": 1, "a": [2]})
    assert path.read_text() == '{\n "a": [\n  2\n ],\n "b": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    missing = tmp_path / "no-such-dir" / "out.json"
    with pytest.raises(FileNotFoundError) as exc:
        write_json(missing, {})
    assert exc.value.filename == str(missing) and str(missing) in str(exc.value)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_build_vocabulary_frequency_ranked():
    """Keys sorted by descending count, ties broken alphabetically; oracle
    computed with a plain Counter."""
    rng = np.random.default_rng(3)
    graphs = [random_acfg(rng, f"f{i}", OPCODE_POOL) for i in range(30)]
    oracle = Counter()
    for g in graphs:
        for block in g.nodes:
            oracle.update(block.opcodes)
    expected = tuple(sorted(oracle, key=lambda op: (-oracle[op], op)))
    vocab = build_vocabulary(count_opcodes(graphs), max_size=256)
    assert vocab.key_sequence == expected
    assert vocab.feature_dim == len(expected) + 1
    assert vocab.unk_index == len(expected)


def test_build_vocabulary_truncates():
    rng = np.random.default_rng(4)
    graphs = [random_acfg(rng, f"f{i}", OPCODE_POOL) for i in range(30)]
    counts = count_opcodes(graphs)
    full = build_vocabulary(counts, max_size=256)
    small = build_vocabulary(counts, max_size=4)
    assert small.key_sequence == full.key_sequence[:4]
    assert small.feature_dim == 5


def test_build_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary(count_opcodes([]), max_size=16)


def test_featurize_graph_one_block_worked_example():
    """Six instructions over four keys: raw counts land per key slot and the
    trailing slot stays zero when nothing is unknown."""
    graph = make_graph("g", [(0, ["push", "push", "push", "mov", "test", "je"])], [])
    vocab = tiny_vocab(["push", "mov", "test", "je"])
    mat = featurize_graph(graph, vocab)
    assert mat.tolist() == [[3, 1, 1, 1, 0]]
    assert mat.dtype == np.float64


def test_featurize_graph_one_block_counts_unknown():
    graph = make_graph("g", [(0, ["mov", "frobnicate", "warble"])], [])
    vocab = tiny_vocab(["mov", "add"])
    assert featurize_graph(graph, vocab).tolist() == [[1, 0, 2]]


def test_featurize_graph_rows_match_nodes():
    rng = np.random.default_rng(5)
    graphs = [random_acfg(rng, f"f{i}", OPCODE_POOL) for i in range(10)]
    vocab = build_vocabulary(count_opcodes(graphs), max_size=6)
    for graph in graphs:
        mat = featurize_graph(graph, vocab)
        assert mat.shape == (len(graph.nodes), vocab.feature_dim)
        assert mat.dtype == np.float64
        for row, block in zip(mat, graph.nodes):
            oracle = Counter(block.opcodes)
            expected = [oracle.get(op, 0) for op in vocab.key_sequence]
            expected.append(
                sum(c for op, c in oracle.items() if op not in vocab.index)
            )
            assert row.tolist() == expected


def test_vocabulary_json_round_trip():
    vocab = tiny_vocab(["mov", "add", "ret"])
    payload = vocabulary_to_json(vocab)
    assert vocabulary_from_json(json.loads(json.dumps(payload))) == vocab


# ---------------------------------------------------------------------------
# Differential checks against the one-object-per-instruction parser and the
# columnar parser and featurizer frozen in tests/oracles.py

def _corpus_records(directory):
    return [
        record
        for path in sorted(directory.glob("graphs/*/*.jsonl"))
        for record in iter_function_records(path)
    ]


def _edge_records():
    unreachable = _diamond_record()
    unreachable["blocks"].append(
        {"id": 5, "insns": [{"addr": 0x2000, "op": "NOP", "args": []}]}
    )
    unreachable["edges"].append([5, 2])
    shuffled = _diamond_record()
    shuffled["blocks"].reverse()
    no_args = _diamond_record()
    for block in no_args["blocks"]:
        for ins in block["insns"]:
            del ins["args"]
    return [_diamond_record(), unreachable, shuffled, no_args]


def _oracle_view(graph):
    return (
        graph.function_name,
        graph.entry,
        graph.edges,
        [
            (
                block.id,
                tuple(ins.opcode for ins in block.instructions),
                tuple(ins.address for ins in block.instructions),
                tuple(ins.operands for ins in block.instructions),
            )
            for block in graph.nodes
        ],
    )


def _view(graph):
    return (
        graph.function_name,
        graph.entry,
        graph.edges,
        [
            (block.id, block.opcodes, block.addresses, block.operands)
            for block in graph.nodes
        ],
    )


@pytest.mark.parametrize(
    "config", list(DIFFERENTIAL_CONFIGS.values()), ids=list(DIFFERENTIAL_CONFIGS)
)
def test_build_acfg_matches_reference_parser(tmp_path, config):
    write_corpus(generate_corpus(config), tmp_path)
    records = _corpus_records(tmp_path) + _edge_records()
    assert len(records) > 4
    for record in records:
        graph = build_acfg(record)
        assert _view(graph) == _oracle_view(oracles.build_acfg(record))
        assert graph == oracles.columnar_build_acfg(record)


@pytest.mark.parametrize(
    "config", list(DIFFERENTIAL_CONFIGS.values()), ids=list(DIFFERENTIAL_CONFIGS)
)
def test_featurize_graph_matches_the_frozen_featurizer_bit_for_bit(config):
    """Every graph of the corpus, under a vocabulary of all its opcodes and
    under one that leaves most of them to the out-of-vocabulary slot."""
    graphs = list(generate_corpus(config).graphs.values())
    counts = count_opcodes(graphs)
    for max_size in (len(counts), 4):
        vocab = build_vocabulary(counts, max_size)
        for graph in graphs:
            got = featurize_graph(graph, vocab)
            want = oracles.featurize_graph(graph, vocab)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_build_acfg_rejects_what_the_reference_parser_rejects():
    def mutated(edit):
        record = _diamond_record()
        edit(record)
        return record

    bad = [
        mutated(lambda r: r["blocks"].append(r["blocks"][0])),  # duplicate id
        mutated(lambda r: r.update(entry=9)),
        mutated(lambda r: r["edges"].append([0, 9])),
        mutated(lambda r: r.update(blocks=[])),
        mutated(lambda r: r["blocks"][1].update(insns=[])),
        mutated(lambda r: r["blocks"][1]["insns"][0].update(op="")),
        mutated(lambda r: r["blocks"][2]["insns"][0].update(addr=0x1000)),
    ]
    for record in bad:
        with pytest.raises(MalformedGraph):
            oracles.build_acfg(record)
        with pytest.raises(MalformedGraph):
            build_acfg(record)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda r: r["blocks"][0].pop("id"), "lacks 'id'"),
        (lambda r: r.update(edges=[[0]]), "edges must be"),
        (lambda r: r["blocks"][0].update(id="0"), "must be integers"),
        (lambda r: r["blocks"][1]["insns"][0].update(addr=True), "must be integers"),
        (lambda r: r["blocks"][1]["insns"][0].update(op=7), "opcodes must be strings"),
        (lambda r: r["blocks"][1]["insns"][0].update(args="rax"), "args must be"),
        (lambda r: r.update(name=None), "name must be a string"),
        (lambda r: r.pop("edges"), "missing key 'edges'"),
    ],
)
def test_build_acfg_rejects_bad_shapes(edit, match):
    record = _diamond_record()
    edit(record)
    with pytest.raises(MalformedGraph, match=match):
        build_acfg(record)
