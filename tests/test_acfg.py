import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cidetect.acfg import (
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
    COLUMNS, DIAMOND_OPCODE_COUNTS, DIFFERENTIAL_CONFIGS, OPCODE_POOL, Block,
    blocks, columnar_record, diamond, from_blocks, make_graph, object_record,
    random_acfg, tiny_vocab,
)


def _block(block_id, *insns):
    """A block from (address, opcode) pairs, without operands."""
    return Block(
        id=block_id,
        opcodes=tuple(op for _, op in insns),
        addresses=tuple(addr for addr, _ in insns),
        operands=((),) * len(insns),
    )


def _graph(*blocks, edges=(), entry=0):
    return from_blocks("g", blocks, edges, entry)


def test_block_opcodes_order():
    graph = _graph(_block(0, (0x10, "push"), (0x14, "mov"), (0x18, "ret")))
    assert graph.insn_ops == ("push", "mov", "ret")
    assert blocks(graph)[0].opcodes == ("push", "mov", "ret")


def test_opcode_counts_against_counter_oracle():
    graph = diamond()
    oracle = Counter()
    for block in blocks(graph):
        for opcode in block.opcodes:
            oracle[opcode] += 1
    assert count_opcodes([graph]) == oracle
    assert dict(oracle) == DIAMOND_OPCODE_COUNTS


def test_instruction_count_and_block_lookup():
    graph = diamond()
    assert graph.instruction_count == sum(DIAMOND_OPCODE_COUNTS.values())
    assert blocks(graph)[graph.node_index[2]].opcodes == ("mov", "sub", "xor")
    assert graph.block_ids == (0, 1, 2, 3)


def _validate_raises(graph, match):
    with pytest.raises(MalformedGraph, match=match):
        graph.validate()


def test_validate_rejects_structural_defects():
    ok = diamond()
    b0, b1 = blocks(ok)[:2]
    _validate_raises(_graph(), "no basic blocks")
    _validate_raises(_graph(b0, b0), "duplicate block ids")
    _validate_raises(_graph(b1, b0), "not sorted")
    _validate_raises(_graph(b0, entry=9), "entry 9")
    _validate_raises(_graph(_block(0)), "is empty")
    _validate_raises(_graph(_block(0, (0, ""))), "empty opcode")
    # the block sizes and the instruction columns must line up
    _validate_raises(
        replace(ok, block_sizes=(4, 2, 3, 1)),
        "'diamond': columns that do not line up: 4 block ids, 4 block sizes "
        r"\(each >= 0\) that sum to 10, 11 ops",
    )
    _validate_raises(replace(ok, block_sizes=(4, 0, 5, 2)), "'diamond': block 1 is empty")
    _validate_raises(
        replace(ok, insn_addrs=ok.insn_addrs[:-1]),
        "'diamond': columns that do not line up: .* 11 ops, 10 addrs and 11 args",
    )
    _validate_raises(
        replace(ok, insn_args=ok.insn_args + ((),)),
        "'diamond': columns that do not line up: .* 11 addrs and 12 args",
    )
    _validate_raises(
        replace(ok, insn_ops=ok.insn_ops[1:]),
        "'diamond': columns that do not line up: .* 10 ops",
    )
    _validate_raises(_graph(_block(0, (8, "mov"), (4, "mov"))), "strictly increasing")
    duplicate_addr = _graph(_block(0, (4, "mov")), _block(1, (4, "add")), edges=((0, 1),))
    _validate_raises(duplicate_addr, "duplicate address")
    _validate_raises(_graph(_block(0, (4, "mov")), edges=((0, 7),)), "dangling edge")
    unreachable = _graph(_block(0, (4, "mov")), _block(1, (8, "add")))
    _validate_raises(unreachable, "unreachable")


def _diamond_record():
    """A record with an upper-case opcode, operands and a repeated edge."""
    return {
        "name": "diamond",
        "entry": 0,
        "edges": [[0, 1], [0, 2], [1, 2], [0, 1]],
        "block_ids": [0, 1, 2],
        "block_sizes": [2, 1, 1],
        "insn_ops": ["PUSH", "je", "Mov", "ret"],
        "insn_addrs": [0x1000, 0x1004, 0x1008, 0x100C],
        "insn_args": [[], ["l1"], [], []],
    }


def _object_diamond_record():
    """_diamond_record in the layout of one object per instruction."""
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


def test_columnar_record_converts_the_object_layout():
    assert columnar_record(_object_diamond_record()) == _diamond_record()


def _add_block(record, block_id, op, addr):
    """A one-instruction block appended to a record's columns."""
    for column, value in zip(COLUMNS, (block_id, 1, op, addr, [])):
        record[column].append(value)


def test_build_acfg_lowercases_and_dedupes_edges():
    graph = build_acfg(_diamond_record())
    assert blocks(graph)[0] == ((0, ("push", "je"), (0x1000, 0x1004), ((), ("l1",))))
    assert blocks(graph)[1].opcodes == ("mov",)
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    assert graph.entry == 0


def test_build_acfg_drops_unreachable_blocks(caplog):
    record = _diamond_record()
    _add_block(record, 5, "nop", 0x2000)
    with caplog.at_level("WARNING", logger="cidetect.acfg"):
        graph = build_acfg(record)
    assert graph.block_ids == (0, 1, 2)
    assert graph == build_acfg(_diamond_record())
    assert any("unreachable" in rec.message for rec in caplog.records)


def test_build_acfg_refuses_the_object_per_instruction_layout():
    with pytest.raises(
        MalformedGraph, match="instruction objects under 'blocks'.*insn_ops"
    ):
        build_acfg(_object_diamond_record())


def test_record_round_trip():
    graph = diamond()
    rebuilt = build_acfg(acfg_to_record(graph))
    assert rebuilt == graph


def test_strip_name():
    graph = diamond()
    stripped = strip_name(graph)
    assert stripped.function_name == ""
    assert replace(stripped, function_name="diamond") == graph


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
        for block in blocks(g):
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
        assert mat.shape == (len(graph.block_ids), vocab.feature_dim)
        assert mat.dtype == np.float64
        for row, block in zip(mat, blocks(graph), strict=True):
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
    """Records in the layout of one object per instruction that synth does
    not write: an unreachable block, blocks out of id order, no "args"."""
    unreachable = _object_diamond_record()
    unreachable["blocks"].append(
        {"id": 5, "insns": [{"addr": 0x2000, "op": "NOP", "args": []}]}
    )
    unreachable["edges"].append([5, 2])
    shuffled = _object_diamond_record()
    shuffled["blocks"].reverse()
    no_args = _object_diamond_record()
    for block in no_args["blocks"]:
        for ins in block["insns"]:
            del ins["args"]
    return [_object_diamond_record(), unreachable, shuffled, no_args]


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
    return graph.function_name, graph.entry, graph.edges, blocks(graph)


@pytest.mark.parametrize(
    "config", list(DIFFERENTIAL_CONFIGS.values()), ids=list(DIFFERENTIAL_CONFIGS)
)
def test_build_acfg_matches_reference_parser(config):
    """Every graph of the corpus, and the edge records, in the layout of one
    object per instruction: the frozen parsers of that layout build the
    graph that build_acfg builds from the record's columns, and the frozen
    writer writes the record of its graph that acfg_to_record writes."""
    graphs = generate_corpus(config).graphs.values()
    records = [object_record(acfg_to_record(g)) for g in graphs] + _edge_records()
    for record in records:
        graph = build_acfg(columnar_record(record))
        assert _view(graph) == _oracle_view(oracles.build_acfg(record))
        got = acfg_to_record(graph)
        assert got == oracles.acfg_to_record(oracles.columnar_build_acfg(record))
        assert got == oracles.acfg_to_record(oracles.one_pass_build_acfg(record))


@pytest.mark.parametrize(
    "config", list(DIFFERENTIAL_CONFIGS.values()), ids=list(DIFFERENTIAL_CONFIGS)
)
def test_records_round_trip_every_graph_of_the_corpus(tmp_path, config):
    """build_acfg of acfg_to_record is the graph, and acfg_to_record of
    build_acfg is the record, for every record that synth writes."""
    corpus = generate_corpus(config)
    write_corpus(corpus, tmp_path)
    for graph in corpus.graphs.values():
        assert build_acfg(acfg_to_record(graph)) == graph
    records = _corpus_records(tmp_path)
    assert len(records) == len(corpus.graphs)
    for record in records:
        assert acfg_to_record(build_acfg(record)) == record


@pytest.mark.parametrize(
    "config", list(DIFFERENTIAL_CONFIGS.values()), ids=list(DIFFERENTIAL_CONFIGS)
)
def test_featurize_graph_matches_the_frozen_featurizer_bit_for_bit(config):
    """Every graph of the corpus, under a vocabulary of all its opcodes and
    under one that leaves most of them to the out-of-vocabulary slot; the
    frozen featurizer reads the graph that the frozen parser builds from
    the same record."""
    graphs = list(generate_corpus(config).graphs.values())
    frozen = [
        oracles.one_pass_build_acfg(object_record(acfg_to_record(g))) for g in graphs
    ]
    counts = count_opcodes(graphs)
    for max_size in (len(counts), 4):
        vocab = build_vocabulary(counts, max_size)
        for graph, frozen_graph in zip(graphs, frozen, strict=True):
            got = featurize_graph(graph, vocab)
            want = oracles.featurize_graph(frozen_graph, vocab)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_build_acfg_rejects_what_the_reference_parser_rejects():
    def mutated(edit):
        record = _object_diamond_record()
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
            build_acfg(columnar_record(record))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda r: r["block_ids"].pop(), "2 block ids, 3 block sizes"),
        (lambda r: r.update(edges=[[0]]), "edges must be"),
        (lambda r: r.update(block_ids=["0", 1, 2]), "must be integers"),
        (lambda r: r.update(insn_addrs=[0, True, 8, 12]), "must be integers"),
        (lambda r: r.update(insn_ops=["push", 7, "mov", "ret"]), "opcodes must be strings"),
        (lambda r: r.update(insn_args=[[], "rax", [], []]), "args must be"),
        (lambda r: r.update(name=None), "name must be a string"),
        (lambda r: r.pop("edges"), "missing key 'edges'"),
        (lambda r: r.update(block_sizes=[2, 1, 2]), "that sum to 5, 4 ops"),
        (lambda r: r.update(block_sizes=[4, -1, 1]), "each >= 0"),
        (lambda r: r["insn_addrs"].pop(), "3 addrs"),
        (lambda r: r.update(insn_args={}), "columns must be lists"),
    ],
)
def test_build_acfg_rejects_bad_shapes(edit, match):
    record = _diamond_record()
    edit(record)
    with pytest.raises(MalformedGraph, match=match):
        build_acfg(record)
