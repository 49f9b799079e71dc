"""Property tests: mutated function records never escape build_acfg, and
it decides on them, converted to columns, as the frozen parsers of the
layout of one object per instruction did; mutated graph-file lines and pair
records never escape a loaded corpus or
read_pairs, a mutated corpus manifest never escapes train's vocabulary
path, damaged line tables never escape label's index build, and a cut or
bit-flipped checkpoint never escapes load_checkpoint, as anything but a
CIDetectError.
Needs hypothesis (the dev extra); without it the module is skipped."""

import copy
import json
import logging
import math
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cidetect.acfg import (  # noqa: E402
    AttributedCFG, acfg_to_record, build_acfg, build_vocabulary
)
from cidetect.cli import build_index_from_corpus  # noqa: E402
from cidetect.errors import (  # noqa: E402
    CIDetectError, InconsistentTables, MalformedGraph
)
from cidetect.gnn import (  # noqa: E402
    ModelConfig, init_params, load_checkpoint, param_shapes, save_checkpoint
)
from cidetect.labeling import CROSS_PATTERNS  # noqa: E402
from cidetect.pairgen import PairRef, _pair_record, read_pairs, sample_pairs  # noqa: E402
from cidetect.synth import (  # noqa: E402
    SynthConfig, generate_corpus, load_corpus, write_corpus
)

import oracles  # noqa: E402
from helpers import (  # noqa: E402
    COLUMNS, columnar_record, object_record, rehash_graph_file
)

_CORPUS = generate_corpus(
    SynthConfig(n_projects=2, functions_per_project=4, call_density=2.0, seed=1)
)
# the records of the corpus in the layout of one object per instruction,
# which the frozen parsers read
BASE_RECORDS = [
    object_record(acfg_to_record(g)) for _, g in sorted(_CORPUS.graphs.items())
]

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(
        st.sampled_from(["id", "op", "addr", "x"]), st.integers(0, 3), max_size=2
    ),
)


def _containers(value, out):
    """Every dict and list inside a record, the record included."""
    if isinstance(value, (dict, list)):
        out.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, out)
    return out


def _pick(data, items):
    if not items:
        raise IndexError("nothing to pick")
    return items[data.draw(st.integers(0, len(items) - 1))]


def _insns(record):
    return [ins for block in record["blocks"] for ins in block["insns"]]


def drop_key(record, data):
    dicts = [c for c in _containers(record, []) if isinstance(c, dict) and c]
    target = _pick(data, dicts)
    del target[_pick(data, sorted(target))]


def change_type(record, data):
    target = _pick(data, [c for c in _containers(record, []) if c])
    keys = sorted(target) if isinstance(target, dict) else range(len(target))
    key = _pick(data, keys)
    target[key] = data.draw(JUNK)


def truncate_edges(record, data):
    edges = record["edges"]
    if edges and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(edges) - 1))
        edges[i] = edges[i][: data.draw(st.integers(0, 1))]
    else:
        del edges[data.draw(st.integers(0, len(edges))):]


def reorder_addresses(record, data):
    block = _pick(data, record["blocks"])
    addrs = [ins["addr"] for ins in block["insns"]]
    for ins, addr in zip(block["insns"], data.draw(st.permutations(addrs))):
        ins["addr"] = addr


def duplicate_address(record, data):
    insns = _insns(record)
    _pick(data, insns)["addr"] = _pick(data, insns)["addr"]


def empty_opcode(record, data):
    _pick(data, _insns(record))["op"] = ""


def empty_block(record, data):
    _pick(data, record["blocks"])["insns"] = []


def shuffle_blocks(record, data):
    record["blocks"] = data.draw(st.permutations(record["blocks"]))


def shift_block(record, data):
    """One block's addresses moved below every other's, a valid layout."""
    block = _pick(data, record["blocks"])
    low = min(ins["addr"] for ins in _insns(record)) - 4 * len(block["insns"])
    for i, ins in enumerate(block["insns"]):
        ins["addr"] = low + 4 * i


def swap_ids(record, data):
    """Two blocks trade ids, so ids no longer rise with the addresses."""
    first, second = _pick(data, record["blocks"]), _pick(data, record["blocks"])
    first["id"], second["id"] = second["id"], first["id"]


def retarget(record, data):
    """The entry or an edge end set to a block id, or to one past them."""
    block_id = data.draw(st.integers(-1, len(record["blocks"])))
    if record["edges"] and data.draw(st.booleans()):
        _pick(data, record["edges"])[data.draw(st.integers(0, 1))] = block_id
    else:
        record["entry"] = block_id


def upper_opcode(record, data):
    ins = _pick(data, _insns(record))
    ins["op"] = ins["op"].upper()


def drop_args(record, data):
    del _pick(data, _insns(record))["args"]


# mutations of a record of columns

def resize_block(record, data):
    sizes = record["block_sizes"]
    sizes[data.draw(st.integers(0, len(sizes) - 1))] += data.draw(st.integers(-2, 2))


def cut_column(record, data):
    column = record[data.draw(st.sampled_from(COLUMNS))]
    del column[data.draw(st.integers(0, len(column))):]


def repeat_in_column(record, data):
    """A value of a column written over another of the same column."""
    column = record[data.draw(st.sampled_from(COLUMNS))]
    column[data.draw(st.integers(0, len(column) - 1))] = _pick(data, column)


COLUMN_MUTATIONS = [
    drop_key, change_type, truncate_edges, resize_block, cut_column,
    repeat_in_column,
]


def _mutated(base, mutations, data):
    record = copy.deepcopy(base)
    for mutate in mutations:
        try:
            mutate(record, data)
        except (KeyError, TypeError, IndexError, AttributeError, ValueError):
            break  # an earlier mutation broke the shape this one navigates
    return record


MUTATIONS = [
    drop_key, change_type, truncate_edges, reorder_addresses,
    duplicate_address, empty_opcode, empty_block,
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(BASE_RECORDS),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=3),
    column_mutations=st.lists(st.sampled_from(COLUMN_MUTATIONS), max_size=3),
    data=st.data(),
)
def test_mutated_records_raise_only_cidetect_errors(
    base, mutations, column_mutations, data
):
    """A record mutated in the layout of one object per instruction, then
    converted to columns and mutated there."""
    record = _mutated(columnar_record(_mutated(base, mutations, data)),
                      column_mutations, data)
    try:
        graph = build_acfg(record)
    except CIDetectError:
        return
    assert isinstance(graph, AttributedCFG)
    graph.validate()


# mutations after which a record may still be valid, laid out or linked in
# a way that synth does not write
LAYOUT_MUTATIONS = [
    shuffle_blocks, shift_block, swap_ids, retarget, upper_opcode, drop_args,
]


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(build, to_record, record):
    """to_record of build(record)'s graph, or the type of the error it
    raised, and the warnings it logged."""
    handler = _Warnings()
    logger = logging.getLogger("cidetect.acfg")
    logger.addHandler(handler)
    try:
        result = to_record(build(record))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        result = type(exc)
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(BASE_RECORDS),
    mutations=st.one_of(
        st.lists(st.sampled_from(MUTATIONS + LAYOUT_MUTATIONS), min_size=1, max_size=3),
        st.lists(st.sampled_from(LAYOUT_MUTATIONS), min_size=1, max_size=3),
    ),
    data=st.data(),
)
def test_build_acfg_decides_as_the_frozen_columnar_parser(base, mutations, data):
    """The differential ingest oracle: build_acfg of the mutated record
    converted to columns (helpers.columnar_record) raises MalformedGraph
    exactly when the frozen parsers of the record's layout do, the
    columnar one and the one-pass one build_acfg replaced
    (tests/oracles.py), and otherwise builds a graph of the same record,
    as acfg_to_record and the frozen writer write it, with the same
    warnings."""
    record = _mutated(base, mutations, data)
    frozen = oracles.acfg_to_record
    want = _outcome(oracles.columnar_build_acfg, frozen, copy.deepcopy(record))
    assert _outcome(oracles.one_pass_build_acfg, frozen, copy.deepcopy(record)) == want
    assert _outcome(build_acfg, acfg_to_record, columnar_record(record)) == want
    assert want[0] is MalformedGraph or isinstance(want[0], dict)


def _record_line(record, data):
    """The record as a line, with its keys sorted as written or not."""
    if isinstance(record, dict) and data.draw(st.booleans()):
        record = dict(reversed(list(record.items())))
        return json.dumps(record).encode()
    return json.dumps(record, sort_keys=True).encode()


def _spliced_line(line, data):
    """line with a run of bytes replaced by a few drawn ones, half the
    time in its tail, which holds the function name."""
    if data.draw(st.booleans()):
        start = len(line) - data.draw(st.integers(0, min(len(line), 24)))
    else:
        start = data.draw(st.integers(0, len(line)))
    stop = data.draw(st.integers(start, min(len(line), start + 8)))
    return line[:start] + data.draw(st.binary(max_size=3)) + line[stop:]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    mutations=st.lists(st.sampled_from(COLUMN_MUTATIONS), min_size=1, max_size=2),
    spliced=st.booleans(),
    data=st.data(),
)
def test_mutated_graph_file_lines_raise_only_cidetect_errors(mutations, spliced, data):
    """A corpus with one line changed and its manifest given the file's new
    sha256, as if synth had written the line: loaded and every graph
    built."""
    with tempfile.TemporaryDirectory() as directory:
        write_corpus(_CORPUS, directory)
        path = _pick(data, sorted(Path(directory, "graphs").rglob("*.jsonl")))
        lines = path.read_bytes().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        if spliced:
            lines[i] = _spliced_line(lines[i], data)
        else:
            record = _mutated(json.loads(lines[i]), mutations, data)
            lines[i] = _record_line(record, data) + b"\n"
        path.write_bytes(b"".join(lines))
        rehash_graph_file(path)
        try:
            graphs = load_corpus(directory).graphs
            built = {key: graphs[key] for key in graphs}
        except CIDetectError:
            return
    for (_, _, name), graph in built.items():
        assert isinstance(graph, AttributedCFG) and graph.function_name == name


def replace_field(manifest, data):
    manifest[data.draw(st.sampled_from(["format_version", "graph_files"]))] = data.draw(JUNK)


def _in_graph_files(mutate):
    def mutate_graph_files(manifest, data):
        mutate(manifest["graph_files"], data)

    return mutate_graph_files


def reorder_functions(graph_files, data):
    """One binary's function names with one repeated over another, one
    dropped, or all in another order."""
    functions = graph_files[_pick(data, sorted(graph_files))]["functions"]
    edit = data.draw(st.sampled_from(["repeat", "drop", "permute"]))
    if edit == "repeat":
        functions[data.draw(st.integers(0, len(functions) - 1))] = _pick(data, functions)
    elif edit == "drop":
        del functions[data.draw(st.integers(0, len(functions) - 1))]
    else:
        functions[:] = data.draw(st.permutations(functions))


MANIFEST_MUTATIONS = [
    replace_field, _in_graph_files(drop_key), _in_graph_files(change_type),
    _in_graph_files(reorder_functions),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    mutations=st.lists(st.sampled_from(MANIFEST_MUTATIONS), max_size=3),
    changed_file=st.booleans(),
    data=st.data(),
)
def test_mutated_manifest_graph_files_raise_only_cidetect_errors(
    mutations, changed_file, data
):
    """A corpus manifest with its format version, graph_files map, entries,
    function names, sha256 values or opcode counts dropped, replaced or
    reordered, and maybe a graph file changed after synth: train's
    vocabulary path (load_corpus, the summed counts with their hash check,
    build_vocabulary), then building every graph, may fail only with a
    CIDetectError, and must fail on a changed file."""
    with tempfile.TemporaryDirectory() as directory:
        write_corpus(_CORPUS, directory)
        path = Path(directory, "manifest.json")
        manifest = json.loads(path.read_text())
        for mutate in mutations:
            try:
                mutate(manifest, data)
            except (KeyError, TypeError, IndexError, AttributeError, ValueError):
                break  # an earlier mutation broke the shape this one navigates
        path.write_text(json.dumps(manifest))
        if changed_file:
            graph_file = _pick(data, sorted(Path(directory, "graphs").rglob("*.jsonl")))
            graph_file.write_bytes(graph_file.read_bytes() + b"\n")
        try:
            corpus = load_corpus(directory)
            counts = corpus.opcode_counts(corpus.project_ids())
            build_vocabulary(counts, 8)
            built = {key: corpus.graphs[key] for key in corpus.graphs}
        except CIDetectError:
            return
    assert not changed_file
    assert all(type(n) is int and n > 0 for n in counts.values())
    assert all(graph.function_name == key[2] for key, graph in built.items())


BASE_PAIR_RECORDS = [
    _pair_record(pair)
    for pair in sample_pairs(
        _CORPUS.ground_truth, _CORPUS.graphs, CROSS_PATTERNS, 6, 6, [1]
    )
]

# values a pair record may hold in place of a label, a ref or a ref part
PAIR_JUNK = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 2**70, 1.5, -1.0, True, "1", -1]),
    st.lists(st.sampled_from(["inline", "noinline", "p000-inline", 5]), max_size=4),
)


def change_pair_value(record, data):
    containers = [c for c in _containers(record, []) if c]
    target = record if data.draw(st.booleans()) else _pick(data, containers)
    keys = sorted(target) if isinstance(target, dict) else range(len(target))
    target[_pick(data, keys)] = data.draw(PAIR_JUNK)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(BASE_PAIR_RECORDS),
    mutations=st.lists(
        st.sampled_from([drop_key, change_type, change_pair_value]),
        min_size=1, max_size=3,
    ),
    data=st.data(),
)
def test_mutated_pair_records_raise_only_cidetect_errors(base, mutations, data):
    record = _mutated(base, mutations, data)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "pairs.jsonl")
        path.write_text(json.dumps(record) + "\n")
        try:
            pairs, places = read_pairs(path, _CORPUS.graphs)
        except CIDetectError:
            return
    (pair,) = pairs
    assert type(pair) is PairRef and pair.label in (-1, 1)
    assert places == [f"{path}:1"]
    assert pair.query_ref in _CORPUS.graphs and pair.target_ref in _CORPUS.graphs


TABLES = ("addr2line.tsv", "binfuncs.tsv", "srcfuncs.tsv", "fcg.tsv")

# what a damaged table may hold in place of a cell: numbers int() reads
# or rejects, numbers beyond int64, the corpus's own names, and any short
# text, tabs, newlines and comment marks included
CELL_JUNK = st.one_of(
    st.sampled_from([
        "", "0x", "-0x10", "0X1F", "1_000", " 7 ", "+5", "nan", "#", "\t", "\n",
        "0x8000000000000000", "-0x8000000000000001", "9223372036854775808",
        "p000-inline", "p000-noinline", "p000.c", "p000_f00",
    ]),
    st.text(max_size=4),
)


def cut_cell(rows, data):
    row = _pick(data, rows)
    i = data.draw(st.integers(0, len(row) - 1))
    row[i] = row[i][: data.draw(st.integers(0, len(row[i])))]


def cut_column(rows, data):
    i = data.draw(st.integers(0, len(rows[0]) - 1))
    for row in rows if data.draw(st.booleans()) else [_pick(data, rows)]:
        del row[i:i + 1]


def cut_line(rows, data):
    del rows[data.draw(st.integers(0, len(rows) - 1))]


def duplicate_cell(rows, data):
    row = _pick(data, rows)
    i = data.draw(st.integers(0, len(row) - 1))
    row.insert(i, row[i])


def duplicate_column(rows, data):
    i = data.draw(st.integers(0, len(rows[0]) - 1))
    for row in rows:
        row.insert(i, row[i] if i < len(row) else "")


def duplicate_line(rows, data):
    rows.insert(data.draw(st.integers(0, len(rows))), list(_pick(data, rows)))


def garble_cell(rows, data):
    row = _pick(data, rows)
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(CELL_JUNK)


def garble_line(rows, data):
    rows[data.draw(st.integers(0, len(rows) - 1))] = [data.draw(CELL_JUNK)]


TABLE_MUTATIONS = [
    cut_cell, cut_column, cut_line, duplicate_cell, duplicate_column,
    duplicate_line, garble_cell, garble_line,
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    table=st.sampled_from(TABLES),
    mutations=st.lists(st.sampled_from(TABLE_MUTATIONS), min_size=1, max_size=3),
    data=st.data(),
)
def test_damaged_line_tables_raise_only_cidetect_errors(table, mutations, data):
    """One of the four tables with cells, columns or lines cut, duplicated
    or garbled. The index build may fail only with a CIDetectError, and a
    bad addr2line.tsv fails naming path:line of one of its lines."""
    with tempfile.TemporaryDirectory() as directory:
        write_corpus(_CORPUS, directory)
        path = Path(directory, "tables", table)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        for mutate in mutations:
            try:
                mutate(rows, data)
            except IndexError:
                break  # an earlier mutation left nothing for this one
        path.write_text("".join("\t".join(row) + "\n" for row in rows))
        try:
            build_index_from_corpus(Path(directory))
        except CIDetectError as exc:
            if table == "addr2line.tsv":
                assert isinstance(exc, InconsistentTables), exc
                named = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
                assert named, exc
                lines = path.read_text().split("\n")
                assert 1 <= int(named.group(1)) <= len(lines), exc


def _checkpoint_bytes():
    config = ModelConfig(
        feature_dim=3, node_state_dim=2, graph_embedding_dim=2,
        propagation_layers=1, encoder_hidden=(), update_hidden=(2,),
        output_hidden=(),
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "model.ckpt")
        save_checkpoint(path, init_params(config), config)
        return path.read_bytes()


CHECKPOINT = _checkpoint_bytes()
# the magic (8 bytes), the header length field (8 bytes) and the JSON header
HEADER_END = 16 + int.from_bytes(CHECKPOINT[8:16], "little")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    length=st.one_of(
        st.just(len(CHECKPOINT)), st.integers(0, len(CHECKPOINT) - 1)
    ),
    flips=st.lists(
        st.tuples(st.integers(0, HEADER_END - 1), st.integers(0, 7)), max_size=3
    ),
)
def test_damaged_checkpoints_raise_only_cidetect_errors(length, flips):
    """A checkpoint cut at any length, with bits flipped in its magic, its
    header length field or its header. A flip that leaves a valid header
    (a digit of the learning rate, say) may load."""
    raw = bytearray(CHECKPOINT)
    for position, bit in flips:
        raw[position] ^= 1 << bit
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "model.ckpt")
        path.write_bytes(bytes(raw[:length]))
        try:
            params, config = load_checkpoint(path)
        except CIDetectError:
            return
    assert length == len(CHECKPOINT)
    shapes = param_shapes(config)
    assert {name: t.shape for name, t in params.items()} == shapes
