"""Property test: mutated function records never escape build_acfg as
anything but a CIDetectError. Needs hypothesis (the dev extra); without it
the module is skipped."""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cidetect.acfg import AttributedCFG, acfg_to_record, build_acfg  # noqa: E402
from cidetect.errors import CIDetectError  # noqa: E402
from cidetect.synth import SynthConfig, generate_corpus  # noqa: E402

_CORPUS = generate_corpus(
    SynthConfig(n_projects=2, functions_per_project=4, call_density=2.0, seed=1)
)
BASE_RECORDS = [acfg_to_record(g) for _, g in sorted(_CORPUS.graphs.items())]

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


MUTATIONS = [
    drop_key, change_type, truncate_edges, reorder_addresses,
    duplicate_address, empty_opcode, empty_block,
]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    base=st.sampled_from(BASE_RECORDS),
    mutations=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
    data=st.data(),
)
def test_mutated_records_raise_only_cidetect_errors(base, mutations, data):
    record = copy.deepcopy(base)
    for mutate in mutations:
        try:
            mutate(record, data)
        except (KeyError, TypeError, IndexError, AttributeError, ValueError):
            # an earlier mutation broke the shape this one navigates
            break
    try:
        graph = build_acfg(record)
    except CIDetectError:
        return
    assert isinstance(graph, AttributedCFG)
    graph.validate()
