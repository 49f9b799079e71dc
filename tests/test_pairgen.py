import numpy as np
import pytest

from cidetect.acfg import strip_name
from cidetect.errors import Exhausted, TooFewProjects
from cidetect.labeling import (
    CROSS_PATTERNS,
    Binary2Source,
    BinaryFunctionRef,
    Pattern,
    build_bridge_index,
    build_fcg,
)
from cidetect.pairgen import (
    DATASET_INLINE,
    DATASET_NOINLINE,
    PairRef,
    check_refs,
    draw_pairs,
    filter_index,
    generate_negative_pairs,
    generate_positive_pairs,
    read_pairs,
    resolve_pairs,
    sample_pairs,
    split_projects,
    write_pairs,
)

from cidetect.synth import SynthConfig, generate_corpus

import oracles
from helpers import OPCODE_POOL, random_acfg


def _ref(bid, name, start=0x1000, end=0x1100):
    return BinaryFunctionRef(binary_id=bid, name=name, addr_start=start, addr_end=end)


def _fixture():
    """Two chains (m calls h, p calls q), each inlined into its caller's
    binary on the inline side. Bridges: m/h/p/q. Patterns available: leaf
    (h, q) and root (m, p)."""
    fcg = build_fcg([("m", "h"), ("p", "q")])
    no_inline = [
        Binary2Source(_ref("o0", "m"), frozenset({"m"})),
        Binary2Source(_ref("o0", "h", 0x1100, 0x1200), frozenset({"h"})),
        Binary2Source(_ref("o0", "p", 0x1200, 0x1300), frozenset({"p"})),
        Binary2Source(_ref("o0", "q", 0x1300, 0x1400), frozenset({"q"})),
    ]
    inline = [
        Binary2Source(_ref("o2", "m"), frozenset({"m", "h"})),
        Binary2Source(_ref("o2", "p", 0x1100, 0x1200), frozenset({"p", "q"})),
    ]
    index = build_bridge_index(no_inline, inline, fcg)
    rng = np.random.default_rng(2)
    graphs = {}
    for name in ("m", "h", "p", "q"):
        graphs[(DATASET_NOINLINE, "o0", name)] = random_acfg(rng, name, OPCODE_POOL)
    for name in ("m", "p"):
        graphs[(DATASET_INLINE, "o2", name)] = random_acfg(rng, name, OPCODE_POOL)
    return index, graphs


def test_positive_pairs_shape():
    index, graphs = _fixture()
    pairs = generate_positive_pairs(index, Pattern.LEAF, 20, 0, graphs)
    assert len(pairs) == 20
    for pair in pairs:
        assert pair.label == 1
        assert pair.pattern is Pattern.LEAF
        assert pair.bridge in {"h", "q"}
        assert pair.query_ref[0] == DATASET_NOINLINE
        assert pair.target_ref[0] == DATASET_INLINE
        # the target really is the binary that swallowed the bridge
        expected_target = "m" if pair.bridge == "h" else "p"
        assert pair.target_ref[2] == expected_target
        # graphs come back name-stripped so pair files stay side-channel free
        assert pair.query.function_name == ""
        assert pair.query == strip_name(graphs[pair.query_ref])
        assert pair.target == strip_name(graphs[pair.target_ref])


def test_positive_pairs_deterministic():
    index, graphs = _fixture()
    a = generate_positive_pairs(index, Pattern.ROOT, 15, [3, 1], graphs)
    b = generate_positive_pairs(index, Pattern.ROOT, 15, [3, 1], graphs)
    c = generate_positive_pairs(index, Pattern.ROOT, 15, [3, 2], graphs)
    key = lambda ps: [(p.query_ref, p.target_ref) for p in ps]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_positive_pairs_exhausted_on_missing_pattern():
    index, graphs = _fixture()
    with pytest.raises(Exhausted):
        generate_positive_pairs(index, Pattern.INTERNAL, 5, 0, graphs)


def test_negative_pairs_avoid_own_targets():
    index, graphs = _fixture()
    pairs = generate_negative_pairs(index, Pattern.LEAF, 40, 1, graphs)
    own = {
        bridge: {(ref.binary_id, ref.name) for ref, _ in entry.cross_inlining}
        for bridge, entry in index.entries.items()
    }
    for pair in pairs:
        assert pair.label == -1
        assert pair.bridge is None
        assert pair.pattern is Pattern.LEAF
        # reconstruct which bridge the query came from (query name == bridge here)
        query_bridge = pair.query_ref[2]
        assert (pair.target_ref[1], pair.target_ref[2]) not in own[query_bridge]


def test_negative_pairs_exhausted_without_complement():
    """A single bridge whose targets cover the whole cross universe leaves
    nothing to draw negatives from."""
    fcg = build_fcg([("m", "h")])
    no_inline = [Binary2Source(_ref("o0", "h"), frozenset({"h"}))]
    inline = [Binary2Source(_ref("o2", "m"), frozenset({"m", "h"}))]
    index = build_bridge_index(no_inline, inline, fcg)
    rng = np.random.default_rng(0)
    graphs = {
        (DATASET_NOINLINE, "o0", "h"): random_acfg(rng, "h", OPCODE_POOL),
        (DATASET_INLINE, "o2", "m"): random_acfg(rng, "m", OPCODE_POOL),
    }
    with pytest.raises(Exhausted):
        generate_negative_pairs(index, Pattern.LEAF, 5, 0, graphs)


def test_pair_requires_bridge_on_positive():
    index, graphs = _fixture()
    pair = generate_positive_pairs(index, Pattern.LEAF, 1, 0, graphs)[0]
    with pytest.raises(ValueError):
        type(pair)(
            query=pair.query,
            target=pair.target,
            label=1,
            pattern=Pattern.LEAF,
            query_ref=pair.query_ref,
            target_ref=pair.target_ref,
            bridge=None,
        )


def test_split_projects_sizes():
    ids = [f"p{i:02d}" for i in range(10)]
    split = split_projects(ids, 0)
    assert len(split.train) == 8
    assert len(split.validation) == 1
    assert len(split.test) == 1

    split3 = split_projects(["a", "b", "c"], 0)
    assert (len(split3.train), len(split3.validation), len(split3.test)) == (1, 1, 1)

    ids51 = [f"p{i:02d}" for i in range(51)]
    split51 = split_projects(ids51, 0)
    assert (len(split51.train), len(split51.validation), len(split51.test)) == (41, 5, 5)


def test_split_projects_partition_and_determinism():
    ids = [f"p{i:02d}" for i in range(12)]
    a = split_projects(ids, [4, 1])
    b = split_projects(ids, [4, 1])
    assert a == b
    combined = list(a.train) + list(a.validation) + list(a.test)
    assert sorted(combined) == sorted(ids)
    assert a.train == tuple(sorted(a.train))


def test_split_projects_rejects_tiny_input():
    with pytest.raises(TooFewProjects):
        split_projects(["a", "b"], 0)


def test_filter_index():
    index, _ = _fixture()
    kept = filter_index(index, {"h", "m"})
    assert set(kept.entries) == {"h", "m"}
    assert kept.entries["h"] == index.entries["h"]


def test_pairs_jsonl_round_trip(tmp_path):
    index, graphs = _fixture()
    pairs = generate_positive_pairs(index, Pattern.LEAF, 5, 0, graphs)
    pairs += generate_negative_pairs(index, Pattern.LEAF, 5, 1, graphs)
    path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, path)
    rebuilt = read_pairs(path, graphs)
    assert all(type(p) is PairRef for p in rebuilt)
    assert [(p.query_ref, p.target_ref, p.label, p.pattern, p.bridge) for p in rebuilt] == [
        (p.query_ref, p.target_ref, p.label, p.pattern, p.bridge) for p in pairs
    ]


def _pair_view(pairs):
    return [
        (p.query_ref, p.target_ref, p.label, p.pattern, p.bridge, p.query, p.target)
        for p in pairs
    ]


def test_negative_pairs_match_reference_sampler():
    """Same draws as the sampler that sorted a complement per bridge: several
    seeds, every pattern, the whole index and a filtered one."""
    corpus = generate_corpus(SynthConfig(n_projects=8, call_density=2.0, seed=4))
    index = corpus.ground_truth
    half = sorted(index.entries)[::2]
    fixture_index, fixture_graphs = _fixture()
    cases = [
        (index, corpus.graphs),
        (filter_index(index, half), corpus.graphs),
        (fixture_index, fixture_graphs),
    ]
    for case_index, graphs in cases:
        for pattern in (Pattern.LEAF, Pattern.ROOT, Pattern.INTERNAL):
            for seed in (0, 1, [7, 2, 104], [3, 2, 1]):
                got = generate_negative_pairs(case_index, pattern, 60, seed, graphs)
                want = oracles.generate_negative_pairs(
                    case_index, pattern, 60, seed, graphs
                )
                assert _pair_view(got) == _pair_view(want)


def test_sample_pairs_match_reference_sampler():
    """Same pairs in the same order as the command line's sampler before it
    moved into pairgen: one pattern and all three, counts that leave a
    remainder over three patterns, and a zero count on either side."""
    corpus = generate_corpus(SynthConfig(n_projects=8, call_density=2.0, seed=4))
    index = corpus.ground_truth
    cases = [
        ("leaf", (Pattern.LEAF,)), ("root", (Pattern.ROOT,)), ("mixed", CROSS_PATTERNS)
    ]
    for key, patterns in cases:
        for n_pos, n_neg in ((7, 5), (5, 7), (0, 5), (7, 0), (0, 0)):
            for seed in ([0, 104], [3, 101, 211]):
                got = sample_pairs(index, corpus.graphs, patterns, n_pos, n_neg, seed)
                want = oracles._sample_pairs(
                    index, corpus.graphs, key, n_pos, n_neg, seed
                )
                assert _pair_view(got) == _pair_view(want)
                assert sum(p.label == 1 for p in got) == n_pos
                assert sum(p.label == -1 for p in got) == n_neg


def test_each_ref_is_stripped_once_per_call(tmp_path):
    """Pairs that share a ref share one stripped graph, within a call; the
    pairs and the file written from them are unchanged by the sharing."""
    index, graphs = _fixture()
    pos = generate_positive_pairs(index, Pattern.LEAF, 30, 0, graphs)
    neg = generate_negative_pairs(index, Pattern.LEAF, 30, 1, graphs)
    path = tmp_path / "pairs.jsonl"
    write_pairs(pos + neg, path)
    reread = resolve_pairs(read_pairs(path, graphs), graphs)
    for pairs in (pos, neg, reread):
        by_ref = {}
        for pair in pairs:
            sides = ((pair.query_ref, pair.query), (pair.target_ref, pair.target))
            for ref, graph in sides:
                assert graph.function_name == ""
                assert graph == strip_name(graphs[ref])
                assert by_ref.setdefault(ref, graph) is graph
        assert len(by_ref) < 2 * len(pairs)
    assert _pair_view(reread) == _pair_view(pos + neg)
    again = tmp_path / "again.jsonl"
    write_pairs(reread, again)
    assert again.read_bytes() == path.read_bytes()


def test_drawn_refs_are_the_sampled_pairs_without_graphs(tmp_path):
    """draw_pairs gives the refs of sample_pairs, and a pair file written
    from them is the same; check_refs raises the error resolution would."""
    corpus = generate_corpus(SynthConfig(n_projects=8, call_density=2.0, seed=4))
    index = corpus.ground_truth
    drawn = draw_pairs(index, CROSS_PATTERNS, 7, 5, [3, 104])
    sampled = sample_pairs(index, corpus.graphs, CROSS_PATTERNS, 7, 5, [3, 104])
    assert all(type(pair) is PairRef for pair in drawn)
    assert [
        PairRef(p.query_ref, p.target_ref, p.label, p.pattern, p.bridge)
        for p in sampled
    ] == drawn
    paths = tmp_path / "drawn.jsonl", tmp_path / "sampled.jsonl"
    write_pairs(drawn, paths[0])
    write_pairs(sampled, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    check_refs(drawn, corpus.graphs)
    missing = drawn[4].target_ref
    partial = {ref: g for ref, g in corpus.graphs.items() if ref != missing}
    with pytest.raises(KeyError, match="graph store has no entry for") as checked:
        check_refs(drawn, partial)
    with pytest.raises(KeyError) as resolved:
        sample_pairs(index, partial, CROSS_PATTERNS, 7, 5, [3, 104])
    assert str(checked.value) == str(resolved.value) == str(KeyError(
        f"graph store has no entry for {missing}"
    ))
