import numpy as np
import pytest

from cidetect.cli import main
from cidetect.errors import InconsistentTables
from cidetect.labeling import (
    DATASETS,
    Binary2Source,
    BinaryFunctionRef,
    Pattern,
    build_bridge_index,
    build_fcg,
    classify_pattern,
    construct_mapping,
    has_inlining,
    index_from_json,
    index_to_json,
    load_index,
    pattern_distribution,
    read_addr2line,
    read_binfuncs,
    read_fcg,
    read_srcfuncs,
    save_index,
    UNMAPPED_ADDRESS,
    UNMAPPED_LINE,
)
from cidetect.synth import binary_ids, generate_corpus, read_corpus_manifest, write_corpus

import oracles
from helpers import DIFFERENTIAL_CONFIGS


def _ref(bid, name, start=0x1000, end=0x1100):
    return BinaryFunctionRef(binary_id=bid, name=name, addr_start=start, addr_end=end)


def test_has_inlining():
    single = Binary2Source(function=_ref("b", "f"), source_functions=frozenset({"f"}))
    multi = Binary2Source(function=_ref("b", "f"), source_functions=frozenset({"f", "g"}))
    assert not has_inlining(single)
    assert has_inlining(multi)


def test_binary2source_rejects_empty_set():
    with pytest.raises(ValueError):
        Binary2Source(function=_ref("b", "f"), source_functions=frozenset())


def test_build_fcg_drops_self_loops():
    fcg = build_fcg([("a", "b"), ("b", "b"), ("a", "b")])
    assert fcg.edges == frozenset({("a", "b")})
    assert fcg.self_loops_dropped == 1
    assert set(fcg.nodes) == {"a", "b"}


def test_classify_pattern_chain():
    """a calls b calls c; the whole chain inlined into one target makes a the
    root, b internal and c the leaf."""
    fcg = build_fcg([("a", "b"), ("b", "c")])
    mapped = frozenset({"a", "b", "c"})
    assert classify_pattern("a", mapped, fcg) is Pattern.ROOT
    assert classify_pattern("b", mapped, fcg) is Pattern.INTERNAL
    assert classify_pattern("c", mapped, fcg) is Pattern.LEAF


def test_classify_pattern_singleton_is_equal():
    fcg = build_fcg([("a", "b")])
    assert classify_pattern("a", frozenset({"a"}), fcg) is Pattern.EQUAL


def test_classify_pattern_ignores_edges_outside_set():
    # b calls d, but d is not part of the mapped set, so b stays a leaf
    fcg = build_fcg([("a", "b"), ("b", "d")])
    assert classify_pattern("b", frozenset({"a", "b"}), fcg) is Pattern.LEAF


def test_classify_pattern_isolated_bridge_is_leaf():
    fcg = build_fcg([("a", "b")])
    assert classify_pattern("x", frozenset({"a", "b", "x"}), fcg) is Pattern.LEAF


def test_classify_pattern_unknown_bridge():
    fcg = build_fcg([])
    with pytest.raises(ValueError):
        classify_pattern("z", frozenset({"a"}), fcg)


def test_classify_pattern_against_degree_oracle():
    """Seeded sweep: classification must match a direct induced-degree count."""
    rng = np.random.default_rng(17)
    names = [f"n{i}" for i in range(14)]
    for _ in range(300):
        edges = set()
        for _ in range(int(rng.integers(0, 25))):
            a, b = rng.choice(len(names), size=2, replace=False)
            edges.add((names[int(a)], names[int(b)]))
        fcg = build_fcg(sorted(edges))
        k = int(rng.integers(1, 9))
        mapped = frozenset(
            names[int(i)] for i in rng.choice(len(names), size=k, replace=False)
        )
        bridge = sorted(mapped)[int(rng.integers(len(mapped)))]
        outs = sum(
            1 for a, b in edges if a == bridge and b in mapped and b != bridge
        )
        ins = sum(
            1 for a, b in edges if b == bridge and a in mapped and a != bridge
        )
        if len(mapped) == 1:
            expected = Pattern.EQUAL
        elif outs == 0:
            expected = Pattern.LEAF
        elif ins == 0:
            expected = Pattern.ROOT
        else:
            expected = Pattern.INTERNAL
        assert classify_pattern(bridge, mapped, fcg) is expected


def test_tsv_readers(tmp_path):
    a2l = tmp_path / "addr2line.tsv"
    a2l.write_text(
        "# binary\taddr\tfile\tline\n"
        "bin1\t0x1000\tmain.c\t10\n"
        "bin1\t0x1004\tmain.c\t11\n",
        encoding="utf-8",
    )
    assert list(read_addr2line(a2l)) == [
        ("bin1", 0x1000, "main.c", 10),
        ("bin1", 0x1004, "main.c", 11),
    ]

    bf = tmp_path / "binfuncs.tsv"
    bf.write_text("bin1\tmain\t0x1000\t0x1020\n", encoding="utf-8")
    assert read_binfuncs(bf) == [("bin1", "main", 0x1000, 0x1020)]

    sf = tmp_path / "srcfuncs.tsv"
    sf.write_text("main.c\tmain\t8\t20\n", encoding="utf-8")
    assert read_srcfuncs(sf) == [("main.c", "main", 8, 20)]

    fcg = tmp_path / "fcg.tsv"
    fcg.write_text("main\thelper\n", encoding="utf-8")
    assert read_fcg(fcg) == [("main", "helper")]


def test_tsv_reader_rejects_bad_column_count(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("bin1\t0x1000\tmain.c\n", encoding="utf-8")
    with pytest.raises(InconsistentTables):
        read_addr2line(bad)


def test_tsv_reader_names_the_line_that_is_not_utf8(tmp_path):
    bad = tmp_path / "addr2line.tsv"
    bad.write_bytes(b"bin1\t0x1000\tmain.c\t10\nbin\xff\t0x1004\tmain.c\t11\n")
    with pytest.raises(InconsistentTables, match=f"{bad}:2: not UTF-8"):
        read_addr2line(bad)


def _mapping_oracle(addr2line, binfuncs, srcfuncs):
    """Nested-loop reference for construct_mapping: binfuncs are half-open
    address ranges, srcfuncs closed line ranges."""
    out = {}
    for bid, addr, file, line in addr2line:
        owner = None
        for fbid, name, start, end in binfuncs:
            if fbid == bid and start <= addr < end:
                owner = name
                break
        if owner is None:
            continue
        src = None
        for sfile, sname, lstart, lend in srcfuncs:
            if sfile == file and lstart <= line <= lend:
                src = sname
                break
        if src is None:
            continue
        out.setdefault((bid, owner), set()).add(src)
    return out


def test_construct_mapping_against_nested_loop_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n_bin = int(rng.integers(2, 6))
        binfuncs = []
        cursor = 0x1000
        for i in range(n_bin):
            length = int(rng.integers(8, 40)) * 4
            binfuncs.append(("bin", f"bf{i}", cursor, cursor + length))
            cursor += length + int(rng.integers(0, 3)) * 4
        srcfuncs = []
        line = 1
        for i in range(int(rng.integers(2, 6))):
            span = int(rng.integers(3, 12))
            srcfuncs.append(("m.c", f"sf{i}", line, line + span))
            line += span + int(rng.integers(1, 4))
        addr2line = []
        for _ in range(60):
            addr = int(rng.integers(0x1000, cursor + 0x40))
            lno = int(rng.integers(1, line + 6))
            addr2line.append(("bin", addr, "m.c", lno))
        result = construct_mapping(addr2line, binfuncs, srcfuncs)
        oracle = _mapping_oracle(addr2line, binfuncs, srcfuncs)
        got = {
            (m.function.binary_id, m.function.name): set(m.source_functions)
            for m in result.mappings
        }
        assert got == oracle


def test_construct_mapping_reports_inconsistencies():
    binfuncs = [("bin", "f", 0x1000, 0x1010)]
    srcfuncs = [("m.c", "f", 1, 5)]
    addr2line = [
        ("bin", 0x1000, "m.c", 2),
        ("bin", 0x2000, "m.c", 2),  # address outside every function
        ("bin", 0x1004, "m.c", 99),  # line outside every function
    ]
    result = construct_mapping(addr2line, binfuncs, srcfuncs)
    assert len(result.inconsistencies) == 2
    assert len(result.mappings) == 1
    assert result.mappings[0].source_functions == frozenset({"f"})


def test_construct_mapping_omits_unresolved_functions():
    binfuncs = [("bin", "f", 0x1000, 0x1010), ("bin", "g", 0x1010, 0x1020)]
    srcfuncs = [("m.c", "f", 1, 5)]
    addr2line = [("bin", 0x1000, "m.c", 2)]  # nothing resolves for g
    result = construct_mapping(addr2line, binfuncs, srcfuncs)
    assert [m.function.name for m in result.mappings] == ["f"]


def _assert_same_result(got, expected):
    assert got.mappings == expected.mappings
    assert got.inconsistencies == expected.inconsistencies


@pytest.mark.parametrize(
    "config", list(DIFFERENTIAL_CONFIGS.values()), ids=list(DIFFERENTIAL_CONFIGS)
)
def test_label_matches_row_by_row_reference(tmp_path, config):
    """Per dataset, the columnar join gives the frozen row-by-row join's
    mappings and inconsistencies, and label writes its index byte for byte."""
    corpus = tmp_path / "corpus"
    write_corpus(generate_corpus(config), corpus)
    tables = corpus / "tables"
    rows = oracles.read_addr2line(tables / "addr2line.tsv")
    table = read_addr2line(tables / "addr2line.tsv")
    assert list(table) == rows
    binfuncs = read_binfuncs(tables / "binfuncs.tsv")
    srcfuncs = read_srcfuncs(tables / "srcfuncs.tsv")
    assert binfuncs == oracles.read_binfuncs(tables / "binfuncs.tsv")
    assert srcfuncs == oracles.read_srcfuncs(tables / "srcfuncs.tsv")
    manifest = read_corpus_manifest(corpus)
    for dataset in DATASETS:
        ids = binary_ids(manifest, manifest["projects"], dataset)
        funcs = [row for row in binfuncs if row[0] in ids]
        expected = oracles.construct_mapping(
            [row for row in rows if row[0] in ids], funcs, srcfuncs
        )
        assert expected.mappings
        got = construct_mapping(table.of_binaries(ids), funcs, srcfuncs)
        _assert_same_result(got, expected)

    out, reference = tmp_path / "index.json", tmp_path / "reference.json"
    assert main(["label", "--corpus", str(corpus), "--out", str(out)]) == 0
    save_index(oracles.build_index_from_corpus(corpus), reference)
    assert out.read_bytes() == reference.read_bytes()


def _random_tables(rng):
    """Line tables with every kind of row the join must resolve or report:
    rows of a binary or file that no function table lists, addresses and
    lines in no function, functions that overlap or repeat a (binary, name),
    one source name in several files, tables in no order, and numbers from
    one end of int64 to the other."""
    binfuncs = []
    for b in range(int(rng.integers(1, 4))):
        cursor = int(rng.integers(-64, 256)) * 4
        for _ in range(int(rng.integers(0, 7))):
            start = cursor - int(rng.integers(0, 3)) * 4 * int(rng.random() < 0.2)
            end = start + int(rng.integers(0, 12)) * 4
            binfuncs.append((f"b{b}", f"f{int(rng.integers(0, 6))}", start, end))
            cursor = end + int(rng.integers(0, 3)) * 4
    far = np.iinfo(np.int64)
    binfuncs.append(("far", "top", far.max - 8, far.max))
    binfuncs.append(("far", "bottom", far.min, far.min + 8))
    srcfuncs = []
    for f in range(int(rng.integers(1, 4))):
        line = int(rng.integers(-5, 20))
        for _ in range(int(rng.integers(0, 6))):
            start = line - int(rng.integers(0, 3)) * int(rng.random() < 0.2)
            end = start + int(rng.integers(-1, 8))
            srcfuncs.append((f"s{f}.c", f"g{int(rng.integers(0, 6))}", start, end))
            line = max(start, end) + int(rng.integers(1, 3))
    srcfuncs.append(("far.c", "top", far.max - 2, far.max))
    bids = sorted({row[0] for row in binfuncs}) + ["unlisted"]
    files = sorted({row[0] for row in srcfuncs}) + ["other.c"]
    addr2line = []
    for _ in range(int(rng.integers(0, 80))):
        bid = bids[int(rng.integers(len(bids)))]
        if bid == "far":
            addr = int(rng.choice([far.min, far.min + 4, far.max - 4, far.max]))
        else:
            addr = int(rng.integers(-300, 400)) * 4 + int(rng.integers(0, 4))
        file = files[int(rng.integers(len(files)))]
        line = int(rng.choice([far.max, far.max - 1])) if file == "far.c" else int(
            rng.integers(-8, 60)
        )
        addr2line.append((bid, addr, file, line))
    return (
        addr2line,
        [binfuncs[i] for i in rng.permutation(len(binfuncs))],
        [srcfuncs[i] for i in rng.permutation(len(srcfuncs))],
    )


def _write_table(path, rows, formats, rng):
    """rows as TSV lines, with blank and comment lines among them."""
    lines = []
    for row in rows:
        if rng.random() < 0.1:
            lines.append("" if rng.random() < 0.5 else "# a comment\twith a tab")
        lines.append("\t".join(spec.format(cell) for spec, cell in zip(formats, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_construct_mapping_matches_row_by_row_reference_on_random_tables(tmp_path):
    rng = np.random.default_rng(31)
    seen = {"mappings": 0, "address": 0, "line": 0, "duplicates": 0}
    for trial in range(200):
        addr2line, binfuncs, srcfuncs = _random_tables(rng)
        a2l, bf, sf = (tmp_path / f"{name}.tsv" for name in ("a2l", "bf", "sf"))
        _write_table(a2l, addr2line, ("{}", "{:#x}", "{}", "{}"), rng)
        _write_table(bf, binfuncs, ("{}", "{}", "{:#x}", "{:#x}"), rng)
        _write_table(sf, srcfuncs, ("{}", "{}", "{}", "{}"), rng)
        rows = oracles.read_addr2line(a2l)
        assert rows == addr2line
        table = read_addr2line(a2l)
        assert list(table) == rows
        assert read_binfuncs(bf) == oracles.read_binfuncs(bf) == binfuncs
        assert read_srcfuncs(sf) == oracles.read_srcfuncs(sf) == srcfuncs

        expected = oracles.construct_mapping(rows, binfuncs, srcfuncs)
        for given in (table, rows):  # a LineTable, or row tuples as probes pass
            _assert_same_result(construct_mapping(given, binfuncs, srcfuncs), expected)
        seen["mappings"] += len(expected.mappings)
        for kind, key in ((UNMAPPED_ADDRESS, "address"), (UNMAPPED_LINE, "line")):
            seen[key] += sum(k == kind for k, _ in expected.inconsistencies)
        keys = [(bid, name) for bid, name, _, _ in binfuncs]
        seen["duplicates"] += len(keys) - len(set(keys))
    assert all(seen.values()), seen


def _fixture_index():
    """Two source functions m and h where h got inlined into m's binary copy.

    No-inlining side: one binary function per source function, each mapping
    to exactly its own source. Inlining side: h survives alone, m's compiled
    body covers both m and h. Expected: both m and h are indexed (each has an
    equal-form binary); the combined target hangs off h as leaf (h is called
    by m) and off m as root.
    """
    fcg = build_fcg([("m", "h")])
    no_inline = [
        Binary2Source(_ref("o0", "m", 0x1000, 0x1040), frozenset({"m"})),
        Binary2Source(_ref("o0", "h", 0x1040, 0x1080), frozenset({"h"})),
    ]
    inline = [
        Binary2Source(_ref("o2", "m", 0x2000, 0x2080), frozenset({"m", "h"})),
        Binary2Source(_ref("o2", "h", 0x2080, 0x20c0), frozenset({"h"})),
    ]
    return build_bridge_index(no_inline, inline, fcg)


def test_bridge_index_fixture_distribution():
    index = _fixture_index()
    assert set(index.entries) == {"m", "h"}
    dist = pattern_distribution(index)
    assert dist[Pattern.EQUAL] == 2
    assert dist[Pattern.LEAF] == 1
    assert dist[Pattern.ROOT] == 1
    assert dist[Pattern.INTERNAL] == 0


def test_bridge_index_cross_targets_attach_to_every_bridge():
    index = _fixture_index()
    leaf_targets = [
        (ref.binary_id, ref.name, p)
        for ref, p in index.entries["h"].cross_inlining
    ]
    root_targets = [
        (ref.binary_id, ref.name, p)
        for ref, p in index.entries["m"].cross_inlining
    ]
    assert leaf_targets == [("o2", "m", Pattern.LEAF)]
    assert root_targets == [("o2", "m", Pattern.ROOT)]


def test_bridge_index_requires_equal_form():
    """A source function with no standalone binary never gets an entry, even
    when it appears inside inlined targets."""
    fcg = build_fcg([("m", "h")])
    no_inline = [
        Binary2Source(_ref("o0", "m"), frozenset({"m"})),
    ]
    inline = [
        Binary2Source(_ref("o2", "m"), frozenset({"m", "h"})),
    ]
    index = build_bridge_index(no_inline, inline, fcg)
    assert set(index.entries) == {"m"}
    assert pattern_distribution(index)[Pattern.LEAF] == 0


def test_bridge_index_filters_inlined_queries(caplog):
    fcg = build_fcg([("m", "h")])
    no_inline = [
        Binary2Source(_ref("o0", "m"), frozenset({"m", "h"})),  # inlining leaked in
        Binary2Source(_ref("o0", "h", 0x2000, 0x2040), frozenset({"h"})),
    ]
    with caplog.at_level("WARNING", logger="cidetect.labeling"):
        index = build_bridge_index(no_inline, [], fcg)
    assert index.excluded_no_inline == 1
    assert set(index.entries) == {"h"}


def test_bridge_index_counts_isolated_bridges():
    # x shares a target with m and h but has no call edges to either
    fcg = build_fcg([("m", "h")])
    no_inline = [
        Binary2Source(_ref("o0", "x"), frozenset({"x"})),
    ]
    inline = [
        Binary2Source(_ref("o2", "m"), frozenset({"m", "h", "x"})),
    ]
    index = build_bridge_index(no_inline, inline, fcg)
    assert index.isolated_bridges == 1
    assert index.entries["x"].cross_inlining[0][1] is Pattern.LEAF


def test_isolated_bridge_count_matches_reference_scan():
    """Random induced subgraphs in the style of criterion 04: the index's
    count equals the old full-edge scan summed over (mapping, bridge)."""
    rng = np.random.default_rng(43)
    isolated_seen = 0
    for trial in range(300):
        n = int(rng.integers(2, 13))
        names = [f"f{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.15
        ]
        fcg = build_fcg(edges)
        no_inline = [Binary2Source(_ref("o0", name), frozenset({name})) for name in names]
        inline = []
        expected = 0
        for t in range(3):
            k = int(rng.integers(2, n + 1))
            mapped = frozenset(names[i] for i in rng.choice(n, size=k, replace=False))
            inline.append(Binary2Source(_ref("o1", f"t{t}"), mapped))
            expected += sum(oracles._is_isolated(b, mapped, fcg) for b in mapped)
        assert build_bridge_index(no_inline, inline, fcg).isolated_bridges == expected, trial
        isolated_seen += expected
    assert isolated_seen > 0


def test_pattern_distribution_counts_by_summation():
    index = _fixture_index()
    dist = pattern_distribution(index)
    equal_oracle = sum(len(e.equal) for e in index.entries.values())
    cross_oracle = sum(len(e.cross_inlining) for e in index.entries.values())
    assert dist[Pattern.EQUAL] == equal_oracle
    assert sum(dist[p] for p in (Pattern.LEAF, Pattern.ROOT, Pattern.INTERNAL)) == cross_oracle


def test_index_json_round_trip(tmp_path):
    index = _fixture_index()
    rebuilt = index_from_json(index_to_json(index))
    assert rebuilt == index
    path = tmp_path / "index.json"
    save_index(index, path)
    assert load_index(path) == index
