"""End-to-end command line tests: one tiny corpus is pushed through every
subcommand once, then the error paths are poked individually."""

import gc
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cidetect import acfg, cli, detector, evaluation, pairgen, synth
from cidetect.cli import build_index_from_corpus, main
from cidetect.errors import NumericError, ValidationError

from helpers import object_record, rehash_graph_file

_SYNTH_ARGS = [
    "--seed", "3", "--projects", "4", "--functions", "8",
    "--block-count", "2:4", "--block-size", "2:4",
    "--call-density", "2.0", "--alphabet-size", "12",
]

_TRAIN_ARGS = [
    "--seed", "3", "--epochs", "2", "--epoch-size", "8",
    "--val-pairs", "4", "--thresh-pairs", "4",
    "--vocab-size", "16", "--node-dim", "4", "--embed-dim", "6",
    "--layers", "1", "--encoder-hidden", "", "--update-hidden", "8",
    "--output-hidden", "", "--batch-size", "8",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> label -> pairs -> train x3, shared by the happy-path tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    bundle = root / "bundle"
    index = root / "index.json"
    pairs = root / "pairs.jsonl"

    assert main(["synth", "--out", str(corpus)] + _SYNTH_ARGS) == 0
    assert main(["label", "--corpus", str(corpus), "--out", str(index)]) == 0
    assert main([
        "pairs", "--corpus", str(corpus), "--index", str(index),
        "--pattern", "mixed", "--num-pos", "6", "--num-neg", "6",
        "--seed", "5", "--out", str(pairs),
    ]) == 0

    for i, pattern in enumerate(("leaf", "root", "internal")):
        assert main([
            "train", "--corpus", str(corpus), "--index", str(index),
            "--pattern", pattern, "--out", str(bundle),
        ] + _TRAIN_ARGS) == 0
        manifest_done = (bundle / "manifest.json").exists()
        assert manifest_done == (i == 2), "bundle must finalize on the last model"

    return {"root": root, "corpus": corpus, "bundle": bundle,
            "index": index, "pairs": pairs}


def test_pipeline_artifacts(pipeline):
    corpus, bundle = pipeline["corpus"], pipeline["bundle"]
    assert (corpus / "manifest.json").is_file()
    assert (corpus / "ground_truth.json").is_file()
    index = json.loads(pipeline["index"].read_text())
    assert index["entries"]
    for pattern in ("leaf", "root", "internal"):
        assert (bundle / f"model-{pattern}.ckpt").is_file()
        assert (bundle / f"history-{pattern}.json").is_file()
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["mode"] == "ensemble"
    assert 0.0 < manifest["threshold"] <= 1.0


def test_detect_verdict_json(pipeline, tmp_path):
    corpus, bundle = pipeline["corpus"], pipeline["bundle"]
    out = tmp_path / "verdict.json"
    rc = main([
        "detect", "--bundle", str(bundle),
        "--query", str(corpus / "graphs" / "noinline" / "p000-noinline.jsonl"),
        "--query-name", "p000_f00",
        "--target", str(corpus / "graphs" / "inline" / "p000-inline.jsonl"),
        "--target-name", "p000_f01",
        "--out", str(out),
    ])
    assert rc == 0
    verdict = json.loads(out.read_text())
    assert set(verdict) == {"similarities", "final", "label", "threshold"}
    assert set(verdict["similarities"]) == {"leaf", "root", "internal"}
    assert verdict["final"] == max(verdict["similarities"].values())
    assert isinstance(verdict["label"], bool)
    assert 0.0 < verdict["final"] <= 1.0


def test_detect_to_stdout(pipeline, capsys):
    corpus, bundle = pipeline["corpus"], pipeline["bundle"]
    rc = main([
        "detect", "--bundle", str(bundle),
        "--query", str(corpus / "graphs" / "noinline" / "p001-noinline.jsonl"),
        "--query-name", "p001_f02",
        "--target", str(corpus / "graphs" / "inline" / "p001-inline.jsonl"),
        "--target-name", "p001_f02",
    ])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert "final" in verdict


def _detect_self(pipeline, bundle):
    """detect of p001_f02 against itself."""
    graphs = pipeline["corpus"] / "graphs"
    return main([
        "detect", "--bundle", str(bundle),
        "--query", str(graphs / "noinline" / "p001-noinline.jsonl"),
        "--query-name", "p001_f02",
        "--target", str(graphs / "noinline" / "p001-noinline.jsonl"),
        "--target-name", "p001_f02",
    ])


def test_detect_non_finite_similarity_exits_3(pipeline, monkeypatch, capsys):
    """As in eval, a similarity that is not a finite number ends detect with
    exit 3 and no verdict."""
    monkeypatch.setattr(
        detector, "pair_distances",
        lambda pairs, models, config: np.full((len(models), len(pairs)), np.nan),
    )
    assert _detect_self(pipeline, pipeline["bundle"]) == 3
    assert capsys.readouterr().out == ""


def test_eval_and_sweep(pipeline, tmp_path):
    report_dir = tmp_path / "report"
    rc = main([
        "eval", "--bundle", str(pipeline["bundle"]),
        "--corpus", str(pipeline["corpus"]), "--pairs", str(pipeline["pairs"]),
        "--out", str(report_dir), "--grid", "extended",
    ])
    assert rc == 0
    reports = json.loads((report_dir / "reports.json").read_text())
    assert "overall" in reports
    assert reports["overall"]["counts"]["tp"] + reports["overall"]["counts"]["fn"] == 6
    sweep_rows = (report_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep_rows) == 1 + 19
    scores = (report_dir / "scores.jsonl").read_text().strip().splitlines()
    assert len(scores) == 12

    out_csv = tmp_path / "resweep.csv"
    rc = main([
        "sweep", "--scores", str(report_dir / "scores.jsonl"),
        "--grid", "paper", "--out", str(out_csv),
    ])
    assert rc == 0
    assert len(out_csv.read_text().strip().splitlines()) == 1 + 10


def test_synth_eval_and_sweep_move_every_file_into_place(
    pipeline, tmp_path, monkeypatch
):
    """Every file that synth, eval and sweep leave was written to a temp
    file and moved over its final name by os.replace, so a run killed while
    writing leaves no file cut short under its final name (a line table cut
    at a line boundary would read as fewer rows without any error)."""
    moved = set()
    real_replace = os.replace

    def replace(src, dst, **kwargs):
        moved.add(Path(dst))
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    corpus, report = tmp_path / "corpus", tmp_path / "report"
    assert main(["synth", "--out", str(corpus)] + _SYNTH_ARGS) == 0
    assert main([
        "eval", "--bundle", str(pipeline["bundle"]), "--corpus", str(corpus),
        "--pairs", str(pipeline["pairs"]), "--out", str(report),
    ]) == 0
    assert main([
        "sweep", "--scores", str(report / "scores.jsonl"),
        "--out", str(tmp_path / "resweep.csv"),
    ]) == 0
    left = {path for path in tmp_path.rglob("*") if path.is_file()}
    tables = {corpus / "tables" / name for name in (
        "addr2line.tsv", "binfuncs.tsv", "srcfuncs.tsv", "fcg.tsv"
    )}
    assert tables | {report / "sweep.csv", tmp_path / "resweep.csv"} <= left
    assert sorted(left - moved) == []
    assert (tmp_path / "resweep.csv").read_bytes().count(b"\r\n") == 1 + 19


def _eval(pipeline, pairs, out):
    return main([
        "eval", "--bundle", str(pipeline["bundle"]),
        "--corpus", str(pipeline["corpus"]), "--pairs", str(pairs),
        "--out", str(out),
    ])


def test_detect_equals_eval_bit_for_bit(pipeline, tmp_path, capsys):
    """Each pair of the pair file gets from detect, where its two graphs
    embed alone, the bits that eval gives it among all the others."""
    report = tmp_path / "report"
    assert _eval(pipeline, pipeline["pairs"], report) == 0
    capsys.readouterr()
    lines = (report / "scores.jsonl").read_text().splitlines()
    scores = [json.loads(line)["score"] for line in lines]
    records = [json.loads(line) for line in pipeline["pairs"].read_text().splitlines()]
    assert len(scores) == len(records) == 12
    graphs = pipeline["corpus"] / "graphs"
    for record, score in zip(records, scores):
        (q_set, q_bin, q_name), (t_set, t_bin, t_name) = (
            record["query_ref"], record["target_ref"]
        )
        assert main([
            "detect", "--bundle", str(pipeline["bundle"]),
            "--query", str(graphs / q_set / f"{q_bin}.jsonl"), "--query-name", q_name,
            "--target", str(graphs / t_set / f"{t_bin}.jsonl"), "--target-name", t_name,
        ]) == 0
        assert json.loads(capsys.readouterr().out)["final"] == score


def _one_share(monkeypatch):
    """Score in this process only, where a monkeypatch sees every call."""
    monkeypatch.setattr(detector, "_share_count", lambda files, graphs: 1)


def test_eval_scores_once(pipeline, tmp_path, monkeypatch):
    """eval scores every pair once; its files equal those built from a
    separate score_pairs call."""
    _one_share(monkeypatch)
    det = detector.load_bundle(pipeline["bundle"])
    graphs = synth.load_corpus(pipeline["corpus"]).graphs
    pairs, _ = pairgen.read_pairs(pipeline["pairs"], graphs)
    finals = detector.score_pairs(det, pairs, graphs)
    reference = tmp_path / "reference.json"
    evaluation.write_reports(
        evaluation.reports_from_scores(pairs, finals, det.threshold), reference
    )

    calls = []
    original = detector.score_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(detector, "score_pairs", counting)
    assert _eval(pipeline, pipeline["pairs"], tmp_path / "report") == 0
    assert len(calls) == 1
    report_dir = tmp_path / "report"
    assert (report_dir / "reports.json").read_bytes() == reference.read_bytes()
    lines = (report_dir / "scores.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [row["score"] for row in rows] == finals
    assert [row["label"] for row in rows] == [p.label for p in pairs]


def _filtered_pairs(pipeline, path, keep):
    lines = pipeline["pairs"].read_text().splitlines()
    kept = [line for line in lines if keep(json.loads(line))]
    path.write_text("\n".join(kept) + "\n")
    return [json.loads(line) for line in kept]


def _assert_single_label_eval(pipeline, tmp_path, pairs, capsys, degenerate):
    report_dir = tmp_path / "report"
    capsys.readouterr()
    assert _eval(pipeline, pairs, report_dir) == 0
    table = capsys.readouterr().out
    reports = json.loads((report_dir / "reports.json").read_text())
    for name, report in reports.items():
        if name in degenerate:
            assert report["auc"] is None, name
        else:
            assert 0.0 <= report["auc"] <= 1.0, name
    for name in degenerate:
        row = next(line for line in table.splitlines() if line.startswith(name))
        assert row.split()[-1] == "n/a"
    assert (report_dir / "sweep.csv").is_file()
    assert (report_dir / "scores.jsonl").is_file()
    return reports


def test_eval_positives_only(pipeline, tmp_path, capsys):
    pairs = tmp_path / "positives.jsonl"
    kept = _filtered_pairs(pipeline, pairs, lambda rec: rec["label"] == 1)
    patterns = {rec["pattern"] for rec in kept}
    reports = _assert_single_label_eval(
        pipeline, tmp_path, pairs, capsys, patterns | {"overall"}
    )
    assert set(reports) == patterns | {"overall"}
    sweep = (tmp_path / "report" / "sweep.csv").read_text().splitlines()
    assert all(row.split(",")[5] == "n/a" for row in sweep[1:])


def test_eval_group_without_negatives(pipeline, tmp_path, capsys):
    records = [json.loads(line) for line in pipeline["pairs"].read_text().splitlines()]
    both = [
        pattern for pattern in sorted({rec["pattern"] for rec in records})
        if {rec["label"] for rec in records if rec["pattern"] == pattern} == {-1, 1}
    ]
    assert both, "the shared pair file needs a group with both labels"
    dropped = both[0]
    pairs = tmp_path / "no-negatives.jsonl"
    _filtered_pairs(
        pipeline, pairs, lambda rec: rec["pattern"] != dropped or rec["label"] == 1
    )
    reports = _assert_single_label_eval(pipeline, tmp_path, pairs, capsys, {dropped})
    assert reports[dropped]["counts"]["tn"] + reports[dropped]["counts"]["fp"] == 0


def test_synth_rerun_is_byte_identical(tmp_path):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for directory in dirs:
        assert main(["synth", "--out", str(directory)] + _SYNTH_ARGS) == 0
    files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "synth.cfg"
    config.write_text(
        "# comment line\n"
        "seed = 9\n"
        "projects = 3\n"
        "functions = 8\n"
        "call-density = 2.0\n"
        "block-count = 2:4\n"
        "block-size = 2:4\n"
    )
    out = tmp_path / "corpus"
    rc = main([
        "synth", "--config", str(config), "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3, "explicit flag must beat the file"
    assert manifest["config"]["n_projects"] == 3


def test_unknown_config_key_fails(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus = 1\n")
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "c")])
    assert rc == 2


def test_missing_required_option_fails():
    assert main(["synth", "--seed", "3"]) == 2


def test_bad_option_value_fails(tmp_path):
    rc = main(["synth", "--out", str(tmp_path / "c"), "--projects", "many"])
    assert rc == 2


def test_missing_files_fail(tmp_path):
    assert main(["label", "--corpus", str(tmp_path / "ghost"), "--out",
                 str(tmp_path / "i.json")]) == 2
    assert main(["sweep", "--scores", str(tmp_path / "ghost.jsonl"), "--out",
                 str(tmp_path / "s.csv")]) == 2


def test_bad_pattern_fails(pipeline, tmp_path):
    rc = main([
        "pairs", "--corpus", str(pipeline["corpus"]), "--pattern", "equal",
        "--out", str(tmp_path / "p.jsonl"),
    ])
    assert rc == 2


def test_unknown_project_filter_fails(pipeline, tmp_path):
    rc = main([
        "pairs", "--corpus", str(pipeline["corpus"]), "--pattern", "leaf",
        "--projects", "p999", "--out", str(tmp_path / "p.jsonl"),
    ])
    assert rc == 2


def _drop_block_id(record):
    del record["block_ids"][0]
    return json.dumps(record)


def _one_element_edge(record):
    record["edges"].append([0])
    return json.dumps(record)


@pytest.mark.parametrize(
    "corrupt",
    [_drop_block_id, _one_element_edge, lambda record: "{not json"],
    ids=["block-without-id", "one-element-edge", "not-json"],
)
def test_detect_malformed_record_names_file_and_line(
    pipeline, tmp_path, caplog, corrupt
):
    """A bad second record fails detect with exit 2 and a message naming
    path:line, not a traceback."""
    corpus, bundle = pipeline["corpus"], pipeline["bundle"]
    source = corpus / "graphs" / "noinline" / "p000-noinline.jsonl"
    good, second = source.read_text().splitlines()[:2]
    query = tmp_path / "query.jsonl"
    query.write_text(good + "\n\n" + corrupt(json.loads(second)) + "\n")
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "detect", "--bundle", str(bundle),
            "--query", str(query), "--query-name", json.loads(good)["name"],
            "--target", str(source), "--target-name", "p000_f00",
        ])
    assert rc == 2
    assert any(f"{query}:3:" in rec.getMessage() for rec in caplog.records)


def test_detect_of_a_file_without_records_says_so(pipeline, tmp_path, caplog):
    """A zero-byte --query holds no function for any name to pick."""
    query = tmp_path / "query.jsonl"
    query.write_bytes(b"")
    target = pipeline["corpus"] / "graphs" / "inline" / "p000-inline.jsonl"
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "detect", "--bundle", str(pipeline["bundle"]), "--query", str(query),
            "--target", str(target), "--target-name", "p000_f00",
        ])
    assert rc == 2
    _assert_names(caplog, f"{query} holds no function record")


def test_detect_refuses_a_record_of_instruction_objects(pipeline, tmp_path, caplog):
    """A record of the layout before format version 3 exits 2 naming
    path:line and the layout of columns it should have."""
    source = pipeline["corpus"] / "graphs" / "noinline" / "p000-noinline.jsonl"
    record = json.loads(source.read_text().splitlines()[0])
    query = tmp_path / "query.jsonl"
    query.write_text(json.dumps(object_record(record)) + "\n")
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "detect", "--bundle", str(pipeline["bundle"]), "--query", str(query),
            "--target", str(source), "--target-name", record["name"],
        ])
    assert rc == 2
    _assert_names(caplog, f"{query}:1: MalformedGraph: bad record: instruction objects")
    _assert_names(caplog, "as the columns block_ids, block_sizes, insn_ops")


def test_label_logs_unresolved_rows_as_counts(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus)] + _SYNTH_ARGS) == 0
    table = corpus / "tables" / "addr2line.tsv"
    rows = table.read_text().splitlines()
    bid, addr, file, _ = next(r for r in rows if r.startswith("p000-noinline")).split("\t")
    bad = [f"{bid}\t0x{0xF00000 + 4 * i:x}\t{file}\t1" for i in range(5)]
    bad += [f"{bid}\t{addr}\t{file}\t{90000 + i}" for i in range(4)]
    table.write_text("\n".join(rows + bad) + "\n")
    with caplog.at_level("WARNING", logger="cidetect.cli"):
        build_index_from_corpus(corpus)
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
    assert len(warnings) == 2
    by_count = {msg.split(":")[1].split()[0]: msg for msg in warnings}
    assert set(by_count) == {"5", "4"}
    assert all(msg.startswith("noinline: ") for msg in warnings)
    assert "no binary function" in by_count["5"]
    assert "0xf00000, " in by_count["5"] and "0xf00008" in by_count["5"]
    assert "0xf0000c" not in by_count["5"]
    assert "no source function" in by_count["4"]
    assert f"{file}:90002" in by_count["4"] and f"{file}:90003" not in by_count["4"]


def test_label_summary_prints_diagnostic_counts(pipeline, tmp_path, capsys):
    """Without call-graph edges every bridge of an inlined target is
    isolated, so the summary's count is the number of cross-inlining rows."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    (corpus / "tables" / "fcg.tsv").write_text("")
    out = tmp_path / "index.json"
    assert main(["label", "--corpus", str(corpus), "--out", str(out)]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    entries = json.loads(out.read_text())["entries"].values()
    isolated = sum(len(entry["cross_inlining"]) for entry in entries)
    assert isolated > 0
    assert summary.endswith(
        f"excluded_no_inline=0, isolated_bridges={isolated}"
    ), summary


def _train(pipeline, pattern, bundle, *extra):
    return main([
        "train", "--corpus", str(pipeline["corpus"]), "--index", str(pipeline["index"]),
        "--pattern", pattern, "--out", str(bundle),
    ] + _TRAIN_ARGS + list(extra))


def test_train_rejects_models_with_different_configs(pipeline, tmp_path, caplog):
    bundle = tmp_path / "bundle"
    assert _train(pipeline, "leaf", bundle) == 0
    assert _train(pipeline, "root", bundle, "--node-dim", "5") == 0
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert _train(pipeline, "internal", bundle) == 2
    assert any(
        str(bundle / "model-root.ckpt") in rec.getMessage() for rec in caplog.records
    )
    assert not (bundle / "manifest.json").exists()


def test_train_refuses_a_bundle_with_another_vocabulary(pipeline, tmp_path, caplog):
    """root trained on another corpus would be featurized with leaf's
    vocab.json at eval time; the bundle refuses it and writes nothing."""
    other = tmp_path / "other"
    synth_args = list(_SYNTH_ARGS)
    synth_args[synth_args.index("--seed") + 1] = "4"
    assert main(["synth", "--out", str(other / "corpus")] + synth_args) == 0
    assert main([
        "label", "--corpus", str(other / "corpus"), "--out", str(other / "index.json"),
    ]) == 0
    bundle = tmp_path / "bundle"
    assert _train(pipeline, "leaf", bundle) == 0
    before = {path.name: path.read_bytes() for path in bundle.iterdir()}
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "train", "--corpus", str(other / "corpus"),
            "--index", str(other / "index.json"), "--pattern", "root",
            "--out", str(bundle),
        ] + _TRAIN_ARGS)
    assert rc == 2
    assert any(str(bundle / "vocab.json") in rec.getMessage() for rec in caplog.records)
    assert {path.name: path.read_bytes() for path in bundle.iterdir()} == before


class _HalfWriter:
    """A file whose write puts down half its bytes, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "name", ["model-internal.ckpt", "vocab.json", "history-internal.json", "manifest.json"]
)
def test_a_bundle_write_that_fails_midway_leaves_no_partial_file(
    pipeline, tmp_path, monkeypatch, name
):
    """The train call that completes a bundle, with the write of one file
    failing halfway: it exits 2, the file keeps its old bytes, and every
    other bundle file holds either its old bytes or the whole bytes the
    pipeline wrote; no temp file is left. (check_vocab, which would refuse
    an old vocab.json of other bytes, is switched off.)"""
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for kept in ("model-leaf.ckpt", "model-root.ckpt", "vocab.json",
                 "history-leaf.json", "history-root.json"):
        shutil.copy(pipeline["bundle"] / kept, bundle / kept)
    (bundle / name).write_bytes(b"old bytes\n")
    before = {path.name: path.read_bytes() for path in bundle.iterdir()}
    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return _HalfWriter(handle) if name in Path(path).name else handle

    monkeypatch.setattr(acfg, "open", failing_open, raising=False)
    monkeypatch.setattr(detector, "check_vocab", lambda directory, vocab: None)
    assert _train(pipeline, "internal", bundle) == 2
    assert (bundle / name).read_bytes() == b"old bytes\n"
    assert not [path.name for path in bundle.iterdir() if path.name.startswith(".")]
    for path in bundle.iterdir():
        assert path.read_bytes() in (
            before.get(path.name), (pipeline["bundle"] / path.name).read_bytes()
        ), path.name


def test_train_epoch_without_pairs_fails(pipeline, tmp_path):
    assert _train(pipeline, "leaf", tmp_path / "bundle", "--epoch-size", "0") == 2


@pytest.mark.parametrize(
    "command, pattern, flag, value, least",
    [("pairs", "leaf", "--num-pos", "-1", 0),
     ("pairs", "leaf", "--num-neg", "-1", 0),
     ("train", "leaf", "--val-pairs", "-1", 0),
     ("train", "mixed", "--thresh-pairs", "-1", 0),
     ("train", "leaf", "--epoch-size", "-1", 0),
     ("train", "leaf", "--epochs", "-1", 0),
     ("train", "leaf", "--vocab-size", "0", 1)],
    ids=["pairs---num-pos-positive", "pairs---num-neg-negative",
         "train---val-pairs-positive", "train-mixed---thresh-pairs",
         "train---epoch-size", "train---epochs", "train---vocab-size"],
)
def test_negative_pair_count_exits_2_before_any_work(
    pipeline, tmp_path, caplog, monkeypatch, command, pattern, flag, value, least
):
    """A count below its least value is refused, naming the flag and the
    value, before pairs or train reads the corpus, so nothing is written:
    zero is the least count of pairs or epochs there is. The mixed model
    finalizes its bundle at once, so only a check before training keeps a
    bad --thresh-pairs from writing the model first."""

    def unread(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(synth, "load_corpus", unread)
    out = tmp_path / "out"
    argv = [
        command, "--corpus", str(pipeline["corpus"]),
        "--index", str(pipeline["index"]), "--pattern", pattern, "--out", str(out),
    ]
    argv += _TRAIN_ARGS if command == "train" else []
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert main(argv + [flag, value]) == 2
    message = f"bad value for {flag}: must be >= {least}, got {value}"
    assert any(rec.getMessage() == message for rec in caplog.records)
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, widths, field",
    [("--encoder-hidden", "0", "encoder_hidden"),
     ("--update-hidden", "-3", "update_hidden"),
     ("--output-hidden", "0,4", "output_hidden")],
)
def test_zero_width_hidden_layer_exits_2(pipeline, tmp_path, caplog, flag, widths, field):
    """A hidden layer of no units would make every embedding equal; an empty
    list, no hidden layer at all, stays valid (_TRAIN_ARGS)."""
    out = tmp_path / "bundle"
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert _train(pipeline, "leaf", out, flag, widths) == 2
    assert any(
        rec.getMessage().startswith(
            f"bad value for {flag}: {field} widths must be >= 1"
        )
        for rec in caplog.records
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--node-dim", "0", "node_state_dim must be >= 1, got 0"),
     ("--embed-dim", "0", "graph_embedding_dim must be >= 1, got 0"),
     ("--layers", "-1", "propagation_layers must be >= 0, got -1"),
     ("--batch-size", "0", "batch_size must be >= 1, got 0"),
     ("--max-nodes", "0", "max_nodes must be >= 1, got 0"),
     ("--lr", "0", "learning_rate must be a finite number > 0, got 0.0"),
     ("--lr", "inf", "learning_rate must be a finite number > 0, got inf"),
     ("--margin", "0", "margin must be a finite number > 0, got 0.0")],
)
def test_model_flag_out_of_range_exits_2_before_any_work(
    pipeline, tmp_path, caplog, monkeypatch, flag, value, message
):
    """A train flag outside the range of its ModelConfig field is refused,
    naming the flag and the field, before the corpus is read: only the
    feature dim needs the vocabulary."""

    def unread(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(synth, "load_corpus", unread)
    out = tmp_path / "bundle"
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert _train(pipeline, "leaf", out, flag, value) == 2
    want = f"bad value for {flag}: {message}"
    assert any(rec.getMessage() == want for rec in caplog.records)
    assert not out.exists()


def _header_end(raw):
    return 16 + struct.unpack("<Q", raw[8:16])[0]


def _cut_in_header(bundle):
    path = bundle / "model-root.ckpt"
    raw = path.read_bytes()
    path.write_bytes(raw[: _header_end(raw) - 20])
    return path


def _flip_bit_in_header(bundle):
    path = bundle / "model-root.ckpt"
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0x01  # inside the first key of the JSON header, "config"
    path.write_bytes(bytes(raw))
    return path


def _rewrite_header(path, edit):
    raw = path.read_bytes()
    header = json.loads(raw[16 : _header_end(raw)])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    tensors = raw[_header_end(raw):]
    path.write_bytes(raw[:8] + struct.pack("<Q", len(encoded)) + encoded + tensors)
    return path


def _header_without_config(bundle):
    return _rewrite_header(bundle / "model-root.ckpt", lambda h: h.pop("config"))


def _flip_bit_in_tensor_name(bundle):
    path = bundle / "model-root.ckpt"
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"agg.gate.b"') + 1] ^= 0x02  # "agg.gate.b" -> "cgg.gate.b"
    path.write_bytes(bytes(raw))
    return path


def _malformed_shape(bundle):
    def edit(header):
        header["tensors"][0]["shape"] = "24x32"
    return _rewrite_header(bundle / "model-root.ckpt", edit)


def _cut_in_tensors(bundle):
    path = bundle / "model-root.ckpt"
    raw = path.read_bytes()
    path.write_bytes(raw[: _header_end(raw) + 12])
    return path


def _trailing_bytes(bundle):
    path = bundle / "model-root.ckpt"
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    return path


def _nan_in_tensor(bundle):
    """A NaN as the first value of model-leaf.ckpt's first tensor, which
    would otherwise score as a NaN similarity (not JSON) in detect."""
    path = bundle / "model-leaf.ckpt"
    raw = bytearray(path.read_bytes())
    start = _header_end(raw)
    raw[start : start + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    return path


def _manifest_without_threshold(bundle):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["threshold"]
    path.write_text(json.dumps(manifest))
    return path


def _manifest_not_an_object(bundle):
    path = bundle / "manifest.json"
    path.write_text("5\n")
    return path


def _manifest_not_json(bundle):
    path = bundle / "manifest.json"
    path.write_text(path.read_text()[:40])
    return path


def _vocab_not_json(bundle):
    path = bundle / "vocab.json"
    path.write_text('{"key_sequence": [')
    return path


def _vocab_without_key_sequence(bundle):
    path = bundle / "vocab.json"
    path.write_text("{}\n")
    return path


def _vocab_key_sequence_not_a_list(bundle):
    path = bundle / "vocab.json"
    path.write_text('{"key_sequence": 5}\n')
    return path


def _vocab_repeated_key(bundle):
    path = bundle / "vocab.json"
    path.write_text('{"key_sequence": ["mov", "mov"]}\n')
    return path


def _vocab_key_not_a_string(bundle):
    path = bundle / "vocab.json"
    path.write_text('{"key_sequence": [1, 2]}\n')
    return path


def _vocab_of_another_length(bundle):
    path = bundle / "vocab.json"
    path.write_text('{"key_sequence": ["add", "mov"]}\n')
    return path


def _manifest_edited(edit):
    """A corruption that rewrites manifest.json after edit(manifest)."""

    def corrupt(bundle):
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        return path

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [_cut_in_header, _cut_in_tensors, _trailing_bytes, _manifest_without_threshold,
     _manifest_not_an_object, _flip_bit_in_header, _header_without_config,
     _malformed_shape, _flip_bit_in_tensor_name, _manifest_not_json,
     _vocab_not_json, _vocab_without_key_sequence, _vocab_key_sequence_not_a_list,
     _vocab_repeated_key, _vocab_key_not_a_string,
     _manifest_edited(lambda m: m.update(threshold=None)),
     _manifest_edited(lambda m: m.update(threshold=[0.5])),
     _manifest_edited(lambda m: m.update(models=sorted(m["models"].values()))),
     _manifest_edited(lambda m: m.update(models={k: 5 for k in m["models"]})),
     _manifest_edited(lambda m: m.update(threshold="abc")),
     _manifest_edited(lambda m: m.update(threshold=1.5)),
     _manifest_edited(lambda m: m["models"].pop("root")),
     _vocab_of_another_length, _nan_in_tensor],
    ids=["checkpoint-cut-in-header", "checkpoint-cut-in-tensors",
         "checkpoint-trailing-bytes", "manifest-without-threshold",
         "manifest-not-an-object", "checkpoint-bit-flip-in-header",
         "checkpoint-header-without-config", "checkpoint-malformed-shape",
         "checkpoint-bit-flip-in-tensor-name", "manifest-not-json",
         "vocab-not-json", "vocab-without-key-sequence",
         "vocab-key-sequence-not-a-list", "vocab-repeated-key",
         "vocab-key-not-a-string", "manifest-threshold-null",
         "manifest-threshold-list", "manifest-models-list",
         "manifest-model-file-not-a-string", "manifest-threshold-string",
         "manifest-threshold-above-one", "manifest-wrong-model-keys",
         "vocab-of-another-length", "checkpoint-nan-value"],
)
def test_eval_corrupt_bundle_names_file(pipeline, tmp_path, caplog, corrupt):
    bundle = tmp_path / "bundle"
    shutil.copytree(pipeline["bundle"], bundle)
    path = corrupt(bundle)
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "eval", "--bundle", str(bundle), "--corpus", str(pipeline["corpus"]),
            "--pairs", str(pipeline["pairs"]), "--out", str(tmp_path / "report"),
        ])
    assert rc == 2
    assert any(str(path) in rec.getMessage() for rec in caplog.records)


def _bad_record(line, edit):
    record = json.loads(line)
    edit(record)
    return json.dumps(record)


def _with_bad_second_record(source, path, corrupt):
    """source's first record, a blank line, then corrupt(second record),
    which is line 3 of path."""
    first, second = source.read_text().splitlines()[:2]
    path.write_text(first + "\n\n" + corrupt(second) + "\n")


def _assert_names(caplog, place):
    assert any(place in rec.getMessage() for rec in caplog.records), [
        rec.getMessage() for rec in caplog.records
    ]


_BAD_PAIR_RECORDS = {
    "not-json": lambda line: "{not json",
    "missing-key": lambda line: _bad_record(line, lambda r: r.pop("query_ref")),
    "bad-label": lambda line: _bad_record(line, lambda r: r.update(label="abc")),
    "bad-pattern": lambda line: _bad_record(line, lambda r: r.update(pattern="equal")),
    "unknown-ref": lambda line: _bad_record(
        line, lambda r: r.update(target_ref=["inline", "ghost", "f"])
    ),
}


@pytest.mark.parametrize(
    "corrupt", _BAD_PAIR_RECORDS.values(), ids=_BAD_PAIR_RECORDS.keys()
)
def test_eval_bad_pair_record_names_file_and_line(
    pipeline, tmp_path, caplog, corrupt
):
    pairs = tmp_path / "pairs.jsonl"
    _with_bad_second_record(pipeline["pairs"], pairs, corrupt)
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert _eval(pipeline, pairs, tmp_path / "report") == 2
    _assert_names(caplog, f"{pairs}:3:")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: "{not json",
        lambda line: _bad_record(line, lambda r: r.pop("score")),
        lambda line: _bad_record(line, lambda r: r.update(score="abc")),
        lambda line: _bad_record(line, lambda r: r.update(label=0)),
        lambda line: _bad_record(line, lambda r: r.update(label=float("inf"))),
        lambda line: _bad_record(line, lambda r: r.update(score=float("nan"))),
        lambda line: _bad_record(line, lambda r: r.update(score=float("inf"))),
    ],
    ids=[
        "not-json", "missing-key", "bad-score", "bad-label",
        "label-infinity", "score-nan", "score-infinity",
    ],
)
def test_sweep_bad_score_record_names_file_and_line(
    pipeline, tmp_path, caplog, corrupt
):
    report = tmp_path / "report"
    assert _eval(pipeline, pipeline["pairs"], report) == 0
    scores = tmp_path / "scores.jsonl"
    _with_bad_second_record(report / "scores.jsonl", scores, corrupt)
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main(["sweep", "--scores", str(scores), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    _assert_names(caplog, f"{scores}:3:")


def _corpus_manifest_without_projects(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "manifest.json"
    payload = json.loads(manifest.read_text())
    del payload["projects"]
    manifest.write_text(json.dumps(payload))
    return manifest, ["label", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")]


def _corpus_project_without_binaries(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "manifest.json"
    payload = json.loads(manifest.read_text())
    del next(iter(payload["projects"].values()))["binaries"]
    manifest.write_text(json.dumps(payload))
    return manifest, ["label", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")]


def _corpus_project_functions_not_a_list(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "manifest.json"
    payload = json.loads(manifest.read_text())
    next(iter(payload["projects"].values()))["source_functions"] = "f0"
    manifest.write_text(json.dumps(payload))
    return manifest, [
        "pairs", "--corpus", str(corpus), "--index", str(pipeline["index"]),
        "--pattern", "leaf", "--projects", "p000", "--out", str(tmp_path / "p.jsonl"),
    ]


def _index_not_json(pipeline, tmp_path):
    index = tmp_path / "index.json"
    index.write_text(pipeline["index"].read_text()[:50])
    return index, [
        "pairs", "--corpus", str(pipeline["corpus"]), "--index", str(index),
        "--pattern", "leaf", "--out", str(tmp_path / "p.jsonl"),
    ]


def _bad_index(edit):
    """An --index file that edit(payload) spoils, given to pairs."""

    def corrupt(pipeline, tmp_path):
        index = tmp_path / "index.json"
        payload = json.loads(pipeline["index"].read_text())
        edit(payload)
        index.write_text(json.dumps(payload))
        return index, [
            "pairs", "--corpus", str(pipeline["corpus"]), "--index", str(index),
            "--pattern", "leaf", "--out", str(tmp_path / "p.jsonl"),
        ]

    return corrupt


def _first_entry(payload):
    return next(iter(payload["entries"].values()))


def _corpus_binary_id_with_a_path(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "manifest.json"
    payload = json.loads(manifest.read_text())
    next(iter(payload["projects"].values()))["binaries"]["inline"] = "../p000-inline"
    manifest.write_text(json.dumps(payload))
    return manifest, [
        "pairs", "--corpus", str(corpus), "--index", str(pipeline["index"]),
        "--pattern", "leaf", "--out", str(tmp_path / "p.jsonl"),
    ]


@pytest.mark.parametrize(
    "corrupt",
    [_corpus_manifest_without_projects, _index_not_json,
     _corpus_project_without_binaries, _corpus_project_functions_not_a_list,
     _bad_index(lambda payload: payload.update(entries=[])),
     _bad_index(lambda payload: payload.update(entries={"x": 5})),
     _bad_index(lambda payload: _first_entry(payload).update(equal=[["p0-noinline"]])),
     _bad_index(lambda payload: _first_entry(payload)["equal"][0].__setitem__(2, "a")),
     _bad_index(lambda payload: _first_entry(payload).update(
         cross_inlining=[[_first_entry(payload)["equal"][0], "equal"]])),
     _corpus_binary_id_with_a_path],
    ids=["corpus-manifest-without-projects", "index-not-json",
         "corpus-project-without-binaries", "corpus-project-functions-not-a-list",
         "index-entries-a-list", "index-entry-not-an-object",
         "index-ref-of-one-element", "index-addr-start-not-an-int",
         "index-equal-as-cross-pattern", "corpus-binary-id-with-a-path"],
)
def test_bad_json_input_names_file(pipeline, tmp_path, caplog, corrupt):
    path, argv = corrupt(pipeline, tmp_path)
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert main(argv) == 2
    _assert_names(caplog, str(path))


def _graph_file_entry(payload):
    return payload["graph_files"]["p001-inline"]


_CORPUS_MANIFEST_EDITS = {
    "format-version-1": lambda payload: payload.update(format_version=1),
    "format-version-2": lambda payload: payload.update(format_version=2),
    "functions-repeating-a-name": lambda payload: _graph_file_entry(payload)[
        "functions"
    ].append(_graph_file_entry(payload)["functions"][0]),
    "binary-without-graph-files-entry":
        lambda payload: payload["graph_files"].pop("p001-inline"),
    "sha256-in-upper-case": lambda payload: _graph_file_entry(payload).update(
        sha256=_graph_file_entry(payload)["sha256"].upper()
    ),
    "sha256-of-63-digits": lambda payload: _graph_file_entry(payload).update(
        sha256=_graph_file_entry(payload)["sha256"][1:]
    ),
    "count-true": lambda payload: _graph_file_entry(payload)["opcode_counts"].update(
        mov=True
    ),
    "count-zero": lambda payload: _graph_file_entry(payload)["opcode_counts"].update(
        mov=0
    ),
}


def _corpus_command(pipeline, corpus, command, tmp_path):
    if command == "label":
        return ["label", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")]
    if command == "pairs":
        return _pairs_argv(corpus, pipeline["index"], tmp_path / "p.jsonl")
    return [
        "train", "--corpus", str(corpus), "--index", str(pipeline["index"]),
        "--pattern", "leaf", "--out", str(tmp_path / "bundle"),
    ] + _TRAIN_ARGS


@pytest.mark.parametrize("command", ["label", "pairs", "train"])
@pytest.mark.parametrize("edit", sorted(_CORPUS_MANIFEST_EDITS))
def test_corpus_manifest_without_good_graph_files_names_it(
    pipeline, tmp_path, caplog, edit, command
):
    """A corpus manifest of format version 1 or 2, or one whose graph_files
    lack an entry, repeat a function name or hold a bad sha256 or count,
    exits 2 naming manifest.json before any work."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "manifest.json"
    payload = json.loads(manifest.read_text())
    _CORPUS_MANIFEST_EDITS[edit](payload)
    manifest.write_text(json.dumps(payload))
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert main(_corpus_command(pipeline, corpus, command, tmp_path)) == 2
    _assert_names(caplog, str(manifest))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus"]


def _graph_file_read_by(command, pipeline, corpus):
    """A graph file of corpus that the command reads: for train, an inline
    binary of its first training project; for pairs and eval, the file of
    the first query of the pipeline's pair file, which pairs draws again."""
    if command == "train":
        loaded = synth.load_corpus(corpus)
        split = pairgen.split_projects(loaded.project_ids(), [3, cli._SEED_VOCAB_SPLIT])
        binary_id = synth.binary_ids(loaded.manifest, split.train[:1], "inline").pop()
        return synth.graph_file(corpus, "inline", binary_id)
    record = json.loads(pipeline["pairs"].read_text().splitlines()[0])
    dataset, binary_id, _ = record["query_ref"]
    return synth.graph_file(corpus, dataset, binary_id)


def _run_corpus_command(pipeline, corpus, command, tmp_path):
    """The command on corpus, writing under tmp_path/out; its exit code."""
    out = tmp_path / "out"
    if command == "eval":
        return main([
            "eval", "--bundle", str(pipeline["bundle"]), "--corpus", str(corpus),
            "--pairs", str(pipeline["pairs"]), "--out", str(out),
        ])
    if command == "pairs":
        return main(_pairs_argv(corpus, pipeline["index"], out))
    return _train(pipeline, "leaf", out, "--corpus", str(corpus))


@pytest.mark.parametrize("command", ["pairs", "train", "eval"])
def test_a_corpus_command_refuses_a_graph_file_changed_after_synth(
    pipeline, tmp_path, caplog, command
):
    """A graph file the command reads, edited after synth, still valid
    JSON with one opcode changed, no longer has the sha256 the manifest
    records: the command exits 2 naming the file and writes nothing."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    path = _graph_file_read_by(command, pipeline, corpus)
    lines = path.read_text().splitlines()
    record = json.loads(lines[-1])
    ops = record["insn_ops"]
    ops[0] = "nop" if ops[0] != "nop" else "mov"
    lines[-1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert _run_corpus_command(pipeline, corpus, command, tmp_path) == 2
    _assert_names(caplog, f"{path}: sha256")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pairs", "train", "eval"])
def test_a_functions_list_of_another_line_count_names_the_graph_file(
    pipeline, tmp_path, caplog, command
):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    path = _graph_file_read_by(command, pipeline, corpus)
    lines = path.read_text().splitlines()
    rehash_graph_file(path, [json.loads(line)["name"] for line in lines] + ["extra"])
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert _run_corpus_command(pipeline, corpus, command, tmp_path) == 2
    _assert_names(caplog, f"{path}: holds {len(lines)} lines, but manifest.json lists")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pairs", "train", "eval"])
def test_a_corpus_command_reads_each_graph_file_in_full_at_most_once(
    pipeline, tmp_path, monkeypatch, command
):
    """train checks its training files for the vocabulary and builds its
    graphs from them later; each command opens a graph file at most once,
    to read it whole and check its sha256, and builds every graph of the
    file from the lines it kept."""
    reads, opens = [], []
    graph_file_lines, path_open = synth.graph_file_lines, Path.open

    def reading(path, sha256):
        reads.append(path)
        return graph_file_lines(path, sha256)

    def opening(path, *args, **kwargs):
        if path.parent.parent.name == "graphs":
            opens.append(path)
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(synth, "graph_file_lines", reading)
    monkeypatch.setattr(Path, "open", opening)
    _one_share(monkeypatch)
    assert _run_corpus_command(pipeline, pipeline["corpus"], command, tmp_path) == 0
    assert reads and len(set(reads)) == len(reads) and opens == reads


@pytest.mark.parametrize(
    "table, column, value, shown",
    [("addr2line.tsv", 1, "0xzz", "'0xzz'"), ("srcfuncs.tsv", 2, "abc", "'abc'"),
     ("binfuncs.tsv", 3, "12g", "'12g'"), ("fcg.tsv", 2, "f", "expected 2 columns"),
     ("addr2line.tsv", 1, "0x8000000000000000",
      "'0x8000000000000000' does not fit int64"),
     ("addr2line.tsv", 3, "-9223372036854775809",
      "'-9223372036854775809' does not fit int64")],
    ids=["addr2line-bad-address", "srcfuncs-bad-line", "binfuncs-bad-end",
         "fcg-extra-column", "addr2line-address-beyond-int64",
         "addr2line-line-beyond-int64"],
)
def test_label_bad_table_value_names_file_and_line(
    pipeline, tmp_path, caplog, table, column, value, shown
):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    path = corpus / "tables" / table
    lines = path.read_text().splitlines()
    cells = lines[1].split("\t")
    cells[column:column + 1] = [value]  # replaces the cell, or adds a column
    # a comment line first, so the bad row is row 3 but line 4
    rows = ["# comment", lines[0], lines[2], "\t".join(cells)]
    path.write_text("\n".join(rows) + "\n")
    argv = ["label", "--corpus", str(corpus), "--out", str(tmp_path / "i.json")]
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert main(argv) == 2
    _assert_names(caplog, f"{path}:4:")
    _assert_names(caplog, shown)


def test_pairs_missing_graph_file_names_it(pipeline, tmp_path, caplog):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    missing = corpus / "graphs" / "inline" / "p001-inline.jsonl"
    missing.unlink()
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "pairs", "--corpus", str(corpus), "--index", str(pipeline["index"]),
            "--pattern", "mixed", "--out", str(tmp_path / "p.jsonl"),
        ])
    assert rc == 2
    _assert_names(caplog, str(missing))


def test_corpus_reads_only_the_graph_files_its_manifest_lists(pipeline, tmp_path):
    """A JSONL file the manifest does not list is never read, even a
    malformed one; the graphs and the pairs sampled from them stay the same."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    graphs = corpus / "graphs"
    (graphs / "inline" / "stray.jsonl").write_text("{not json\n")
    noinline = graphs / "noinline"
    shutil.copy(noinline / "p000-noinline.jsonl", noinline / "copy.jsonl")
    loaded = synth.load_corpus(corpus)
    assert loaded.graphs.keys() == synth.load_corpus(pipeline["corpus"]).graphs.keys()
    assert {key[1] for key in loaded.graphs} == synth.binary_ids(
        loaded.manifest, loaded.project_ids()
    )
    argv = ["pairs", "--index", str(pipeline["index"]), "--pattern", "mixed",
            "--num-pos", "6", "--num-neg", "6", "--seed", "5"]
    out = tmp_path / "pairs.jsonl"
    assert main(argv + ["--corpus", str(corpus), "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["pairs"].read_bytes()


def _count_builds(monkeypatch):
    """The names of the records the corpus map builds, in order."""
    built = []
    original = synth.build_acfg

    def counting(record):
        built.append(record.get("name"))
        return original(record)

    monkeypatch.setattr(synth, "build_acfg", counting)
    return built


def _pairs_argv(corpus, index, out):
    return [
        "pairs", "--corpus", str(corpus), "--index", str(index),
        "--pattern", "mixed", "--num-pos", "6", "--num-neg", "6",
        "--seed", "5", "--out", str(out),
    ]


def test_pairs_builds_no_graph(pipeline, tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    out = tmp_path / "pairs.jsonl"
    assert main(_pairs_argv(pipeline["corpus"], pipeline["index"], out)) == 0
    assert built == []
    assert out.read_bytes() == pipeline["pairs"].read_bytes()


def _pair_refs(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {tuple(rec[side]) for rec in records for side in ("query_ref", "target_ref")}


def test_eval_builds_only_the_refs_of_its_pairs(pipeline, tmp_path, monkeypatch):
    _one_share(monkeypatch)
    built = _count_builds(monkeypatch)
    assert _eval(pipeline, pipeline["pairs"], tmp_path / "report") == 0
    refs = _pair_refs(pipeline["pairs"])
    assert sorted(built) == sorted(ref[2] for ref in refs)
    corpus = synth.load_corpus(pipeline["corpus"])
    assert len(refs) < len(corpus.graphs)


def test_train_builds_only_the_refs_of_its_pairs(pipeline, tmp_path, monkeypatch):
    """The vocabulary comes from the manifest's counts, so a train call
    that does not finalize the bundle builds the graphs of its epoch and
    validation pairs and no other."""
    built = _count_builds(monkeypatch)
    sampled = []
    sample_pairs = pairgen.sample_pairs

    def recording(*args):
        pairs = sample_pairs(*args)
        sampled.extend(pairs)
        return pairs

    monkeypatch.setattr(pairgen, "sample_pairs", recording)
    assert _train(pipeline, "leaf", tmp_path / "bundle") == 0
    assert not (tmp_path / "bundle" / "manifest.json").exists()
    refs = {ref for pair in sampled for ref in (pair.query_ref, pair.target_ref)}
    assert sorted(built) == sorted(ref[2] for ref in refs)
    corpus = synth.load_corpus(pipeline["corpus"])
    assert len(refs) < len(corpus.graphs)


@pytest.mark.parametrize("command", ["label", "pairs", "train"])
def test_a_corpus_command_reads_the_manifest_once(
    pipeline, tmp_path, monkeypatch, command
):
    """label, and pairs and train without --index, which label the corpus
    themselves from the manifest that load_corpus read."""
    reads = []
    read_corpus_manifest = synth.read_corpus_manifest

    def counting(directory):
        reads.append(directory)
        return read_corpus_manifest(directory)

    monkeypatch.setattr(synth, "read_corpus_manifest", counting)
    argv = _corpus_command(pipeline, pipeline["corpus"], command, tmp_path)
    if "--index" in argv:
        at = argv.index("--index")
        del argv[at:at + 2]
    assert main(argv) == 0
    assert reads == [pipeline["corpus"]]
    if command == "pairs":
        assert (tmp_path / "p.jsonl").read_bytes() == pipeline["pairs"].read_bytes()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "error, code", [(None, 0), (ValidationError, 2), (NumericError, 3)],
    ids=["exit-0", "exit-2", "exit-3"],
)
def test_main_pauses_the_cyclic_collector_and_restores_it(
    tmp_path, monkeypatch, collecting, error, code
):
    """A command runs with the collector paused and leaves it enabled or
    disabled as it found it, however it exits."""
    scores = tmp_path / "scores.jsonl"
    acfg.write_records(
        scores, [{"score": 0.9, "label": 1}, {"score": 0.2, "label": -1}]
    )
    during = []
    threshold_sweep = evaluation.threshold_sweep

    def recording(*args):
        during.append(gc.isenabled())
        if error is not None:
            raise error("raised inside the command")
        return threshold_sweep(*args)

    monkeypatch.setattr(evaluation, "threshold_sweep", recording)
    argv = ["sweep", "--scores", str(scores), "--out", str(tmp_path / "sweep.csv")]
    if not collecting:
        gc.disable()
    try:
        assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert during == [False]


def _cyclic_garbage(command):
    """How many objects command(), a main call, leaves that only the cyclic
    collector frees: what piles up while a command runs with the collector
    paused."""
    gc.disable()
    try:
        gc.collect()
        assert command() == 0
        return gc.collect()
    finally:
        gc.enable()


def test_training_leaves_as_many_cycles_at_any_epoch_count(pipeline, tmp_path):
    """A training step that left a reference cycle would pile one up per
    step while the collector is paused: 1 and 3 epochs must leave the same
    count. The first call fills the caches of first use."""
    counts = [
        _cyclic_garbage(
            lambda: _train(pipeline, "leaf", tmp_path / name, "--epochs", epochs)
        )
        for name, epochs in (("warm-up", "1"), ("one", "1"), ("three", "3"))
    ]
    assert counts[1] == counts[2] > 0


def test_synth_leaves_as_many_cycles_at_any_project_count(tmp_path):
    counts = [
        _cyclic_garbage(
            lambda: main(
                ["synth", "--out", str(tmp_path / name)]
                + _SYNTH_ARGS + ["--projects", projects]
            )
        )
        for name, projects in (("warm-up", "2"), ("two", "2"), ("six", "6"))
    ]
    assert counts[1] == counts[2] > 0


def test_pairs_with_a_ref_the_corpus_lacks_fails(pipeline, tmp_path, caplog):
    """The drawn refs are checked against the corpus though no graph is
    built: a query function missing from its graph file exits 2."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    path = corpus / "graphs" / "noinline" / "p000-noinline.jsonl"
    path.write_text("")
    rehash_graph_file(path, [])
    argv = _pairs_argv(corpus, pipeline["index"], tmp_path / "p.jsonl")
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        assert main(argv + ["--projects", "p000"]) == 2
    _assert_names(caplog, "graph store has no entry for ('noinline', 'p000-noinline'")


def _corpus_with_bad_record(pipeline, tmp_path, named):
    """A copy of the corpus where one record, valid JSON, lacks a block id,
    as if synth had written it so: a ref the pipeline's pair file names, or
    one it does not. Returns the corpus and the record's path:line."""
    refs = _pair_refs(pipeline["pairs"])
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    for dataset in ("noinline", "inline"):
        for path in sorted((corpus / "graphs" / dataset).glob("*.jsonl")):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                record = json.loads(line)
                if ((dataset, path.stem, record["name"]) in refs) == named:
                    lines[lineno - 1] = _drop_block_id(record)
                    path.write_text("\n".join(lines) + "\n")
                    rehash_graph_file(path)
                    return corpus, f"{path}:{lineno}:"
    raise AssertionError("no record to spoil")


def test_bad_record_no_pair_names_does_not_fail_pairs_or_eval(pipeline, tmp_path):
    corpus, _ = _corpus_with_bad_record(pipeline, tmp_path, named=False)
    out = tmp_path / "pairs.jsonl"
    assert main(_pairs_argv(corpus, pipeline["index"], out)) == 0
    assert out.read_bytes() == pipeline["pairs"].read_bytes()
    assert main([
        "eval", "--bundle", str(pipeline["bundle"]), "--corpus", str(corpus),
        "--pairs", str(out), "--out", str(tmp_path / "report"),
    ]) == 0


def test_eval_of_a_pair_naming_a_bad_record_names_file_and_line(
    pipeline, tmp_path, caplog
):
    corpus, place = _corpus_with_bad_record(pipeline, tmp_path, named=True)
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "eval", "--bundle", str(pipeline["bundle"]), "--corpus", str(corpus),
            "--pairs", str(pipeline["pairs"]), "--out", str(tmp_path / "report"),
        ])
    assert rc == 2
    _assert_names(caplog, place)
    _assert_names(caplog, "columns that do not line up")


# ---------------------------------------------------------------------------
# eval in shares: one process per share of graph files

_REPORT_FILES = ("scores.jsonl", "reports.json", "sweep.csv")


def _eval_in_shares(pipeline, corpus, pairs, out, shares, monkeypatch, caplog):
    """eval with the given share count; its exit code and error messages.
    Every child it forked has been waited for."""
    monkeypatch.setattr(detector, "_share_count", lambda files, graphs: shares)
    caplog.clear()
    with caplog.at_level("ERROR", logger="cidetect.cli"):
        rc = main([
            "eval", "--bundle", str(pipeline["bundle"]), "--corpus", str(corpus),
            "--pairs", str(pairs), "--out", str(out),
        ])
    _assert_no_child_left()
    return rc, [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _shares_of(pipeline, count, monkeypatch):
    """The refs of the pipeline's pair file in shares, as count shares
    split them."""
    graphs = synth.load_corpus(pipeline["corpus"]).graphs
    pairs, _ = pairgen.read_pairs(pipeline["pairs"], graphs)
    monkeypatch.setattr(detector, "_share_count", lambda files, graphs: count)
    return detector._shares(list(pairgen.first_refs(pairs))), pairs


def _spoil(corpus, ref):
    """Drop a block id from the record of ref, as if synth had written it
    so; the record's path:line."""
    dataset, binary_id, name = ref
    path = synth.graph_file(corpus, dataset, binary_id)
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if json.loads(line)["name"] == name)
    lines[index] = _drop_block_id(json.loads(lines[index]))
    path.write_text("\n".join(lines) + "\n")
    rehash_graph_file(path)
    return f"{path}:{index + 1}"


def test_eval_writes_the_same_bytes_at_any_share_count(
    pipeline, tmp_path, monkeypatch, caplog
):
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    written = []
    for shares in (1, 2, 3):
        out = tmp_path / f"report-{shares}"
        rc, _ = _eval_in_shares(
            pipeline, pipeline["corpus"], pipeline["pairs"], out, shares,
            monkeypatch, caplog,
        )
        assert rc == 0 and len(forks) == shares - 1
        forks.clear()
        written.append({name: (out / name).read_bytes() for name in _REPORT_FILES})
    assert written[0] == written[1] == written[2]


def _bad_pair_record_case(corrupt):
    def case(pipeline, tmp_path, monkeypatch):
        pairs = tmp_path / "pairs.jsonl"
        _with_bad_second_record(pipeline["pairs"], pairs, corrupt)
        return pipeline["corpus"], pairs, f"{pairs}:3: "

    return case


def _bad_graph_record_case(pipeline, tmp_path, monkeypatch):
    corpus, place = _corpus_with_bad_record(pipeline, tmp_path, named=True)
    return corpus, pipeline["pairs"], place


def _changed_graph_file_case(pipeline, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    path = _graph_file_read_by("eval", pipeline, corpus)
    path.write_text(path.read_text().replace('"insn_ops": ["', '"insn_ops": ["x', 1))
    return corpus, pipeline["pairs"], f"{path}: sha256"


def _functions_of_another_length_case(pipeline, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    path = _graph_file_read_by("eval", pipeline, corpus)
    lines = path.read_text().splitlines()
    rehash_graph_file(path, [json.loads(line)["name"] for line in lines] + ["extra"])
    return corpus, pipeline["pairs"], f"{path}: holds {len(lines)} lines"


def _bad_graph_of_a_child_case(pipeline, tmp_path, monkeypatch):
    """A bad record whose graph file the last of 3 shares, a child, reads."""
    shares, pairs = _shares_of(pipeline, 3, monkeypatch)
    assert len(shares) == 3
    ref = shares[-1][0]
    line = 1 + pairgen.first_refs(pairs)[ref]
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    place = _spoil(corpus, ref)
    expected = f"{pipeline['pairs']}:{line}: MalformedGraph: {place}:"
    return corpus, pipeline["pairs"], expected


def _bad_graphs_of_two_shares_case(pipeline, tmp_path, monkeypatch):
    """Bad records in the calling process's share and in a child's, the
    child's named on an earlier pair line: the child's fails eval."""
    shares, pairs = _shares_of(pipeline, 3, monkeypatch)
    refs = list(pairgen.first_refs(pairs))
    early, late = shares[-1][0], shares[0][-1]
    assert refs.index(early) < refs.index(late)
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    place = _spoil(corpus, early)
    _spoil(corpus, late)
    line = 1 + pairgen.first_refs(pairs)[early]
    expected = f"{pipeline['pairs']}:{line}: MalformedGraph: {place}:"
    return corpus, pipeline["pairs"], expected


def _first_seen_at_line(pairs, line):
    """A ref of the pair at line (from 1) that no earlier pair has."""
    earlier = {ref for p in pairs[: line - 1] for ref in (p.query_ref, p.target_ref)}
    pair = pairs[line - 1]
    return next(r for r in (pair.query_ref, pair.target_ref) if r not in earlier)


def _bad_lines_case(graph_line, record_line):
    """A bad graph first named at graph_line and a pair record that is not
    JSON at record_line: the earlier line fails."""

    def case(pipeline, tmp_path, monkeypatch):
        _, pairs = _shares_of(pipeline, 1, monkeypatch)
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline["corpus"], corpus)
        place = _spoil(corpus, _first_seen_at_line(pairs, graph_line))
        path = tmp_path / "pairs.jsonl"
        lines = pipeline["pairs"].read_text().splitlines()
        lines[record_line - 1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        if graph_line < record_line:
            return corpus, path, f"{path}:{graph_line}: MalformedGraph: {place}:"
        return corpus, path, f"{path}:{record_line}: JSONDecodeError"

    return case


_EVAL_FAILURES = {
    **{
        f"pair-record-{name}": _bad_pair_record_case(corrupt)
        for name, corrupt in _BAD_PAIR_RECORDS.items()
    },
    "graph-record": _bad_graph_record_case,
    "graph-file-changed-after-synth": _changed_graph_file_case,
    "functions-of-another-length": _functions_of_another_length_case,
    "graph-record-of-a-child": _bad_graph_of_a_child_case,
    "graph-records-of-two-shares": _bad_graphs_of_two_shares_case,
    "graph-at-line-2-record-at-line-5": _bad_lines_case(2, 5),
    "record-at-line-2-graph-at-line-5": _bad_lines_case(5, 2),
}


@pytest.mark.parametrize("case", _EVAL_FAILURES.values(), ids=_EVAL_FAILURES.keys())
def test_eval_fails_alike_at_any_share_count(
    pipeline, tmp_path, monkeypatch, caplog, case
):
    """A bad input fails eval with exit 2 and the same message, that of the
    earliest pair line, whether 1 or 3 processes score; nothing is
    written and no process is left."""
    corpus, pairs, expected = case(pipeline, tmp_path, monkeypatch)
    outcomes = []
    for shares in (1, 3):
        out = tmp_path / f"report-{shares}"
        outcomes.append(
            _eval_in_shares(pipeline, corpus, pairs, out, shares, monkeypatch, caplog)
        )
        assert not out.exists()
    assert outcomes[0] == outcomes[1]
    rc, messages = outcomes[0]
    assert rc == 2 and len(messages) == 1 and expected in messages[0], messages


def test_eval_scores_here_the_pairs_of_a_process_that_ends_without_its_result(
    pipeline, tmp_path, monkeypatch, caplog
):
    """A child that ends without sending its rows is waited for and named
    in one WARNING, and every pair is scored in the calling process: eval
    exits 0 with the bytes a single share writes."""
    serial, recovered = tmp_path / "report-1", tmp_path / "report-2"
    rc, _ = _eval_in_shares(
        pipeline, pipeline["corpus"], pipeline["pairs"], serial, 1, monkeypatch, caplog
    )
    assert rc == 0
    monkeypatch.setattr(detector, "_child", lambda work, k, write_end: os._exit(1))
    monkeypatch.setattr(detector, "_share_count", lambda files, graphs: 2)
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert _eval(pipeline, pipeline["pairs"], recovered) == 0
    _assert_no_child_left()
    assert [rec.getMessage() for rec in caplog.records] == [
        "the process scoring share 2 of 2 ended without its result (exit code 1); "
        "scoring every pair in this process"
    ]
    for name in _REPORT_FILES:
        assert (recovered / name).read_bytes() == (serial / name).read_bytes()


def test_an_interrupted_eval_leaves_no_process(pipeline, tmp_path, monkeypatch):
    """A KeyboardInterrupt in the calling process's own share ends eval
    with every child killed and waited for."""
    parent = os.getpid()
    build_refs = pairgen.build_refs

    def interrupted(graphs, refs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return build_refs(graphs, refs)

    monkeypatch.setattr(detector, "build_refs", interrupted)
    monkeypatch.setattr(detector, "_share_count", lambda files, graphs: 3)
    with pytest.raises(KeyboardInterrupt):
        _eval(pipeline, pipeline["pairs"], tmp_path / "report")
    _assert_no_child_left()
    assert not (tmp_path / "report").exists()


def test_label_warns_of_rows_of_binaries_the_manifest_does_not_list(
    pipeline, tmp_path, caplog
):
    """A manifest that renames a binary leaves its line-table rows unused:
    label counts them per table, names the binary and still exits 0 with
    the index those rows do not reach."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    manifest = corpus / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["projects"]["p002"]["binaries"]["inline"] = "p002-other"
    payload["graph_files"]["p002-other"] = payload["graph_files"].pop("p002-inline")
    manifest.write_text(json.dumps(payload))
    graphs = corpus / "graphs" / "inline"
    shutil.copy(graphs / "p002-inline.jsonl", graphs / "p002-other.jsonl")
    tables = corpus / "tables"
    counts = {
        name: sum(
            line.startswith("p002-inline\t")
            for line in (tables / name).read_text().splitlines()
        )
        for name in ("addr2line.tsv", "binfuncs.tsv")
    }
    assert all(counts.values())
    out = tmp_path / "index.json"
    with caplog.at_level("WARNING", logger="cidetect.cli"):
        assert main(["label", "--corpus", str(corpus), "--out", str(out)]) == 0
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
    for name, count in counts.items():
        assert f"{name}: {count} rows of binaries the manifest does not list, " \
            "dropped: p002-inline" in warnings
    entries = json.loads(out.read_text())["entries"].values()
    assert not any(
        ref[0] == "p002-inline" for entry in entries for ref, _ in entry["cross_inlining"]
    )


def test_eval_has_no_jobs_option(pipeline, tmp_path):
    """The share count follows the CPUs and the input, and no option sets
    it: --jobs and a jobs= config key exit 2."""
    argv = [
        "eval", "--bundle", str(pipeline["bundle"]),
        "--corpus", str(pipeline["corpus"]), "--pairs", str(pipeline["pairs"]),
        "--out", str(tmp_path / "report"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    config = tmp_path / "eval.cfg"
    config.write_text("jobs=2\n")
    assert main(argv + ["--config", str(config)]) == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cidetect", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    for name in cli._COMMANDS:
        assert name in result.stdout


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-argument", "unknown"])
def test_usage_errors_list_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "{" + ",".join(cli._COMMANDS) + "}" in capsys.readouterr().err


def test_a_named_subcommand_builds_only_its_own_parser(pipeline, monkeypatch, capsys):
    built = []
    add_options = cli._add_options

    def tracked(parser, opts):
        built.append(opts)
        add_options(parser, opts)

    monkeypatch.setattr(cli, "_add_options", tracked)
    graphs = pipeline["corpus"] / "graphs"
    assert main([
        "detect", "--bundle", str(pipeline["bundle"]),
        "--query", str(graphs / "noinline" / "p000-noinline.jsonl"),
        "--query-name", "p000_f00",
        "--target", str(graphs / "inline" / "p000-inline.jsonl"),
        "--target-name", "p000_f01",
    ]) == 0
    assert built == [cli._DETECT_OPTS]
    assert json.loads(capsys.readouterr().out)["final"] > 0.0
