import argparse
import csv
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from runkey import cli, inference, secrecy, sources
from runkey.cipher import additive_cipher
from runkey.errors import CertificationError
from runkey.words import (
    bytes_to_symbols,
    index_to_word,
    symbols_to_bytes,
    text_to_word,
    word_to_text,
)

MARKOV = sources.SourceModel(2, 1, [[0.9, 0.1], [0.2, 0.8]])
KEY = "bernoulli:0.45,0.55"


@pytest.fixture
def x_model(tmp_path):
    path = tmp_path / "x.model"
    sources.save_model(MARKOV, str(path))
    return str(path)


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("iid_x", [True, False])
def test_smb_rejects_length_zero(iid_x, x_model, capsys):
    argv = ["smb", "--x-model", "bernoulli:0.3,0.7" if iid_x else x_model,
            "--y-model", KEY, "--t", "0", "--samples", "4", "--eps", "0.05",
            "--delta", "0.1", "--seed", "1", "--h-ref", "0.5"]
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config:")


# arguments that make each subcommand valid apart from the option under test
VALID = {
    "bounds": ["--m", "2"],
    "posterior": ["--z", "0110"],
    "smb": ["--t", "5", "--samples", "4", "--eps", "0.05", "--delta", "0.1",
            "--seed", "1"],
}


@pytest.mark.parametrize("subcommand, option", [
    ("bounds", "--workers"),
    ("smb", "--workers"),
    ("bounds", "--seed"),
    ("posterior", "--seed"),
], ids=lambda value: value.lstrip("-"))
def test_removed_option_is_rejected(subcommand, option, x_model, capsys):
    argv = [subcommand, "--x-model", x_model, "--y-model", KEY,
            *VALID[subcommand], option, "2"]
    assert cli.main(argv) == 2
    line = _error_line(capsys)
    assert line.startswith("error: config:")
    assert option in line


def test_bounds_report_is_repeatable(x_model, tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        argv = ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "3",
                "--out", str(out)]
        assert cli.main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    record = json.loads(reports[0])
    assert record["config"]["m"] == "3"
    assert record["results"]["h_xz_lower"] <= record["results"]["h_xz_upper"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_report_header_replays(fmt, x_model, tmp_path):
    first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    argv = ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "3",
            "--format", fmt, "--out", str(first)]
    assert cli.main(argv) == 0
    assert cli.main(["bounds", "--config", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# one small run of every report subcommand (X and CORPUS stand for input files)
# and the keys its header echoes, in parser order
X, CORPUS = "<x-model>", "<corpus>"
REPORTS = {
    "entropy": (["entropy", "--x-model", X, "--m", "0,2"],
                ["x-model", "m", "format"]),
    "posterior": (["posterior", "--x-model", X, "--y-model", KEY, "--z", "01101"],
                  ["x-model", "y-model", "z", "max-rows", "format"]),
    "psi-z": (["psi", "--x-model", X, "--y-model", KEY, "--z", "0110100",
               "--eps", "0.2", "--h-ref", "0.8"],
              ["x-model", "y-model", "z", "eps", "m", "h-ref", "format"]),
    "psi-t": (["psi", "--x-model", X, "--y-model", KEY, "--t", "5,7", "--seed", "4",
               "--eps", "0.2", "--m", "3"],
              ["x-model", "y-model", "t", "eps", "m", "seed", "format"]),
    "smb": (["smb", "--x-model", X, "--y-model", KEY, "--t", "4,9", "--samples", "8",
             "--eps", "0.1", "--delta", "0.1", "--h-ref", "0.7", "--seed", "2"],
            ["x-model", "y-model", "t", "samples", "eps", "delta", "m", "h-ref",
             "seed", "format"]),
    "bounds": (["bounds", "--x-model", X, "--y-model", KEY, "--m", "3"],
               ["x-model", "y-model", "m", "format"]),
    "sweep": (["sweep", "--x-model", X, "--tau", "0,0.05", "--m", "3", "--t", "5",
               "--seed", "1"],
              ["x-model", "tau", "m", "t", "eps", "seed", "format"]),
    "train": (["train", "--corpus", CORPUS, "--bits", "--order", "2"],
              ["corpus", "bits", "n", "order", "alpha"]),
}
RUNS = [(case, fmt) for case in REPORTS if case != "train" for fmt in ("csv", "json")]


@pytest.fixture
def report_argv(x_model, tmp_path):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(b"a running key is not a one-time pad\n" * 8)
    paths = {X: x_model, CORPUS: str(corpus)}

    def argv(case, fmt=None):
        args = [paths.get(arg, arg) for arg in REPORTS[case][0]]
        return args + (["--format", fmt] if fmt else [])

    return argv


def _header_keys(text: str) -> list[str]:
    if text.startswith("{"):
        return list(json.loads(text)["config"])
    keys = []
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        keys.append(line.split()[1])
    return keys


@pytest.mark.parametrize("case, fmt", [run for run in RUNS if run[0] != "bounds"]
                         + [("train", None)])
def test_report_header_replays(case, fmt, report_argv, tmp_path):
    # bounds replays in test_bounds_report_header_replays
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(report_argv(case, fmt) + ["--out", str(first)]) == 0
    subcommand = REPORTS[case][0][0]
    assert cli.main([subcommand, "--config", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_with_a_negative_exponent_value_replays(fmt, x_model, tmp_path):
    # the header echoes h-ref -1e-05, which replays as the token --h-ref=-1e-05
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["smb", "--x-model", x_model, "--y-model", KEY, "--t", "4", "--samples", "8",
            "--eps", "0.1", "--delta", "0.1", "--h-ref=-1e-05", "--seed", "2",
            "--format", fmt]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert "-1e-05" in first.read_text(encoding="utf-8")
    assert cli.main(["smb", "--config", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("case, fmt", RUNS)
def test_out_does_not_change_the_report(case, fmt, report_argv, tmp_path, capsys):
    out = tmp_path / "report"
    assert cli.main(report_argv(case, fmt) + ["--out", str(out)]) == 0
    summary = capsys.readouterr().out
    for target in ([], ["--out", "-"]):
        assert cli.main(report_argv(case, fmt) + target) == 0
        assert capsys.readouterr().out == summary + out.read_text(encoding="utf-8")


@pytest.mark.parametrize("case, fmt", RUNS + [("train", None)])
def test_report_header_key_order(case, fmt, report_argv, tmp_path):
    out = tmp_path / "report"
    assert cli.main(report_argv(case, fmt) + ["--out", str(out)]) == 0
    keys = ["subcommand", *REPORTS[case][1]]
    assert _header_keys(out.read_text(encoding="utf-8")) == keys


def test_train_writes_the_model_to_standard_output(report_argv, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(report_argv("train") + ["--out", "m.model"]) == 0
    to_file = capsys.readouterr()
    assert cli.main(report_argv("train") + ["--out", "-"]) == 0
    to_stdout = capsys.readouterr()
    # the header leaves out --out, so the two models are the same bytes
    assert to_stdout.out == (tmp_path / "m.model").read_text(encoding="utf-8")
    assert to_stdout.err == to_file.out.replace("-> m.model", "-> -")
    assert not (tmp_path / "-").exists()
    streamed = sources.load_model(io.StringIO(to_stdout.out))
    assert np.array_equal(streamed.transition, sources.load_model("m.model").transition)


def test_train_order_0_writes_the_smoothed_frequencies(tmp_path, capsys):
    corpus, out = tmp_path / "corpus.bin", tmp_path / "iid.model"
    corpus.write_bytes(bytes([0, 2, 2, 1, 2, 0, 2]))
    assert cli.main(["train", "--corpus", str(corpus), "--n", "3", "--order", "0",
                     "--out", str(out)]) == 0
    probs = (np.array([2, 1, 4]) + 0.5) / 8.5
    rows = [line for line in out.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    assert rows == ["n 3", "order 0", "row - " + " ".join("%.17g" % p for p in probs)]
    model = sources.load_model(str(out))
    assert model.stationary.tolist() == [1.0]
    assert np.array_equal(model.transition, [probs])


@pytest.mark.parametrize("n", [[], ["--n", "7"]], ids=["default-n", "n-7"])
def test_train_bits_echoes_the_binary_alphabet(n, report_argv, tmp_path):
    # --bits trains a binary model whatever --n says, and the header echoes
    # the n it used; the header still replays to the same model file
    first, second = tmp_path / "first.model", tmp_path / "second.model"
    assert cli.main(report_argv("train") + n + ["--out", str(first)]) == 0
    lines = first.read_text(encoding="utf-8").splitlines()
    assert "# n 2" in lines and "n 2" in lines
    assert cli.main(["train", "--config", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("z", ["1,,2", ",1,2", "1,2,"])
def test_posterior_rejects_an_empty_symbol_field(z, capsys):
    argv = ["posterior", "--x-model", "uniform:40", "--y-model", "uniform:40", "--z", z]
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config: empty symbol field")


_POSTERIOR_READS = {
    "psi": ["psi", "--eps", "0.2", "--m", "2"],
    "posterior-csv": ["posterior", "--format", "csv"],
    "posterior-json": ["posterior", "--format", "json"],
}


@pytest.mark.parametrize("reader", sorted(_POSTERIOR_READS))
def test_posterior_mass_off_the_forward_exits_4(reader, x_model, tmp_path, monkeypatch,
                                                capsys):
    # every table of the enumeration 1e-6 bits high, so every plaintext's joint
    # value at least that: the mass misses 1 by at least 6.9e-7
    joint_table = inference._joint_table
    monkeypatch.setattr(inference, "_joint_table", lambda *args: joint_table(*args) + 1e-6)
    argv = _POSTERIOR_READS[reader] + ["--x-model", x_model, "--y-model", KEY,
                                       "--z", "0110100", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 4
    assert _error_line(capsys).startswith("error: numeric: posterior mass ")
    # the CSV's rows were all written before the check failed, under a name
    # that is removed with them
    assert not (tmp_path / "r").exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["x.model"]


def test_typical_set_right_half_off_the_forward_exits_4(x_model, tmp_path, monkeypatch,
                                                       capsys):
    # every right-half value 1e-6 bits high (the left half's own split too):
    # the two halves' total mass misses 1 by at least 6.9e-7, whatever the band
    # holds
    joint_table = inference._joint_table

    def shifted(xm, ym, spec, z, laws=True):
        return joint_table(xm, ym, spec, z, laws) + (0.0 if laws else 1e-6)

    monkeypatch.setattr(inference, "_joint_table", shifted)
    with pytest.raises(CertificationError, match="posterior mass"):
        secrecy.build_typical_set(MARKOV, sources.make_bernoulli([0.45, 0.55]),
                                  additive_cipher(2), text_to_word("0110100", 2), 0.2, 0.5)
    argv = ["psi", "--x-model", x_model, "--y-model", KEY, "--z", "0110100", "--eps",
            "0.2", "--m", "2", "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 4
    assert _error_line(capsys).startswith("error: numeric: posterior mass ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["x.model"]


def test_psi_reaches_length_30_on_the_certify_orders(tmp_path, capsys):
    # a binary order-5 x order-2 pair: 2**30 plaintexts are over the word cap,
    # the halves' 2**18 left words and 2**17 right cells are not
    rng = np.random.default_rng(3)
    paths = []
    for order, low, high in ((5, 0.05, 0.95), (2, 0.3, 0.7)):
        p1 = rng.uniform(low, high, size=2**order)
        model = sources.SourceModel(2, order, np.column_stack([1.0 - p1, p1]))
        paths.append(tmp_path / f"order{order}.model")
        sources.save_model(model, str(paths[-1]))
        if order == 5:
            x = model.sample(30, 1)
        else:
            z = word_to_text(additive_cipher(2).encrypt(x, model.sample(30, 2)), 2)
    out = tmp_path / "psi.json"
    argv = ["psi", "--x-model", str(paths[0]), "--y-model", str(paths[1]), "--z", z,
            "--eps", "0.1", "--h-ref", "0.7", "--out", str(out)]
    assert cli.main(argv) == 0
    results = json.loads(out.read_text())["results"]
    assert results["t"] == 30 and results["member_count"] > 1
    assert 0.0 < results["mass"] <= 1.0


def test_failed_command_keeps_the_earlier_file_at_out(x_model, tmp_path, monkeypatch,
                                                      capsys):
    joint_table = inference._joint_table
    monkeypatch.setattr(inference, "_joint_table", lambda *args: joint_table(*args) + 1e-6)
    out = tmp_path / "r.csv"
    out.write_text("earlier\n")
    argv = ["posterior", "--format", "csv", "--x-model", x_model, "--y-model", KEY,
            "--z", "0110100", "--out", str(out)]
    assert cli.main(argv) == 4
    capsys.readouterr()
    assert out.read_text() == "earlier\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.csv", "x.model"]


def test_out_in_a_missing_directory_exits_2_naming_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["entropy", "--x-model", "uniform:2", "--out", str(out)]) == 2
    assert _error_line(capsys) == (
        f"error: config: [Errno 2] No such file or directory: {str(out)!r}"
    )


def test_posterior_csv_to_stdout_is_the_file(x_model, tmp_path, capsys):
    argv = ["posterior", "--x-model", x_model, "--y-model", KEY, "--z", "0110100",
            "--format", "csv", "--out"]
    assert cli.main(argv + [str(tmp_path / "r.csv")]) == 0
    summary = capsys.readouterr().out
    assert cli.main(argv + ["-"]) == 0
    assert capsys.readouterr().out == summary + (tmp_path / "r.csv").read_text()


@pytest.mark.parametrize("reader", sorted(_POSTERIOR_READS))
def test_posterior_of_an_impossible_ciphertext_exits_2(reader, tmp_path, capsys):
    # the plaintext is all ones and the key all zeros, so z = 00 never occurs
    argv = _POSTERIOR_READS[reader] + ["--x-model", "bernoulli:0,1",
                                       "--y-model", "bernoulli:1,0", "--z", "00",
                                       "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 2
    assert _error_line(capsys) == (
        "error: config: ciphertext has probability zero under these models"
    )
    assert not (tmp_path / "r").exists()


def _printed(value):
    """A library value as the report prints it: floats to 12 significant digits."""
    if isinstance(value, dict):
        return {key: _printed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printed(item) for item in value]
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _csv_body(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _csv_row(lead, key, value) -> str:
    if isinstance(value, bool):
        return f"{lead},{key},{str(value).lower()}"
    return f"{lead},{key},{value:.12g}" if isinstance(value, float) else f"{lead},{key},{value}"


def test_smb_report_matches_the_library(x_model, tmp_path):
    # no --h-ref: the band centre comes from the m=4 bracket, as in the library
    argv = ["smb", "--x-model", x_model, "--y-model", KEY, "--t", "6,40",
            "--samples", "300", "--eps", "0.05", "--delta", "0.2", "--m", "4",
            "--seed", "11"]
    library = secrecy.concentration_experiment(
        MARKOV, sources.make_bernoulli([0.45, 0.55]), additive_cipher(2), [6, 40],
        300, 0.05, 0.2, 11, bracket_order=4,
    ).as_dict()
    json_out, csv_out = tmp_path / "smb.json", tmp_path / "smb.csv"
    assert cli.main(argv + ["--out", str(json_out)]) == 0
    assert cli.main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert json.loads(json_out.read_text())["results"] == _printed(library)
    expected = ["t,metric,value"]
    for row in library["rows"]:
        expected += [_csv_row(row["t"], key, value)
                     for key, value in row.items() if key != "t"]
    onset = library["onset_length"]
    expected += [_csv_row("", "h_ref", library["h_ref"]),
                 _csv_row("", "onset_length", "none" if onset is None else onset)]
    assert _csv_body(csv_out) == expected


def test_bounds_report_matches_the_library(x_model, tmp_path):
    argv = ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "4"]
    library = secrecy.certify_bounds(
        MARKOV, sources.make_bernoulli([0.45, 0.55]), additive_cipher(2), 4
    ).as_dict()
    json_out, csv_out = tmp_path / "bounds.json", tmp_path / "bounds.csv"
    assert cli.main(argv + ["--out", str(json_out)]) == 0
    assert cli.main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert json.loads(json_out.read_text())["results"] == _printed(library)
    expected = ["m,metric,value"] + [_csv_row(4, key, value)
                                     for key, value in library.items()]
    assert _csv_body(csv_out) == expected


def test_entropy_report_matches_the_library(x_model, tmp_path):
    argv = ["entropy", "--x-model", x_model, "--m", "0,2,5"]
    json_out, csv_out = tmp_path / "entropy.json", tmp_path / "entropy.csv"
    assert cli.main(argv + ["--out", str(json_out)]) == 0
    assert cli.main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    rate, redundancy = MARKOV.entropy_rate(), MARKOV.redundancy()
    blocks = [(m, MARKOV.block_entropy(m)) for m in (0, 2, 5)]
    assert json.loads(json_out.read_text())["results"] == _printed({
        "n": 2, "order": 1, "entropy_rate": rate, "redundancy": redundancy,
        "block_entropies": [{"m": m, "h_m": value} for m, value in blocks],
    })
    expected = ["m,metric,value", _csv_row("", "entropy_rate", rate),
                _csv_row("", "redundancy", redundancy)]
    expected += [_csv_row(m, "block_entropy", value) for m, value in blocks]
    assert _csv_body(csv_out) == expected


@pytest.mark.parametrize("block_words", [None, 16], ids=["one-block", "eight-blocks"])
def test_posterior_report_matches_the_library(block_words, x_model, tmp_path,
                                              monkeypatch):
    argv = ["posterior", "--x-model", x_model, "--y-model", KEY, "--z", "0110100"]
    table = inference.posterior(MARKOV, sources.make_bernoulli([0.45, 0.55]),
                                additive_cipher(2), text_to_word("0110100", 2))
    if block_words:  # the reports' rows span 2**7 // 16 blocks
        monkeypatch.setattr(inference, "_BLOCK_WORDS", block_words)
    texts = [word_to_text(index_to_word(u, 2, 7), 2) for u in range(2**7)]
    json_out, csv_out = tmp_path / "posterior.json", tmp_path / "posterior.csv"
    assert cli.main(argv + ["--out", str(json_out)]) == 0
    assert cli.main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert json.loads(json_out.read_text())["results"] == _printed({
        "t": 7, "log2_marginal": table.log_marginal,
        "rows": [{"plaintext": text, "log2_posterior": float(value)}
                 for text, value in zip(texts, table.log_posterior)],
    })
    assert _csv_body(csv_out) == ["plaintext,log2_posterior"] + [
        f"{text},{value:.12g}" for text, value in zip(texts, table.log_posterior)
    ]


def test_json_posterior_over_max_rows_holds_one_block(x_model, tmp_path):
    # t = 20: the whole posterior table alone is 8 MB
    argv = ["posterior", "--x-model", x_model, "--y-model", KEY,
            "--z", "01101001100101101001", "--out", str(tmp_path / "posterior.json")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "posterior.json").read_text())["results"]["rows"] is None
    assert peak <= 4 << 20


@pytest.mark.parametrize("x_model, y_model, z", [
    ("bernoulli:0,0.3,0.7", "uniform:3", "012012"),  # a plaintext with a 0 has -inf
    ("uniform:40", "uniform:40", "1,2"),  # plaintexts with commas
])
def test_json_posterior_streams_the_bytes_of_the_whole_report(x_model, y_model, z,
                                                              tmp_path, monkeypatch):
    monkeypatch.setattr(inference, "_CSV_ROWS", 100)  # rows in several byte matrices
    out = tmp_path / "posterior.json"
    argv = ["posterior", "--x-model", x_model, "--y-model", y_model, "--z", z]
    assert cli.main(argv + ["--out", str(out)]) == 0
    xm, ym = cli._load_source(x_model), cli._load_source(y_model)
    n = xm.alphabet_size
    word = text_to_word(z, n)
    table = inference.posterior(xm, ym, additive_cipher(n), word)
    texts = [word_to_text(index_to_word(u, n, word.size), n) for u in range(n**word.size)]
    results = {"t": word.size, "log2_marginal": table.log_marginal,
               "rows": [{"plaintext": text, "log2_posterior": value}
                        for text, value in zip(texts, table.log_posterior.tolist())]}
    config = json.loads(out.read_text())["config"]
    assert out.read_text() == cli._json_value({"config": config, "results": results}) + "\n"
    assert ('"-inf"' in out.read_text()) == (x_model != "uniform:40")


def test_json_posterior_rows_stream_a_block_at_a_time(x_model, tmp_path):
    # t = 16: 65,536 rows, 4.5 MB of report, never held whole
    argv = ["posterior", "--x-model", x_model, "--y-model", KEY, "--z", "0110100110010110",
            "--max-rows", "65536", "--out", str(tmp_path / "posterior.json")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads((tmp_path / "posterior.json").read_text())["results"]["rows"]) == 2**16
    assert peak <= 4 << 20


def test_posterior_csv_quotes_plaintexts_of_large_alphabets(tmp_path):
    # over n > 36 a plaintext is comma-separated text, one quoted CSV field
    probs = np.arange(1, 41) / np.arange(1, 41).sum()
    key = "bernoulli:" + ",".join(repr(p) for p in probs.tolist())
    out = tmp_path / "posterior.csv"
    argv = ["posterior", "--x-model", "uniform:40", "--y-model", key, "--z", "1,2",
            "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == 0
    table = inference.posterior(sources.make_uniform(40), sources.make_bernoulli(probs),
                                additive_cipher(40), [1, 2])
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == ["plaintext", "log2_posterior"]
    assert len(rows) == 1 + 40**2
    for text, value in rows[1:]:
        assert value == f"{table.log2_prob(text_to_word(text, 40)):.12g}"
    assert [text_to_word(text, 40).tolist() for text, _ in rows[1:3]] == [[0, 0], [0, 1]]


@pytest.mark.parametrize("target", ["z", "t"])
def test_psi_report_matches_the_library(target, x_model, tmp_path):
    key = sources.make_bernoulli([0.45, 0.55])
    argv = ["psi", "--x-model", x_model, "--y-model", KEY, "--eps", "0.2", "--m", "3"]
    if target == "z":
        argv += ["--z", "011010011"]
        built = secrecy.build_typical_set(MARKOV, key, additive_cipher(2),
                                          text_to_word("011010011", 2), 0.2,
                                          bracket_order=3)
        library = built.as_dict()
        expected = [_csv_row(9, k, v) for k, v in library.items() if k != "t"]
    else:
        argv += ["--t", "6,9", "--seed", "4"]
        points = secrecy.typical_set_growth(MARKOV, key, additive_cipher(2), [6, 9],
                                            0.2, 4, bracket_order=3)
        library = {"series": [p.as_dict() for p in points]}
        expected = [_csv_row(p.t, k, v) for p in points
                    for k, v in p.as_dict().items() if k != "t"]
    json_out, csv_out = tmp_path / "psi.json", tmp_path / "psi.csv"
    assert cli.main(argv + ["--out", str(json_out)]) == 0
    assert cli.main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert json.loads(json_out.read_text())["results"] == _printed(library)
    assert _csv_body(csv_out) == ["t,metric,value"] + expected


def test_sweep_report_matches_the_library(x_model, tmp_path):
    argv = ["sweep", "--x-model", x_model, "--tau", "0,0.05", "--m", "3", "--t", "5,8",
            "--eps", "0.1", "--seed", "2"]
    reports = secrecy.robustness_sweep(MARKOV, additive_cipher(2), [0.0, 0.05], 3,
                                       t_list=[5, 8], epsilon=0.1, seed=2)
    library = [r.as_dict() for r in reports]
    json_out, csv_out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(json_out)]) == 0
    assert cli.main(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert json.loads(json_out.read_text())["results"] == _printed(library)
    expected = ["tau,metric,value"]
    for entry in library:
        tau = f"{entry['tau']:.12g}"  # the lead column prints as a float too
        expected += [_csv_row(tau, k, v) for k, v in entry.items()
                     if k not in ("tau", "growth_series")]
        for point in entry["growth_series"]:
            expected += [_csv_row(tau, f"growth_t{point['t']}", point["growth"]),
                         _csv_row(tau, f"mass_t{point['t']}", point["mass"])]
    assert _csv_body(csv_out) == expected


def test_psi_takes_exactly_one_of_z_and_t(x_model, capsys):
    base = ["psi", "--x-model", x_model, "--y-model", KEY, "--eps", "0.1",
            "--h-ref", "0.5", "--seed", "5"]
    assert cli.main(base + ["--z", "0110", "--t", "12"]) == 2
    assert _error_line(capsys).startswith("error: config:")
    assert cli.main(base) == 2
    assert _error_line(capsys).startswith("error: config:")


@pytest.mark.parametrize("bad", [["--eps", "0"], ["--t", "0"]], ids=["eps", "length"])
def test_psi_t_rejects_bad_input_before_the_bracket(bad, x_model, monkeypatch, capsys):
    def enumerated(*args, **kwargs):
        raise AssertionError("the bracket was enumerated")

    monkeypatch.setattr(secrecy, "hxz_bracket", enumerated)
    argv = ["psi", "--x-model", x_model, "--y-model", KEY, "--t", "10", "--seed", "1",
            "--eps", "0.1", *bad]
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config:")


NAN_ARGV = {
    "smb-eps": ["smb", "--t", "10", "--samples", "4", "--delta", "0.1", "--seed", "1",
                "--h-ref", "0.5", "--eps", "nan"],
    "smb-h-ref": ["smb", "--t", "10", "--samples", "4", "--delta", "0.1", "--seed", "1",
                  "--eps", "0.05", "--h-ref", "nan"],
    "psi-z-eps": ["psi", "--z", "0110", "--eps", "nan"],
    "psi-z-h-ref": ["psi", "--z", "0110", "--eps", "0.1", "--h-ref", "nan"],
    "psi-t-eps": ["psi", "--t", "10", "--seed", "1", "--eps", "nan"],
    "sweep-t-eps": ["sweep", "--tau", "0.01", "--m", "2", "--t", "10", "--seed", "1",
                    "--eps", "nan"],
}


@pytest.mark.parametrize("case", sorted(NAN_ARGV))
def test_nan_band_option_exits_2_before_any_enumeration(case, x_model, monkeypatch,
                                                        capsys):
    def enumerated(*args, **kwargs):
        raise AssertionError("an enumeration ran")

    monkeypatch.setattr(secrecy, "hxz_bracket", enumerated)
    monkeypatch.setattr(secrecy, "posterior", enumerated)
    subcommand, *rest = NAN_ARGV[case]
    models = ["--x-model", x_model]
    if subcommand != "sweep":
        models += ["--y-model", KEY]
    assert cli.main([subcommand, *models, *rest]) == 2
    line = _error_line(capsys)
    assert line.startswith("error: config:")
    assert "nan" in line


NEGATIVE_SEED_ARGV = {
    "smb": ["smb", "--t", "10", "--samples", "4", "--eps", "0.05", "--delta", "0.1",
            "--h-ref", "0.5", "--seed", "-1"],
    "psi-t": ["psi", "--t", "10", "--eps", "0.1", "--h-ref", "0.5", "--seed", "-1"],
    "sweep": ["sweep", "--tau", "0.01", "--m", "2", "--t", "10", "--seed", "-1"],
}

NEGATIVE_COUNT_ARGV = {
    "psi-m": ["psi", "--z", "0101", "--eps", "0.1", "--h-ref", "0.5", "--m", "-3"],
    "smb-m": ["smb", "--t", "10", "--samples", "4", "--eps", "0.05", "--delta", "0.1",
              "--h-ref", "0.5", "--seed", "1", "--m", "-3"],
    "bounds-m": ["bounds", "--m", "-3"],
    "sweep-m": ["sweep", "--tau", "0.01", "--m", "-3"],
    "posterior-max-rows": ["posterior", "--z", "0101", "--max-rows", "-5"],
}


def _refused_by_the_parser(argv, x_model, capsys):
    """``argv``, ending in a negative value for an option, exits 2 naming both."""
    subcommand, *rest = argv
    models = ["--x-model", x_model]
    if subcommand != "sweep":
        models += ["--y-model", KEY]
    assert cli.main([subcommand, *models, *rest]) == 2
    flag, value = rest[-2:]
    assert _error_line(capsys) == (
        f"error: config: argument {flag}: must be a non-negative integer, got {value}")


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEED_ARGV))
def test_negative_seed_is_rejected_by_the_parser(case, x_model, capsys):
    _refused_by_the_parser(NEGATIVE_SEED_ARGV[case], x_model, capsys)


@pytest.mark.parametrize("case", sorted(NEGATIVE_COUNT_ARGV))
def test_negative_count_is_rejected_by_the_parser(case, x_model, capsys):
    _refused_by_the_parser(NEGATIVE_COUNT_ARGV[case], x_model, capsys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_value_starting_with_a_dash_replays(fmt, tmp_path, monkeypatch):
    # the header's "x-model -m.model" replays as --x-model=-m.model, which the
    # parser cannot take for an option
    monkeypatch.chdir(tmp_path)
    sources.save_model(MARKOV, "-m.model")
    argv = ["entropy", "--x-model=-m.model", "--m", "2", "--format", fmt]
    assert cli.main(argv + ["--out", "first"]) == 0
    assert cli.main(["entropy", "--config", "first", "--out", "second"]) == 0
    assert (tmp_path / "first").read_bytes() == (tmp_path / "second").read_bytes()


@pytest.mark.parametrize("flag, value, fmt", [
    ("corpus", "co\nrpus", None), ("corpus", "co\rrpus", None),
    ("x-model", " m.model", "csv"), ("x-model", "m.model\t", "json"),
    ("z", " 0101", "csv"), ("z", " 0101", "json"),
], ids=["train-lf", "train-cr", "entropy-leading-space-csv", "entropy-trailing-tab-json",
        "posterior-leading-space-csv", "posterior-leading-space-json"])
def test_value_no_header_can_carry_is_refused_before_the_run(flag, value, fmt, tmp_path,
                                                             monkeypatch, capsys):
    # a line break would end the header line early, and a header line loses
    # the value's outer whitespace; the command exits 2 naming the option
    # before it prints, writes or computes anything
    monkeypatch.chdir(tmp_path)
    if flag == "corpus":
        (tmp_path / value).write_bytes(b"0101")
    sources.save_model(MARKOV, value if flag == "x-model" else "m.model")
    argv = {
        "corpus": ["train", f"--corpus={value}", "--n", "256", "--order", "0"],
        "x-model": ["entropy", f"--x-model={value}"],
        "z": ["posterior", "--x-model", "m.model", "--y-model", KEY, f"--z={value}"],
    }[flag]
    assert cli.main(argv + ["--format", fmt] * bool(fmt) + ["--out", "report"]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith(f"error: config: --{flag} value {value!r} cannot be echoed")
    assert not (tmp_path / "report").exists()


# option values with spaces, '-', '#', '=' and line breaks, and the values the
# replay reads as flags
_OPTION_TEXT = st.one_of(st.text(" -#=\n\r\t0a.", max_size=6),
                         st.sampled_from(["", "true", "False", "-m", "--z=1"]))


@given(_OPTION_TEXT, _OPTION_TEXT, _OPTION_TEXT, st.booleans())
@example(" 0", "x", "y", False)
@example("-m", "true", "", True)
def test_header_round_trip(x, y, z, bits):
    # 0.3-0.4 s for the tier-1 profile's 60 examples: no command runs
    parser = cli._build_parser()
    argvs = [["train", f"--corpus={x}", "--n", "7", "--order", "2", "--alpha", "0.25"]
             + ["--bits"] * bits + ["--out", "m"]]
    argvs += [["posterior", f"--x-model={x}", f"--y-model={y}", f"--z={z}",
               "--max-rows", "3", "--format", fmt, "--out", "r"] for fmt in ("csv", "json")]
    for argv in argvs:
        args = parser.parse_args(argv)
        values = [(flag, getattr(args, dest)) for flag, dest in args.echo_keys]
        bad = [flag for flag, value in values if isinstance(value, str)
               and ("\n" in value or "\r" in value or value != value.strip())]
        if bad:
            with pytest.raises(cli.ConfigError, match=f"^--{bad[0]} value "):
                cli._echo(args)
            continue
        for write in (lambda fh: cli._write_csv(fh, cli._echo(args), (), ()),
                      lambda fh: cli._write_json(fh, cli._echo(args), {})):
            header = io.StringIO()
            write(header)
            # read back with a text file's universal newlines
            tokens = cli._read_config_file(io.StringIO(header.getvalue(), newline=None),
                                           argv[0], parser.flags)
            again = parser.parse_args(argv[:1] + tokens + ["--out", argv[-1]])
            assert vars(again) == vars(args)


def test_report_for_another_subcommand_is_rejected(x_model, tmp_path, capsys):
    report = tmp_path / "bounds.csv"
    argv = ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "2",
            "--format", "csv", "--out", str(report)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["smb", "--config", str(report)]) == 2
    assert _error_line(capsys).startswith("error: config:")


def test_plain_config_file_keeps_comments(x_model, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"# a comment\nsubcommand bounds\nx-model {x_model}\n"
                      f"y-model {KEY}\n\n# m 9\nm 3\n", encoding="utf-8")
    replayed, direct = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["bounds", "--config", str(config), "--out", str(replayed)]) == 0
    assert cli.main(["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "3",
                     "--out", str(direct)]) == 0
    assert replayed.read_bytes() == direct.read_bytes()


def test_config_forms_give_the_command_line_report(x_model, tmp_path):
    # files splice in after the subcommand in order, so a later file and then
    # the command line win
    models, order = tmp_path / "models.cfg", tmp_path / "order.cfg"
    models.write_text(f"x-model {x_model}\ny-model {KEY}\nm 2\n", encoding="utf-8")
    order.write_text("m 3\n", encoding="utf-8")
    forms = {
        "direct": ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "3"],
        "equals": ["bounds", f"--config={models}", "--m", "3"],
        "two-files": ["bounds", "--config", str(models), "--config", str(order)],
    }
    reports = set()
    for name, argv in forms.items():
        out = tmp_path / f"{name}.json"
        assert cli.main(argv + ["--out", str(out)]) == 0, name
        reports.add(out.read_bytes())
    assert len(reports) == 1


# malformed argv and inputs that exit 2 in the parser or the handlers, with the
# message where it is the package's own
_CONFIG_ERRORS = {
    "psi-t-without-seed": (["psi", "--x-model", "uniform:2", "--y-model", KEY, "--t", "5",
                            "--eps", "0.1"], "sampling ciphertexts for --t needs --seed"),
    "seed-not-an-int": (["smb", "--x-model", "uniform:2", "--y-model", KEY, "--t", "4",
                         "--samples", "4", "--eps", "0.1", "--delta", "0.1",
                         "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    "sweep-ternary": (["sweep", "--x-model", "uniform:3", "--tau", "0.1", "--m", "1"],
                      "the bias sweep is defined for the binary alphabet"),
    "smb-delta-1": (["smb", "--x-model", "uniform:2", "--y-model", KEY, "--t", "4",
                     "--samples", "4", "--eps", "0.1", "--delta", "1", "--seed", "1"],
                    "need 0 < delta < 1"),
    "json-not-a-report": (["bounds", "--config", "{json}"],
                          "JSON config file is not a report with a 'config' object"),
    "config-unreadable": (["bounds", "--config", "{missing}"],
                          "cannot read config file"),
    "config-without-path": (["bounds", "--config"], None),
    "no-subcommand": ([], None),
    "config-without-subcommand": (["--config", "{cfg}"], None),
    "config-before-subcommand": (["--config", "{cfg}", "bounds"], None),
    "option-before-subcommand": (["--m", "3", "bounds", "--config", "{cfg}"], None),
    "config-abbreviated": (["bounds", "--conf", "{cfg}"], None),
    # no subcommand takes an abbreviated option either
    "bounds-abbreviated": (["bounds", "--x", "uniform:2", "--y", "uniform:2", "--m", "2",
                            "--form", "csv"], None),
    "posterior-m-abbreviated": (["posterior", "--x-model", "uniform:2", "--y-model",
                                 "uniform:2", "--z", "0101", "--m", "3"], "--m 3"),
    "psi-abbreviated": (["psi", "--x-model", "uniform:2", "--y-model", "uniform:2",
                         "--z", "01", "--eps", "0.1", "--h-r", "0.5"], "--h-r"),
    "smb-abbreviated": (["smb", "--x-model", "uniform:2", "--y-model", "uniform:2",
                         "--t", "4", "--sample", "4", "--eps", "0.1", "--delta", "0.1",
                         "--seed", "1"], None),
    "config-key-abbreviated": (["bounds", "--config", "{short}", "--y-model", KEY,
                                "--m", "2"], None),
    # any file is a corpus; the order and the smoothing constant are checked
    # before anything is counted, so no numpy warning or model comes first
    "train-negative-order": (["train", "--corpus", "{json}", "--bits", "--order", "-1",
                              "--out", "-"], "order must be non-negative"),
    "train-alpha-nan": (["train", "--corpus", "{json}", "--bits", "--alpha", "nan",
                         "--out", "-"], "smoothing constant must be finite and >= 0"),
    "train-alpha-inf": (["train", "--corpus", "{json}", "--bits", "--alpha", "inf",
                         "--out", "-"], "smoothing constant must be finite and >= 0"),
    # a negative number in exponent form is a value, not an option
    "train-alpha-exponent": (["train", "--corpus", "{json}", "--bits", "--alpha", "-1e3",
                              "--out", "-"], "smoothing constant must be finite and >= 0"),
    "sweep-tau-exponent": (["sweep", "--x-model", "uniform:2", "--tau", "-1e-3", "--m", "1"],
                           "tau -0.001 outside [0, 0.5)"),
    # and so are -inf and -nan, in any case
    "smb-h-ref-minus-inf": (["smb", "--x-model", "uniform:2", "--y-model", "uniform:2",
                             "--t", "3", "--samples", "2", "--eps", "0.1", "--delta", "0.1",
                             "--seed", "1", "--h-ref", "-inf"], "h_ref must be finite, got -inf"),
    "train-alpha-minus-nan": (["train", "--corpus", "{json}", "--bits", "--alpha", "-NaN",
                               "--out", "-"], "smoothing constant must be finite and >= 0"),
}


@pytest.mark.parametrize("case", list(_CONFIG_ERRORS))
def test_malformed_argv_or_input_exits_2(case, x_model, tmp_path, capsys):
    paths = {"json": tmp_path / "other.json", "missing": tmp_path / "missing.cfg",
             "cfg": tmp_path / "run.cfg", "short": tmp_path / "short.cfg"}
    paths["json"].write_text('{"results": {}}\n', encoding="utf-8")
    paths["cfg"].write_text(f"x-model {x_model}\ny-model {KEY}\nm 3\n", encoding="utf-8")
    paths["short"].write_text(f"x {x_model}\n", encoding="utf-8")
    argv, message = _CONFIG_ERRORS[case]
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    line = _error_line(capsys)
    assert line.startswith("error: config: ")
    if message is not None:
        assert message in line


@pytest.mark.parametrize("which, bend, message", [
    (0, [0, 0, -0.01, 0, 0], "upper bracket ends increase"),
    (1, [0, 0, 0.01, 0, 0], "lower bracket ends decrease"),
    (1, [0, 1, 2, 3, 4], "exceeds its upper"),
], ids=["upper-rises", "lower-falls", "lower-above-upper"])
def test_bracket_trail_off_its_monotone_course_exits_4(which, bend, message, x_model,
                                                       monkeypatch, capsys):
    # bends H(Z^j) (which = 0) or H(Z^j, S_1) (which = 1); the first two leave
    # the m = 3 ends as computed, so only the trail over m' < 3 shows the fault
    enumerate_blocks = inference._entropies_for_chain

    def bent(chain, length):
        totals = [entropies.copy() for entropies in enumerate_blocks(chain, length)]
        totals[which] += bend
        return tuple(totals)

    monkeypatch.setattr(inference, "_entropies_for_chain", bent)
    assert cli.main(["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "3"]) == 4
    line = _error_line(capsys)
    assert line.startswith("error: numeric:") and message in line


def test_no_command_reads_the_product_chain_operators(report_argv, x_model, tmp_path,
                                                     monkeypatch):
    # the docstring of _ProductChain promises that nothing in the package reads A
    def unread(chain):
        raise AssertionError("_ProductChain.A was read")

    monkeypatch.setattr(inference._ProductChain, "A", property(unread))
    smb = ["smb", "--x-model", x_model, "--y-model", KEY, "--t", "4,9", "--samples",
           "8", "--eps", "0.1", "--delta", "0.1", "--m", "3", "--seed", "2"]
    for argv in (report_argv("bounds"), report_argv("psi-t"), report_argv("posterior"),
                 smb):
        assert cli.main(argv + ["--out", str(tmp_path / "report")]) == 0


def _option_help(subcommand: str, option: str, capsys) -> str:
    """The help text of one option in ``runkey SUBCOMMAND --help``, on one line."""
    with pytest.raises(SystemExit) as exited:
        cli.main([subcommand, "--help"])
    assert exited.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith(f"  {option} "))
    entry = [lines[first]]
    for line in lines[first + 1 :]:
        if not line.startswith("   "):  # the next option, or the end
            break
        entry.append(line)
    return " ".join(" ".join(entry).split())


@pytest.mark.parametrize("subcommand, option, ending", [
    ("psi", "--eps", "|W - h_ref| < eps/2"),
    ("smb", "--eps", "|W - h_ref| < eps"),
    ("smb", "--m", "bracket order for h_ref when --h-ref is not given"),
    ("bounds", "--m", "H(Z_m+1 | Z^m, S_1) <= h(Z) <= H(Z_m+1 | Z^m)"),
], ids=["psi-eps", "smb-eps", "smb-m", "bounds-m"])
def test_help_says_what_eps_and_m_mean(subcommand, option, ending, capsys):
    assert _option_help(subcommand, option, capsys).endswith(ending)


def test_cli_defaults_are_the_library_defaults_they_feed():
    (subcommands,) = [action.choices for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    fed = [("train", "alpha", sources.train_markov, "alpha"),
           ("sweep", "eps", secrecy.robustness_sweep, "epsilon"),
           ("psi", "m", secrecy.build_typical_set, "bracket_order"),
           ("psi", "m", secrecy.typical_set_growth, "bracket_order"),
           ("smb", "m", secrecy.concentration_experiment, "bracket_order")]
    for subcommand, dest, library, parameter in fed:
        default = inspect.signature(library).parameters[parameter].default
        assert subcommands[subcommand].get_default(dest) == default, (subcommand, dest)


def test_smb_over_the_factor_table_cap_exits_3(tmp_path, monkeypatch, capsys):
    # two order-1 models over n=4: the forward's factor table has 4**4 entries
    model = sources.SourceModel(4, 1, np.full((4, 4), 0.25))
    path = tmp_path / "x.model"
    sources.save_model(model, str(path))
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 4**4 - 1)
    argv = ["smb", "--x-model", str(path), "--y-model", str(path), "--t", "5",
            "--samples", "4", "--eps", "0.05", "--delta", "0.1", "--seed", "1",
            "--h-ref", "1.0", "--out", str(tmp_path / "smb.json")]
    assert cli.main(argv) == 3
    line = _error_line(capsys)
    assert line.startswith("error: cap:") and "factor table" in line


def test_memory_exhaustion_exits_3(x_model, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "certify_bounds", exhausted)
    argv = ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "2"]
    assert cli.main(argv) == 3
    assert _error_line(capsys) == "error: cap: MemoryError"


_MODEL_ROWS = "n 2\norder 1\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n"
# a malformed model file -> the line its error names, where it names one
_BAD_MODELS = {
    "symbol-above": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 2 0.25 0.75\n", 4),
    "symbol-negative": ("n 2\norder 1\nrow 0 0.5 0.5\nrow -1 0.25 0.75\n", 4),
    "n-after-rows": (_MODEL_ROWS + "n 3\n", 5),
    "order-after-rows": ("n 2\norder 1\nrow 0 0.5 0.5\norder 2\nrow 1 0.25 0.75\n", 4),
    "n-one": ("n 1\norder 0\nrow - 1.0\n", 1),
    "order-negative": ("n 2\norder -1\nrow 0 0.5 0.5\n", 2),
    "label-length": ("n 2\norder 2\nrow 0,0 0.5 0.5\nrow 0 0.5 0.5\n", 4),
    "label-text": ("n 2\norder 2\nrow 0,0 0.5 0.5\nrow 0,x 0.5 0.5\n", 4),
    "label-order-0": ("n 2\norder 0\nrow 0 0.5 0.5\n", 3),
    "short-row": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 1 0.25\n", 4),
    "nan": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 1 nan 0.75\n", 4),
    "inf": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 1 inf 0.75\n", 4),
    "overflow": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 1 1e400 0.75\n", 4),
    "negative": ("n 2\norder 1\nrow 1 -0.25 1.25\n# c\nrow 0 -0.5 1.5\n", 3),
    "row-sum": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 1 0.25 0.5\n", None),
    "duplicate-row": ("n 2\norder 1\nrow 0 0.5 0.5\nrow 0 0.5 0.5\n", 4),
    "n-fraction": ("n 2.5\norder 1\nrow 0 0.5 0.5\n", 1),
    "trailing-comment": ("n 2\norder 1\nrow 0 0.5 0.5 # c\nrow 1 0.25 0.75\n", 3),
    "missing-header": ("order 1\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n", 2),
    "n-no-value": ("n\norder 1\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n", 1),
    "order-no-value": ("n 2\norder\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n", 2),
    "row-no-label": ("n 2\norder 1\nrow\nrow 1 0.25 0.75\n", 3),
    "n-two-values": ("n 2 7\norder 1\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n", 1),
    "order-two-values": ("n 2\norder 1 x\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n", 2),
    "n-twice": ("n 2\nn 3\norder 0\nrow - 0.25 0.25 0.5\n", 2),
    "order-twice": ("n 2\norder 0\norder 1\nrow 0 0.5 0.5\nrow 1 0.25 0.75\n", 3),
    "empty": ("", None),
    "undecodable": (b"n 2\norder 1\nrow 0 0.5 0.5\nrow 1 0.25 \xff0.75\n", None),
}


@pytest.mark.parametrize("case", list(_BAD_MODELS))
def test_malformed_model_file_exits_2(case, tmp_path, capsys):
    text, line = _BAD_MODELS[case]
    path = tmp_path / "bad.model"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli.main(["entropy", "--x-model", str(path), "--m", "0"]) == 2
    message = _error_line(capsys)
    assert message.startswith("error: config:")
    if line is not None:
        assert message.startswith(f"error: config: line {line}:")
    assert "index out of range" not in message
    key, _, kind = case.partition("-")
    fault = {"no-value": "has no", "no-label": "has no", "two-values": "takes one value",
             "twice": "given twice", "after-rows": "given twice"}
    if kind in fault:  # the key and what is wrong with it are named
        assert f"'{key}' {fault[kind]}" in message


def test_tiny_off_diagonal_model_gets_its_exact_law(tmp_path, capsys):
    # both off-diagonal entries vanish against 1 in I - P, which made a direct
    # solve singular; the elimination never subtracts, so the law is (1/2, 1/2)
    path = tmp_path / "stuck.model"
    path.write_text("n 2\norder 1\nrow 0 1 5e-324\nrow 1 5e-324 1\n")
    assert sources.load_model(str(path)).stationary.tolist() == [0.5, 0.5]
    assert cli.main(["entropy", "--x-model", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_numerically_reducible_model_exits_2(tmp_path, capsys):
    # the one way from context 1 to context 0 runs through two 5e-324 steps,
    # whose product vanishes in the elimination even at its scale
    path = tmp_path / "stuck.model"
    path.write_text("n 3\norder 1\nrow 0 0 1 0\nrow 1 0 1 5e-324\nrow 2 5e-324 1 0\n")
    assert cli.main(["entropy", "--x-model", str(path)]) == 2
    assert _error_line(capsys).startswith(
        "error: config: the chain is numerically reducible")


def test_stationary_law_out_of_power_steps_exits_4(tmp_path, monkeypatch, capsys):
    # 256 contexts, past the elimination, that power iteration cannot settle in 50 steps
    rows = ["0.9999 0.0001", "0.0002 0.9998"]  # by the context's last symbol
    path = tmp_path / "slow.model"
    path.write_text("n 2\norder 8\n" + "".join(
        f"row {','.join(format(s, '08b'))} {rows[s % 2]}\n" for s in range(256)))
    monkeypatch.setattr(sources, "_POWER_STEPS", 50)
    assert cli.main(["entropy", "--x-model", str(path), "--m", "0"]) == 4
    assert _error_line(capsys).startswith("error: numeric: power iteration did not reach")


@pytest.mark.parametrize("n, k", [(2, 30), (256, 4)])
def test_model_header_of_a_huge_table_exits_3_before_allocating(n, k, tmp_path, capsys):
    path = tmp_path / "huge.model"
    path.write_text(f"n {n}\norder {k}\nrow {','.join(['0'] * k)} "
                    + " ".join([repr(1 / n)] * n) + "\n")
    tracemalloc.start()
    try:
        code = cli.main(["entropy", "--x-model", str(path), "--m", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    message = _error_line(capsys)
    assert message.startswith("error: cap:") and f"exceeds cap {sources.DEFAULT_WORD_CAP}" in message
    assert peak < 1 << 20  # the table would be n**k * n floats


# inputs that once computed n**k for a cap check, or sampled before it: each
# ran (or allocated 8 GB) for many seconds before it failed, if it did; the
# smb ones kept a statistic per sample, or a row of t + 1 uniforms, unbounded
_SMB = ["smb", "--x-model", "bernoulli:0.3,0.7", "--y-model", KEY, "--eps", "0.05",
        "--delta", "0.1", "--seed", "1"]
_HUGE_POWERS = {
    "header": ["entropy", "--x-model", "{huge}"],
    "bounds": ["bounds", "--x-model", "uniform:2", "--y-model", KEY,
               "--m", "1000000000000"],
    "sweep": ["sweep", "--x-model", "uniform:2", "--tau", "0.1",
              "--m", "1000000000000"],
    "psi": ["psi", "--x-model", "uniform:2", "--y-model", KEY,
            "--t", "1000000000", "--eps", "0.1", "--seed", "1"],
    "train": ["train", "--corpus", "{corpus}", "--n", "96", "--order", "3",
              "--out", "{out}"],
    "smb-samples": [*_SMB, "--t", "11", "--samples", "99999999999", "--out", "{out}"],
    "smb-row": [*_SMB, "--t", "100000000", "--samples", "1", "--out", "{out}"],
    # within every memory cap, but some three minutes of one-row steps
    "smb-steps": [*_SMB, "--t", "4000000", "--samples", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("case", list(_HUGE_POWERS))
def test_huge_power_exits_3_at_once(case, tmp_path, monkeypatch, capsys):
    huge, corpus, out = tmp_path / "huge.model", tmp_path / "corpus", tmp_path / "out"
    huge.write_text("n 3\norder 100000000\n")  # no rows
    corpus.write_bytes(bytes(range(96)) * 4)

    def sampled(*args):
        raise AssertionError("a ciphertext was sampled before the cap check")

    def hung(*args):
        pytest.fail(f"{case} ran for 5 s")

    monkeypatch.setattr(sources.SourceModel, "sample", sampled)
    argv = [arg.format(huge=huge, corpus=corpus, out=out) for arg in _HUGE_POWERS[case]]
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: cap:")
    assert "Exceeds the limit" not in err
    assert not out.exists()
    if case == "header":
        assert err.startswith("error: cap: line 2: ")


@pytest.mark.parametrize("case", ["header-5000", "header-4000", "bounds-4000"])
def test_long_number_exits_3_with_one_short_line(case, tmp_path, capsys):
    # 5000 digits is past int()'s 4300-digit limit, 4000 within it
    kind, digits = case.split("-")
    huge = "1" * int(digits)
    model = tmp_path / "huge.model"
    model.write_text(f"n 2\norder {huge}\n", encoding="utf-8")
    argv = (["entropy", "--x-model", str(model)] if kind == "header" else
            ["bounds", "--x-model", "uniform:2", "--y-model", KEY, "--m", huge])
    assert cli.main(argv) == 3
    line = _error_line(capsys)
    assert line.startswith("error: cap: ") and len(line) <= 200


# every numeric option, given a 5000-character token: int() refuses more than
# 4300 digits, and the float token is not a number
_LONG_NUMBER_OPTIONS = {
    "train-n": ["train", "--n"], "train-order": ["train", "--order"],
    "train-alpha": ["train", "--alpha"], "entropy-m": ["entropy", "--m"],
    "encrypt-n": ["encrypt", "--n"], "posterior-max-rows": ["posterior", "--max-rows"],
    "psi-t": ["psi", "--t"], "psi-m": ["psi", "--m"], "psi-eps": ["psi", "--eps"],
    "psi-h-ref": ["psi", "--h-ref"], "psi-seed": ["psi", "--seed"], "smb-t": ["smb", "--t"],
    "smb-samples": ["smb", "--samples"], "smb-delta": ["smb", "--delta"],
    "smb-m": ["smb", "--m"], "bounds-m": ["bounds", "--m"], "sweep-tau": ["sweep", "--tau"],
    "sweep-m": ["sweep", "--m"], "sweep-t": ["sweep", "--t"],
    "model-uniform": ["bounds", "--m", "2", "--y-model", "uniform:2", "--x-model"],
}


@pytest.mark.parametrize("case", list(_LONG_NUMBER_OPTIONS))
def test_long_number_option_exits_2_with_one_short_line(case, capsys):
    argv = _LONG_NUMBER_OPTIONS[case]
    token = "1" * 5000
    if argv[-1] in ("--alpha", "--eps", "--h-ref", "--delta", "--tau"):
        token = token[:-1] + "x"
    elif argv[-1] == "--x-model":
        token = "uniform:" + token
    assert cli.main(argv + [token]) == 2
    line = _error_line(capsys)
    assert line.startswith("error: config: ") and len(line) < 200
    assert "(5000 characters)" in line or "(5008 characters)" in line


@pytest.mark.parametrize("argv", [
    ["entropy", "--x-model", "uniform:2", "--m", ""],
    ["smb", "--x-model", "uniform:2", "--y-model", KEY, "--t", "", "--samples", "4",
     "--eps", "0.05", "--delta", "0.1", "--seed", "1"],
    ["sweep", "--x-model", "uniform:2", "--tau", "", "--m", "1"],
    ["sweep", "--x-model", "uniform:2", "--tau", "0.1", "--m", "1", "--t", ""],
    ["psi", "--x-model", "uniform:2", "--y-model", KEY, "--t", "", "--eps", "0.1",
     "--seed", "1"],
], ids=["entropy-m", "smb-t", "sweep-tau", "sweep-t", "psi-t"])
def test_empty_list_option_is_rejected(argv, capsys):
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config:")


@pytest.mark.parametrize("argv, message", [
    (["entropy", "--x-model", "uniform:2", "--m", "x"],
     "error: config: argument --m: bad int list 'x'"),
    (["entropy", "--x-model", "uniform:2", "--m", ","],
     "error: config: argument --m: empty int list ','"),
    (["entropy", "--x-model", "bernoulli:0.5,x", "--m", "1"],
     "error: config: bad float list '0.5,x'"),
], ids=["option-bad", "option-empty", "model-spec"])
def test_bad_list_shows_the_package_message(argv, message, capsys):
    # option values are parsed by argparse, the bernoulli: spec by the handler
    assert cli.main(argv) == 2
    assert _error_line(capsys) == message


# (alphabet size, extra options, stream length); byte mode crosses a read-chunk
# boundary
CIPHER_MODES = {
    "bytes": (256, [], (1 << 16) + 37),
    "bits": (2, ["--bits"], 304),
    "text": (26, ["--text", "--n", "26"], 300),
}


def _cipher_symbols(mode, path):
    n, _, _ = CIPHER_MODES[mode]
    if mode == "text":
        return text_to_word(path.read_text(encoding="utf-8"), n)
    return bytes_to_symbols(path.read_bytes(), n, bits=mode == "bits")


def _write_stream(mode, path, symbols):
    n, _, _ = CIPHER_MODES[mode]
    if mode == "text":
        path.write_text(word_to_text(symbols, n) + "\n", encoding="utf-8")
    else:
        path.write_bytes(symbols_to_bytes(symbols, n, bits=mode == "bits"))


@pytest.mark.parametrize("mode", list(CIPHER_MODES))
def test_encrypt_decrypt_round_trip(mode, tmp_path):
    n, options, length = CIPHER_MODES[mode]
    rng = np.random.default_rng(3)
    x, y = rng.integers(0, n, size=length), rng.integers(0, n, size=length)
    plain, key = tmp_path / "plain", tmp_path / "key"
    sealed, opened = tmp_path / "sealed", tmp_path / "opened"
    _write_stream(mode, plain, x)
    _write_stream(mode, key, y)
    common = ["--key", str(key), *options]
    assert cli.main(["encrypt", "--in", str(plain), "--out", str(sealed), *common]) == 0
    z = _cipher_symbols(mode, sealed)
    assert np.array_equal(z, additive_cipher(n).encrypt(x, y))
    assert cli.main(["decrypt", "--in", str(sealed), "--out", str(opened), *common]) == 0
    assert np.array_equal(_cipher_symbols(mode, opened), x)


@pytest.mark.parametrize("mode", list(CIPHER_MODES))
@pytest.mark.parametrize("subcommand", ["encrypt", "decrypt"])
def test_cipher_streams_of_different_lengths_are_rejected(subcommand, mode, tmp_path,
                                                          capsys):
    n, options, _ = CIPHER_MODES[mode]
    plain, key = tmp_path / "plain", tmp_path / "key"
    _write_stream(mode, plain, np.zeros(16, dtype=np.int64))
    _write_stream(mode, key, np.ones(8, dtype=np.int64))
    argv = [subcommand, "--in", str(plain), "--key", str(key),
            "--out", str(tmp_path / "out"), *options]
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config:")


@pytest.mark.parametrize("stdin_option, short", [("--in", 0), ("--key", 0), ("--key", 7)],
                         ids=["in", "key", "short-key"])
def test_encrypt_reads_a_pipe_fed_in_pieces(stdin_option, short, tmp_path, monkeypatch,
                                            capsys):
    # 30,000-byte pieces, each less than one read of the stream, with a pause
    # after each, so that a read finds the pipe holding less than it asks for
    data = np.random.default_rng(4).integers(0, 256, 90_007, dtype=np.uint8).tobytes()
    plain, key = tmp_path / "plain", tmp_path / "key"
    plain.write_bytes(data)
    key.write_bytes(data[::-1])
    argv = ["encrypt", "--in", str(plain), "--key", str(key)]
    assert cli.main(argv + ["--out", str(tmp_path / "from-files")]) == 0
    piped = (plain if stdin_option == "--in" else key).read_bytes()[short:]
    read_end, write_end = os.pipe()

    def feed():
        with os.fdopen(write_end, "wb", buffering=0) as fh:
            for first in range(0, len(piped), 30_000):
                fh.write(piped[first : first + 30_000])
                time.sleep(0.01)

    feeder = threading.Thread(target=feed)
    feeder.start()
    with io.TextIOWrapper(os.fdopen(read_end, "rb")) as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        argv[argv.index(stdin_option) + 1] = "-"
        code = cli.main(argv + ["--out", str(tmp_path / "from-pipe")])
    feeder.join()
    if not short:
        assert code == 0
        assert (tmp_path / "from-pipe").read_bytes() == (tmp_path / "from-files").read_bytes()
    else:
        assert code == 2
        assert _error_line(capsys) == (
            "error: config: plaintext and key streams differ in length"
        )


def _python(*args, **kwargs):
    """This interpreter in a subprocess, importing this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


@pytest.mark.parametrize("stdin_option", ["--in", "--key"])
def test_text_cipher_reads_standard_input(stdin_option, tmp_path):
    rng = np.random.default_rng(9)
    x, y = rng.integers(0, 26, size=50), rng.integers(0, 26, size=50)
    plain, key = tmp_path / "plain", tmp_path / "key"
    _write_stream("text", plain, x)
    _write_stream("text", key, y)
    piped = plain if stdin_option == "--in" else key
    paths = {"--in": str(plain), "--key": str(key), stdin_option: "-"}
    argv = ["encrypt", "--text", "--n", "26", "--in", paths["--in"],
            "--key", paths["--key"]]
    done = _python("-m", "runkey", *argv, input=piped.read_bytes(), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == word_to_text(additive_cipher(26).encrypt(x, y), 26) + "\n"


def test_module_entry_point(tmp_path):
    version = _python("-m", "runkey", "--version", cwd=tmp_path)
    assert (version.returncode, version.stdout.decode()) == (0, "0.1.0\n")
    bare = _python("-m", "runkey", cwd=tmp_path)
    assert bare.returncode == 2
    err = bare.stderr.decode()
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: config:")


_MODULE_PROBE = """
import sys
from runkey import cli
package = sys.argv[1]
for argv in sys.argv[2:]:
    assert cli.main(argv.split()) == 0, argv
print("modules:", *sorted(m for m in sys.modules
                          if m == package or m.startswith(package + ".")))
"""


def _modules_after(package, argvs, cwd):
    probe = _python("-c", _MODULE_PROBE, package, *argvs, cwd=cwd, text=True, check=True)
    line = next(x for x in probe.stdout.splitlines() if x.startswith("modules:"))
    return line.split()[1:]


def test_scipy_imported_only_for_sparse_operators(tmp_path):
    rng = np.random.default_rng(3)
    for name, order in (("x5", 5), ("y2", 2), ("x9", 9)):
        table = rng.uniform(0.05, 0.95, size=(2**order, 1))
        sources.save_model(sources.SourceModel(2, order, np.hstack([table, 1 - table])),
                           str(tmp_path / f"{name}.model"))
    # binary order-5 against order-2: S = 128 and dense operators, as in `certify`
    pair = "--x-model x5.model --y-model y2.model"
    dense = [
        f"bounds {pair} --m 2 --out bounds.json",
        f"psi {pair} --z 0110100110 --eps 0.1 --m 2 --out psi.json",
        f"posterior {pair} --z 01101001 --format csv --out posterior.csv",
        f"smb {pair} --t 20 --samples 8 --eps 0.05 --delta 0.05 --seed 1 "
        "--h-ref 0.7 --out smb.json",
    ]
    assert _modules_after("scipy", dense, tmp_path) == []
    # the sampler computes its PCG64 draws: numpy.random (and the hashlib and
    # OpenSSL it pulls in through secrets) stays unloaded; one more subprocess
    assert _modules_after("numpy.random", dense[3:], tmp_path) == []
    # order 9 against order 2: S = 2048, over the dense cell budget; neither the
    # forward nor the bracket enumeration builds operators
    sparse = "--x-model x9.model --y-model y2.model"
    smb = [f"smb {sparse} --t 20 --samples 8 --eps 0.05 --delta 0.05 --seed 1 "
           "--h-ref 0.7 --out smb.json"]
    assert _modules_after("scipy", smb, tmp_path) == []
    bounds = [f"bounds {sparse} --m 0 --out bounds.json"]
    assert _modules_after("scipy", bounds, tmp_path) == []


def test_smb_does_not_import_numpy_ma(x_model, tmp_path):
    # np.unique imports numpy.ma on first use (numpy 2.4), a cost every run
    # paid; the key table and the sampler need neither
    key = tmp_path / "y.model"
    sources.save_model(sources.SourceModel(2, 1, [[0.45, 0.55], [0.6, 0.4]]), str(key))
    smb = [f"smb --x-model {x_model} --y-model {key} --t 20 --samples 8 --eps 0.05 "
           "--delta 0.05 --seed 1 --out smb.json"]
    assert _modules_after("numpy.ma", smb, tmp_path) == []


def _flat_keys(value, prefix=""):
    """The dotted keys of a JSON value's leaves, as bench/checker.py flattens them."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix}
    return set().union(*(_flat_keys(item, f"{prefix}.{key}" if prefix else str(key))
                         for key, item in items))


def test_reports_carry_the_keys_the_benchmark_pins(x_model, tmp_path):
    # bench/reference.json pins these reports' result keys; a renamed or
    # dropped field (psi's members_kept) must fail here, not at the benchmark
    reference = json.loads((Path(__file__).resolve().parents[1] / "bench"
                            / "reference.json").read_text(encoding="utf-8"))
    out, pair = tmp_path / "report.json", ["--x-model", x_model, "--y-model", KEY]
    runs = {
        ("certify", "bounds"): ["bounds", *pair, "--m", "2"],
        ("certify", "psi"): ["psi", *pair, "--z", "0110100", "--eps", "0.2", "--m", "2"],
        ("concentrate", "smb"): ["smb", *pair, "--t", "4,9", "--samples", "8", "--eps",
                                 "0.1", "--delta", "0.1", "--h-ref", "0.7", "--seed", "2"],
        ("bytes", "entropy"): ["entropy", "--x-model", x_model, "--m", "0,1,2"],
    }
    for (workload, label), argv in runs.items():
        assert cli.main(argv + ["--out", str(out)]) == 0
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        assert _flat_keys(results) == set(reference[workload][label]), (workload, label)
    assert set(reference["bytes"]["smb"]) == set(reference["concentrate"]["smb"])


_TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
traced = Tracer()
traced.install()
from runkey import cli
for argv in sys.argv[2:]:
    assert cli.main(argv.split()) == 0, argv
print(json.dumps([[name, counters] for name, _, _, _, counters in traced.spans]))
"""


def test_benchmark_tracer_finds_the_layer_boundaries(x_model, tmp_path):
    # bench/run.py --trace 1 wraps or reads these names; a rename in src/ must
    # fail here, for every subcommand the workloads run
    bench = Path(__file__).resolve().parents[1] / "bench"
    (tmp_path / "corpus.bin").write_bytes(b"a running key is not a one-time pad\n" * 8)
    pair = f"--x-model {x_model} --y-model {KEY}"
    smb = f"smb {pair} --t 4,9 --samples 8 --eps 0.1 --delta 0.1 --m 2 --seed 2"
    argvs = [
        f"bounds {pair} --m 2 --out bounds.json",
        f"psi {pair} --z 0110100 --eps 0.2 --m 2 --out psi.json",
        f"posterior {pair} --z 0110100 --format csv --out posterior.csv",
        f"{smb} --out smb.json",
        f"{smb} --h-ref 0.7 --out smb-h-ref.json",
        "train --corpus corpus.bin --n 128 --order 1 --out text.model",
        "entropy --x-model text.model --m 0,1 --out entropy.json",
    ]
    done = _python("-c", _TRACED, str(bench), *argvs, cwd=tmp_path, text=True, check=True)
    spans = json.loads(done.stdout.splitlines()[-1])
    counters = {}
    for name, counted in spans:
        counters.setdefault(name, []).append(counted)
    assert counters["sources.load"] and counters["sources.train"]
    # one enumeration per bracket, and bounds, psi and the first smb make one each
    assert len(counters["inference.enum"]) == 3
    expected = {
        "inference.enum": {"enum_calls", "enum_cells"},
        "inference.forward": {"forward_steps", "forward_madds"},
        "inference.chain_build": {"chain_states", "chain_entries", "chain_dense"},
    }
    for name, keys in expected.items():
        assert counters[name]
        for counted in counters[name]:
            assert set(counted) == keys
            assert all(isinstance(value, int) and value >= 0 for value in counted.values())
    assert all(counted["enum_calls"] == 1 and counted["enum_cells"] > 0
               for counted in counters["inference.enum"])
