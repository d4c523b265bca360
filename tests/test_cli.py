import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from runkey import cli, inference, secrecy, sources
from runkey.cipher import additive_cipher
from runkey.words import (
    bytes_to_symbols,
    index_to_word,
    symbols_to_bytes,
    text_to_word,
    word_to_text,
)

MARKOV = sources.make_markov(2, 1, [[0.9, 0.1], [0.2, 0.8]])
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
              ["x-model", "y-model", "z", "eps", "m", "h-ref", "member-cap", "format"]),
    "psi-t": (["psi", "--x-model", X, "--y-model", KEY, "--t", "5,7", "--seed", "4",
               "--eps", "0.2", "--m", "3"],
              ["x-model", "y-model", "t", "eps", "m", "member-cap", "seed", "format"]),
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


@pytest.mark.parametrize("z", ["1,,2", ",1,2", "1,2,"])
def test_posterior_rejects_an_empty_symbol_field(z, capsys):
    argv = ["posterior", "--x-model", "uniform:40", "--y-model", "uniform:40", "--z", z]
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config: empty symbol field")


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


def test_posterior_report_matches_the_library(x_model, tmp_path):
    argv = ["posterior", "--x-model", x_model, "--y-model", KEY, "--z", "0110100"]
    table = inference.posterior(MARKOV, sources.make_bernoulli([0.45, 0.55]),
                                additive_cipher(2), text_to_word("0110100", 2))
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


@pytest.mark.parametrize("bad", [["--member-cap", "0"], ["--eps", "0"], ["--t", "0"]],
                         ids=["member-cap", "eps", "length"])
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

    def bent(chain, length, with_start=True):
        totals = [entropies.copy() for entropies in enumerate_blocks(chain, length)]
        totals[which] += bend
        return tuple(totals)

    monkeypatch.setattr(inference, "_entropies_for_chain", bent)
    assert cli.main(["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "3"]) == 4
    line = _error_line(capsys)
    assert line.startswith("error: numeric:") and message in line


def test_smb_over_the_entry_cap_exits_3(tmp_path, monkeypatch, capsys):
    # two order-1 models over n=4 store 4 * 4 * 16 operator entries
    model = sources.make_markov(4, 1, np.full((4, 4), 0.25))
    path = tmp_path / "x.model"
    sources.save_model(model, str(path))
    monkeypatch.setattr(inference, "DEFAULT_ENTRY_CAP", 4 * 4 * 16 - 1)
    argv = ["smb", "--x-model", str(path), "--y-model", str(path), "--t", "5",
            "--samples", "4", "--eps", "0.05", "--delta", "0.1", "--seed", "1",
            "--h-ref", "1.0", "--out", str(tmp_path / "smb.json")]
    assert cli.main(argv) == 3
    assert _error_line(capsys).startswith("error: cap:")


def test_memory_exhaustion_exits_3(x_model, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "certify_bounds", exhausted)
    argv = ["bounds", "--x-model", x_model, "--y-model", KEY, "--m", "2"]
    assert cli.main(argv) == 3
    assert _error_line(capsys) == "error: cap: MemoryError"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_psi_rejects_member_cap_below_one(cap, x_model, capsys):
    argv = ["psi", "--x-model", x_model, "--y-model", KEY, "--z", "0110",
            "--eps", "0.1", "--h-ref", "0.5", "--member-cap", cap]
    assert cli.main(argv) == 2
    assert _error_line(capsys).startswith("error: config:")


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


_SCIPY_PROBE = """
import sys
from runkey import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _scipy_modules_after(argvs, cwd):
    probe = _python("-c", _SCIPY_PROBE, *argvs, cwd=cwd, text=True, check=True)
    line = next(x for x in probe.stdout.splitlines() if x.startswith("scipy:"))
    return line.split()[1:]


def test_scipy_imported_only_for_sparse_operators(tmp_path):
    rng = np.random.default_rng(3)
    for name, order in (("x5", 5), ("y2", 2), ("x9", 9)):
        table = rng.uniform(0.05, 0.95, size=(2**order, 1))
        sources.save_model(sources.make_markov(2, order, np.hstack([table, 1 - table])),
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
    assert _scipy_modules_after(dense, tmp_path) == []
    # order 9 against order 2: S = 2048, over the dense cell budget; neither the
    # forward nor the bracket enumeration builds operators
    sparse = "--x-model x9.model --y-model y2.model"
    smb = [f"smb {sparse} --t 20 --samples 8 --eps 0.05 --delta 0.05 --seed 1 "
           "--h-ref 0.7 --out smb.json"]
    assert _scipy_modules_after(smb, tmp_path) == []
    bounds = [f"bounds {sparse} --m 0 --out bounds.json"]
    assert _scipy_modules_after(bounds, tmp_path) == []


_TRACED = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
traced = tracer.Tracer()
traced.install()
from runkey import cli
for argv in sys.argv[2:]:
    assert cli.main(argv.split()) == 0, argv
print(json.dumps([[name, counters] for name, _, _, _, counters in traced.spans]))
"""


def test_benchmark_tracer_finds_the_layer_boundaries(x_model, tmp_path):
    # bench/run.py --trace 1 wraps these names; a rename in src/ must fail here
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    pair = f"--x-model {x_model} --y-model {KEY}"
    argvs = [
        f"bounds {pair} --m 2 --out bounds.json",
        f"psi {pair} --z 0110100 --eps 0.2 --m 2 --out psi.json",
        f"smb {pair} --t 4,9 --samples 8 --eps 0.1 --delta 0.1 --m 2 --seed 2 "
        "--out smb.json",
    ]
    done = _python("-c", _TRACED, str(tracer), *argvs, cwd=tmp_path, text=True, check=True)
    spans = json.loads(done.stdout.splitlines()[-1])
    counters = {}
    for name, counted in spans:
        counters.setdefault(name, []).append(counted)
    # one enumeration per bracket, and each of the three runs makes one
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
