import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from runkey import cli, inference, secrecy, sources
from runkey.cipher import additive_cipher
from runkey.words import bytes_to_symbols, symbols_to_bytes, text_to_word, word_to_text

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


def _printed(value):
    """A library value as the report prints it: floats to 12 significant digits."""
    if isinstance(value, dict):
        return {key: _printed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_printed(item) for item in value]
    return float(f"{value:.12g}") if isinstance(value, float) else value


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
        expected += [f"{row['t']},{key},{value:.12g}" if isinstance(value, float)
                     else f"{row['t']},{key},{value}"
                     for key, value in row.items() if key != "t"]
    onset = library["onset_length"]
    expected += [f",h_ref,{library['h_ref']:.12g}",
                 f",onset_length,{'none' if onset is None else onset}"]
    lines = csv_out.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body == expected


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


_SCIPY_PROBE = """
import sys
from runkey import cli
for argv in sys.argv[1:]:
    assert cli.main(argv.split()) == 0, argv
print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _scipy_modules_after(argvs, cwd):
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argvs], cwd=cwd,
                           capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=src))
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
    # order 9 against order 2: S = 2048, over the dense cell budget
    sparse = [f"smb --x-model x9.model --y-model y2.model --t 20 --samples 8 "
              "--eps 0.05 --delta 0.05 --seed 1 --h-ref 0.7 --out smb.json"]
    assert "scipy.sparse" in _scipy_modules_after(sparse, tmp_path)
