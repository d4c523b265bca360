import json

import pytest

from runkey import cli, sources

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


@pytest.mark.parametrize("subcommand", ["bounds", "smb"])
def test_workers_option_is_gone(subcommand, x_model, capsys):
    argv = [subcommand, "--x-model", x_model, "--y-model", KEY, "--m", "2",
            "--workers", "2"]
    if subcommand == "smb":
        argv += ["--t", "5", "--samples", "4", "--eps", "0.05", "--delta", "0.1",
                 "--seed", "1"]
    assert cli.main(argv) == 2
    line = _error_line(capsys)
    assert line.startswith("error: config:")
    assert "--workers" in line


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
