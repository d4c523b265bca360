"""Self-tests of the benchmark: the report checker and counter repeatability.

Run from the repository root with ``python3 -m pytest -s bench/test_bench.py``.
The repeatability test runs every workload traced and untraced twice each
(about a minute and a half on a 2-core machine) and prints the tracing
overhead.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checker
import run
import workloads
from workloads import Invocation

ROOT = Path(__file__).resolve().parent.parent


def _bounds_report(path: Path, results: dict) -> None:
    path.write_text(json.dumps({"config": {}, "results": results}), encoding="utf-8")


def _bounds_case(tmp_path):
    reference = checker.load_reference()["certify"]["bounds"]
    inv = Invocation("bounds", ["bounds"], "bounds.json", {"m": reference["bracket_order"]})
    return inv, dict(reference), reference


def test_checker_accepts_the_reference_report(tmp_path):
    inv, results, reference = _bounds_case(tmp_path)
    _bounds_report(tmp_path / "bounds.json", results)
    problems, _ = checker.check_invocation(inv, tmp_path, 0, "", "", reference)
    assert problems == []


def test_checker_rejects_one_perturbed_float(tmp_path):
    inv, results, reference = _bounds_case(tmp_path)
    results["h_xz_upper"] *= 1.0 + 1e-6
    _bounds_report(tmp_path / "bounds.json", results)
    problems, _ = checker.check_invocation(inv, tmp_path, 0, "", "", reference)
    assert len(problems) == 1 and "h_xz_upper" in problems[0]


def test_checker_rejects_a_changed_count(tmp_path):
    reference = {"member_count": 90179, "mass": 0.25}
    assert checker.compare("psi", {"member_count": 90180, "mass": 0.25}, reference)
    assert checker.compare("psi", {"member_count": 90179, "mass": 0.25 * (1 + 1e-12)}, reference) == []


def test_checker_rejects_nan(tmp_path):
    row = {"t": 10, "samples": 4, "band_fraction": 0.5, "mean": "nan", "variance": 0.1}
    (tmp_path / "smb.json").write_text(
        json.dumps({"config": {}, "results": {"epsilon": 0.1, "rows": [row]}}), encoding="utf-8")
    inv = Invocation("smb", ["smb"], "smb.json", {"samples": 4, "t": [10]})
    problems, _ = checker.check_invocation(inv, tmp_path, 0, "", "")
    assert any("NaN" in p for p in problems)


def test_checker_rejects_posterior_mass_off_one(tmp_path):
    lines = ["plaintext,log2_posterior", "0,-1", "1,-1.1"]
    (tmp_path / "posterior.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    inv = Invocation("posterior", ["posterior"], "posterior.csv", {"n": 2, "t": 1})
    problems, _ = checker.check_invocation(inv, tmp_path, 0, "", "")
    assert any("mass" in p for p in problems)


def test_checker_rejects_nonzero_exit_and_traceback(tmp_path):
    inv, results, reference = _bounds_case(tmp_path)
    _bounds_report(tmp_path / "bounds.json", results)
    problems, _ = checker.check_invocation(inv, tmp_path, 3, "", "error: cap: too big", reference)
    assert problems == ["bounds: exit code 3"]
    problems, _ = checker.check_invocation(
        inv, tmp_path, 0, "", "Traceback (most recent call last):\n", reference)
    assert problems == ["bounds: traceback on stderr"]


def test_checker_rejects_inverted_bracket(tmp_path):
    inv, results, _ = _bounds_case(tmp_path)
    results["h_xz_lower"], results["h_xz_upper"] = results["h_xz_upper"] + 1e-3, results["h_xz_lower"]
    _bounds_report(tmp_path / "bounds.json", results)
    problems, _ = checker.check_invocation(inv, tmp_path, 0, "", "")
    assert any("exceeds upper" in p for p in problems)


def test_a_bad_report_fails_in_every_session(tmp_path):
    inv, results, _ = _bounds_case(tmp_path)
    results["h_xz_lower"], results["h_xz_upper"] = results["h_xz_upper"] + 1e-3, results["h_xz_lower"]
    _bounds_report(tmp_path / "bounds.json", results)
    first = None
    for _ in range(3):  # the same bad report, written by three sessions
        session = {"codes": [0], "stdouts": [""], "stderrs": [""]}
        found = run.check_session(session, [inv], tmp_path, first, None)
        assert any("exceeds upper" in p for p in found[0])
        first = first or session["checked"]


def _computing(session: dict) -> float:
    """Session time after interpreter start, import and model loading.

    Model loading includes the construction of the loaded model, as in
    ``setup_s``.
    """
    m = session["metrics"]
    if "wall_s" in m:
        return m["wall_s"] - m["setup_s"]
    loading = sum(end - start for span, start, end, _, _ in session["spans"]
                  if span == "sources.load")
    return m["trace.wall_s"] - m["trace.startup_s"] - loading


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_and_overhead(name, tmp_path):
    invocations = workloads.build(name, 7, tmp_path)
    runner = run.Runner(ROOT, tmp_path, run.time.monotonic())
    traced, untraced = [], []
    for _ in range(2):  # alternate, so drift of the machine's speed hits both
        traced.append(run.traced_session(runner, invocations))
        untraced.append(run.untraced_session(runner, invocations))
    assert all(code == 0 for s in traced + untraced for code in s["codes"])
    counters = [{k: s["metrics"][k] for k in run.COUNTERS} for s in traced]
    assert counters[0] == counters[1]
    assert any(counters[0].values())

    for s in traced:
        m = s["metrics"]
        layers = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        assert math.isclose(layers + m["trace.other_s"], m["trace.wall_s"] - m["trace.startup_s"],
                            rel_tol=1e-9)

    def mean(values):
        return sum(values) / len(values)

    wall_traced = mean([s["metrics"]["trace.wall_s"] for s in traced])
    wall_untraced = mean([s["metrics"]["wall_s"] for s in untraced])
    compute_traced = mean([_computing(s) for s in traced])
    compute_untraced = mean([_computing(s) for s in untraced])
    print(f"\n{name}: wall traced {wall_traced:.3f} s (one process), untraced "
          f"{wall_untraced:.3f} s, difference {wall_traced - wall_untraced:+.3f} s; "
          f"computing traced {compute_traced:.3f} s, untraced {compute_untraced:.3f} s, "
          f"tracing overhead {compute_traced - compute_untraced:+.3f} s")
