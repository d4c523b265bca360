"""Report checker for benchmark invocations.

For any seed, every invocation must exit 0 without a traceback, write reports
free of NaN, and satisfy invariants that need no reference:

- bounds: ``h_xz_lower <= h_xz_upper`` and ``h_xz_lower >= bound_corollary``
  (up to ``ORDER_TOL``, the slack ``certify_bounds`` itself allows);
- posterior: one row per plaintext, posterior mass 1 within ``MASS_TOL``;
- psi: member count at most n**t, mass in [0, 1];
- smb: the requested sample count per length, band fractions in [0, 1];
- entropy: entropy rate in [0, log2 n], block entropies non-increasing and
  not below the entropy rate (up to ``ORDER_TOL``);
- train: n**order probability rows, each summing to 1 within ``MASS_TOL``.

For the default seed, the values extracted from each report are also compared
with ``reference.json``, recorded from the same inputs: two integers must
match exactly (counts, lengths, orders), other numbers within
``|a - b| <= ATOL + RTOL * |b|``, and strings, booleans and nulls exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
MASS_TOL = 1e-9
ORDER_TOL = 1e-9
POSTERIOR_SAMPLES = 33  # evenly spaced posterior rows kept as reference values

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _flatten(value, prefix: str, out: dict) -> dict:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}.{i}", out)
    else:
        out[prefix] = value
    return out


def _is_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    return isinstance(value, str) and value.strip().lower() == "nan"


def _json_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def _posterior_values(path: Path, expect: dict, problems: list) -> dict:
    n, t = expect["n"], expect["t"]
    texts, values = [], []
    with path.open(encoding="utf-8") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        if next(lines, "").strip() != "plaintext,log2_posterior":
            problems.append("posterior: missing CSV column header")
        for line in lines:
            text, _, value = line.rstrip("\n").rpartition(",")
            texts.append(text)
            values.append(float(value))
    if len(values) != n**t:
        problems.append(f"posterior: {len(values)} rows, expected {n**t}")
        return {"rows": len(values)}
    if any(math.isnan(v) for v in values):
        problems.append("posterior: NaN in the table")
    mass = math.fsum(2.0**v for v in values)
    if not abs(mass - 1.0) <= MASS_TOL:
        problems.append(f"posterior: mass {mass!r} is not 1")
    top = "0123456789abcdefghijklmnopqrstuvwxyz"[n - 1]
    if texts[0] != "0" * t or texts[-1] != top * t:
        problems.append("posterior: plaintexts are not in packed-index order")
    out = {"rows": len(values)}
    last = len(values) - 1
    for k in range(POSTERIOR_SAMPLES):
        i = k * last // (POSTERIOR_SAMPLES - 1)
        out[f"row.{i}.plaintext"] = texts[i]
        out[f"row.{i}.log2_posterior"] = values[i]
    return out


def _model_values(path: Path, stdout: str, expect: dict, problems: list) -> dict:
    n = order = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "order":
            order = int(parts[1])
        elif parts[0] == "row":
            rows.append([float(p) for p in parts[2:]])
    if (n, order) != (expect["n"], expect["order"]):
        problems.append(f"train: model declares n={n} order={order}")
        return {}
    if len(rows) != n**order:
        problems.append(f"train: {len(rows)} rows, expected {n**order}")
    for s, row in enumerate(rows):
        if len(row) != n or min(row) < 0.0 or not abs(math.fsum(row) - 1.0) <= MASS_TOL:
            problems.append(f"train: row {s} is not a probability vector")
            break
    # the summary line reads "trained ... entropy rate R bits/symbol -> path"
    tokens = stdout.split()
    rate = float(tokens[tokens.index("rate") + 1]) if "rate" in tokens else None
    if rate is None or not 0.0 <= rate <= math.log2(n) + ORDER_TOL:
        problems.append(f"train: entropy rate {rate!r} outside [0, log2 n]")
    out = {"n": n, "order": order, "rows": len(rows), "entropy_rate": rate}
    for s in (0, len(rows) - 1):
        for a in range(0, n, max(1, n // 8)):
            out[f"row.{s}.{a}"] = rows[s][a]
    return out


def _check_bounds(r: dict, expect: dict, problems: list) -> None:
    if r["bracket_order"] != expect["m"]:
        problems.append(f"bounds: bracket order {r['bracket_order']} != {expect['m']}")
    if not r["h_xz_lower"] <= r["h_xz_upper"]:
        problems.append("bounds: bracket lower end exceeds upper end")
    if not r["h_xz_lower"] >= r["bound_corollary"] - ORDER_TOL:
        problems.append("bounds: bracket lower end undercuts the corollary bound")


def _check_psi(r: dict, expect: dict, problems: list) -> None:
    if r["t"] != expect["t"]:
        problems.append(f"psi: length {r['t']} != {expect['t']}")
    if not 0 <= r["member_count"] <= expect["n"] ** expect["t"]:
        problems.append(f"psi: typical-set count {r['member_count']} exceeds n**t")
    if not 0.0 <= r["mass"] <= 1.0:
        problems.append(f"psi: mass {r['mass']!r} outside [0, 1]")


def _check_smb(r: dict, expect: dict, problems: list) -> None:
    if [row["t"] for row in r["rows"]] != expect["t"]:
        problems.append("smb: reported lengths differ from the requested ones")
    for row in r["rows"]:
        if row["samples"] != expect["samples"]:
            problems.append(f"smb: {row['samples']} samples at t={row['t']}")
        if not 0.0 <= row["band_fraction"] <= 1.0:
            problems.append(f"smb: band fraction {row['band_fraction']!r} outside [0, 1]")


def _check_entropy(r: dict, expect: dict, problems: list) -> None:
    rate = r["entropy_rate"]
    if not 0.0 <= rate <= math.log2(expect["n"]) + ORDER_TOL:
        problems.append(f"entropy: rate {rate!r} outside [0, log2 n]")
    previous = math.inf
    for block in r.get("block_entropies", []):
        if not rate - ORDER_TOL <= block["h_m"] <= previous + ORDER_TOL:
            problems.append(f"entropy: block entropy at m={block['m']} out of order")
        previous = block["h_m"]


_JSON_CHECKS = {
    "bounds": _check_bounds,
    "psi": _check_psi,
    "smb": _check_smb,
    "entropy": _check_entropy,
}


def report_values(inv, work: Path, stdout: str, problems: list) -> dict:
    """Check one invocation's outputs; return its values for reference comparison."""
    sub = inv.argv[0]
    path = work / inv.output
    if not path.is_file():
        problems.append(f"{inv.label}: output {inv.output} missing")
        return {}
    try:
        if sub == "posterior":
            return _posterior_values(path, inv.expect, problems)
        if sub == "train":
            return _model_values(path, stdout, inv.expect, problems)
        results = _json_report(path)
        values = _flatten(results, "", {})
        nans = [key for key, value in values.items() if _is_nan(value)]
        if nans:
            problems.append(f"{inv.label}: NaN in {', '.join(nans)}")
        _JSON_CHECKS[sub](results, inv.expect, problems)
        return values
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"{inv.label}: malformed report ({type(exc).__name__}: {exc})")
        return {}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare(label: str, values: dict, reference: dict) -> list[str]:
    """Differences between extracted values and their reference."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            problems.append(f"{label}: {key} present on one side only")
        elif not _close(values[key], reference[key]):
            problems.append(f"{label}: {key} = {values[key]!r}, reference {reference[key]!r}")
    return problems


def exit_problems(inv, code: int, stderr: str) -> list[str]:
    """A non-zero exit code or a traceback."""
    problems = []
    if code != 0:
        problems.append(f"{inv.label}: exit code {code}")
    if "Traceback (most recent call last)" in stderr:
        problems.append(f"{inv.label}: traceback on stderr")
    return problems


def check_invocation(inv, work: Path, code: int, stdout: str, stderr: str,
                     reference: dict | None = None) -> tuple[list[str], dict]:
    """All problems with one invocation, and the values extracted from its reports."""
    problems = exit_problems(inv, code, stderr)
    if problems:
        return problems, {}
    values = report_values(inv, work, stdout, problems)
    if reference is not None and not problems:
        problems.extend(compare(inv.label, values, reference))
    return problems, values
