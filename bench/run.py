"""Benchmark for the runkey CLI.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` and runs its CLI invocations
as a user would: one process per invocation, one after another, ``--workers``
left at its default.  A session is one pass over the invocations; sessions
repeat for about ``--seconds``, and every metric is the median over sessions.
Every session's reports are checked (see checker.py): the first in full; a
later one must be byte-identical to the first and fails wherever the first did.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` instead runs each session in one traced
process (see tracer.py) and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the error rate is ``failed / attempted``, counted in
invocations.  A fuller record, with provenance, goes to
``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

NPROC = os.cpu_count() or 1
# BLAS may not run more threads than there are processors; set before numpy loads
if int(os.environ.get("OPENBLAS_NUM_THREADS") or 0) > NPROC:
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)

import numpy as np  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
INVOCATION_LIMIT_S = 90.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# span name -> per-layer metric holding the spans' summed self time
SPAN_METRICS = {
    "sources.construct": "sources.construct_s",
    "sources.train": "sources.train_s",
    "sources.save": "sources.save_s",
    "sources.load": "sources.load_s",
    "sources.block_entropy": "sources.block_entropy_s",
    "sources.walk": "sources.walk_s",
    "inference.bracket": "inference.bracket_s",
    "inference.enum": "inference.enum_s",
    "inference.forward": "inference.forward_s",
    "inference.chain_build": "inference.chain_build_s",
    "inference.joint_table": "inference.joint_table_s",
    "inference.posterior": "inference.posterior_s",
    "secrecy.concentration": "secrecy.concentration_self_s",
    "secrecy.typical_set": "secrecy.typical_set_self_s",
    "cli.report": "cli.report_s",
}
# counters are named <layer>.<counter>, summed over a session's spans
COUNTERS = (
    "sources.contexts", "sources.walk_steps",
    "inference.enum_calls", "inference.enum_cells",
    "inference.forward_steps", "inference.forward_madds",
    "inference.chain_states", "inference.chain_entries", "inference.chain_dense",
    "inference.joint_words", "secrecy.samples", "cli.report_bytes",
)
LAYERS = ("sources", "inference", "secrecy", "cli")
# traced session wall = startup (interpreter + import) + layer self times + other
SPLIT_METRICS = ("trace.wall_s", "trace.startup_s", "trace.other_s")


PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS.values()},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in SPLIT_METRICS},
    **{name: "bytes" if name.endswith("_bytes") else "count" for name in COUNTERS},
}


# -- processes --------------------------------------------------------------------


class Runner:
    """Spawns child.py processes in a work directory, within the run's time limit."""

    def __init__(self, root: Path, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + old if old else src
        self.count = 0

    def spawn(self, argvs: list[list[str]], trace: bool) -> dict:
        """Run ``argvs`` in one child; return its exit codes, times, peak RSS and output."""
        self.count += 1
        stem = self.work / f"proc{self.count}"
        result_path = stem.with_suffix(".result.json")
        plan_path = stem.with_suffix(".plan.json")
        plan_path.write_text(
            json.dumps({"argv": argvs, "trace": trace, "result": str(result_path)}),
            encoding="utf-8",
        )
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        limit = max(0.0, min(INVOCATION_LIMIT_S, self.deadline - time.monotonic()))
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(plan_path)],
                cwd=self.work, env=self.env, stdout=out, stderr=err,
            )
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else None
        if result is None:  # the child died: charge its output to every invocation
            result = {
                "codes": [proc.returncode or 1] * len(argvs),
                "stdouts": [out_path.read_text(encoding="utf-8", errors="replace")] * len(argvs),
                "stderrs": [err_path.read_text(encoding="utf-8", errors="replace")] * len(argvs),
            }
        return {"start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024.0, **result}


def untraced_session(runner: Runner, invocations) -> dict:
    """One pass over the invocations, one process each."""
    procs = [runner.spawn([inv.argv], trace=False) for inv in invocations]
    # set-up: interpreter start and import, then the time spent loading models
    setups = [
        p["imported"] - p["start"] + sum(end - start for _, start, end, _, _ in p["spans"])
        for p in procs if "imported" in p
    ]
    return {
        "codes": [p["codes"][0] for p in procs],
        "stdouts": [p["stdouts"][0] for p in procs],
        "stderrs": [p["stderrs"][0] for p in procs],
        "metrics": {
            "wall_s": procs[-1]["end"] - procs[0]["start"],
            "setup_s": sum(setups),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
        },
    }


def traced_session(runner: Runner, invocations) -> dict:
    """One pass over the invocations in a single traced process."""
    proc = runner.spawn([inv.argv for inv in invocations], trace=True)
    metrics = {name: 0.0 for name in PER_LAYER}
    if "spans" in proc:
        spans = proc["spans"]
        for (name, _, _, _, counters), own in zip(spans, self_times(spans)):
            layer = name.split(".", 1)[0]
            metrics[f"{layer}.self_s"] += own
            if name in SPAN_METRICS:
                metrics[SPAN_METRICS[name]] += own
            for counter, value in counters.items():
                metrics[f"{layer}.{counter}"] += value
        metrics["trace.wall_s"] = proc["end"] - proc["start"]
        metrics["trace.startup_s"] = proc["imported"] - proc["start"]
        metrics["trace.other_s"] = (
            metrics["trace.wall_s"] - metrics["trace.startup_s"]
            - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        )
    for name in COUNTERS:
        metrics[name] = int(metrics[name])
    return {key: proc.get(key, []) for key in ("codes", "stdouts", "stderrs", "spans")} | {
        "metrics": metrics}


# -- checking ---------------------------------------------------------------------


def _digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_session(session: dict, invocations, work: Path, first: dict | None,
                  reference: dict | None) -> list[list[str]]:
    """Problems per invocation.

    The first session (``first`` is None) is checked in full.  A later
    session's report must be byte-identical to the first session's and then
    inherits that report's problems, so a bad report fails in every session.
    Each session records ``checked``: label -> (report digest, problems).
    """
    found = []
    for i, inv in enumerate(invocations):
        code, stdout, stderr = session["codes"][i], session["stdouts"][i], session["stderrs"][i]
        digest = _digest(work / inv.output)
        if first is not None:
            problems = checker.exit_problems(inv, code, stderr)
            if not problems:
                first_digest, first_problems = first[inv.label]
                if digest != first_digest:
                    problems = [f"{inv.label}: report differs from the first session's"]
                else:
                    problems = list(first_problems)
        elif reference is not None and inv.label not in reference:
            problems = [f"{inv.label}: no reference values recorded"]
        else:
            ref = None if reference is None else reference[inv.label]
            problems, values = checker.check_invocation(inv, work, code, stdout, stderr, ref)
            session.setdefault("values", {})[inv.label] = values
        session.setdefault("checked", {})[inv.label] = (digest, problems)
        found.append(problems)
    return found


# -- provenance -------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path, seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": NPROC,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


# -- main -------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's report values as the default seed's reference")
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "runkey" / "cli.py").is_file():
        print("error: run from the root of a runkey checkout (src/runkey is missing)",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != workloads.DEFAULT_SEED:
        print(f"error: references are recorded for seed {workloads.DEFAULT_SEED} only",
              file=sys.stderr)
        return 2

    (root / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_run"))
    try:
        invocations = workloads.build(args.workload, args.seed, work)
        runner = Runner(root, work, started)
        session_fn = traced_session if args.trace else untraced_session
        use_reference = args.seed == workloads.DEFAULT_SEED and not args.record_reference
        reference = checker.load_reference().get(args.workload, {}) if use_reference else None

        runner.spawn([], trace=False)  # warm-up: byte-compile and cache the package
        sessions, problems = [], []
        first = None
        # a session is started only if it is expected to end by half its length
        # past --seconds, so a run measures --seconds give or take half a session
        measuring, took = time.monotonic(), 0.0
        while not sessions or time.monotonic() - measuring + took / 2 < args.seconds:
            began = time.monotonic()
            for inv in invocations:  # a report not rewritten must not pass as identical
                (work / inv.output).unlink(missing_ok=True)
            session = session_fn(runner, invocations)
            found = check_session(session, invocations, work, first, reference)
            if first is None:
                first = session["checked"]
            session["problems"] = found
            problems.extend(p for per_inv in found for p in per_inv)
            sessions.append(session)
            took = time.monotonic() - began
            if time.monotonic() + 1.5 * took > started + RUN_LIMIT_S - 5.0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(s["codes"]) for s in sessions)
    failed = sum(1 for s in sessions for per_inv in s["problems"] if per_inv)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    summary = []
    for name, unit in units.items():
        values = [s["metrics"][name] for s in sessions]
        value = statistics.median(values)
        if name in COUNTERS:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"counter {name} differs between sessions: {values}")
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": value, "unit": unit}
        summary.append((name, value, unit, q1, q3))

    if args.record_reference and not problems:
        stored = checker.load_reference()
        stored[args.workload] = sessions[0]["values"]
        checker.REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")

    prov = provenance(root, args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "sessions": len(sessions),
        "provenance": prov,
        "metrics": metrics,
        "per_session": [s["metrics"] for s in sessions],
        "problems": problems,
    }
    results = root / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {len(sessions)} sessions "
          f"of {len(invocations)} invocations, trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{'metric':32s} {'median':>14s} {'unit':6s} {'q1':>14s} {'q3':>14s}  (n={len(sessions)})")
    for name, value, unit, q1, q3 in summary:
        print(f"{name:32s} {value:14.6g} {unit:6s} {q1:14.6g} {q3:14.6g}")
    if args.trace:
        split = " + ".join(f"{layer} {metrics[layer + '.self_s']['value']:.3f}" for layer in LAYERS)
        print(f"traced wall {metrics['trace.wall_s']['value']:.3f} s = startup "
              f"{metrics['trace.startup_s']['value']:.3f} + {split} + other "
              f"{metrics['trace.other_s']['value']:.3f}")
    checked = "reference values and invariants" if reference is not None else "invariants"
    print(f"checker ({checked}): {attempted - failed}/{attempted} invocations passed, "
          f"error rate {failed / attempted:.4g}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
