"""Run runkey CLI invocations in this process and record their timings.

Usage: python3 child.py PLAN.json

PLAN.json holds ``{"argv": [[...], ...], "trace": bool, "result": path}``.
Each argv is passed to ``runkey.cli.main`` in order, exactly as the console
script would, and what it prints is kept per invocation.  Untraced, only
``load_model`` records spans, so the model-reading part of set-up can be
separated from computing; traced, every layer boundary does (see tracer.py).
Timings use ``time.monotonic``, which on Linux is the system-wide clock the
parent process also reads.
"""

import contextlib
import io
import json
import sys
import time
import traceback

from tracer import Tracer


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    import runkey.cli as cli

    imported = time.monotonic()
    tracer = Tracer()
    if plan["trace"]:
        tracer.install()
        run = tracer.wrap(cli.main, "cli.main")
    else:
        tracer.patch(cli, "load_model", "sources.load")
        run = cli.main

    codes, stdouts, stderrs = [], [], []
    for argv in plan["argv"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                codes.append(int(run(argv)))
            except Exception:  # a traceback is a failed invocation, keep going
                traceback.print_exc()
                codes.append(1)
        stdouts.append(out.getvalue())
        stderrs.append(err.getvalue())

    result = {"imported": imported, "codes": codes, "stdouts": stdouts,
              "stderrs": stderrs, "spans": tracer.spans}
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
