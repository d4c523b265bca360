import inspect
import os
import subprocess
import sys
from pathlib import Path

import runkey

REMOVED_KNOBS = {"cap", "state_cap", "workers", "tol", "max_iter", "stationary", "initial",
                 "decoder", "member_cap"}


def _public_callables():
    for name in runkey.__all__:
        obj = getattr(runkey, name)
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_removed_knob():
    checked = 0
    for name, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked += 1
        assert not REMOVED_KNOBS & set(params), name
    assert checked > 40


def test_import_loads_no_scipy():
    src = str(Path(runkey.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, runkey; print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert probe.stdout.split() == []
