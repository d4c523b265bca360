import inspect

import runkey

REMOVED_KNOBS = {"cap", "state_cap", "workers", "tol", "max_iter"}


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
