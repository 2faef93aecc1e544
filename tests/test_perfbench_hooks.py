"""The traced benchmark wraps program functions by name from outside the
program; these checks fail here, not at the tracer's install time, when a
wrapped name goes away."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_wrapped_names_resolve():
    for mod_name, attr, _span in _spans().WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_strip_crossing_entry_is_second_positional():
    from slidekick.slow_manifold import strip_crossing

    # the tracer reads the entry abscissa as args[1]
    params = list(inspect.signature(strip_crossing).parameters.values())
    assert [p.name for p in params[:2]] == ["R", "x_enter"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:2])
