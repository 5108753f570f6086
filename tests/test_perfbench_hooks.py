"""The bench tracer finds every name it rebinds in the package.

``perfbench/tracer.py`` rebinds package names by their string names, so
a renamed or removed hook would only show as a ``traced name … not
found`` line of a traced bench run; this test catches it in the fast
suite.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook():
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        assert tracer.restore()
