"""The benchmark's tracer wraps qconn functions by the names their callers
look up; a rename would silently zero the benchmark's per-layer metrics."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    # compiled from its text, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_site_exists():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert tracer.found
    finally:
        tracer.uninstall()
