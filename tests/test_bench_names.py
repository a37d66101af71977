"""The benchmark's tracer finds lqrig functions by name and reports 0 for a
name it cannot find, so a rename must fail here rather than read as a gain."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, qualname in spans.TRACED:
        obj = importlib.import_module(f"lqrig.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert missing == []
