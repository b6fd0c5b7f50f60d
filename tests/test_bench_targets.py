"""The traced benchmark run (perfbench/tracing.py) wraps petrocheck functions
by module and attribute name; a rename or a removed import must fail here,
not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"petrocheck.{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(f"petrocheck.{module}"), attr)]
    assert missing == []
