"""Every name the benchmark harness in `perfbench/` calls still exists.

A name removed from the package would otherwise show up only as a failed
benchmark run.  The harness files are read, never changed.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import conecover

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_targets_resolve():
    spans = _load_spans()
    targets = [(home, [attr]) for home, attr in spans.TRACED.values()]
    targets += [(home, [cls, attr]) for home, cls, attr in spans.TRACED_METHODS.values()]
    for home, path in targets:
        obj = importlib.import_module(f"conecover.{home}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), (home, path)

    names = set()
    for script in ("workloads.py", "warm.py"):
        names |= set(re.findall(r"\bcc\.(\w+)", (PERFBENCH / script).read_text()))
    assert names
    missing = sorted(name for name in names if not hasattr(conecover, name))
    assert missing == []
