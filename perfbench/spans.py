"""In-memory span tracing around the package's public functions.

`Tracer.install` replaces each traced function at every name a caller
looks it up by: the defining module, every other `conecover` module that
imported it, and the package namespace.  Nothing inside the package
changes; the spans sit at the boundaries between its modules.

A span is (name, start, end, parent index, op id, note).  Spans are kept
in memory while the run lasts and written out once at the end.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from types import ModuleType

# span name -> (defining module, function name).  The note extractor keeps
# the one fact about a result that a per-layer ratio needs.
TRACED = {
    "angles.decide": ("angles", "decide_admissible"),
    "angles.lattice": ("angles", "l1_distance_to_odd_lattice"),
    "angles.coaxial": ("angles", "coaxial_check"),
    "lift.search": ("lift", "search_certificate"),
    "lift.lift_angles": ("lift", "lift_angles"),
    "lift.verify": ("lift", "verify_certificate"),
    "monodromy.find_witness": ("monodromy", "find_witness"),
    "monodromy.verify_witness": ("monodromy", "verify_witness"),
    "branch_data.validate": ("branch_data", "validate_datum"),
    "branch_data.enumerate": ("branch_data", "enumerate_data"),
}
TRACED_METHODS = {
    "families.certificate": ("families", "FamilyInstance", "certificate"),
}
NOTES = {
    "angles.decide": lambda verdict: verdict.case,
    "angles.coaxial": lambda witness: witness is not None,
    "lift.search": lambda cert: cert is not None,
    "monodromy.find_witness": lambda result: (result.status, result.nodes),
}
GENERATORS = {"branch_data.enumerate"}


class Tracer:
    """Spans as parallel lists of plain numbers and strings.

    Keeping no container object per span keeps the garbage collector from
    rescanning every span recorded so far, which would dominate the cost
    of tracing a run of a few hundred thousand calls.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.notes: list = []
        self._stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.notes.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int, note=None) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        if note is not None:
            self.notes[idx] = note

    def _wrap(self, name: str, fn):
        note_of = NOTES.get(name)
        tracer = self

        if name in GENERATORS:
            def traced_gen(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            tracer.end(idx, note_of(result) if note_of else None)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap every traced function at every module attribute bound to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for name, (home, attr) in TRACED.items():
            original = getattr(sys.modules[f"{package.__name__}.{home}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, (home, cls_name, attr) in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"{package.__name__}.{home}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        durations = self.durations()
        own = list(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= duration
        return own

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op, self time, note."""
        columns = zip(self.names, self.starts, self.ends, self.parents, self.ops,
                      self.self_times(), self.notes)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, own, note in columns:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, op,
                                     round(own, 9), note]))
                fh.write("\n")
