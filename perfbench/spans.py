"""Outside-in span recorder for the traced benchmark run.

Each public function listed in LAYERS is replaced, under every name it is
bound to in a loaded ``qbattery`` module, by a wrapper that records one span
(name, start, end, parent) per call.  Spans stay in memory and are written
out when the run ends.  Each thread keeps its own span stack; a span opened
on an otherwise idle worker thread takes as parent the innermost span open
on the thread that installed the recorder, which is the scan function that
submitted the work.

A span's self time is its duration minus the union of the intervals its
child spans cover, so overlapping children on two worker threads are not
subtracted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (metric prefix, module, attribute path).  A path with a dot names a method
# on a class; "Class.__init__" is reported under the class name.
LAYERS = (
    ("basis.build_composite_basis", "basis", "build_composite_basis"),
    ("integrals.contact_tensor", "integrals", "contact_tensor"),
    ("hamiltonian.build_hamiltonian_set", "hamiltonian", "build_hamiltonian_set"),
    ("hamiltonian.assemble_H0", "hamiltonian", "assemble_H0"),
    ("hamiltonian.assemble_Hint", "hamiltonian", "assemble_Hint"),
    ("hamiltonian.assemble_battery_only", "hamiltonian", "assemble_battery_only"),
    ("dynamics.QuenchSimulation", "dynamics", "QuenchSimulation.__init__"),
    ("dynamics.SpectralDecomposition.from_matrix", "dynamics",
     "SpectralDecomposition.from_matrix"),
    ("dynamics.states_at", "dynamics", "QuenchSimulation.states_at"),
    ("dynamics.work_series", "dynamics", "QuenchSimulation.work_series"),
    ("dynamics.observables_at", "dynamics", "QuenchSimulation.observables_at"),
    ("dynamics.series", "dynamics", "QuenchSimulation.series"),
    ("dynamics.expectation", "dynamics", "expectation"),
    ("thermo.partial_trace_charger", "thermo", "partial_trace_charger"),
    ("thermo.ergotropy", "thermo", "ergotropy"),
    ("thermo.von_neumann_entropy", "thermo", "von_neumann_entropy"),
    ("thermo.find_t_max", "thermo", "find_t_max"),
    ("thermo.golden_section_max", "thermo", "golden_section_max"),
    ("krylov.ProductSpaceOperator", "krylov", "ProductSpaceOperator.__init__"),
    ("krylov.matvec", "krylov", "ProductSpaceOperator.matvec"),
    ("krylov.spectral_bounds", "krylov", "spectral_bounds"),
    ("krylov.chebyshev_evolve", "krylov", "chebyshev_evolve"),
    ("tlm.resonance_solve", "tlm", "resonance_solve"),
    ("experiments.find_resonance_peaks", "experiments", "find_resonance_peaks"),
    ("experiments.power_scan", "experiments", "power_scan"),
    ("experiments.convergence_check", "experiments", "convergence_check"),
    ("experiments.write_csv", "experiments", "write_csv"),
    ("cli.main", "cli", "main"),
)

SIMS_PER_PEAK = "experiments.sims_per_peak"
TRACED_WALL = "traced.wall_s"


def metric_names():
    """Every per-layer metric the traced run reports, in LAYERS order."""
    names = []
    for prefix, _, _ in LAYERS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
    return names + [SIMS_PER_PEAK, TRACED_WALL]


class SpanRecorder:
    """Records spans of wrapped calls while ``enabled`` is true."""

    def __init__(self):
        self.spans = []          # [name, thread id, start, end, parent index]
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._home and self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, threading.get_ident(),
                               time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def install(self):
        """Wrap every LAYERS entry under each name it is bound to."""
        missing = []
        for name, module_name, path in LAYERS:
            module = sys.modules.get(f"qbattery.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            elif owner_name:
                setattr(owner, attr, self.wrap(name, raw))
            else:
                wrapped = self.wrap(name, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "qbattery" and \
                            not mod_name.startswith("qbattery."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
        return missing

    def _children(self):
        kids = {}
        for index, span in enumerate(self.spans):
            if span[4] is not None:
                kids.setdefault(span[4], []).append(index)
        return kids

    def self_times(self):
        """Self time of every span, in span order."""
        kids = self._children()
        out = []
        for index, (_, _, start, end, _) in enumerate(self.spans):
            intervals = sorted((max(self.spans[k][2], start),
                                min(self.spans[k][3], end))
                               for k in kids.get(index, ()))
            covered, reach = 0.0, start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def count_under(self, name, ancestor):
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[4]
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][4]
        return total

    def metrics(self, peaks_reported, wall_s):
        """Per-layer metrics: calls and self time per layer, sims per peak."""
        out = {key: 0.0 for key in metric_names()}
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        sims = self.count_under("dynamics.QuenchSimulation",
                                "experiments.find_resonance_peaks")
        out[SIMS_PER_PEAK] = sims / peaks_reported if peaks_reported else 0.0
        out[TRACED_WALL] = wall_s
        return out

    def write(self, path):
        """Spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        threads = {}
        with open(path, "w") as fh:
            for index, (name, tid, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "thread": threads.setdefault(tid, len(threads)),
                    "start_s": start - origin, "end_s": end - origin}) + "\n")
        return path
