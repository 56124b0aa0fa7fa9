"""Spans and counts recorded from outside the program.

`Tracer.install` wraps hardysim functions at the name each caller looks up
(a module attribute or a class attribute), so the program itself is not
edited. Spans are kept in memory as flat arrays and written out once, at
the end of a run. A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns


def _scenario_span(cfg):
    """Span name for one run_scenario call, by backend and p."""
    if "float" in str(getattr(cfg, "backend", "")).lower():
        return "hardy.run_scenario_float"
    if cfg.reaction_prob in (0, 1):
        return "hardy.run_scenario_exact_endpoint"
    return "hardy.run_scenario_exact_interior"


def _live_kets(result):
    """Live entries after the annihilation step, for project_knowledge
    (returns (state, survival)) and apply_channel (returns a density matrix)."""
    obj = result[0] if isinstance(result, tuple) else result
    return len(getattr(obj, "amps", None) or getattr(obj, "entries", {}))


# (kind, span or counter name, module, attribute path[, probe]).
# "span" records a span; "count" counts calls; "ket_map" wraps a factory so
# that every call of the ket map it returns is counted.
SITES = [
    ("span", "state.sv_apply_ket_map", "hardysim.state", "StateVector.apply_ket_map"),
    ("span", "state.dm_apply_ket_map", "hardysim.state", "DensityMatrix.apply_ket_map"),
    ("span", "state.pure_to_density", "hardysim.hardy", "pure_to_density"),
    ("span", "state.pure_to_density", "hardysim.state", "pure_to_density"),
    ("span", "state.probability", "hardysim.state", "StateVector.probability"),
    ("span", "state.probability", "hardysim.state", "DensityMatrix.diagonal_probability"),
    ("span", "optics.bs1", "hardysim.optics", "apply_bs1_pair"),
    ("span", "optics.bs2", "hardysim.hardy", "_bs2_stage"),
    ("span", "measurement.project_knowledge", "hardysim.measurement",
     "project_knowledge", _live_kets),
    ("span", "measurement.channel_build", "hardysim.measurement", "annihilation_channel"),
    ("span", "measurement.apply_channel", "hardysim.measurement", "apply_channel",
     _live_kets),
    ("span", _scenario_span, "hardysim.hardy", "run_scenario"),
    ("span", "hardy.full_table", "hardysim.hardy", "full_table"),
    ("span", "lhv.quantum_constraints", "hardysim.lhv", "quantum_constraints"),
    ("span", "lhv.audit", "hardysim.lhv", "audit"),
    ("span", "bosonic.hom", "hardysim.bosonic", "hom_coincidence_probability"),
    ("span", "cli.export", "hardysim.cli", "_write_csv"),
    ("span", "cli.export", "hardysim.cli", "_write_json"),
    ("count", "amplitude.exact_mul", "hardysim.amplitude", "ExactScalar.__mul__"),
    ("count", "amplitude.exact_mul", "hardysim.amplitude", "ExactScalar.__rmul__"),
    ("ket_map", "state.ket_map_call", "hardysim.optics", "bs_ket_map"),
    ("ket_map", "state.ket_map_call", "hardysim.optics", "relabel_ket_map"),
    ("ket_map", "state.ket_map_call", "hardysim.measurement", "AnnihilationChannel.pass_map"),
    ("ket_map", "state.ket_map_call", "hardysim.measurement", "AnnihilationChannel.absorb_map"),
]


def _resolve(module_name, path):
    """(owner, attribute name, current value), or None if it does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else \
        getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Tracer:
    """In-memory spans, call counts and probe samples, grouped by operation."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("q")
        self.span_t0 = array("q")
        self.span_t1 = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack = []
        self.counts = {}
        self.op_counts = []      # per operation: {counter: calls}
        self.samples = []        # (name, op, value)
        self.op_suite = []       # per operation: suite name
        self.op = -1
        self._before = {}
        self.patches = []
        self.absent = []

    def name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, name, fn, probe):
        fixed = None if callable(name) else self.name_id(name)
        names, t0s, t1s = self.span_name, self.span_t0, self.span_t1
        parents, ops, stack = self.span_parent, self.span_op, self._stack

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            names.append(fixed if fixed is not None else self.name_id(name(*args)))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            t1s.append(0)
            stack.append(idx)
            t0s.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                self.samples.append((name + ".live_entries", self.op, probe(result)))
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _ket_map_wrapper(self, name, factory):
        count = self._count_wrapper

        def wrapper(*args, **kwargs):
            return count(name, factory(*args, **kwargs))
        return wrapper

    def install(self, sites=SITES):
        for kind, name, module, path, *probe in sites:
            found = _resolve(module, path)
            if found is None:
                if f"{module}.{path}" not in self.absent:
                    self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            if kind == "span":
                wrapper = self._span_wrapper(name, fn, probe[0] if probe else None)
            elif kind == "count":
                wrapper = self._count_wrapper(name, fn)
            else:
                self.counts.setdefault(name, 0)
                wrapper = self._ket_map_wrapper(name, fn)
            self.patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self.patches):
            setattr(owner, attr, fn)
        self.patches = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, suite):
        self.op = len(self.op_suite)
        self.op_suite.append(suite)
        self._before = dict(self.counts)

    def end_op(self):
        self.op_counts.append({k: v - self._before.get(k, 0)
                               for k, v in self.counts.items()})

    def add_sample(self, name, value):
        self.samples.append((name, self.op, value))

    def merge(self, child):
        """Fold a child process's dump into the current operation."""
        ids = [self.name_id(n) for n in child["names"]]
        base = len(self.span_t0)
        for n, t0, t1, parent in zip(child["span_name"], child["span_t0"],
                                     child["span_t1"], child["span_parent"]):
            self.span_name.append(ids[n])
            self.span_t0.append(t0)
            self.span_t1.append(t1)
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_op.append(self.op)
        for name, value in child["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        for name, _, value in child["samples"]:
            self.samples.append((name, self.op, value))
        self.absent = sorted(set(self.absent) | set(child["absent"]))

    def dump(self, path, extra=None):
        payload = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_t0": self.span_t0.tolist(),
            "span_t1": self.span_t1.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_op": self.span_op.tolist(),
            "counts": self.counts,
            "op_counts": self.op_counts,
            "op_suite": self.op_suite,
            "samples": self.samples,
            "absent": self.absent,
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    # -- analysis -----------------------------------------------------------

    def span_table(self):
        """Per span: (name, op, duration ns, self ns, parent index)."""
        n = len(self.span_t0)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        return [(self.names[self.span_name[i]], self.span_op[i], dur[i],
                 dur[i] - child[i], self.span_parent[i]) for i in range(n)]
