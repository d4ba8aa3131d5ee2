"""Span tracing of magiclab's public functions, from outside the package.

`Tracer.install` replaces every public module-level function of the eight
layers with a wrapper that records one span (name, start, end, parent) per
call. The wrapper is bound in every namespace that holds the original:
the defining module, each module that imported it with a top-level
``from .x import y`` (``experiments.wigner_batch``,
``stabilizer.validate_density_matrix``, ...), the package namespace and
module-level dicts such as ``channels.AUDIT_SUITES``. Private helpers are
not wrapped; their time is self time of the public caller.

Spans live in compact in-memory arrays and are written out once, at the
end of the run. A few functions also have a probe that reads their
arguments or result (batch sizes, solver iteration counts, CSV sizes), so
ratios are measured where the work happens.
"""

import importlib
import types
from array import array
from functools import update_wrapper
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "phasespace", "stabilizer", "monotones", "channels",
          "experiments", "stateio", "cli")

AUDITS = (("result1", "result1_audit"), ("lp", "lp_monotonicity_audit"),
          ("selective", "selective_audit"), ("gso", "gso_audit"))
STAGES = (("sweep", "noise_sweep"), ("scatter_coherence", "coherence_magic_scatter"),
          ("scatter_entanglement", "entanglement_magic_scatter"), ("csv_write", "write_csv"))

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("stabilizer.batch_us_per_state.stab", "us", "lower"),
        ("stabilizer.batch_us_per_state.basis", "us", "lower"),
        ("stabilizer.sweeps_p50", "count", "lower"),
        ("stabilizer.sweeps_p99", "count", "lower"),
        ("stabilizer.sweeps_max", "count", "lower"),
        ("stabilizer.basis_sweeps_p50", "count", "lower"),
        ("stabilizer.basis_sweeps_p99", "count", "lower"),
        ("stabilizer.basis_sweeps_max", "count", "lower"),
        ("stabilizer.converged_frac", "fraction", "higher"),
        ("stabilizer.scalar_ms_per_call", "ms", "lower"),
        ("stabilizer.enumerate_calls", "count", "lower"),
        ("phasespace.wigner_batch_ns_per_state", "ns", "lower"),
        ("phasespace.wigner_us_per_call", "us", "lower"),
        ("monotones.cw_ms_per_call", "ms", "lower"),
        ("monotones.cw_iterations_p50", "count", "lower"),
        ("channels.sample_apply_us_per_trial", "us", "lower"),
    ]
    + [(f"channels.audit_s.{audit}", "s", "lower") for audit, _ in AUDITS]
    + [
        ("channels.classify_s_per_call", "s", "lower"),
        ("experiments.csv_rows_per_s", "1/s", "higher"),
        ("experiments.csv_bytes", "bytes", "lower"),
        ("experiments.sample_states_per_s", "1/s", "higher"),
    ]
    + [(f"experiments.stage_s.{stage}", "s", "lower") for stage, _ in STAGES]
    + [
        ("linalg.validate_calls", "count", "lower"),
        ("linalg.validate_us_per_call", "us", "lower"),
        ("stateio.loads_us_per_state", "us", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans_per_round", "count", "lower"),
    ]
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe_solver(tracer, args, kwargs, result, seconds):
    rhos = np.asarray(_arg(args, kwargs, 0, "rhos"))
    n_vertices = len(_arg(args, kwargs, 1, "vertices"))
    _, _, iterations, converged = result
    key = "basis" if n_vertices == rhos.shape[-1] else "stab"
    tracer.samples[f"solve_{key}"].append((len(rhos), seconds, iterations, converged))


def _probe_cw(tracer, args, kwargs, result, seconds):
    iterations = getattr(result, "iterations", None)  # only full=True returns them
    if iterations is not None:
        tracer.samples["cw_iterations"].append(iterations)


def _probe_states(key):
    """Records (states in the returned stack, seconds)."""
    def probe(tracer, args, kwargs, result, seconds):
        tracer.samples[key].append((len(result), seconds))
    return probe


def _probe_csv(tracer, args, kwargs, result, seconds):
    tracer.samples["csv"].append((len(_arg(args, kwargs, 1, "rows")), len(result), seconds))


PROBES = {
    "stabilizer.polytope_distance_batch": _probe_solver,
    "monotones.cw_coherence": _probe_cw,
    "phasespace.wigner_batch": _probe_states("wigner_batch"),
    "experiments.haar_pure_batch": _probe_states("sampled"),
    "experiments.ginibre_dm_batch": _probe_states("sampled"),
    "experiments.csv_text": _probe_csv,
}


class Tracer:
    """Wraps magiclab's public functions and records a span per call."""

    def __init__(self):
        self.names = []                 # span name table, indexed by kind
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.samples = {key: [] for key in ("solve_stab", "solve_basis", "cw_iterations",
                                            "wigner_batch", "sampled", "csv")}
        self._stack = [-1]
        self._wrapped = None            # id(original) -> (original, wrapper)
        self._restore = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        probe = PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result, end[idx] - start[idx])
            return result

        return update_wrapper(traced, fn)

    def install(self, package):
        """Bind a traced wrapper of each public layer function in every namespace."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        if self._wrapped is None:
            self._wrapped = {}
            for layer, module in zip(LAYERS, modules[1:]):
                for attr, obj in vars(module).items():
                    if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                            and obj.__module__ == module.__name__):
                        self._wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        wrapped = self._wrapped
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, attr, wrapped[id(obj)][1])
                    self._restore.append((setattr, module, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and wrapped[id(val)][0] is val:
                            obj[key] = wrapped[id(val)][1]
                            self._restore.append((dict.__setitem__, obj, key, val))

    def uninstall(self):
        for setter, target, key, original in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()

    def save(self, path):
        np.savez(path, names=np.array(self.names), kind=np.frombuffer(self.kind, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def metrics(self, rounds, overhead_s):
        """Per-layer metrics; totals are per round, 0 where a layer did no such work."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n_names = len(self.names)
        calls = np.bincount(kind, minlength=n_names)
        inclusive = np.bincount(kind, weights=dur, minlength=n_names)
        index = {name: i for i, name in enumerate(self.names)}

        def n_calls(name):
            return int(calls[index[name]])

        def incl(name):
            return float(inclusive[index[name]])

        def per_call(name, scale):
            return incl(name) / n_calls(name) * scale if n_calls(name) else 0.0

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        m = {}
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names], dtype=int)
        span_layer = layer_of[kind] if len(kind) else np.zeros(0, dtype=int)
        for li, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = float(self_time[span_layer == li].sum()) / rounds
        for li, layer in enumerate(LAYERS):
            m[f"{layer}.calls"] = float(np.sum(span_layer == li)) / rounds

        solves = {key: self.samples[f"solve_{key}"] for key in ("stab", "basis")}
        for key, rows in solves.items():
            states = sum(r[0] for r in rows)
            m[f"stabilizer.batch_us_per_state.{key}"] = (
                sum(r[1] for r in rows) / states * 1e6 if states else 0.0)
        sweeps = {key: np.concatenate([r[2] for r in rows]) if rows else np.zeros(0)
                  for key, rows in solves.items()}
        for prefix, key in (("sweeps", "stab"), ("basis_sweeps", "basis")):
            m[f"stabilizer.{prefix}_p50"] = pct(sweeps[key], 50)
            m[f"stabilizer.{prefix}_p99"] = pct(sweeps[key], 99)
            m[f"stabilizer.{prefix}_max"] = float(sweeps[key].max()) if len(sweeps[key]) else 0.0
        converged = [r[3] for rows in solves.values() for r in rows]
        m["stabilizer.converged_frac"] = (
            float(np.concatenate(converged).mean()) if converged else 0.0)
        m["stabilizer.scalar_ms_per_call"] = per_call("stabilizer.polytope_distance", 1e3)
        m["stabilizer.enumerate_calls"] = n_calls("stabilizer.stabilizer_pure_states") / rounds

        grids = self.samples["wigner_batch"]
        n_grids = sum(n for n, _ in grids)
        m["phasespace.wigner_batch_ns_per_state"] = (
            sum(s for _, s in grids) / n_grids * 1e9 if n_grids else 0.0)
        m["phasespace.wigner_us_per_call"] = per_call("phasespace.wigner", 1e6)

        m["monotones.cw_ms_per_call"] = per_call("monotones.cw_coherence", 1e3)
        m["monotones.cw_iterations_p50"] = pct(self.samples["cw_iterations"], 50)

        m["channels.sample_apply_us_per_trial"] = (
            per_call("channels.sample_incoherent_channel", 1e6) + per_call("channels.apply", 1e6)
            if n_calls("channels.sample_incoherent_channel") else 0.0)
        for audit, fn in AUDITS:
            m[f"channels.audit_s.{audit}"] = incl(f"channels.{fn}") / rounds
        m["channels.classify_s_per_call"] = per_call("channels.classify", 1.0)

        csv = self.samples["csv"]
        csv_seconds = sum(r[2] for r in csv)
        m["experiments.csv_rows_per_s"] = sum(r[0] for r in csv) / csv_seconds if csv_seconds else 0.0
        m["experiments.csv_bytes"] = sum(r[1] for r in csv) / rounds
        sampled = self.samples["sampled"]
        sample_seconds = sum(s for _, s in sampled)
        m["experiments.sample_states_per_s"] = (
            sum(n for n, _ in sampled) / sample_seconds if sample_seconds else 0.0)
        for stage, fn in STAGES:
            m[f"experiments.stage_s.{stage}"] = incl(f"experiments.{fn}") / rounds

        m["linalg.validate_calls"] = n_calls("linalg.validate_density_matrix") / rounds
        m["linalg.validate_us_per_call"] = per_call("linalg.validate_density_matrix", 1e6)
        m["stateio.loads_us_per_state"] = per_call("stateio.loads_state", 1e6)
        m["trace.overhead_s"] = overhead_s
        m["trace.spans_per_round"] = len(kind) / rounds
        return m
