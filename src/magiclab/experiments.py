"""Seeded batch experiments emitting CSV: noise sweeps, conjecture scatters,
and the channel audits, plus the run-everything aggregator, which runs its
stages on a pool of forked worker processes.

Reproducibility contract: every experiment derives its generator as
``default_rng((seed + offset) % 2**64)`` with a fixed per-experiment offset,
so runs are independently repeatable and two runs with the same master seed
produce byte-identical CSV text.

CSV dialect: comma separator, '.' decimal point, 17 significant digits, one
header line, '#'-prefixed summary trailer lines.

Every stage, each experiment and each audit of run_all, returns one
:class:`StageRecord`: its (name, passed, detail) checks, judged once against
the config it ran on, its CSV file name, and the arguments of
:func:`csv_text`, the one writer of every CSV. Records hold column arrays,
not row lists: a sweep is one (n, 9) table under the label None, a scatter
one (n, k) block per sample kind, and an audit one row of audits.csv.
"""

import atexit
import dataclasses
import os
from dataclasses import dataclass
from functools import partial
from time import perf_counter

import numpy as np

from . import channels
from .linalg import (dm_from_pure, ginibre_dm_batch, ginibre_dm_chunks, haar_pure_batch,
                     maximally_coherent_state, maximally_mixed, norrell_state,
                     partial_trace, strange_state)
from .monotones import l1_coherence_batch, negativity_batch, sum_negativity_grid
from .phasespace import wigner_batch

STREAM_OFFSETS = {
    "scatter_coherence": 101,
    "scatter_entanglement": 202,
    "audit_result1": 303,
    "audit_lp": 404,
    "audit_selective": 505,
    "audit_gso": 606,
    "cw_contractivity": 707,
}


def derived_rng(seed, experiment):
    return np.random.default_rng((int(seed) + STREAM_OFFSETS[experiment]) % 2 ** 64)


MAX_GRID_POINTS = 10**6  # the sweep grid's largest size


@dataclass
class ExperimentConfig:
    """Knobs for the experiment runner; flat key=value files map onto fields."""
    seed: int = 42
    samples: int = 100_000
    p_step: float = 0.01
    outdir: str = "results"
    result1_trials: int = 10_000
    lp_trials: int = 1_000
    selective_trials: int = 1_000
    gso_trials: int = 10_000
    tolerance = 1e-9        # the sweep's and scatters' check slack; unannotated, so not a field

    def __post_init__(self):
        if not 0.0 < self.p_step < np.inf:
            raise ValueError(f"p_step must be positive and finite, got {self.p_step}")
        if self._grid_size() > MAX_GRID_POINTS:  # inf for a subnormal step
            raise ValueError(f"p_step={self.p_step} gives a sweep grid of more than {MAX_GRID_POINTS} points")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for suite in channels.AUDIT_SUITES:
            if getattr(self, f"{suite}_trials") < 1:
                raise ValueError(f"{suite}_trials must be >= 1")

    def _grid_size(self):
        return np.floor(1.0 / self.p_step + 1e-9) + 1  # from 0 up to 1, never past it

    def p_grid(self):
        return self.p_step * np.arange(int(self._grid_size()))

    @classmethod
    def from_file(cls, path=None, **overrides):
        """Config from a key=value file (none when `path` is None), then the
        overrides that are not None."""
        kwargs = {}
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        with open(os.devnull if path is None else path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, raw = line.partition("=")
                if not sep:
                    raise ValueError(f"{path} line {lineno}: expected key=value, got {line!r}")
                key, raw = key.strip(), raw.strip()
                if key not in fields:
                    raise ValueError(f"unknown config key: {key}")
                try:
                    kwargs[key] = fields[key](raw)
                except ValueError:
                    raise ValueError(f"config key {key} needs {fields[key].__name__}, got {raw!r}") from None
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**kwargs)


def _fmt(x):
    return format(float(x), ".17g")


def csv_text(header, blocks, trailer):
    """CSV text in one pass. `blocks` is a sequence of (label, values) pairs:
    each row of the (n, k) array `values` becomes one line, led by the label
    cell unless the label is None. One '%' format line per block formats the
    whole block at once; '%.17g' gives the same bytes as _fmt."""
    parts = [",".join(header) + "\n"]
    for label, values in blocks:
        values = np.asarray(values, dtype=float)
        cells = ["%.17g"] * values.shape[1]
        if label is not None:
            cells.insert(0, label.replace("%", "%%"))
        parts.append(((",".join(cells) + "\n") * len(values)) % tuple(values.ravel().tolist()))
    parts.extend(f"# {key}={_fmt(val)}\n" for key, val in trailer)
    return "".join(parts)


def write_csv(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


@dataclass(frozen=True)
class RunReport:
    checks: list            # (name, passed, detail) triples

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        for name, ok, detail in self.checks:
            yield f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        yield f"overall={'PASS' if self.passed else 'FAIL'}"


@dataclass(frozen=True)
class StageRecord(RunReport):
    """One stage's checks, judged when it was built, with its CSV: the file
    name and the arguments of csv_text. Each trailer value is also set once as
    an attribute, as in `coherence_magic_scatter(cfg).min_slack_pure`."""
    csv_name: str
    header: tuple
    blocks: dict            # label -> (n, k) array of the columns after the label
    trailer: dict           # '#' line key -> value

    def __post_init__(self):
        for key, value in self.trailer.items():
            object.__setattr__(self, key, value)

    def csv(self):
        return csv_text(self.header, self.blocks.items(), self.trailer.items())


# ---------------------------------------------------------------------------
# noise sweep
# ---------------------------------------------------------------------------

# The sweep's four curves: (state, noise, reference sum negativity up to the
# kink, reference after it, kink p). The Norrell state under coherent noise
# follows one line over the whole grid.
SWEEP_CURVES = (
    ("strange", "white", lambda p: (2 / 9) * (3 - 4 * p), np.zeros_like, 0.75),
    ("norrell", "white", lambda p: (2 / 9) * (3 - 5 * p), np.zeros_like, 0.6),
    ("strange", "coherent", lambda p: (2 / 9) * (3 - 2 * p), lambda p: (1 / 9) * (3 + p), 0.6),
    ("norrell", "coherent", lambda p: (2 / 9) * (3 - p), None, None),
)
SWEEP_HEADER = ("p", *(f"{col}_{state}_{noise}" for col in ("msn", "ref")
                       for state, noise, *_ in SWEEP_CURVES))


def _detect_kink(p, measured, branch1, branch2):
    """Grid point nearest the kink. The better-fitting branch switches after
    the last grid point i at which branch1's residual does not exceed
    branch2's, a tie within 1e-12 (a kink on a grid point) going to branch1.
    Across the cell from i to i + 1 the measured curve leaves point i along
    branch1's slope and reaches point i + 1 along branch2's; the two lines
    cross at the fraction t = (rise - rise2) / (rise1 - rise2) of the cell,
    with each rise taken over the cell, and t rounds to the nearer end."""
    better1 = np.abs(measured - branch1) <= np.abs(measured - branch2) + 1e-12
    if not better1.any() or better1.all():
        return None
    i = np.max(np.nonzero(better1)[0])
    rise, rise1, rise2 = (y[i + 1] - y[i] for y in (measured, branch1, branch2))
    return float(p[i + 1] if (rise - rise2) / (rise1 - rise2) > 0.5 else p[i])


def noise_sweep(cfg):
    """Sum negativity of noisy strange/Norrell states on the p grid, with the
    four piecewise reference curves and detected kink locations."""
    p = cfg.p_grid()
    states = {"strange": dm_from_pure(strange_state()), "norrell": dm_from_pure(norrell_state())}
    noises = {"white": maximally_mixed(3), "coherent": dm_from_pure(maximally_coherent_state())}

    measured, refs, kinks = [], [], {}
    for state, noise, before, after, kink in SWEEP_CURVES:
        rhos = (1 - p)[:, None, None] * states[state] + p[:, None, None] * noises[noise]
        measured.append(sum_negativity_grid(wigner_batch(rhos, 3)))
        if kink is None:
            refs.append(before(p))
        else:
            refs.append(np.where(p <= kink, before(p), after(p)))
            found = _detect_kink(p, measured[-1], before(p), after(p))
            if found is not None:
                kinks[f"{state}_{noise}"] = found
    max_resid = max(float(np.max(np.abs(m - r))) for m, r in zip(measured, refs))
    # every reference kink is found within half a grid step
    kinks_ok = all(abs(kinks.get(f"{state}_{noise}", np.inf) - kink) <= cfg.p_step / 2 + 1e-12
                   for state, noise, *_, kink in SWEEP_CURVES if kink is not None)
    return StageRecord(
        checks=[("sweep_residual", max_resid < cfg.tolerance,
                 f"max_abs_residual={max_resid:.3e} tol={cfg.tolerance:g}"),
                ("sweep_kinks", kinks_ok, f"detected={kinks}")],
        csv_name="sweep.csv", header=SWEEP_HEADER,
        blocks={None: np.column_stack((p, *measured, *refs))},
        trailer={"max_abs_residual": max_resid, **{f"kink_{k}": v for k, v in kinks.items()}})


# ---------------------------------------------------------------------------
# conjecture scatters
# ---------------------------------------------------------------------------

COH_HEADER = ("kind", "c_l1", "m_sn", "bound", "slack")
ENT_HEADER = ("kind", "negativity", "m_sn_reduced", "lhs")


def coherence_magic_scatter(cfg):
    """Sum negativity vs l1 coherence for random qutrits, against the pure
    state lower bound (C/2) sqrt(1 - C/2). The bound claim covers pure states;
    mixed rows are context."""
    rng = derived_rng(cfg.seed, "scatter_coherence")
    n_pure = cfg.samples
    n_mixed = max(1, cfg.samples // 10)
    pure = haar_pure_batch(n_pure, 3, rng)
    mixed = ginibre_dm_batch(n_mixed, 3, rng)

    blocks = {}
    for kind, batch in (("pure", pure), ("mixed", mixed)):
        msn = sum_negativity_grid(wigner_batch(batch, 3))
        c1 = l1_coherence_batch(batch)
        bound = (c1 / 2) * np.sqrt(np.clip(1.0 - c1 / 2, 0.0, None))
        blocks[kind] = np.column_stack((c1, msn, bound, msn - bound))
    slacks = {f"min_slack_{kind}": float(np.min(block[:, 3])) for kind, block in blocks.items()}
    pure = slacks["min_slack_pure"]
    return StageRecord(checks=[("coherence_bound_pure", pure >= -cfg.tolerance,
                                f"min_slack_pure={pure:.3e}")],
                       csv_name="coherence_scatter.csv", header=COH_HEADER, blocks=blocks,
                       trailer=slacks)


def entanglement_magic_scatter(cfg):
    """Negativity of random qutrit-qubit states vs sum negativity of the
    reduced qutrit; checks 16 E^2 + 9 M^2 <= 4 (attained by product states
    with maximally magical marginals, so the check is non-strict)."""
    rng = derived_rng(cfg.seed, "scatter_entanglement")
    n_mixed = cfg.samples
    n_pure = max(1, cfg.samples // 10)

    def columns(batch):
        neg = negativity_batch(batch, (3, 2))
        msn = sum_negativity_grid(wigner_batch(partial_trace(batch, (3, 2), 0), 3))
        return np.column_stack((neg, msn, 16.0 * neg ** 2 + 9.0 * msn ** 2))

    # the mixed states one chunk at a time, all drawn before the pure batch
    blocks = {"mixed": np.concatenate([columns(c) for c in ginibre_dm_chunks(n_mixed, 6, rng)]),
              "pure": columns(haar_pure_batch(n_pure, 6, rng))}
    maxes = {kind: float(np.max(block[:, 2])) for kind, block in blocks.items()}
    max_lhs = max(maxes.values())
    return StageRecord(checks=[("entanglement_tradeoff", max_lhs <= 4.0 + cfg.tolerance,
                                f"max_lhs={max_lhs:.12f}")],
                       csv_name="entanglement_scatter.csv", header=ENT_HEADER, blocks=blocks,
                       trailer={"max_lhs": max_lhs, "max_lhs_pure": maxes["pure"]})


# ---------------------------------------------------------------------------
# run everything
# ---------------------------------------------------------------------------

# command -> experiment; one table for the CLI's commands and run_all
EXPERIMENTS = {"sweep": noise_sweep, "scatter-coherence": coherence_magic_scatter,
               "scatter-entanglement": entanglement_magic_scatter}
AUDITS_HEADER = ("suite", "trials", "passed", "worst_margin")


def _audit_stage(suite, cfg):
    """Audit `suite` with cfg.<suite>_trials trials on the stream audit_<suite>,
    as one check and one audits.csv row."""
    trials = getattr(cfg, f"{suite}_trials")
    report = channels.AUDIT_SUITES[suite](n_trials=trials, seed=derived_rng(cfg.seed, f"audit_{suite}"))
    return StageRecord(checks=[(f"audit_{suite}", report.passed,
                                f"worst_margin={report.worst_margin:.3e} trials={trials}")],
                       csv_name="audits.csv", header=AUDITS_HEADER,
                       blocks={suite: [[trials, int(report.passed), report.worst_margin]]}, trailer={})


# run_all's stages, name -> stage function of cfg, in the order of its checks
# and files; each draws from its own derived stream, so they share no state
# and may run in any process
STAGES = {**EXPERIMENTS, **{suite: partial(_audit_stage, suite) for suite in channels.AUDIT_SUITES}}
_pool = None    # run_all's worker pool, made by its first call (see _stage_pool)


def _run_stage(cfg, name):
    """One stage of run_all: its checks, CSV file name and CSV text, then its
    seconds and the id of the process that ran it."""
    t0 = perf_counter()
    record = STAGES[name](cfg)
    return record.checks, record.csv_name, record.csv(), perf_counter() - t0, os.getpid()


def _stage_pool():
    """run_all's process pool, made on first use and kept for later calls:
    one worker per usable CPU, at most one per stage. The workers are
    forked, so a caller's script needs no __main__ guard (spawned workers
    would re-run it), and they see the library as it was at that first call.
    None where fork or the CPU affinity is unavailable (Windows, macOS) or one
    CPU is usable; the stages then run in-process."""
    global _pool
    if _pool is not None:
        return _pool
    import multiprocessing
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor
        _pool = ProcessPoolExecutor(min(cpus, len(STAGES)), multiprocessing.get_context("fork"))
    return _pool


# also run at exit: a pool left to interpreter teardown prints "Exception ignored in ... weakref_cb"
@atexit.register
def _drop_pool():
    """Shut run_all's pool down and forget it, so the next call forks a new one."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def run_all(cfg):
    """The experiments of EXPERIMENTS and the four channel audits, one stage
    each on run_all's process pool (in-process where there is none); writes
    their CSV artifacts under cfg.outdir and aggregates pass/fail. Logs each
    stage's seconds and process id at DEBUG on the "magiclab" logger. A worker
    that dies raises ChildProcessError, and the next call makes a new pool."""
    # imported here so that `import magiclab` loads neither processes nor logging
    import logging
    from concurrent.futures.process import BrokenProcessPool
    pool = _stage_pool()
    try:
        results = list((pool.map if pool else map)(_run_stage, [cfg] * len(STAGES), STAGES))
    except BrokenProcessPool as exc:
        _drop_pool()
        raise ChildProcessError(f"a run-all worker process died: {exc}") from None

    log = logging.getLogger("magiclab")
    files = {}      # CSV file name -> texts of the stages that name it, in stage order
    for name, (_, csv_name, text, seconds, pid) in zip(STAGES, results):
        log.debug("run-all stage %s: %.3f s in process %d", name, seconds, pid)
        if csv_name in files:   # a later stage adds its rows under the first stage's header
            files[csv_name].append(text.partition("\n")[2])
        else:
            files[csv_name] = [text]
    for csv_name, texts in files.items():
        write_csv(os.path.join(cfg.outdir, csv_name), "".join(texts))
    return RunReport(checks=[check for checks, *_ in results for check in checks])
