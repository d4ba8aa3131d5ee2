"""One benchmark run of one workload, in its own process.

Usage (normally started by run.py, with PYTHONPATH pointing at the
checkout's src/ and BLAS pinned to one thread):

    python3 perfbench/workloads.py --workload per_state --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: it repeats a round of fixed
work, round i built from (seed, i), until the time is up and it has made
its minimum number of calls. Round 0 is run once untimed as warm-up. Times
are divided by the slowdown the reference kernel measured around each
round (see reference.py). With --trace 1 the timed rounds are run untraced
for half the time, then replayed with tracing on, so the tracing overhead
is the paired difference of round times. Correctness checks run after each
round, outside the timed part. The last stdout line is a JSON object.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

import magiclab
from magiclab import channels, cli, experiments, linalg, monotones, phasespace, stabilizer, stateio

import reference
from tracer import Tracer

CAP_FACTOR = 4         # a run stops after CAP_FACTOR * seconds even if short of MIN_CALLS


def round_rng(seed, i):
    return np.random.default_rng([seed, i])


def round_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# The benchmark draws its own input states, so a change to magiclab's
# samplers cannot change what the per_state and scatter checks see.
def ginibre(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_dm(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class Checks:
    """Counts correctness checks; error_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)


def read_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class RunAll:
    """`magiclab run-all` in-process through cli.main, at a reduced config.

    One round is one command; its four CSVs must parse with the expected
    headers and row counts and be byte-identical whenever a round repeats.
    """

    MIN_CALLS = 12         # p90 stays off the slowest round when one round is an outlier
    CONFIG = {"samples": 2000, "result1_trials": 200, "lp_trials": 200,
              "selective_trials": 200, "gso_trials": 600}
    TINY = {"samples": 30, "result1_trials": 4, "lp_trials": 4,
            "selective_trials": 4, "gso_trials": 8}
    HEADERS = {
        "sweep.csv": ["p", "msn_strange_white", "msn_norrell_white", "msn_strange_coherent",
                      "msn_norrell_coherent", "ref_strange_white", "ref_norrell_white",
                      "ref_strange_coherent", "ref_norrell_coherent"],
        "coherence_scatter.csv": ["kind", "c_l1", "m_sn", "bound", "slack"],
        "entanglement_scatter.csv": ["kind", "negativity", "m_sn_reduced", "lhs"],
        "audits.csv": ["suite", "trials", "passed", "worst_margin"],
    }

    def __init__(self, seed, tiny, workdir, check):
        self.seed, self.workdir, self.check = seed, workdir, check
        self.config = self.TINY if tiny else self.CONFIG
        samples = self.config["samples"]
        self.rows = {"sweep.csv": 101, "coherence_scatter.csv": samples + max(1, samples // 10),
                     "entanglement_scatter.csv": samples + max(1, samples // 10), "audits.csv": 4}
        self.digests = {}

    def run(self, i):
        outdir = os.path.join(self.workdir, f"runall-{i}")
        cfg_path = os.path.join(self.workdir, f"runall-{i}.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"seed={round_seed(self.seed, i)}\n")
            fh.writelines(f"{key}={val}\n" for key, val in self.config.items())
        stdout = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run-all", "--config", cfg_path, "--out", outdir])
        seconds = perf_counter() - t0
        os.remove(cfg_path)
        return seconds, [seconds], (code, stdout.getvalue(), outdir)

    def verify(self, i, outcome):
        code, out, outdir = outcome
        check = self.check
        check("runall.exit_code", code == 0, f"code={code}")
        lines = out.splitlines()
        passes = [ln for ln in lines if ln.startswith("PASS ")]
        check("runall.pass_lines", len(passes) == 8 and "overall=PASS" in lines, out)
        digest = hashlib.sha256()
        for name, header in self.HEADERS.items():
            try:
                with open(os.path.join(outdir, name), "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                check(f"runall.{name}", False, str(exc))
                continue
            got_header, rows = read_csv(data.decode())
            check(f"runall.{name}.header", got_header == header, str(got_header))
            check(f"runall.{name}.rows", len(rows) == self.rows[name]
                  and all(len(r) == len(header) for r in rows), f"rows={len(rows)}")
            digest.update(name.encode() + b"\0" + data)
        previous = self.digests.setdefault(i, digest.hexdigest())
        check("runall.repeat_identical", previous == digest.hexdigest(), f"round {i}")
        shutil.rmtree(outdir, ignore_errors=True)


class Scatter:
    """Both conjecture scatters, their CSV text and files, at a fixed size."""

    MIN_CALLS = 12
    SAMPLES, TINY = 30000, 300
    WIGNER_SAMPLES = 32

    def __init__(self, seed, tiny, workdir, check):
        self.seed, self.workdir, self.check = seed, workdir, check
        self.samples = self.TINY if tiny else self.SAMPLES
        self.digests = {}

    def run(self, i):
        cfg = experiments.ExperimentConfig(seed=round_seed(self.seed, i), samples=self.samples)
        paths = [os.path.join(self.workdir, name)
                 for name in ("coherence_scatter.csv", "entanglement_scatter.csv")]
        t0 = perf_counter()
        coh = experiments.coherence_magic_scatter(cfg)
        ent = experiments.entanglement_magic_scatter(cfg)
        texts = [coh.csv(), ent.csv()]
        for path, text in zip(paths, texts):
            experiments.write_csv(path, text)
        seconds = perf_counter() - t0
        return seconds, [seconds], (cfg, coh, ent, paths, texts)

    def verify(self, i, outcome):
        cfg, coh, ent, paths, texts = outcome
        check = self.check
        check("scatter.slack_pure", coh.min_slack_pure >= -cfg.tolerance, f"{coh.min_slack_pure}")
        check("scatter.max_lhs", ent.max_lhs <= 4.0 + cfg.tolerance, f"{ent.max_lhs}")
        n_rows = self.samples + max(1, self.samples // 10)
        for path, text, header in zip(paths, texts, (RunAll.HEADERS["coherence_scatter.csv"],
                                                     RunAll.HEADERS["entanglement_scatter.csv"])):
            with open(path) as fh:
                check("scatter.file_matches_text", fh.read() == text, path)
            got_header, rows = read_csv(text)
            check("scatter.csv_shape", got_header == header and len(rows) == n_rows,
                  f"{got_header} rows={len(rows)}")
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        check("scatter.repeat_identical", self.digests.setdefault(i, digest) == digest, f"round {i}")

        rng = round_rng(self.seed, i)
        rhos = np.stack([haar_dm(rng, 3) if k % 2 else ginibre(rng, 3)
                         for k in range(self.WIGNER_SAMPLES)])
        grids = phasespace.wigner_batch(rhos, 3)
        err = max(float(np.max(np.abs(g - phasespace.qutrit_closed_form(r))))
                  for g, r in zip(grids, rhos))
        check("scatter.wigner_closed_form", err <= 1e-12, f"max_err={err:.3e}")


class PerState:
    """The scalar library path, one state at a time.

    A round takes fixed qutrit states (strange, Norrell) and seeded ones
    (stabilizer mixtures, diagonal states, Ginibre draws) through
    loads_state(dumps_state(rho)) and all_monotones, computes the incoherent
    distance of qubit states, and classifies one of three fixed channels.
    A call is one all_monotones.
    """

    MIN_CALLS = 100        # p90 has ten samples beyond it
    QUBITS, TINY_QUBITS = 20, 2
    N_PROBE = 2
    NAMES = {"sum_negativity", "mana", "l1_coherence", "l2_coherence", "cw_coherence",
             "distance_magic", "distance_coherence"}

    def __init__(self, seed, tiny, workdir, check):
        self.seed, self.check = seed, check
        self.qubits = self.TINY_QUBITS if tiny else self.QUBITS
        self.vertices = stabilizer.stabilizer_pure_states(3)
        fourier = stabilizer.clifford_generators(3)[2]
        # (channel, expected flags: incoherent, incoherent Clifford unitary,
        #  stabilizer preserving, genuinely stabilizer)
        self.channels = [
            (channels.identity_channel(3), (True, True, True, True)),
            (channels.dephasing_channel(3), (True, False, True, False)),
            (channels.unitary_channel(fourier), (False, False, True, False)),
        ]

    def states(self, rng):
        weights = rng.dirichlet(np.ones(len(self.vertices)))
        return ([("strange", linalg.dm_from_pure(linalg.strange_state())),
                 ("norrell", linalg.dm_from_pure(linalg.norrell_state()))]
                + [("stabilizer_mixture", np.einsum("m,mij->ij", weights, self.vertices.projectors)),
                   ("diagonal", np.diag(rng.dirichlet(np.ones(3))).astype(complex))]
                + [("ginibre", ginibre(rng, 3)) for _ in range(6)])

    def run(self, i):
        rng = round_rng(self.seed, i)
        states = self.states(rng)
        qubits = [ginibre(rng, 2) for _ in range(self.qubits)]
        channel, expected = self.channels[i % len(self.channels)]
        seconds, calls, results = 0.0, [], []
        for kind, rho in states:
            t0 = perf_counter()
            back = stateio.loads_state(stateio.dumps_state(rho))
            t1 = perf_counter()
            reports = monotones.all_monotones(back)
            t2 = perf_counter()
            seconds += t2 - t0
            calls.append(t2 - t1)
            results.append((kind, rho, back, {r.name: r.value for r in reports}))
        t0 = perf_counter()
        distances = [stabilizer.incoherent_distance(q) for q in qubits]
        flags = channels.classify(channel, self.vertices, seed=i, n_probe=self.N_PROBE)
        seconds += perf_counter() - t0
        return seconds, calls, (results, qubits, distances, flags, expected)

    def verify(self, i, outcome):
        results, qubits, distances, flags, expected = outcome
        check = self.check
        for kind, rho, back, values in results:
            check("per_state.roundtrip_exact", np.array_equal(rho, back), kind)
            check("per_state.monotone_names", set(values) == self.NAMES, str(sorted(values)))
            if kind in ("strange", "norrell"):
                target = 0.5 if kind == "strange" else 1.0 / 3.0
                check(f"per_state.{kind}_distance", abs(values["distance_magic"] - target) <= 1e-8,
                      f"{values['distance_magic']!r}")
                check(f"per_state.{kind}_sum_negativity",
                      abs(values["sum_negativity"] - 2.0 / 3.0) <= 1e-12,
                      f"{values['sum_negativity']!r}")
            elif kind == "stabilizer_mixture":
                check("per_state.mixture_distance", values["distance_magic"] <= 1e-7,
                      f"{values['distance_magic']!r}")
            elif kind == "diagonal":
                check("per_state.diagonal_cw", abs(values["cw_coherence"]) <= 1e-12,
                      f"{values['cw_coherence']!r}")
        err = max(abs(d - abs(q[0, 1])) for d, q in zip(distances, qubits))
        check("per_state.qubit_incoherent_distance", err <= 1e-8, f"max_err={err:.3e}")
        got = (flags.incoherent, flags.incoherent_clifford_unitary,
               flags.stabilizer_preserving, flags.genuinely_stabilizer)
        check("per_state.classify_flags", got == expected, f"{got} != {expected}")


WORKLOADS = {"runall": RunAll, "scatter": Scatter, "per_state": PerState}


def run_round(workload, i, tracer=None):
    """One round; only its timed part runs traced, its checks never do."""
    if tracer is not None:
        tracer.install(magiclab)
    try:
        seconds, calls, outcome = workload.run(i)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.verify(i, outcome)
    return seconds, calls


def timed_rounds(workload, seconds, min_calls, n_rounds=None, tracer=None):
    """Rounds 0, 1, ... until `seconds` have passed and `min_calls` calls were
    made, or exactly `n_rounds` rounds. Returns the round times, the call
    times of each round and the slowdown of each round, from the
    reference-kernel samples taken just before and just after it."""
    rounds, calls, slowdowns = [], [], []
    refs = []
    reference.sample(refs)
    start = perf_counter()
    while True:
        round_s, call_s = run_round(workload, len(rounds), tracer)
        before = refs[-reference.REPS:]
        reference.sample(refs)
        rounds.append(round_s)
        calls.append(call_s)
        slowdowns.append(reference.slowdown(before + refs[-reference.REPS:]))
        elapsed = perf_counter() - start
        n_calls = sum(map(len, calls))
        if n_rounds is not None:
            if len(rounds) == n_rounds:
                return rounds, calls, slowdowns
        elif (elapsed >= seconds and n_calls >= min_calls) or elapsed >= CAP_FACTOR * seconds:
            return rounds, calls, slowdowns


def time_metrics(rounds, calls, slowdowns):
    """wall_s is the median round time, call_p50_ms and call_p90_ms are taken
    over all calls; each time is divided by the slowdown of its round."""
    flat = [c / s for cs, s in zip(calls, slowdowns) for c in cs]
    return {"wall_s": statistics.median(r / s for r, s in zip(rounds, slowdowns)),
            "call_p50_ms": float(np.percentile(flat, 50)) * 1e3,
            "call_p90_ms": float(np.percentile(flat, 90)) * 1e3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--outdir", required=True, help="scratch and span output directory")
    args = parser.parse_args(argv)

    check = Checks()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.outdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir, check)
        run_round(workload, 0)  # warm-up: lazy caches, first-call costs
        min_calls = 0 if args.trace or args.tiny else workload.MIN_CALLS
        seconds = args.seconds / 2 if args.trace else args.seconds
        rounds, calls, slowdowns = timed_rounds(workload, seconds, min_calls)
        out = {"rounds": len(rounds), "calls": sum(map(len, calls)),
               "slowdown": statistics.median(slowdowns),
               "raw": time_metrics(rounds, calls, [1.0] * len(rounds))}
        if args.trace:
            tracer = Tracer()
            traced, _, traced_slowdowns = timed_rounds(workload, 0, 0, len(rounds), tracer)
            overhead = statistics.median(t / ts - u / us for t, ts, u, us in
                                         zip(traced, traced_slowdowns, rounds, slowdowns))
            out["metrics"] = tracer.metrics(len(traced), overhead)
            tracer.save(os.path.join(args.outdir, f"spans-{args.workload}.npz"))
        else:
            out["metrics"] = time_metrics(rounds, calls, slowdowns)
            out["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(attempted=check.attempted, failed=check.failed,
               numpy=np.__version__, magiclab_file=magiclab.__file__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
