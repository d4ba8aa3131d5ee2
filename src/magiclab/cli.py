"""Command-line entry point.

Subcommands: wigner, monotones, stab, audit, sweep, scatter-coherence,
scatter-entanglement, run-all. Exit codes: 0 success, 1 assertion or
violation, 2 usage error (argparse's default).
"""

import argparse
import os
import sys

from . import channels, experiments, monotones, stabilizer, stateio
from .experiments import ExperimentConfig, _fmt
from .linalg import dm_from_pure
from .phasespace import wigner


def _load_dm(path):
    state = stateio.load_state(path)
    return dm_from_pure(state) if state.ndim == 1 else state


def _build_config(args):
    overrides = {key: getattr(args, key, None) for key in ("seed", "samples", "outdir")}
    return ExperimentConfig.from_file(args.config, **overrides)


def cmd_wigner(args):
    rho = _load_dm(args.state)
    lines = [",".join(_fmt(x) for x in row) for row in wigner(rho)]
    lines.append(f"# sum_negativity={_fmt(monotones.sum_negativity(rho))} "
                 f"mana={_fmt(monotones.mana(rho, args.mana_base))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        experiments.write_csv(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_monotones(args):
    rho = _load_dm(args.state)
    try:
        dims = tuple(int(x) for x in args.dims.split(",")) if args.dims else None
    except ValueError:
        raise ValueError(f"--dims needs subsystem dims like 3,2, got {args.dims!r}") from None
    for report in monotones.all_monotones(rho, dims=dims):
        print(f"{report.name}={_fmt(report.value)}")
    return 0


def cmd_stab(args):
    vset = stabilizer.stabilizer_pure_states(args.dim)
    if args.list:
        sys.stdout.write("\n".join(f"# vertex {i} word={word}\n" + stateio.dumps_state(ket)
                                   for i, (ket, word) in enumerate(zip(vset.kets, vset.words))))
        return 0
    res = stabilizer.polytope_distance(_load_dm(args.distance), vset)
    print(f"distance={_fmt(res.distance)}")
    print(f"lower={_fmt(res.lower)}")
    print(f"gap={_fmt(res.gap)}")
    print(f"certified={res.certified}")
    print(f"iterations={res.iterations}")
    print("weights=" + ",".join(_fmt(w) for w in res.weights))
    return 0


def _print_report(report):
    """Print a report's lines (an audit's, a stage's or a run's checks); exit status 1 unless it passed."""
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_audit(args):
    return _print_report(channels.AUDIT_SUITES[args.suite](n_trials=args.n, seed=args.seed))


def cmd_experiment(args):
    cfg = _build_config(args)
    record = experiments.EXPERIMENTS[args.command](cfg)
    out = args.out or os.path.join(cfg.outdir, record.csv_name)  # run_all's location
    experiments.write_csv(out, record.csv())
    print(f"wrote {out}")
    return _print_report(record)


def cmd_run_all(args):
    return _print_report(experiments.run_all(_build_config(args)))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Discrete-Wigner magic and coherence laboratory for small qudits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="print the discrete Wigner grid of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.add_argument("--mana-base", dest="mana_base", type=float,
                   help="log base for the mana trailer (default: natural log)")
    p.set_defaults(fn=cmd_wigner)

    p = sub.add_parser("monotones", help="print all applicable monotones of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", help="subsystem dims like 3,2 to enable negativity")
    p.set_defaults(fn=cmd_monotones)

    p = sub.add_parser("stab", help="stabilizer vertices and polytope distances")
    p.add_argument("--dim", type=int, default=3)
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--list", action="store_true")
    action.add_argument("--distance", metavar="STATEFILE")
    p.set_defaults(fn=cmd_stab)

    p = sub.add_parser("audit", help="randomized hierarchy audits")
    p.add_argument("--suite", required=True, choices=sorted(channels.AUDIT_SUITES))
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_audit)

    for name in (*experiments.EXPERIMENTS, "run-all"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--seed", type=int)
        p.add_argument("--config")
        if name != "sweep":
            p.add_argument("--samples", type=int)
        if name == "run-all":
            p.add_argument("--out", dest="outdir")
        else:
            p.add_argument("--out")
        p.set_defaults(fn=cmd_run_all if name == "run-all" else cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
