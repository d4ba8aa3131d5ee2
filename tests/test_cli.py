import ast
import contextlib
import hashlib
import io
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

import magiclab
from magiclab import channels, cli, experiments, linalg, phasespace as ps, stateio
from conftest import write_state

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    return subprocess.run([sys.executable, "-W", "error", "-m", "magiclab", *args],
                          capture_output=True, text=True)


def run_main(capsys, *args):
    """`cli.main(args)` in-process, read back as run_cli's CompletedProcess."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


@pytest.fixture(scope="module")
def strange_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "strange.txt"
    write_state(path, linalg.strange_state())
    return str(path)


def test_wigner_command(strange_file, capsys):
    res = run_main(capsys, "wigner", "--state", strange_file)
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    grid = np.array([[float(x) for x in ln.split(",")] for ln in lines[:3]])
    expect = ps.wigner(linalg.dm_from_pure(linalg.strange_state()))
    assert np.allclose(grid, expect, atol=1e-15)
    assert lines[3].startswith("# sum_negativity=")
    assert "mana=" in lines[3]


def test_wigner_command_mana_base(strange_file, capsys):
    trailer = run_main(capsys, "wigner", "--state", strange_file).stdout.strip().splitlines()[3]
    nat = float(trailer.split("mana=")[1])
    trailer2 = run_main(capsys, "wigner", "--state", strange_file,
                       "--mana-base", "2").stdout.strip().splitlines()[3]
    base2 = float(trailer2.split("mana=")[1])
    assert abs(base2 - nat / np.log(2)) < 1e-12


def test_wigner_out_creates_missing_directories(strange_file, tmp_path, capsys):
    # --out writes what stdout shows, into missing parent directories as the
    # experiment commands do
    assert cli.main(["wigner", "--state", strange_file]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "missing" / "dir" / "w.txt"
    assert cli.main(["wigner", "--state", strange_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_monotones_command(strange_file, capsys):
    res = run_main(capsys, "monotones", "--state", strange_file)
    assert res.returncode == 0
    values = dict(ln.split("=") for ln in res.stdout.strip().splitlines())
    assert abs(float(values["sum_negativity"]) - 2 / 3) < 1e-10
    assert abs(float(values["l1_coherence"]) - 1) < 1e-10
    assert abs(float(values["distance_magic"]) - 0.5) < 1e-6


def test_monotones_command_with_dims(tmp_path, capsys):
    vec = np.zeros(6, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    path = tmp_path / "bell.txt"
    write_state(path, linalg.dm_from_pure(vec))
    res = run_main(capsys, "monotones", "--state", str(path), "--dims", "3,2")
    assert res.returncode == 0
    values = dict(ln.split("=") for ln in res.stdout.strip().splitlines())
    assert abs(float(values["negativity"]) - 0.5) < 1e-10


def test_stab_list_round_trips(capsys):
    res = run_main(capsys, "stab", "--dim", "3", "--list")
    assert res.returncode == 0
    blocks = [b for b in res.stdout.split("\n\n") if b.strip()]
    assert len(blocks) == 12
    kets = [stateio.loads_state(b) for b in blocks]
    assert all(abs(np.linalg.norm(k) - 1) < 1e-12 for k in kets)


@pytest.mark.parametrize("dims", ["3,x", "3;2"])
def test_monotones_command_rejects_malformed_dims(strange_file, capsys, dims):
    assert cli.main(["monotones", "--state", strange_file, "--dims", dims]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --dims needs subsystem dims like 3,2, got {dims!r}\n"


@pytest.mark.parametrize("flags", [[], ["--list", "--distance", "rho.txt"]], ids=["neither", "both"])
def test_stab_needs_exactly_one_of_list_and_distance(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stab", *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: magiclab stab")
    assert "--list" in err.splitlines()[-1] and "--distance" in err.splitlines()[-1]


def test_stab_distance(strange_file, capsys):
    res = run_main(capsys, "stab", "--dim", "3", "--distance", strange_file)
    assert res.returncode == 0
    values = dict(ln.split("=", 1) for ln in res.stdout.strip().splitlines())
    assert abs(float(values["distance"]) - 0.5) < 1e-6
    assert values["certified"] == "True"
    # the two bounds are separate float sums: allow rounding at the optimum
    assert float(values["lower"]) <= float(values["distance"]) + 1e-12
    assert abs(float(values["gap"])) <= 1e-9
    assert int(values["iterations"]) >= 1
    weights = [float(x) for x in values["weights"].split(",")]
    assert abs(sum(weights) - 1) < 1e-9


def test_audit_command_exit_codes(capsys):
    res = run_main(capsys, "audit", "--suite", "selective", "--n", "50", "--seed", "3")
    assert res.returncode == 0
    assert "passed=True" in res.stdout
    res = run_main(capsys, "audit", "--suite", "gso", "--n", "100", "--seed", "3")
    assert res.returncode == 0


@pytest.mark.parametrize("suite", sorted(channels.AUDIT_SUITES))
def test_audit_command_output_is_pinned(capsys, suite):
    # `magiclab audit --suite S --n 200 --seed 0`, in-process, against tests/golden/
    assert cli.main(["audit", "--suite", suite, "--n", "200", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"audit_{suite}.txt").read_text()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_audit_rejects_trial_count_below_one(n, capsys):
    res = run_main(capsys, "audit", "--suite", "result1", "--n", n, "--seed", "3")
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "at least one trial" in res.stderr
    assert res.stdout == ""


def test_unallocatable_sizes_are_an_error(tmp_path):
    # numpy refuses these requests of tens of PiB at once, so nothing is allocated
    out = tmp_path / "coh.csv"
    for args in (["scatter-coherence", "--samples", "1000000000000000", "--out", str(out)],
                 ["audit", "--suite", "lp", "--n", "1000000000000000"]):
        res = run_cli(*args)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert res.stdout == ""
    assert not out.exists()


def test_sweep_rejects_a_grid_too_large_to_build(tmp_path):
    # 1 / 5e-324 overflows to inf, and 1e-7 asks for 10^7 + 1 points
    cfg, out = tmp_path / "c.cfg", tmp_path / "sweep.csv"
    for step in ("5e-324", "1e-7"):
        cfg.write_text(f"p_step={step}\n")
        res = run_cli("sweep", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "p_step" in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""
    assert not out.exists()


def test_run_all_rejects_zero_trials_in_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lp_trials=0\n")
    res = run_main(capsys, "run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "lp_trials" in res.stderr
    assert not (tmp_path / "out").exists()


def test_run_all_dead_worker_is_an_error_and_the_next_run_recovers(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("samples=200\nresult1_trials=20\nlp_trials=10\nselective_trials=10\ngso_trials=20\n")
    args = ["run-all", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    pool = experiments._pool
    if pool is None:
        pytest.skip("run_all has no pool here: one usable CPU or no fork")
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 60
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    capsys.readouterr()
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a run-all worker process died") and err.count("\n") == 1
    assert experiments._pool is None
    assert cli.main(args) == 0
    assert experiments._pool not in (None, pool)


@pytest.mark.parametrize("command", [*experiments.EXPERIMENTS, "run-all"])
def test_experiment_commands_take_no_tol_flag(tmp_path, command, capsys):
    # the checks' slack is fixed; --tol is a usage error, and nothing runs
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--tol", "1e-9", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["p_start", "p_stop", "tolerance"])
def test_run_all_rejects_the_removed_grid_and_tolerance_keys(tmp_path, key, capsys):
    # the sweep always spans [0, 1] and the checks' slack is fixed
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key}=0.5\n")
    res = run_main(capsys, "run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr == f"error: unknown config key: {key}\n"
    assert res.stdout == ""
    assert not (tmp_path / "out").exists()


def test_run_all_rejects_the_removed_rank_key(tmp_path, capsys):
    # the mixed samples are full rank; a config that still sets a rank is refused
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rank=3\n")
    res = run_main(capsys, "run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr == "error: unknown config key: rank\n"
    assert res.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, words", [
    ("seed=3\nsamples\n", ("line 2", "samples")),
    ("p_step=abc\n", ("p_step", "float")),
    ("samples=1.5\n", ("samples", "int")),
], ids=["no_equals", "float", "int"])
def test_config_file_errors_name_the_key(tmp_path, text, words):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    res = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert all(word in res.stderr for word in words), res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("grid", ["", "p_step=2\n"], ids=["default_grid", "one_point_grid"])
def test_experiment_commands_print_run_alls_checks(tmp_path, grid, capsys):
    # each command judges its result exactly as run-all does, on the same config
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(grid + "samples=300\nresult1_trials=20\nlp_trials=20\n"
                   "selective_trials=20\ngso_trials=20\n")
    run_all = run_main(capsys, "run-all", "--config", str(cfg), "--out", str(tmp_path / "all")).stdout
    results, printed = {}, []
    for command, name in (("sweep", "sweep.csv"), ("scatter-coherence", "coherence_scatter.csv"),
                          ("scatter-entanglement", "entanglement_scatter.csv")):
        out = tmp_path / name
        res = results[command] = run_main(capsys, command, "--config", str(cfg), "--out", str(out))
        wrote, *checks, overall = res.stdout.splitlines()
        assert wrote == f"wrote {out}" and checks
        printed += checks
        passed = all(line.startswith("PASS ") for line in checks)
        assert overall == f"overall={'PASS' if passed else 'FAIL'}"
        assert res.returncode == (0 if passed else 1)
        assert out.read_bytes() == (tmp_path / "all" / name).read_bytes()
    assert printed == [line for line in run_all.splitlines()
                       if not line.startswith(("PASS audit_", "FAIL audit_", "overall="))]
    # the one-point grid p = 0 holds none of the three reference kinks
    assert (results["sweep"].returncode == 1) == bool(grid)
    assert ("FAIL sweep_kinks" in results["sweep"].stdout) == bool(grid)


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    res = run_main(capsys, "sweep", "--out", str(out))
    assert res.returncode == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("p,msn_strange_white")


def test_experiment_commands_write_where_run_all_does(tmp_path, monkeypatch, capsys):
    # <outdir>/<name>.csv with outdir from the config file, as run-all writes it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("outdir=elsewhere\nsamples=300\nresult1_trials=20\n"
                                    "lp_trials=20\nselective_trials=20\ngso_trials=20\n")
    assert cli.main(["sweep", "--config", "c.cfg"]) == 0
    out = os.path.join("elsewhere", "sweep.csv")
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {out}"
    assert not (tmp_path / "sweep.csv").exists()
    written = (tmp_path / out).read_bytes()
    (tmp_path / out).unlink()
    assert cli.main(["run-all", "--config", "c.cfg"]) == 0
    assert (tmp_path / out).read_bytes() == written


def test_experiment_commands_default_to_results(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {os.path.join('results', 'sweep.csv')}"
    assert (tmp_path / "results" / "sweep.csv").exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_experiment_out_flag_names_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("outdir=elsewhere\n")
    assert cli.main(["sweep", "--config", "c.cfg", "--out", "mine.csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "wrote mine.csv"
    assert (tmp_path / "mine.csv").exists() and not (tmp_path / "elsewhere").exists()


def test_usage_error_exit_code():
    assert run_cli().returncode == 2
    assert run_cli("stab", "--bogus").returncode == 2
    res = run_cli("wigner", "--state", "/nonexistent/state.txt")
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("command", ["wigner", "monotones"])
def test_non_finite_state_file_is_an_error(tmp_path, command, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("dim=3\n0.5+0i,nan+0i,0+0i\nnan+0i,0.5+0i,0+0i\n0+0i,0+0i,0+0i\n")
    res = run_main(capsys, command, "--state", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "non-finite" in res.stderr
    assert res.stdout == ""


def test_run_all_two_processes_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("samples=500\nresult1_trials=60\nlp_trials=20\n"
                   "selective_trials=20\ngso_trials=60\n")
    res_a = run_cli("run-all", "--seed", "11", "--config", str(cfg),
                    "--out", str(tmp_path / "a"))
    res_b = run_cli("run-all", "--seed", "11", "--config", str(cfg),
                    "--out", str(tmp_path / "b"))
    assert res_a.returncode == 0 and res_b.returncode == 0
    assert "overall=PASS" in res_a.stdout
    for name in ("sweep.csv", "coherence_scatter.csv", "entanglement_scatter.csv", "audits.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_all_seed_42_outputs_are_pinned(tmp_path, capsys):
    # `magiclab run-all --seed 42` at the default config, the reproduction's
    # headline run: SHA-256 of its stdout and of its four CSVs
    assert cli.main(["run-all", "--seed", "42", "--out", str(tmp_path)]) == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    digests.update((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                   for path in sorted(tmp_path.iterdir()))
    assert digests == {
        "stdout": "e9e93c9408aadf2585c1f77fa5ac8b8a716ab7f3f85af79cb057abd212d315aa",
        "audits.csv": "84ad4859c473429c81cc7de96a43f742bc800c62365546ecd918719d3218daa5",
        "coherence_scatter.csv": "f1b928d5f1a038b0dca0f3f50c07b54272903b23bcee17e52ba3d144eaacce0b",
        "entanglement_scatter.csv": "ec858f619610b5aa0a449890527af8243c0cae813c39f63290bf3d075c1c8a03",
        "sweep.csv": "2c26c908e7942f1766d81e0b2aa093a8a874c165877db20ee97ceb96bd7cd1d7",
    }


def _mostly(valid, awkward):
    """A valid token two times in three, else an awkward one."""
    return hst.one_of(hst.sampled_from(valid), hst.sampled_from(valid), hst.sampled_from(awkward))


# Awkward tokens for argv and config values. A count is tiny or far beyond
# what numpy can allocate, which it refuses at once: never a size in between.
# A step gives a grid of a few points, is invalid, or is refused by the grid
# bound (1 / step overflows for a subnormal step): a step just above the bound
# would build a grid of up to 10^6 points.
_WORDS = ("nan", "-inf", "1e-7", "é", " ", "\x00", "3,2", "")
_SEEDS = _mostly(["0", "7", "-1", str(2 ** 64), "٣"], _WORDS)
_COUNTS = _mostly(["1", "2", "3", "1_0"], ["-1", "0", "-0", str(2 ** 63 - 1), str(2 ** 63),
                                           str(10 ** 30), "1.5", *_WORDS])
_STEPS = hst.one_of(hst.sampled_from(["0.25", "0.3", "2", "1e308"]),
                    hst.sampled_from(["0", "-0.0", "-1", "inf", "nan", "0x1p-3", "x"]),
                    hst.sampled_from(["5e-324", "1e-310", "1e-300"]))
_ENTRIES = ("-1", "1e308", "-1e308j", "1+", "i", "x", "", "é")
_STATES = tuple(map(stateio.dumps_state, (linalg.strange_state(), linalg.dm_from_pure(linalg.strange_state()),
                                            linalg.basis_ket(2, 0), linalg.maximally_mixed(2))))


@hst.composite
def _config_text(draw):
    """A config: tiny counts and a step, then junk lines of known and unknown keys."""
    lines = [f"{key}={draw(hst.sampled_from(['1', '2', '3']))}"
             for key in ("samples", "result1_trials", "lp_trials", "selective_trials", "gso_trials")]
    lines.append(f"p_step={draw(_STEPS)}")
    junk = hst.one_of(hst.tuples(hst.just("seed"), _SEEDS),
                      hst.tuples(hst.sampled_from(["samples", "lp_trials", "gso_trials"]), _COUNTS),
                      hst.tuples(hst.just("p_step"), _STEPS),
                      hst.tuples(hst.just("outdir"), hst.sampled_from(["out", "a b", "é", "", "\x00"])),
                      hst.tuples(hst.sampled_from(["tolerance", "rank", "séed", ""]), _SEEDS),
                      hst.sampled_from([("# comment",), ("",), ("novalue",), ("", "3")]))
    return "\n".join(lines + ["=".join(line) for line in draw(hst.lists(junk, max_size=2))]) + "\n"


@hst.composite
def _state_bytes(draw):
    """A valid state file, pure or mixed, of a qutrit or a qubit, with up to
    two entries made awkward and now and then a wrong dim line, row count or
    encoding."""
    rows = [line.split(",") for line in draw(hst.sampled_from(_STATES)).splitlines()[1:]]
    d = len(rows[0])
    for _ in range(draw(hst.integers(0, 2))):
        row = rows[draw(hst.integers(0, len(rows) - 1))]
        row[draw(hst.integers(0, d - 1))] = draw(hst.one_of(hst.floats().map(repr), hst.sampled_from(_ENTRIES)))
    dim = draw(_mostly([str(d)], ["0", "1", "5", "2.0", "x", str(2 ** 63)]))
    rows = draw(_mostly([rows], [[], rows[:-1], rows + rows[:1], [row[:-1] for row in rows]]))
    text = "\n".join([f"dim={dim}", *map(",".join, rows), ""])
    return text.encode() + draw(_mostly([b""], [b"\xff", b"# done\n"]))


@hst.composite
def _cli_case(draw):
    """(argv with {state}, {config} and {tmp} placeholders, config text, state bytes)."""
    state = draw(_mostly(["{state}"], ["{tmp}", "{tmp}/missing.txt"]))

    def maybe(*flag):
        return list(flag) if draw(hst.booleans()) else []

    command = draw(hst.sampled_from(["wigner", "monotones", "stab", "audit", "sweep",
                                     "scatter-coherence", "scatter-entanglement", "run-all"]))
    if command == "wigner":
        argv = ["wigner", "--state", state,
                *maybe("--mana-base", draw(_mostly(["2", "10", "0.5"], ["0", "1", "-2", *_WORDS]))),
                *maybe("--out", "{tmp}/w/grid.txt")]
    elif command == "monotones":
        argv = ["monotones", "--state", state, *maybe("--dims", draw(_mostly(["3,2", "2,3"], _WORDS)))]
    elif command == "stab":
        # exactly one of --list and --distance, or now and then both or neither
        action = draw(_mostly([["--list"], ["--distance", state]], [[], ["--list", "--distance", state]]))
        argv = ["stab", *maybe("--dim", draw(_mostly(["2", "3"], ["4", "1", "-3", "x"]))), *action]
    elif command == "audit":
        suite = draw(_mostly(sorted(channels.AUDIT_SUITES), ["cw_contractivity"]))
        argv = ["audit", "--suite", suite, "--n", draw(_COUNTS), *maybe("--seed", draw(_SEEDS))]
    else:
        argv = [command, "--config", "{config}", *maybe("--seed", draw(_SEEDS)),
                *(maybe("--samples", draw(_COUNTS)) if command != "sweep" else []),
                *maybe("--out", draw(hst.sampled_from(["{tmp}/out", "{tmp}"])))]
    return argv, draw(_config_text()), draw(_state_bytes())


_TINY_CONFIG = "samples=1\nresult1_trials=1\nlp_trials=1\nselective_trials=1\ngso_trials=1\n"


@settings(max_examples=150, deadline=None)
@given(case=_cli_case())
@example(case=(["sweep", "--config", "{config}", "--out", "{tmp}/out"], _TINY_CONFIG + "p_step=5e-324\n", b""))
@example(case=(["audit", "--suite", "lp", "--n", "-1"], "", b""))
@example(case=(["wigner", "--state", "{state}", "--mana-base", "1"], "", _STATES[0].encode()))
@example(case=(["monotones", "--state", "{state}"], "", b"dim=2\n1e308,1e308\n"))
def test_cli_fuzz_never_raises(case):
    # whatever the argv, config file or state file: no exception and no
    # warning escapes main, the exit code is 0, 1 or 2, and an exit 1 either
    # prints one `error: ...` line or a failing verdict
    argv, config, state = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "run.cfg").write_text(config)
        Path(tmp, "state.txt").write_bytes(state)
        argv = [arg.format(tmp=tmp, config=f"{tmp}/run.cfg", state=f"{tmp}/state.txt") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)   # outdir comes from the config, relative to the working directory
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, config, code)
    assert not caught, [str(w.message) for w in caught]
    if code == 1:
        assert ((err.startswith("error:") and err.count("\n") == 1)
                or (err == "" and ("overall=FAIL" in out or "passed=False" in out))), (argv, config, out, err)


def test_only_the_cli_prints():
    # the library reports through logging and return values; stdout is the CLI's
    printing = []
    for path in sorted(Path(magiclab.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                printing.append(f"{path.name}:{node.lineno}")
    assert printing == []


def test_the_library_imports_only_numpy_and_the_standard_library():
    # scipy and hypothesis are test extras (pyproject.toml); the library needs numpy alone
    foreign = []
    for path in sorted(Path(magiclab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {root}" for root in roots
                        if root not in sys.stdlib_module_names | {"numpy", "magiclab"}]
    assert foreign == []


def test_the_library_has_no_orphans():
    # a module-level import that its module never reads, or a module-level private
    # function or constant that no module reads, is left over from a removal;
    # __init__.py's imports are the package's exports
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(magiclab.__file__).parent.glob("*.py"))}

    def read(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):    # module.name
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        return names

    anywhere = set().union(*map(read, trees.values()))
    orphans = []
    for name, tree in trees.items():
        local = read(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                orphans += [f"{name}:{node.lineno} import {b}" for b in bound
                            if b not in local and name != "__init__.py"]
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            orphans += [f"{name}:{node.lineno} {d}" for d in defined if d not in anywhere
                        and (d.isupper() or d.startswith("_") and not d.startswith("__"))]
    assert orphans == []
