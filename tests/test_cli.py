import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import magiclab
from magiclab import channels, cli, experiments, linalg, phasespace as ps, stateio

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "magiclab", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def strange_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "strange.txt"
    stateio.write_state(path, linalg.strange_state())
    return str(path)


def test_wigner_command(strange_file):
    res = run_cli("wigner", "--state", strange_file)
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    grid = np.array([[float(x) for x in ln.split(",")] for ln in lines[:3]])
    expect = ps.wigner(linalg.dm_from_pure(linalg.strange_state()))
    assert np.allclose(grid, expect, atol=1e-15)
    assert lines[3].startswith("# sum_negativity=")
    assert "mana=" in lines[3]


def test_wigner_command_mana_base(strange_file):
    trailer = run_cli("wigner", "--state", strange_file).stdout.strip().splitlines()[3]
    nat = float(trailer.split("mana=")[1])
    trailer2 = run_cli("wigner", "--state", strange_file,
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


def test_monotones_command(strange_file):
    res = run_cli("monotones", "--state", strange_file)
    assert res.returncode == 0
    values = dict(ln.split("=") for ln in res.stdout.strip().splitlines())
    assert abs(float(values["sum_negativity"]) - 2 / 3) < 1e-10
    assert abs(float(values["l1_coherence"]) - 1) < 1e-10
    assert abs(float(values["distance_magic"]) - 0.5) < 1e-6


def test_monotones_command_with_dims(tmp_path):
    vec = np.zeros(6, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    path = tmp_path / "bell.txt"
    stateio.write_state(path, linalg.dm_from_pure(vec))
    res = run_cli("monotones", "--state", str(path), "--dims", "3,2")
    assert res.returncode == 0
    values = dict(ln.split("=") for ln in res.stdout.strip().splitlines())
    assert abs(float(values["negativity"]) - 0.5) < 1e-10


def test_stab_list_round_trips():
    res = run_cli("stab", "--dim", "3", "--list")
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


def test_stab_distance(strange_file):
    res = run_cli("stab", "--dim", "3", "--distance", strange_file)
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


def test_audit_command_exit_codes():
    res = run_cli("audit", "--suite", "selective", "--n", "50", "--seed", "3")
    assert res.returncode == 0
    assert "passed=True" in res.stdout
    res = run_cli("audit", "--suite", "gso", "--n", "100", "--seed", "3")
    assert res.returncode == 0


@pytest.mark.parametrize("suite", sorted(channels.AUDIT_SUITES))
def test_audit_command_output_is_pinned(capsys, suite):
    # `magiclab audit --suite S --n 200 --seed 0`, in-process, against tests/golden/
    assert cli.main(["audit", "--suite", suite, "--n", "200", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"audit_{suite}.txt").read_text()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_audit_rejects_trial_count_below_one(n):
    res = run_cli("audit", "--suite", "result1", "--n", n, "--seed", "3")
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


def test_run_all_rejects_zero_trials_in_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lp_trials=0\n")
    res = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
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
def test_run_all_rejects_the_removed_grid_and_tolerance_keys(tmp_path, key):
    # the sweep always spans [0, 1] and the checks' slack is fixed
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key}=0.5\n")
    res = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert res.stderr == f"error: unknown config key: {key}\n"
    assert res.stdout == ""
    assert not (tmp_path / "out").exists()


def test_run_all_rejects_the_removed_rank_key(tmp_path):
    # the mixed samples are full rank; a config that still sets a rank is refused
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rank=3\n")
    res = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
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
def test_experiment_commands_print_run_alls_checks(tmp_path, grid):
    # each command judges its result exactly as run-all does, on the same config
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(grid + "samples=300\nresult1_trials=20\nlp_trials=20\n"
                   "selective_trials=20\ngso_trials=20\n")
    run_all = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "all")).stdout
    results, printed = {}, []
    for command, name in (("sweep", "sweep.csv"), ("scatter-coherence", "coherence_scatter.csv"),
                          ("scatter-entanglement", "entanglement_scatter.csv")):
        out = tmp_path / name
        res = results[command] = run_cli(command, "--config", str(cfg), "--out", str(out))
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


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--out", str(out))
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
def test_non_finite_state_file_is_an_error(tmp_path, command):
    path = tmp_path / "nan.txt"
    path.write_text("dim=3\n0.5+0i,nan+0i,0+0i\nnan+0i,0.5+0i,0+0i\n0+0i,0+0i,0+0i\n")
    res = run_cli(command, "--state", str(path))
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
