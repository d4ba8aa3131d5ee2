import copy
import dataclasses
import hashlib
import logging
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from magiclab import channels, experiments as ex, linalg, monotones as mo
from conftest import csv_text_oracle


def small_cfg(**kw):
    base = dict(samples=2000, result1_trials=300, lp_trials=80,
                selective_trials=80, gso_trials=300)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def kinks(sweep):
    # {curve: kink p} from the sweep's kink_<curve> trailer values
    return {key.removeprefix("kink_"): val for key, val in sweep.trailer.items() if key.startswith("kink_")}


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(samples=0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(p_step=-0.1)
    for key in ("result1_trials", "lp_trials", "selective_trials", "gso_trials"):
        with pytest.raises(ValueError, match=key):
            ex.ExperimentConfig(**{key: 0})
    for value in (np.inf, -np.inf, np.nan, 5e-324, 1e-7):
        with pytest.raises(ValueError, match="p_step"):
            ex.ExperimentConfig(p_step=value)
    assert len(ex.ExperimentConfig(p_step=2e-6).p_grid()) == 500_001


def test_config_fields_are_what_a_command_sets():
    # the checks' slack is a class constant, not a field or a config key
    assert [f.name for f in dataclasses.fields(ex.ExperimentConfig)] == [
        "seed", "samples", "p_step", "outdir",
        "result1_trials", "lp_trials", "selective_trials", "gso_trials"]
    assert ex.ExperimentConfig().tolerance == 1e-9
    with pytest.raises(TypeError):
        ex.ExperimentConfig(tolerance=1e-3)


def test_p_grid_stops_at_1():
    # a step that does not divide [0, 1] stops short of 1 instead of passing it
    assert ex.ExperimentConfig(p_step=0.6).p_grid().tolist() == [0.0, 0.6]
    grid = ex.ExperimentConfig(p_step=0.07).p_grid()
    assert grid.size == 15 and grid[-1] == pytest.approx(0.98, abs=1e-12)
    # the default grid keeps its 101 points, bit for bit
    assert np.array_equal(ex.ExperimentConfig().p_grid(), 0.0 + 0.01 * np.arange(101))


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nseed=7\nsamples=123\np_step=0.5\noutdir=out\n")
    cfg = ex.ExperimentConfig.from_file(path)
    assert cfg.seed == 7 and cfg.samples == 123 and cfg.p_step == 0.5 and cfg.outdir == "out"
    cfg = ex.ExperimentConfig.from_file(path, samples=9)
    assert cfg.samples == 9
    path.write_text("nonsense=1\n")
    with pytest.raises(ValueError):
        ex.ExperimentConfig.from_file(path)
    assert ex.ExperimentConfig.from_file(None, seed=3, samples=None) == ex.ExperimentConfig(seed=3)


def test_sweep_endpoints_and_kinks():
    data = ex.noise_sweep(small_cfg())
    rows = {round(row[0], 10): row for row in data.blocks[None]}
    # p=0: both white-noise curves start at 2/3
    assert abs(rows[0.0][1] - 2 / 3) < 1e-10
    assert abs(rows[0.0][2] - 2 / 3) < 1e-10
    # kink points: measured curves vanish there
    assert abs(rows[0.75][1]) < 1e-10
    assert abs(rows[0.6][2]) < 1e-10
    # p=1: both coherent-noise curves end at 4/9
    assert abs(rows[1.0][3] - 4 / 9) < 1e-10
    assert abs(rows[1.0][4] - 4 / 9) < 1e-10
    assert data.max_abs_residual < 1e-9
    assert kinks(data) == {"strange_white": 0.75, "norrell_white": 0.6, "strange_coherent": 0.6}


@pytest.mark.parametrize("p_step", [0.025, 0.05, 0.1])
def test_sweep_finds_kinks_on_grid_points(p_step):
    # the kinks at 3/5 are grid points, where the two branches tie up to rounding
    cfg = small_cfg(p_step=p_step)
    data = ex.noise_sweep(cfg)
    assert kinks(data)["norrell_white"] == pytest.approx(0.6, abs=1e-12)
    assert kinks(data)["strange_coherent"] == pytest.approx(0.6, abs=1e-12)
    assert all(passed for _, passed, _ in data.checks)


@pytest.mark.parametrize("p_step,strange_white", [(0.04, 0.76), (0.07, 0.77), (0.2, 0.8)])
def test_sweep_finds_kinks_in_the_upper_half_of_a_cell(p_step, strange_white):
    # 3/4 lies past the middle of its cell on each grid, so the kink is the
    # grid point above it; every kink is within half a step of the reference
    cfg = small_cfg(p_step=p_step)
    data = ex.noise_sweep(cfg)
    assert kinks(data)["strange_white"] == pytest.approx(strange_white, abs=1e-12)
    assert all(passed for _, passed, _ in data.checks)


def test_sweep_reports_no_kink_that_is_off_its_grid():
    # a one-point grid, p = 0 alone, holds no kink: one branch fits every point
    cfg = small_cfg(p_step=2)
    data = ex.noise_sweep(cfg)
    assert data.blocks[None].shape == (1, 9) and kinks(data) == {}
    assert [(name, ok) for name, ok, _ in data.checks] == [("sweep_residual", True),
                                                           ("sweep_kinks", False)]


def test_sweep_matches_formulas_on_grid():
    data = ex.noise_sweep(small_cfg())
    for row in data.blocks[None]:
        for mcol, rcol in ((1, 5), (2, 6), (3, 7), (4, 8)):
            assert abs(row[mcol] - row[rcol]) < 1e-9


def test_sweep_robustness_orderings():
    data = ex.noise_sweep(small_cfg())
    # white noise: the strange curve survives past the norrell one
    assert kinks(data)["strange_white"] > kinks(data)["norrell_white"]
    # coherent noise: the noisy norrell state stays at least as magical
    for row in data.blocks[None]:
        p, _, _, strange_coh, norrell_coh = row[:5]
        if 0 < p < 1:
            assert norrell_coh >= strange_coh - 1e-12


def test_coherence_bound_example_rows(named_states):
    # strange state: C = 1, M = 2/3, bound = (1/2) sqrt(1/2)
    c = mo.l1_coherence(named_states["strange"])
    m = mo.sum_negativity(named_states["strange"])
    bound = (c / 2) * np.sqrt(1 - c / 2)
    assert abs(c - 1) < 1e-12
    assert abs(bound - 0.5 * np.sqrt(0.5)) < 1e-12
    assert m - bound > 0.3
    # maximally coherent: C = 2, bound = 0, slack = M = 4/9
    c2 = mo.l1_coherence(named_states["coherent"])
    m2 = mo.sum_negativity(named_states["coherent"])
    assert abs(c2 - 2) < 1e-12
    assert abs((c2 / 2) * np.sqrt(max(0.0, 1 - c2 / 2))) < 1e-12
    assert abs(m2 - 4 / 9) < 1e-10


def test_coherence_scatter_pure_bound_holds():
    data = ex.coherence_magic_scatter(small_cfg(samples=20000))
    assert data.min_slack_pure >= -1e-9
    kinds = {kind for kind, block in data.blocks.items() if len(block)}
    assert kinds == {"pure", "mixed"}


@pytest.mark.parametrize("name", list(ex.STAGES))
def test_stage_records_survive_pickle_and_deepcopy(name):
    # records are not compared with ==, which raises on the array blocks
    record = ex.STAGES[name](small_cfg(samples=200, result1_trials=20, lp_trials=20,
                                       selective_trials=20, gso_trials=20))
    # __post_init__ sets each trailer value as an attribute, so a key naming a
    # field or method would shadow it
    members = {field.name for field in dataclasses.fields(record)} | set(dir(ex.StageRecord))
    assert not members & set(record.trailer)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert clone.csv() == record.csv()
        # each trailer value, as the scatter's min_slack_pure, still reads as an attribute
        assert {key: getattr(clone, key) for key in record.trailer} == record.trailer
        assert not hasattr(clone, "missing")


def test_entanglement_examples():
    # strange x |0>: E = 0, reduced M = 2/3, LHS = 4 exactly
    prod = linalg.tensor(linalg.dm_from_pure(linalg.strange_state()),
                         linalg.dm_from_pure(linalg.basis_ket(2, 0)))
    e = mo.negativity(prod, (3, 2))
    m = mo.sum_negativity(linalg.partial_trace(prod, (3, 2), 0))
    assert e < 1e-12
    assert abs(m - 2 / 3) < 1e-10
    assert abs(16 * e ** 2 + 9 * m ** 2 - 4) < 1e-9
    # Bell pair: E = 1/2, reduced diag(1/2, 1/2, 0) has M = 0, LHS = 4
    vec = np.zeros(6, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    bell = linalg.dm_from_pure(vec)
    e = mo.negativity(bell, (3, 2))
    m = mo.sum_negativity(linalg.partial_trace(bell, (3, 2), 0))
    assert abs(e - 0.5) < 1e-12
    assert m < 1e-12
    assert abs(16 * e ** 2 + 9 * m ** 2 - 4) < 1e-9


def test_entanglement_scatter_bound_holds():
    data = ex.entanglement_magic_scatter(small_cfg(samples=20000))
    assert data.max_lhs <= 4 + 1e-9
    assert data.max_lhs_pure <= data.max_lhs + 1e-15


def test_sweep_golden_csv():
    cfg = ex.ExperimentConfig(p_step=0.25, samples=10)
    text = ex.noise_sweep(cfg).csv()
    lines = text.splitlines()
    assert lines[0] == ("p,msn_strange_white,msn_norrell_white,msn_strange_coherent,"
                        "msn_norrell_coherent,ref_strange_white,ref_norrell_white,"
                        "ref_strange_coherent,ref_norrell_coherent")
    assert len([ln for ln in lines if not ln.startswith("#") and ln != lines[0]]) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - 2 / 3) < 1e-10
    # trailer carries the residual summary and the three kinks
    trailer = [ln for ln in lines if ln.startswith("#")]
    assert any("max_abs_residual=" in ln for ln in trailer)
    assert any("kink_strange_white=0.75" in ln for ln in trailer)


def test_csv_round_trip_precision(tmp_path):
    cfg = ex.ExperimentConfig(p_step=0.5, samples=10)
    data = ex.noise_sweep(cfg)
    path = tmp_path / "sweep.csv"
    ex.write_csv(str(path), data.csv())
    body = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    parsed = np.array([[float(x) for x in ln.split(",")] for ln in body])
    assert np.array_equal(parsed, data.blocks[None])


_special = hst.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                             1e-300, -1e300, 1.7976931348623157e308, 1 / 3])
_cells = hst.one_of(_special,
                    hst.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    hst.floats(min_value=1e299, max_value=1e301),
                    hst.floats(min_value=-1e-299, max_value=-1e-301),
                    hst.integers(min_value=-2 ** 63, max_value=2 ** 63))


@hst.composite
def _csv_blocks(draw):
    """(header, blocks, trailer) for csv_text, with blocks as object arrays so
    that int cells reach the writer as ints."""
    k = draw(hst.integers(min_value=1, max_value=5))
    labelled = draw(hst.booleans())
    labels = hst.text(alphabet="ab_%-", min_size=1, max_size=6) if labelled else hst.none()
    blocks = []
    for label in draw(hst.lists(labels, max_size=4)):
        rows = draw(hst.lists(hst.lists(_cells, min_size=k, max_size=k), max_size=5))
        blocks.append((label, np.array(rows, dtype=object).reshape(len(rows), k)))
    header = ["kind"] * labelled + [f"c{j}" for j in range(k)]
    trailer = draw(hst.lists(hst.tuples(hst.sampled_from(["a", "max_b"]), _cells), max_size=3))
    return header, blocks, trailer


@settings(max_examples=150, deadline=None)
@given(case=_csv_blocks())
def test_csv_text_matches_per_cell_oracle(case):
    header, blocks, trailer = case
    rows = [((label,) if label is not None else ()) + tuple(row)
            for label, values in blocks for row in values]
    assert ex.csv_text(header, blocks, trailer) == csv_text_oracle(header, rows, trailer)


def test_scatter_data_is_columnar():
    cfg = ex.ExperimentConfig(samples=300)
    for data, width in ((ex.coherence_magic_scatter(cfg), 4), (ex.entanglement_magic_scatter(cfg), 3)):
        blocks = list(data.blocks.values())
        assert all(isinstance(b, np.ndarray) and b.dtype == float and b.shape[1] == width
                   for b in blocks)
        assert sum(len(b) for b in blocks) == cfg.samples + cfg.samples // 10
    assert isinstance(ex.noise_sweep(cfg).blocks[None], np.ndarray)


def test_run_all_passes_and_is_deterministic(tmp_path):
    cfg_a = small_cfg(outdir=str(tmp_path / "a"))
    cfg_b = small_cfg(outdir=str(tmp_path / "b"))
    report_a = ex.run_all(cfg_a)
    report_b = ex.run_all(cfg_b)
    assert report_a.passed
    for name in ("sweep.csv", "coherence_scatter.csv", "entanglement_scatter.csv", "audits.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_run_all_sweep_and_scatter_bytes_pinned(tmp_path):
    # SHA-256 of the small-config run's sweep and scatter CSVs; they draw no
    # solver output, so no change to the polytope solver may move them.
    # audits.csv is left out here: its result1 worst margin may move in the
    # last digits when the solver's batches change. It is pinned at the
    # default config, with run-all's stdout and the other three CSVs, by
    # test_cli.py's test_run_all_seed_42_outputs_are_pinned.
    ex.run_all(small_cfg(outdir=str(tmp_path)))
    pinned = {
        "sweep.csv": "2c26c908e7942f1766d81e0b2aa093a8a874c165877db20ee97ceb96bd7cd1d7",
        "coherence_scatter.csv": "1d68bbdab3ed6296e08428d159b528862fdfb3eb29ba61ac58e2b45d45ddb3d1",
        "entanglement_scatter.csv": "c9bc870799cd568fbe0a026493d958a16232108c00b9f4d508b35a4cbc3a7e89",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_scatter_bytes_pinned_past_the_first_chunk():
    # 9,000 entanglement samples fill two sampler and negativity chunks and
    # leave a remainder; digests taken before the kernels were chunked
    cfg = ex.ExperimentConfig(samples=9000)
    assert 9000 > 2 * linalg.CHUNK and 9000 % linalg.CHUNK
    pinned = {
        ex.coherence_magic_scatter: "f724c97f7cc3ae1b81f083670bac61688ad8085ada54c9a0a9f6383cb81b3e3d",
        ex.entanglement_magic_scatter: "30282d1934a75d9ea63ebd255bbfe6851cb63eef20de4b68c42039db4343c673",
    }
    for experiment, digest in pinned.items():
        assert hashlib.sha256(experiment(cfg).csv().encode()).hexdigest() == digest, experiment.__name__


def test_entanglement_scatter_holds_one_state_stack():
    # the traced peak stays within two (n, 6, 6) complex stacks; building
    # the full-size temporaries of the unchunked kernels took about three
    n = 20_000
    cfg = ex.ExperimentConfig(samples=n)
    tracemalloc.start()
    try:
        ex.entanglement_magic_scatter(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * 36 * np.dtype(complex).itemsize


def test_entanglement_scatter_streams_its_mixed_states():
    # the mixed states are drawn and reduced one chunk at a time, so the
    # traced peak stays within the (n, 6, 6) float stack of real parts plus
    # six CHUNK-row complex stacks (4.7 measured; holding the mixed states
    # as one complex stack reads 12.4)
    n = 40_000
    cfg = ex.ExperimentConfig(samples=n)
    tracemalloc.start()
    try:
        ex.entanglement_magic_scatter(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * 36 * np.dtype(float).itemsize + 6 * linalg.CHUNK * 36 * np.dtype(complex).itemsize


def test_run_all_negative_control(tmp_path, monkeypatch):
    # machine-precision residuals cannot satisfy an absurd 1e-20 tolerance;
    # the autouse fixture forks the pool after the patch, so the workers see it
    monkeypatch.setattr(ex.ExperimentConfig, "tolerance", 1e-20)
    report = ex.run_all(small_cfg(outdir=str(tmp_path)))
    assert not report.passed
    failed = [name for name, ok, _ in report.checks if not ok]
    assert "sweep_residual" in failed


def test_derived_rng_streams_disjoint():
    a = ex.derived_rng(42, "scatter_coherence").standard_normal(4)
    b = ex.derived_rng(42, "scatter_entanglement").standard_normal(4)
    assert not np.allclose(a, b)
    again = ex.derived_rng(42, "scatter_coherence").standard_normal(4)
    assert np.array_equal(a, again)


def tiny_cfg(**kw):
    return small_cfg(**dict(dict(samples=200, result1_trials=20, lp_trials=10,
                                 selective_trials=10, gso_trials=20), **kw))


def run_python(code):
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)


def stage_pids(caplog):
    # {stage: process id} from run_all's per-stage DEBUG records
    pids = {}
    for record in caplog.records:
        if record.name != "magiclab":
            continue
        name, _, pid = record.args
        pids[name] = pid
    caplog.clear()
    return pids


def test_run_all_on_its_pool_matches_in_process(tmp_path, monkeypatch, caplog):
    if ex._stage_pool() is None:
        pytest.skip("run_all has no pool here: one usable CPU or no fork")
    caplog.set_level(logging.DEBUG, logger="magiclab")
    pooled = ex.run_all(tiny_cfg(outdir=str(tmp_path / "pool")))
    assert os.getpid() not in stage_pids(caplog).values()
    monkeypatch.setattr(ex, "_stage_pool", lambda: None)
    in_process = ex.run_all(tiny_cfg(outdir=str(tmp_path / "map")))
    assert set(stage_pids(caplog).values()) == {os.getpid()}
    assert pooled.checks == in_process.checks
    for name in ("sweep.csv", "coherence_scatter.csv", "entanglement_scatter.csv", "audits.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "map" / name).read_bytes()


def test_run_all_logs_every_stage(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="magiclab")
    ex.run_all(tiny_cfg(outdir=str(tmp_path)))
    assert set(stage_pids(caplog)) == set(ex.STAGES) == {
        "sweep", "scatter-coherence", "scatter-entanglement", "result1", "lp", "selective", "gso"}


def test_run_all_workers_see_a_patched_library(tmp_path, monkeypatch):
    # the test before this one left a pool forked from the unpatched library
    monkeypatch.setattr(channels, "MONOTONE_TOL", -1.0)
    if ex._stage_pool() is None:
        pytest.skip("run_all has no pool here: one usable CPU or no fork")
    report = ex.run_all(tiny_cfg(outdir=str(tmp_path)))
    assert [name for name, ok, _ in report.checks if not ok] == ["audit_lp", "audit_selective"]


def test_run_all_workers_forget_the_previous_tests_patch(tmp_path):
    assert ex.run_all(tiny_cfg(outdir=str(tmp_path))).passed


def test_importing_magiclab_loads_no_process_machinery():
    res = run_python("import sys, magiclab\n"
                     "print([m for m in ('multiprocessing', 'concurrent.futures.process', 'logging')"
                     " if m in sys.modules])")
    assert res.returncode == 0 and res.stdout == "[]\n", res.stderr


def test_run_all_from_a_script_without_a_main_guard(tmp_path):
    # forked workers do not re-run the caller's script; none outlives it,
    # and the exit leaves nothing on stderr
    res = run_python("from magiclab import experiments as ex\n"
                     f"cfg = ex.ExperimentConfig(outdir={str(tmp_path)!r}, samples=200,"
                     " result1_trials=20, lp_trials=10, selective_trials=10, gso_trials=20)\n"
                     "assert ex.run_all(cfg).passed\n"
                     "print(*(ex._pool._processes if ex._pool else ()))\n")
    assert res.returncode == 0 and res.stderr == ""
    for pid in map(int, res.stdout.split()):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
