"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline). The
criteria, tolerances and runtime budgets are fixed here, not calibrated.
"""

import subprocess
import sys
import time

import numpy as np

from magiclab import channels as ch, experiments as ex, linalg, monotones as mo
from magiclab import phasespace as ps
from conftest import cw_grid_oracle, random_pure, random_qutrit_batch, trace_distance


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_acceptance_1_closed_form_equivalence():
    ps.phase_point_ops(3)  # warm the per-dimension cache outside the clock
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        if i < 500:
            rho = linalg.dm_from_pure(random_pure(3, rng))
        else:
            rho = linalg.random_mixed(3, seed=rng)
        worst = max(worst, float(np.max(np.abs(ps.wigner(rho) - ps.qutrit_closed_form(rho)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    assert report(1, "closed-form Wigner equivalence",
                  ok, f"max cell deviation={worst:.3e} over 1000 states, {elapsed:.2f}s")


def test_acceptance_2_noise_sweep_reproduction():
    start = time.perf_counter()
    data = ex.noise_sweep(ex.ExperimentConfig(samples=10))
    elapsed = time.perf_counter() - start
    kinks_ok = (abs(data.kink_strange_white - 0.75) < 1e-12
                and abs(data.kink_norrell_white - 0.6) < 1e-12
                and abs(data.kink_strange_coherent - 0.6) < 1e-12)
    ok = data.max_abs_residual < 1e-9 and kinks_ok and elapsed < 5.0
    assert report(2, "noise-sweep reproduction", ok,
                  f"max residual={data.max_abs_residual:.3e}, trailer={data.trailer}, {elapsed:.2f}s")


def test_acceptance_3_endpoint_values(named_states):
    mixed = linalg.maximally_mixed(3)
    coh = named_states["coherent"]
    errs = [
        abs(mo.sum_negativity(named_states["strange"]) - 2 / 3),
        abs(mo.sum_negativity(named_states["norrell"]) - 2 / 3),
        abs(mo.sum_negativity(0.0 * mixed + 1.0 * coh) - 4 / 9),  # both p=1 curves end at |c><c|
    ]
    worst = max(errs)
    assert report(3, "endpoint sum negativities", worst < 1e-10, f"worst deviation={worst:.3e}")


def test_acceptance_4_conjecture_audits():
    start = time.perf_counter()
    cfg = ex.ExperimentConfig(seed=42, samples=100_000)
    coh = ex.coherence_magic_scatter(cfg)
    ent = ex.entanglement_magic_scatter(cfg)
    elapsed = time.perf_counter() - start
    ok = (coh.min_slack_pure >= -1e-9 and ent.max_lhs <= 4.0 + 1e-9 and elapsed < 300.0)
    assert report(4, "conjecture audits", ok,
                  f"min slack (1e5 pure)={coh.min_slack_pure:.3e}, "
                  f"max LHS (1e5 mixed + 1e4 pure)={ent.max_lhs:.9f}, "
                  f"max LHS on pure={ent.max_lhs_pure:.6f} (expected to approach 4; reported, "
                  f"not asserted), {elapsed:.1f}s")


def test_acceptance_5_result1_audit():
    audit = ch.result1_audit(n_trials=10_000, seed=ex.derived_rng(42, "audit_result1"))
    ok = audit.passed and audit.details["violations"] == 0
    assert report(5, "magic bounded by initial coherence", ok,
                  f"worst margin={audit.worst_margin:.3e} over 10^4 pairs, tol 1e-8, "
                  f"violations={audit.details['violations']}")


def test_acceptance_6_stabilizer_enumeration(qutrit_vertices, qubit_vertices):
    counts_ok = len(qutrit_vertices) == 12 and len(qubit_vertices) == 6
    msn_worst = max(float(np.abs(ps.wigner(v)).sum() - 1) for v in qutrit_vertices.projectors)
    basis_ok = all(
        min(trace_distance(linalg.dm_from_pure(linalg.basis_ket(3, i)), v)
            for v in qutrit_vertices.projectors) < 1e-10
        for i in range(3))
    ok = counts_ok and msn_worst < 1e-10 and basis_ok
    assert report(6, "stabilizer enumeration", ok,
                  f"counts=({len(qutrit_vertices)},{len(qubit_vertices)}), "
                  f"worst vertex sum negativity={msn_worst:.3e}, basis included={basis_ok}")


def test_acceptance_7_hierarchy_audits():
    lp = ch.lp_monotonicity_audit(n_trials=1000, seed=ex.derived_rng(42, "audit_lp"))
    sel = ch.selective_audit(n_trials=1000, seed=ex.derived_rng(42, "audit_selective"))
    gso = ch.gso_audit(n_trials=10_000, seed=ex.derived_rng(42, "audit_gso"))
    ok = lp.passed and sel.passed and gso.passed
    assert report(7, "hierarchy audits", ok,
                  f"lp worst={lp.worst_margin:.3e} ({lp.details['worst_leg']}), "
                  f"selective worst={sel.worst_margin:.3e}, "
                  f"gso fixers={gso.details['non_identity_fixers']}/10^4, "
                  f"both-bases kernel dim={gso.details['diag_both_bases_kernel_dim']}")


def test_acceptance_8a_cw_zero_on_diagonals():
    rng = np.random.default_rng(1008)
    worst = max(mo.cw_coherence(np.diag(rng.dirichlet(np.ones(3))).astype(complex))
                for _ in range(100))
    assert report("8a", "C_w vanishes on incoherent states", worst < 1e-7,
                  f"max over 100 random diagonals={worst:.3e}")


def test_acceptance_8b_cw_contractivity():
    # Stated criterion: C_w(channel(rho)) <= C_w(rho) + 2e-6 for 200 random
    # CPTP channels. This fails because the line-sum functional is not a
    # monotone of any kind: it increases under generic channels and even
    # varies along reversible incoherent phase-rotation orbits (grid-oracle
    # confirmed). The audit is kept faithful rather than loosened.
    audit = ch.cw_contractivity_audit(n_trials=200, seed=ex.derived_rng(42, "cw_contractivity"))
    report("8b", "C_w contractivity under random CPTP channels", audit.passed,
           f"worst increase={audit.worst_margin:.3e} over 200 channels, slack 2e-6")
    assert audit.passed, (
        f"C_w increased by up to {audit.worst_margin:.3e} under 200 random CPTP channels "
        "(slack 2e-6). This is a property failure of the line-sum functional itself, "
        "not of the optimizer: oracle-verified counterexamples show C_w rising under "
        "generic channels, under incoherent channels, and along reversible incoherent "
        "phase orbits where l1 coherence is exactly constant.")


def test_acceptance_8c_cw_optimizer_vs_oracle():
    rhos = random_qutrit_batch(20, seed=1009)
    worst = max(abs(mo.cw_coherence(rho) - cw_grid_oracle(rho)) for rho in rhos)
    assert report("8c", "C_w optimizer matches dense-grid oracle", worst < 1e-4,
                  f"max |optimizer - oracle| over 20 states={worst:.3e}")


def test_acceptance_9_run_all_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("samples=1000\nresult1_trials=100\nlp_trials=30\n"
                   "selective_trials=30\ngso_trials=100\n")
    outputs = []
    for sub in ("a", "b"):
        res = subprocess.run(
            [sys.executable, "-W", "error", "-m", "magiclab", "run-all", "--seed", "42",
             "--config", str(cfg), "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        outputs.append({name: (tmp_path / sub / name).read_bytes()
                        for name in ("sweep.csv", "coherence_scatter.csv",
                                     "entanglement_scatter.csv", "audits.csv")})
    identical = outputs[0] == outputs[1]
    assert report(9, "run-all determinism", identical,
                  "two seed-42 runs produced byte-identical CSV artifacts"
                  if identical else "CSV artifacts differ between identical runs")
