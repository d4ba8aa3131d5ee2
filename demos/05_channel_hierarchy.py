"""The free-operation hierarchy, audited: incoherent channels, monomial
Clifford unitaries, genuinely stabilizer operations, and two instructive
failure modes that the audits are careful to stepize around.
"""

import numpy as np

from magiclab import (cw_coherence, dm_from_pure, estimate_cm,
                      incoherent_clifford_unitaries, l1_coherence, lp_coherence,
                      partial_trace, random_mixed, sample_incoherent_channel,
                      stabilizer_pure_states, strange_state, tensor, wigner)
from magiclab.channels import (classify, dephasing_channel, gso_audit, identity_channel,
                               unitary_channel)
from magiclab.monotones import distance_magic
from magiclab.phasespace import striation_marginals
from magiclab.stabilizer import clifford_generators, incoherent_distance

rng = np.random.default_rng(5)

print("classifier snapshot")
verts2 = stabilizer_pure_states(2)
for name, chan in (("identity", identity_channel(2)),
                   ("dephasing", dephasing_channel(2)),
                   ("Fourier unitary", unitary_channel(clifford_generators(2)[2])),
                   ("random incoherent", sample_incoherent_channel(2, 3, rng))):
    flags = classify(chan, verts2)
    print(f"  {name:<18} incoherent={str(flags.incoherent):<6} "
          f"monomial-unitary={str(flags.incoherent_clifford_unitary):<6} "
          f"stab-preserving={str(flags.stabilizer_preserving):<6} "
          f"genuinely-stab={flags.genuinely_stabilizer}")

print(f"\nmonomial Clifford unitaries: {len(incoherent_clifford_unitaries(2))} for d=2, "
      f"{len(incoherent_clifford_unitaries(3))} for d=3")

print("\nsearch for a nontrivial channel fixing every qubit stabilizer vertex")
gso = gso_audit(n_trials=3000, seed=rng)
print(f"  fixers among 3000 random channels: {gso.details['non_identity_fixers']} "
      "(only the identity can)")

print("\ncoherence as the budget for creating magic")
rho = random_mixed(3, seed=rng)
print(f"  distance_magic(rho)      = {distance_magic(rho):.6f}")
print(f"  sup over incoherent maps = {estimate_cm(rho, 200, seed=rng):.6f} (certified lower bound over sampled maps)")
print(f"  distance_coherence(rho)  = {incoherent_distance(rho):.6f} (proven ceiling)")

print("\ninstructive failure 1: the bare partial-trace step is NOT l_p-monotone for p > 1")
sigma = np.diag([0.5, 0.5]).astype(complex)
joint = tensor(dm_from_pure(strange_state()), sigma)
c_joint = lp_coherence(joint, 2)
c_traced = lp_coherence(partial_trace(joint, (3, 2), 0), 2)
print(f"  C_l2(rho x sigma) = {c_joint:.6f} but C_l2 after tracing sigma out = {c_traced:.6f}")
print("  (the mixed ancilla scales C_l2 down by (sum q^2)^(1/2); tracing restores it;")
print("   the protocol END-TO-END is still monotone, which is what the lp audit checks)")

print("\ninstructive failure 2: the line-sum functional C_w is not a monotone at all")
print("  C_w = min over lambda >= 0 of (|1 - lambda| + sum_l |m_l - lambda/3|)/4 over the")
print("  9 non-vertical line sums m_l; the vertical sums are diag(rho), fixed by phases")
rho = random_mixed(3, seed=12)
vals = []
for phi in np.linspace(0.0, 2 * np.pi, 13):
    u = np.diag([1.0, np.exp(1j * phi), 1.0])
    rotated = u @ rho @ u.conj().T
    vals.append(cw_coherence(rotated))
    sums = striation_marginals(wigner(rotated))
    print(f"  phi={phi:.3f}  vertical={np.array2string(sums[0], precision=3)}  "
          f"non-vertical={np.array2string(sums[1:].ravel(), precision=3)}  C_w={vals[-1]:.6f}")
print(f"  C_w along a diagonal-phase orbit: min={min(vals):.6f} max={max(vals):.6f}")
print(f"  l1 along the same orbit is constant: {l1_coherence(rho):.6f}")
print("  (phase rotations are reversible incoherent operations, so a true")
print("   coherence monotone could not vary along this orbit; only the")
print("   non-vertical line sums move, and C_w moves with them)")
