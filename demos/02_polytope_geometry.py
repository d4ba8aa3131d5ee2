"""The stabilizer polytope: vertices, membership, and distance monotones."""

import numpy as np

from magiclab import (cw_coherence, distance_magic, dm_from_pure, in_polytope,
                      incoherent_distance, l1_coherence, mana,
                      maximally_coherent_state, maximally_mixed, norrell_state,
                      polytope_distance, stabilizer_pure_states, strange_state,
                      sum_negativity)

np.set_printoptions(precision=4, suppress=True)

verts = stabilizer_pure_states(3)
print(f"qutrit stabilizer vertices: {len(verts)}")
for word, ket in zip(verts.words, verts.kets):
    print(f"  {word:>8}  {np.round(ket, 4)}")

octa = stabilizer_pure_states(2)
print(f"\nqubit stabilizer vertices: {len(octa)} (the octahedron)")

print()
print(f"{'state':<22} {'in polytope':<12} {'distance':>9} {'M_SN':>8} "
      f"{'mana':>8} {'C_l1':>6} {'C_w':>8} {'D_inc':>7}")
rows = {
    "maximally mixed": maximally_mixed(3),
    "basis |0>": verts.projectors[0],
    "strange": dm_from_pure(strange_state()),
    "norrell": dm_from_pure(norrell_state()),
    "maximally coherent": dm_from_pure(maximally_coherent_state()),
}
for name, rho in rows.items():
    res = polytope_distance(rho, verts)
    print(f"{name:<22} {str(in_polytope(rho)):<12} {res.distance:>9.5f} "
          f"{sum_negativity(rho):>8.5f} {mana(rho):>8.5f} {l1_coherence(rho):>6.3f} "
          f"{cw_coherence(rho):>8.5f} {incoherent_distance(rho):>7.4f}")

print("""
Notes: the strange state sits exactly 1/2 from the polytope, the Norrell
state exactly 1/3, and distance to the diagonal states always dominates
distance to the polytope (every diagonal state is a stabilizer state).""")

rho = dm_from_pure(strange_state())
print(f"distance_magic(strange)     = {distance_magic(rho):.6f}")
print(f"distance_coherence(strange) = {incoherent_distance(rho):.6f}")
