"""magiclab: discrete-Wigner magic and coherence numerics for small qudits."""

from .linalg import (basis_ket, dm_from_pure, maximally_coherent_state,
                     maximally_mixed, norrell_state, partial_trace,
                     partial_transpose, random_mixed, strange_state,
                     tensor)
from .phasespace import (displacement, phase_point_ops, qutrit_closed_form,
                         striation_marginals, striations, wigner)
from .stabilizer import (PolytopeResult, StabilizerVertexSet,
                         clifford_generators, in_polytope, incoherent_distance,
                         polytope_distance, stabilizer_pure_states)
from .monotones import (cw_coherence, distance_magic, l1_coherence,
                        lp_coherence, mana, negativity, sum_negativity)
from .channels import (KrausChannel, apply, estimate_cm,
                       incoherent_clifford_unitaries, is_incoherent,
                       sample_incoherent_channel)
from .experiments import (ExperimentConfig, coherence_magic_scatter,
                          entanglement_magic_scatter, noise_sweep, run_all)

__version__ = "0.1.0"
