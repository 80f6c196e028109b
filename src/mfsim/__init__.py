"""Stochastic simulator for measurement-and-feedback quantum simulation.

Atoms in cavities emit photons that are jointly measured behind a beam
splitter; a repeat-until-success feedback loop on the emission strength
turns the random measurement back-action into any two-qubit rotation
e^{it s_k x s_l}, modulo a classically tracked Pauli error frame.  A
first-order Trotter compiler lifts this to arbitrary sums of two-qubit
Hamiltonians, and a backup-qubit protocol makes every round tolerant to
photon loss.
"""

from .compiler import (HamiltonianSpec, PairTerm, Rotation, TrotterPlan, compile_plan,
                       plan_unitary, round_budget, schedule_parallel)
from .emission import (BeamSplitterOutcome, PhotonEncoding, beamsplitter_measure, joint_emission,
                       outcome_probabilities, u_eps)
from .errors import ConfigError, IncompleteRotationError, ProtocolError, ResourceError, UsageError
from .feedback import EpsilonPolicy, PolicyMode, RoundRecord, Rounds, realize_v, realize_v_kl
from .harness import (ProtocolConfig, TrajectoryStats, cnot_demo, emit_report, probe_rounds,
                      run_ensemble, run_trajectory)
from .loss import (LossConfig, RoundBranch, RoundTable, backup_round, loss_channel, photon_copy,
                   photon_round, round_branches)
from .pauli import ErrorFrame, PauliAxis, PauliString, commutes, frame_conjugate_direction
from .statevec import (RegisterLayout, StateVector, apply_local, apply_pauli_string,
                       apply_two_qubit, exact_evolution, measure)

__version__ = "0.1.0"
