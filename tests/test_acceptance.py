"""End-to-end acceptance criteria, one test per numbered claim.

Each test prints a single PASS/FAIL summary line with its measured value so a
full run doubles as a human-readable scorecard.
"""

import json
import math

import numpy as np

from mfsim.compiler import (
    HamiltonianSpec,
    compile_plan,
    plan_unitary,
    round_budget,
    schedule_parallel,
)
from mfsim.feedback import EpsilonPolicy, realize_v, realize_v_kl
from mfsim.harness import (
    ProtocolConfig,
    cnot_demo,
    haar_random_amplitudes,
    noiseless_plan_fidelity,
    probe_rounds,
    run_trajectory,
    trajectory_rng,
)
from mfsim.pauli import ErrorFrame, PauliAxis, PauliString
from mfsim.statevec import RegisterLayout, apply_pauli_string, exact_evolution
from mfsim.cli import main as cli_main

from conftest import AXIS_MATS, embedded_state, kron_le, rot_xx

XX = (PauliAxis.X, PauliAxis.X)


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


class TestC1OutcomeLaw:
    def test_four_outcome_frequencies(self):
        rng = trajectory_rng(101, 0)
        n = 100_000
        worst = 0.0
        for eps in (0.1, 0.2, 0.5):
            out = probe_rounds(eps, n, rng)
            q = 0.5 * ((1 - eps) ** 2 + eps**2)
            analytic = {"plus": q, "minus": q, "hh": eps * (1 - eps), "vv": eps * (1 - eps)}
            for lab, p in analytic.items():
                se = math.sqrt(p * (1 - p) / n)
                devs = abs(out["frequencies"][lab] - p) / se
                worst = max(worst, devs)
        _verdict(
            "C1 outcome law",
            worst <= 3.0,
            f"max deviation {worst:.2f} standard errors over eps in {{0.1,0.2,0.5}}, "
            f"{n} rounds each",
        )


class TestC2ExactRotation:
    def test_ten_thousand_randomized_calls(self):
        policy = EpsilonPolicy(max_rounds=256)
        layout = RegisterLayout.build(2)
        n_calls = 10_000
        min_fid = 1.0
        total_rounds = 0
        for i in range(n_calls):
            rng = trajectory_rng(202, i)
            psi = haar_random_amplitudes(2, rng)
            st = embedded_state(psi, layout)
            t = float(rng.uniform(-math.pi / 2, math.pi / 2))
            frame = ErrorFrame.identity(4)
            st, frame, recs = realize_v(st, (0, 1), t, policy, frame, rng)
            got = apply_pauli_string(st, frame.byproduct).amplitudes[:4]
            fid = abs(np.vdot(rot_xx(t) @ psi, got)) ** 2
            min_fid = min(min_fid, fid)
            total_rounds += len(recs)
        mean_rounds = total_rounds / n_calls
        _verdict(
            "C2 exact rotation modulo frame",
            min_fid >= 1 - 1e-9 and mean_rounds <= 4.0,
            f"min fidelity {min_fid:.2e} over {n_calls} calls, mean rounds {mean_rounds:.2f}",
        )


class TestC3ConjugatedRotations:
    def test_all_axis_pairs_with_random_frames(self):
        policy = EpsilonPolicy(max_rounds=256)
        layout = RegisterLayout.build(2)
        axes = [PauliAxis.X, PauliAxis.Y, PauliAxis.Z]
        min_fid = 1.0
        case = 0
        for k in axes:
            for l in axes:
                target = PauliString.embed(4, {0: k, 1: l})
                t_mat = kron_le(AXIS_MATS[k.value], AXIS_MATS[l.value])
                for trial in range(8):
                    rng = trajectory_rng(303, case)
                    case += 1
                    psi = haar_random_amplitudes(2, rng)
                    st = embedded_state(psi, layout)
                    # half the trials start from a random anticommuting frame
                    frame = ErrorFrame.identity(4)
                    if trial % 2:
                        while True:
                            pre = PauliString(
                                tuple(axes[j] for j in rng.integers(0, 3, size=2))
                                + (PauliAxis.I, PauliAxis.I)
                            )
                            from mfsim.pauli import commutes

                            if not commutes(pre, target):
                                break
                        frame = ErrorFrame(pre)
                        st = apply_pauli_string(st, pre)
                    t = float(rng.uniform(-1.5, 1.5))
                    st, frame, _ = realize_v_kl(st, (0, 1), k, l, t, policy, frame, rng)
                    got = apply_pauli_string(st, frame.byproduct).amplitudes[:4]
                    want = (math.cos(t) * np.eye(4) + 1j * math.sin(t) * t_mat) @ psi
                    min_fid = min(min_fid, abs(np.vdot(want, got)) ** 2)
        _verdict(
            "C3 conjugated rotations",
            min_fid >= 1 - 1e-9,
            f"min fidelity {min_fid:.2e} over 9 axis pairs x 8 trials "
            "(half seeded with anticommuting frames)",
        )


class TestC4TrotterConvergence:
    H = {
        "n_qubits": 3,
        "terms": [
            {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
            {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
        ],
    }

    def test_error_halves_and_ensemble_tracks_envelope(self):
        h = HamiltonianSpec.from_dict(self.H)
        t = 0.5
        exact = exact_evolution(h, t)
        errs = {
            n: float(np.linalg.norm(plan_unitary(compile_plan(h, t, n)) - exact, 2))
            for n in (16, 32)
        }
        ratio = errs[16] / errs[32]

        cfg = ProtocolConfig.from_dict(
            {
                "hamiltonian": self.H,
                "t": t,
                "n_steps": 16,
                "trajectories": 200,
                "master_seed": 404,
                "initial_state": {"random_seed": 3},
                "policy": {"max_rounds": 256},
            }
        )
        envelope = noiseless_plan_fidelity(cfg)
        fids = np.array(
            [run_trajectory(cfg, i).fidelity_vs_oracle for i in range(cfg.trajectories)]
        )
        mean = float(fids.mean())
        # the stochastic execution is the plan unitary up to machine rounding,
        # so the spread is numerical; 3 sigma of the observed sample applies
        sigma = float(fids.std(ddof=1)) / math.sqrt(len(fids)) + 1e-12
        consistent = abs(mean - envelope) <= 3 * sigma + 1e-9
        _verdict(
            "C4 Trotter convergence",
            1.5 <= ratio <= 2.5 and consistent,
            f"error ratio n=16/n=32 is {ratio:.3f}; ensemble mean fidelity "
            f"{mean:.12f} vs noiseless envelope {envelope:.12f} over 200 trajectories",
        )


class TestC5ScalingTrends:
    @staticmethod
    def _chain(m):
        # m two-site terms on an open chain of m+1 sites
        return HamiltonianSpec.chain_1d(m + 1, "XX", 1.0)

    def test_serial_quadratic_and_parallel_m_log_m(self):
        # fixed precision: sweeps proportional to m keeps the per-sweep angle
        # error budget constant, so total rotations grow like m^2
        sizes = [2, 4, 8]
        totals = []
        policy = EpsilonPolicy(max_rounds=512)
        for m in sizes:
            h = self._chain(m)
            plan = compile_plan(h, 0.5, 4 * m)
            layout = RegisterLayout.build(h.n_qubits)
            rng = trajectory_rng(505, m)
            psi = haar_random_amplitudes(h.n_qubits, rng)
            st = embedded_state(psi, layout)
            frame = ErrorFrame.identity(layout.n_qubits)
            rounds = 0
            for _ in range(plan.n_steps):
                for rot in plan.sweep_rotations():
                    st, frame, recs = realize_v_kl(
                        st, rot.sites, rot.axes[0], rot.axes[1], rot.angle,
                        policy, frame, rng,
                    )
                    rounds += len(recs)
            totals.append(rounds)
        slope = np.polyfit(np.log(sizes), np.log(totals), 1)[0]

        # layered schedule: depth per sweep and m log m vs m^2 depth fit
        budget_sizes = [2, 4, 8, 16, 32]
        depths = []
        layer_counts = set()
        for m in budget_sizes:
            plan = schedule_parallel(compile_plan(self._chain(m), 0.5, 4 * m))
            layer_counts.add(len(plan.layers))
            depths.append(round_budget(plan)["parallel_depth"])
        depths = np.array(depths, dtype=float)
        ms = np.array(budget_sizes, dtype=float)

        def fit_residual(basis):
            c = float(np.dot(basis, depths) / np.dot(basis, basis))
            return float(np.sum((depths - c * basis) ** 2))

        res_mlogm = fit_residual(ms * np.log2(ms))
        res_m2 = fit_residual(ms**2)
        _verdict(
            "C5 scaling trends",
            abs(slope - 2.0) <= 0.3 and layer_counts == {2} and res_mlogm < res_m2,
            f"serial log-log slope {slope:.3f} over m={sizes} (totals {totals}); "
            f"layers per sweep {sorted(layer_counts)}; parallel-depth residuals "
            f"m*log m {res_mlogm:.3g} vs m^2 {res_m2:.3g}",
        )


class TestC6LossTolerance:
    def _run(self, p_loss, n_traj, max_rounds):
        cfg = ProtocolConfig.from_dict(
            {
                "hamiltonian": {
                    "n_qubits": 2,
                    "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}],
                },
                "t": 0.8,
                "n_steps": 5,  # 5 rotations total
                "trajectories": n_traj,
                "master_seed": 606,
                "initial_state": {"random_seed": 5},
                "policy": {"max_rounds": max_rounds},
                "loss": {"p_loss": p_loss, "backup_enabled": True},
            }
        )
        return [run_trajectory(cfg, i) for i in range(n_traj)]

    def test_backup_protocol_tolerates_loss(self):
        worst_fid = 1.0
        retry_summary = []
        ok = True
        for p in (0.3, 0.6, 0.9):
            n_traj = 80 if p < 0.9 else 20
            stats = self._run(p, n_traj, max_rounds=40_000)
            completed = [s for s in stats if not s.failed]
            assert completed, f"no completed trajectories at p_loss={p}"
            worst_fid = min(worst_fid, min(s.fidelity_vs_oracle for s in completed))
            retries = np.array(
                [r for s in completed for r in s.photon_retry_counts], dtype=float
            )
            want = 1.0 / (1 - p) ** 2
            # attempts per useful round are geometric with success (1-p)^2
            q = (1 - p) ** 2
            sem = math.sqrt((1 - q) / q**2) / math.sqrt(len(retries))
            dev = abs(retries.mean() - want) / sem
            retry_summary.append(f"p={p}: mean {retries.mean():.1f} vs {want:.1f} ({dev:.1f} sigma)")
            ok = ok and dev <= 3.0
        ok = ok and worst_fid >= 1 - 1e-9

        # negative control: silent occupation losses corrupt the state
        cfg = ProtocolConfig.from_dict(
            {
                "hamiltonian": {
                    "n_qubits": 2,
                    "terms": [{"sites": [0, 1], "axes": "XX", "coeff": 1.0}],
                },
                "t": 0.8,
                "n_steps": 5,
                "trajectories": 60,
                "master_seed": 607,
                "initial_state": {"random_seed": 5},
                "policy": {"max_rounds": 512},
                "loss": {"p_loss": 0.3, "encoding": "occupation"},
            }
        )
        neg_fids = [run_trajectory(cfg, i).fidelity_vs_oracle for i in range(60)]
        neg_mean = float(np.mean(neg_fids))
        ok = ok and neg_mean < 0.99
        _verdict(
            "C6 loss tolerance",
            ok,
            f"min completed fidelity {worst_fid:.2e}; retries [{'; '.join(retry_summary)}]; "
            f"occupation negative control mean fidelity {neg_mean:.3f}",
        )


class TestC7CnotConstruction:
    def test_noiseless_and_lossy(self):
        clean = cnot_demo(EpsilonPolicy(max_rounds=256), master_seed=707)
        lossy = cnot_demo(
            EpsilonPolicy(max_rounds=8192), master_seed=708, p_loss=0.5, backup=True
        )
        ok = (
            clean["process_fidelity"] >= 1 - 1e-8
            and lossy["process_fidelity"] >= 1 - 1e-8
        )
        _verdict(
            "C7 CNOT construction",
            ok,
            f"process fidelity {clean['process_fidelity']:.2e} noiseless, "
            f"{lossy['process_fidelity']:.2e} at p_loss=0.5 with backup",
        )


class TestC8Reproducibility:
    def test_byte_identical_reports(self, tmp_path):
        cfg = {
            "hamiltonian": {
                "n_qubits": 3,
                "terms": [
                    {"sites": [0, 1], "axes": "XY", "coeff": 0.9},
                    {"sites": [1, 2], "axes": "ZZ", "coeff": -0.4},
                ],
            },
            "t": 0.4,
            "n_steps": 3,
            "trajectories": 4,
            "master_seed": 808,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            blobs.append(
                (out / "report.json").read_bytes() + (out / "audit.jsonl").read_bytes()
            )
        _verdict(
            "C8 reproducibility",
            blobs[0] == blobs[1],
            f"two runs, {len(blobs[0])} bytes of report+audit each, byte-identical",
        )
