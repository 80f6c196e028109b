import json
import math
import time
from math import comb

import numpy as np
import pytest

from mfsim.compiler import (
    HamiltonianSpec,
    PairTerm,
    Rotation,
    TrotterPlan,
    binomial_tail_at_least,
    compile_plan,
    plan_unitary,
    round_budget,
    schedule_parallel,
    serial_success_probability,
)
from mfsim.errors import ConfigError, UsageError
from mfsim.harness import ProtocolConfig, run_trajectory
from mfsim.pauli import PauliAxis
from mfsim.statevec import exact_evolution

from conftest import random_hamiltonian

XX = (PauliAxis.X, PauliAxis.X)
ZZ = (PauliAxis.Z, PauliAxis.Z)


def ring_1d(n, axes=XX, coeff=1.0):
    return HamiltonianSpec(
        n, tuple(PairTerm((i, (i + 1) % n), axes, coeff) for i in range(n))
    )


class TestHamiltonianSpec:
    def test_round_trip(self):
        h = HamiltonianSpec.chain_1d(4, "XZ", 0.7)
        again = HamiltonianSpec.from_dict(json.loads(json.dumps(h.to_dict())))
        assert again == h

    def test_chain_has_n_minus_one_bonds(self):
        assert len(HamiltonianSpec.chain_1d(5).terms) == 4

    def test_matrix_is_hermitian(self):
        h = HamiltonianSpec.from_dict(
            {"n_qubits": 3, "terms": [
                {"sites": [0, 1], "axes": "XY", "coeff": 0.4},
                {"sites": [1, 2], "axes": "ZZ", "coeff": -1.1},
            ]}
        )
        m = h.to_matrix()
        assert np.allclose(m, m.conj().T)

    def test_site_out_of_range(self):
        with pytest.raises(ConfigError):
            HamiltonianSpec.from_dict(
                {"n_qubits": 2, "terms": [{"sites": [0, 2], "axes": "XX", "coeff": 1.0}]}
            )

    def test_identity_axis_rejected(self):
        with pytest.raises(UsageError):
            PairTerm((0, 1), (PauliAxis.I, PauliAxis.X), 1.0)

    def test_coincident_sites_rejected(self):
        with pytest.raises(UsageError):
            PairTerm((1, 1), XX, 1.0)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coeff_rejected(self, coeff):
        with pytest.raises(UsageError, match=f"coeff must be finite and a JSON number, got {coeff}"):
            PairTerm((0, 1), XX, coeff)

    def test_no_qubits_rejected(self):
        with pytest.raises(UsageError, match="at least one qubit, got 0"):
            HamiltonianSpec(0, ())

    def test_term_site_outside_register_rejected(self):
        with pytest.raises(UsageError, match=r"hamiltonian.terms\[0\].sites must be two distinct "
                                             r"sites in \[0, 2\), got \[0, 2\]"):
            HamiltonianSpec(2, (PairTerm((0, 2), XX, 1.0),))


class TestCompilePlan:
    def test_angle_is_t_lambda_over_n(self):
        h = HamiltonianSpec.chain_1d(3, "XX", 0.8)
        plan = compile_plan(h, 0.5, 4)
        for rot in plan.sweep_rotations():
            assert rot.angle == pytest.approx(0.5 * 0.8 / 4)
        assert plan.total_rotations == 2 * 4

    def test_commuting_terms_compile_exactly(self):
        # all-ZZ terms commute, so one sweep already equals the exact evolution
        h = HamiltonianSpec.chain_1d(4, "ZZ", 0.9)
        plan = compile_plan(h, 0.67, 1)
        assert np.max(np.abs(plan_unitary(plan) - exact_evolution(h, 0.67))) <= 1e-10

    def test_first_order_error_halves_with_n(self):
        # non-commuting mix: operator-norm Trotter error scales as 1/n
        h = HamiltonianSpec.from_dict(
            {"n_qubits": 3, "terms": [
                {"sites": [0, 1], "axes": "XX", "coeff": 1.0},
                {"sites": [1, 2], "axes": "ZZ", "coeff": 0.7},
            ]}
        )
        t = 0.5
        exact = exact_evolution(h, t)
        errs = [
            float(np.linalg.norm(plan_unitary(compile_plan(h, t, n)) - exact, 2))
            for n in (16, 32, 64)
        ]
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.1)

    def test_zero_steps_rejected(self):
        with pytest.raises(UsageError):
            compile_plan(HamiltonianSpec.chain_1d(2), 1.0, 0)

    @pytest.mark.parametrize("n_steps, message", [
        (0, "n_steps must be at least 1"), (-1, "n_steps must be at least 1"),
        (2.5, "n_steps must be an integer, got 2.5"), ("3", "n_steps must be an integer"),
        (10**400, "n_steps exceeds the largest float")],
        ids=["zero", "negative", "fraction", "string", "past-float"])
    def test_plan_checks_n_steps_as_compile_plan_does(self, n_steps, message):
        layers = ((Rotation((0, 1), XX, 0.1),),)
        for build in (lambda: TrotterPlan(2, n_steps, layers), lambda: TrotterPlan(2, n_steps, ()),
                      lambda: compile_plan(HamiltonianSpec.chain_1d(2), 1.0, n_steps)):
            with pytest.raises(UsageError, match=f"^{message}"):
                build()

    def test_plan_takes_an_integral_float_step_count(self):
        plan = TrotterPlan(2, 3.0, ())
        assert plan.n_steps == 3 and type(plan.n_steps) is int

    @pytest.mark.parametrize("sites", [(0, 5), (2, 1)])
    def test_rotation_sites_outside_the_register_rejected(self, sites):
        with pytest.raises(UsageError, match=r"^rotation sites must lie in \[0, 2\), got"):
            TrotterPlan(2, 1, ((Rotation(sites, XX, 0.1),),))

    @pytest.mark.parametrize("sites, axes, angle, message", [
        ((0, 1.5), XX, 0.1, "sites must be an integer, got 1.5"),
        ((0, 0), XX, 0.1, r"sites must be two distinct sites, got \(0, 0\)"),
        ((-1, 0), XX, 0.1, "sites must be non-negative"),
        ((0, 1), XX, math.nan, "angle must be finite and a JSON number, got nan"),
        ((0, 1), XX, math.inf, "angle must be finite and a JSON number, got inf"),
        ((0, 1), (PauliAxis.I, PauliAxis.X), 0.1, "axes must be two letters of X, Y, Z"),
        ((0, 1), (PauliAxis.X,), 0.1, "axes must be two letters of X, Y, Z")],
        ids=["fractional-site", "same-site", "negative-site", "nan-angle", "inf-angle",
             "identity-axis", "one-axis"])
    def test_rotation_checks_itself_when_built(self, sites, axes, angle, message):
        with pytest.raises(UsageError, match=f"^{message}"):
            Rotation(sites, axes, angle)

    def test_rotation_keeps_integer_sites_and_a_float_angle(self):
        rot = Rotation((np.int64(2), 0.0), "ZY", 1)
        assert rot == Rotation((2, 0), (PauliAxis.Z, PauliAxis.Y), 1.0)
        assert [type(s) for s in rot.sites] == [int, int] and type(rot.angle) is float

    def test_layer_disjointness_enforced(self):
        rots = (Rotation((0, 1), XX, 0.1), Rotation((1, 2), XX, 0.1))
        with pytest.raises(UsageError):
            TrotterPlan(3, 1, (rots,))


class TestScheduleParallel:
    def test_open_chain_two_layers(self):
        plan = schedule_parallel(compile_plan(HamiltonianSpec.chain_1d(4), 0.3, 1))
        got = [[r.sites for r in layer] for layer in plan.layers]
        assert got == [[(0, 1), (2, 3)], [(1, 2)]]

    def test_even_ring_two_layers(self):
        plan = schedule_parallel(compile_plan(ring_1d(6), 0.3, 2))
        got = [[r.sites for r in layer] for layer in plan.layers]
        assert got == [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)]]

    def test_preserves_rotation_multiset(self):
        plan = compile_plan(HamiltonianSpec.chain_1d(7, "XY", 0.4), 0.9, 3)
        sp = schedule_parallel(plan)
        assert sorted(r.sites for r in sp.sweep_rotations()) == sorted(
            r.sites for r in plan.sweep_rotations()
        )
        assert sp.n_steps == plan.n_steps

    def test_unitary_unchanged_for_commuting_layers(self):
        # site-disjoint regrouping only reorders commuting rotations
        h = HamiltonianSpec.chain_1d(5, "XX", 1.0)
        plan = compile_plan(h, 0.42, 2)
        assert np.allclose(plan_unitary(plan), plan_unitary(schedule_parallel(plan)))

    def test_long_chain_never_more_than_two_layers(self):
        for n in (3, 8, 15):
            sp = schedule_parallel(compile_plan(HamiltonianSpec.chain_1d(n), 0.2, 1))
            assert len(sp.layers) == 2


class TestScheduleKeepsTheProduct:
    """A rotation moves ahead only of the rotations it commutes with."""

    def test_anticommuting_rotation_stays_behind(self):
        # XX(2,3) anticommutes with ZZ(1,2), so it may not join XX(0,1)'s layer ahead of it
        h = HamiltonianSpec(4, (PairTerm((0, 1), XX, 1.0), PairTerm((1, 2), ZZ, 1.0),
                                PairTerm((2, 3), XX, 1.0)))
        plan = compile_plan(h, 0.7, 2)
        sp = schedule_parallel(plan)
        assert [[r.sites for r in layer] for layer in sp.layers] == [[(0, 1)], [(1, 2)], [(2, 3)]]
        assert np.abs(plan_unitary(sp) - plan_unitary(plan)).max() <= 1e-12

    def test_commuting_rotation_moves_ahead(self):
        # ZZ(2,3) commutes with ZZ(1,2), so it joins XX(0,1)'s layer
        h = HamiltonianSpec(4, (PairTerm((0, 1), XX, 1.0), PairTerm((1, 2), ZZ, 1.0),
                                PairTerm((2, 3), ZZ, 1.0)))
        sp = schedule_parallel(compile_plan(h, 0.7, 1))
        assert [[r.sites for r in layer] for layer in sp.layers] == [[(0, 1), (2, 3)], [(1, 2)]]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_plans_keep_their_unitary(self, seed):
        rng = np.random.default_rng(seed)
        plan = compile_plan(random_hamiltonian(rng, int(rng.integers(3, 6)), max_terms=8),
                            float(rng.uniform(-2, 2)), int(rng.integers(1, 4)))
        sp = schedule_parallel(plan)
        assert sorted(map(repr, sp.sweep_rotations())) == sorted(map(repr, plan.sweep_rotations()))
        assert np.abs(plan_unitary(sp) - plan_unitary(plan)).max() <= 1e-12


class TestRoundBudget:
    def test_quarter_pi_costs_four_rounds(self):
        # eps = 1/2 gives Plus probability 1/4, so the geometric mean is 4
        h = HamiltonianSpec(2, (PairTerm((0, 1), XX, 1.0),))
        budget = round_budget(compile_plan(h, math.pi / 4, 1))
        assert budget["serial_rounds"] == pytest.approx(4.0)
        assert budget["mean_rounds_per_rotation"] == pytest.approx(4.0)
        # allowance: ceil(log(1 - 0.99) / log(1 - 1/4)) = 17
        assert budget["parallel_depth"] == 17

    def test_small_angles_cost_two_rounds(self):
        h = HamiltonianSpec(2, (PairTerm((0, 1), XX, 1.0),))
        budget = round_budget(compile_plan(h, 1e-4, 1))
        assert budget["mean_rounds_per_rotation"] == pytest.approx(2.0, rel=1e-3)

    def test_scales_linearly_with_sweeps(self):
        h = HamiltonianSpec.chain_1d(4, "XX", 1.0)
        b1 = round_budget(compile_plan(h, 0.4, 1))
        b5 = round_budget(compile_plan(h, 2.0, 5))  # same per-sweep angle
        assert b5["serial_rounds"] == pytest.approx(5 * b1["serial_rounds"])
        assert b5["parallel_depth"] == 5 * b1["parallel_depth"]

    def test_parallel_allowance_formula(self):
        # recompute the per-layer allowance independently for an 8-site chain
        h = HamiltonianSpec.chain_1d(8, "XX", 1.0)
        plan = schedule_parallel(compile_plan(h, 0.3, 1))
        assert [len(l) for l in plan.layers] == [4, 3]
        a = abs(0.3)
        s, c = math.sin(a), math.cos(a)
        eps = s / (s + c)
        q = 0.5 * ((1 - eps) ** 2 + eps**2)
        expected = 0
        for g in (4, 3):
            per_gate = 0.99 ** (1.0 / g)
            expected += math.ceil(math.log(1 - per_gate) / math.log(1 - q))
        assert round_budget(plan)["parallel_depth"] == expected

    @pytest.mark.parametrize("confidence", [1.0, 0.0, 1.5, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("empty", [False, True])
    def test_confidence_outside_the_open_unit_interval_raises(self, confidence, empty):
        # a plan with no rotation reads no confidence, and still rejects it
        h = HamiltonianSpec(2, (PairTerm((0, 1), XX, 1.0),))
        plan = TrotterPlan(2, 3, ()) if empty else compile_plan(h, 0.4, 1)
        with pytest.raises(UsageError, match="confidence must lie in \\(0, 1\\), got"):
            round_budget(plan, confidence)

    def test_empty_plan(self):
        plan = TrotterPlan(2, 3, ())
        assert round_budget(plan) == {
            "serial_rounds": 0.0,
            "parallel_depth": 0,
            "mean_rounds_per_rotation": 0.0,
            "layers_per_sweep": 0,
            "confidence": 0.99,
        }

    @staticmethod
    def simulated_rounds(h, t):
        cfg = ProtocolConfig.from_dict({"hamiltonian": h.to_dict(), "t": t, "n_steps": 1})
        return run_trajectory(cfg, 0).rounds_per_rotation

    def budget_triple(self, h, t):
        budget = round_budget(schedule_parallel(compile_plan(h, t, 1)))
        return (budget["serial_rounds"], budget["parallel_depth"],
                budget["mean_rounds_per_rotation"])

    # e^{i pi XX} is a global phase, and 1e-13 lies inside the feedback loop's
    # no-op tolerance of 1e-12: the loop draws no round for either
    @pytest.mark.parametrize("t", [math.pi, 1e-13])
    def test_no_op_rotation_costs_no_round(self, t):
        h = HamiltonianSpec(2, (PairTerm((0, 1), XX, 1.0),))
        assert self.budget_triple(h, t) == (0.0, 0, 0.0)
        assert self.simulated_rounds(h, t) == [0]

    def test_half_turn_beside_a_quarter_turn(self):
        # the XX rotation at pi is free; ZZ at pi/4 costs 4 rounds and an allowance of 17
        h = HamiltonianSpec(2, (PairTerm((0, 1), XX, 1.0), PairTerm((0, 1), ZZ, 0.25)))
        serial, depth, mean = self.budget_triple(h, math.pi)
        assert serial == pytest.approx(4.0) and depth == 17 and mean == pytest.approx(2.0)
        assert self.simulated_rounds(h, math.pi)[0] == 0

    def test_layers_per_sweep_reported(self):
        plan = schedule_parallel(compile_plan(HamiltonianSpec.chain_1d(6), 0.2, 1))
        assert round_budget(plan)["layers_per_sweep"] == 2


class TestBinomialTail:
    @pytest.mark.parametrize(
        "n,k,p", [(20, 8, 0.3), (10, 10, 0.9), (50, 25, 0.5), (5, 0, 0.2), (7, 9, 0.4),
                  (5, 2, 0.0), (5, 2, 1.0)]
    )
    def test_matches_exact_sum(self, n, k, p):
        exact = sum(
            comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(max(k, 0), n + 1)
        )
        assert binomial_tail_at_least(n, k, p) == pytest.approx(exact, abs=1e-12)


    @staticmethod
    def every_term(n, k, p):
        """The tail summed over every term from k to n, in the same order and arithmetic."""
        if k <= 0:
            return 1.0
        if k > n:
            return 0.0
        if p in (0.0, 1.0):  # log(p) or log(1 - p) is undefined; sum the terms in integers
            q = int(p)
            return float(sum(comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(k, n + 1)))
        lp, lq = math.log(p), math.log1p(-p)
        total = 0.0
        for j in range(k, n + 1):
            lg = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            total += math.exp(lg + j * lp + (n - j) * lq)
        return min(1.0, total)

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 0.3, 0.5, 0.77, 0.999, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 333, 3000])
    def test_stopping_past_the_mode_changes_no_bit(self, n, p):
        for k in sorted({0, 1, n // 4, n // 2, round(n * p), round(n * p) + 1, n - 1, n, n + 1}):
            assert binomial_tail_at_least(n, k, p) == self.every_term(n, k, p), (n, k, p)


class TestSerialSuccessProbability:
    def test_quoted_budget_is_not_near_certain(self):
        # 2m^2 + 3m/2 rounds at p = 1/2 leaves a noticeable failure tail:
        # the probability sits near 0.86-0.89, not at the often-quoted ~97%
        vals = {m: serial_success_probability(m) for m in (2, 4, 8, 16)}
        assert vals[2] == pytest.approx(0.88671875, abs=1e-9)
        assert vals[8] == pytest.approx(0.8640789818791206, abs=1e-9)
        for v in vals.values():
            assert 0.80 < v < 0.95

    def test_larger_constant_raises_confidence(self):
        assert serial_success_probability(8, const=20.0) > serial_success_probability(8)

    def test_many_terms_take_well_under_two_seconds(self):
        # 8 * 10^8 trials: the tail is summed from 4 * 10^8 to a few standard deviations past
        # the mode, not over all 4 * 10^8 terms
        start = time.perf_counter()
        assert 0.85 < serial_success_probability(20_000) < 0.86
        assert time.perf_counter() - start < 2.0
