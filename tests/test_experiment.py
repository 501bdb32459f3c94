import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from lgi_weaksim import experiment, qcore, stats
from lgi_weaksim.errors import DegenerateConditioningError, ZeroStrengthError

K_STRONG = 0.5445
K_WEAK = 0.1598
TWO_PI = 2.0 * math.pi

# frozen closed-form values
B_7PI4_STRONG = 1.3002002603279053
B_7PI4_WEAK = 1.4051268238787324
B_MAX_STRONG = 1.3051895456216311
B_MAX_WEAK = 1.4051562048398747
THETA_STAR_STRONG = 5.585252449226064
THETA_STAR_WEAK = 5.504253899432732
WV_5PI4_WEAK = -2.3415685845195924
INTERVAL_LO_STRONG = 4.887319591272542
INTERVAL_LO_WEAK = 4.725322491685878
WIDTH_STRONG = 1.3958657159070444
WIDTH_WEAK = 1.5578628154937082

INVARIANT_GRID = np.linspace(0.0, TWO_PI, 64)
INVARIANT_STRENGTHS = (0.05, 0.1598, 0.5445, 0.9, 1.0)

thetas = st.floats(0.0, TWO_PI)
# 1/k in the estimators amplifies float noise; k below ~1e-2 is covered by
# dedicated point tests with loosened tolerances instead.
strengths = st.floats(0.01, 1.0)
visibilities = st.floats(0.0, 1.0)


def config_for(theta, knowledge, mb_sign=+1, **kwargs):
    return experiment.ExperimentConfig(theta=theta, knowledge=knowledge, mb_sign=mb_sign, **kwargs)


def reference_probabilities(theta, meter, gate_model):
    """The scalar path through validated qcore objects, one state at a time.

    The batched engine must reproduce it bit for bit: CSV cells print nine
    significant digits, and at small K the estimators' 1/K brings the last
    bit of a probability into view.
    """
    joint = qcore.tensor(qcore.ket_signal(theta), qcore.meter_ket(meter))
    if gate_model.kind == "ideal":
        state = qcore.apply_cz(joint)
    else:
        emap = experiment._gate_map(gate_model.visibility)
        rho = np.outer(joint.amplitudes, joint.amplitudes.conj())
        rho_out = (emap.superoperator @ rho.reshape(16)).reshape(4, 4)
        success = float(np.real(np.trace(rho_out)))
        rho_out = rho_out / success
        state = qcore.DensityOperator(0.5 * (rho_out + rho_out.conj().T))
    return np.array([qcore.measure_joint(state, m, s) for m, s in (("D", "D"), ("D", "A"), ("A", "D"), ("A", "A"))])


def _bit_contract_cases(count=210, seed=2009):
    # K log-uniform over the whole domain plus both ends, xi in {0, 1, random}
    rng = np.random.default_rng(seed)
    strengths = np.concatenate([[1e-9, 1.0], 10.0 ** rng.uniform(-9.0, 0.0, count - 2)])
    return [
        (float(knowledge), (0.0, 1.0, float(rng.uniform()))[index % 3], float(rng.uniform(-60.0, 60.0)))
        for index, knowledge in enumerate(strengths)
    ]


BIT_CONTRACT_CASES = _bit_contract_cases()


def test_run_at_zero_angle_splits_by_meter_weights():
    setting = qcore.from_knowledge(K_STRONG)
    table = experiment.run(config_for(0.0, K_STRONG))
    half_g2 = setting.gamma**2 / 2.0
    half_gb2 = setting.gamma_bar**2 / 2.0
    assert table.p_dd == pytest.approx(half_g2, abs=1e-12)
    assert table.p_da == pytest.approx(half_g2, abs=1e-12)
    assert table.p_ad == pytest.approx(half_gb2, abs=1e-12)
    assert table.p_aa == pytest.approx(half_gb2, abs=1e-12)


def test_run_strong_measurement_of_diagonal_is_uniform():
    table = experiment.run(config_for(math.pi / 2.0, 1.0))
    assert table.as_array() == pytest.approx([0.25] * 4, abs=1e-12)


def test_zero_strength_config_is_rejected():
    # K=0 extracts nothing, and every estimator of the setting divides by K
    with pytest.raises(ZeroStrengthError):
        config_for(math.pi / 2.0, 0.0)


@pytest.mark.parametrize("batch", [1, 2, 1024])
@pytest.mark.parametrize("kind", ["ideal", "ppbs"])
def test_engine_rows_equal_qcore_reference_bit_for_bit(kind, batch):
    rng = np.random.default_rng(batch)
    for knowledge, xi, theta in BIT_CONTRACT_CASES:
        gate = experiment.IDEAL_GATE if kind == "ideal" else experiment.GateModel(kind="ppbs", visibility=xi)
        meter = qcore.from_knowledge(knowledge)
        expected = reference_probabilities(theta, meter, gate)
        # the case's angle sits at a random slot among random neighbours
        angles = rng.uniform(-60.0, 60.0, batch)
        slot = int(rng.integers(batch))
        angles[slot] = theta
        row = experiment._probability_matrix(angles, knowledge, gate)[slot]
        assert np.array_equal(row, expected), (knowledge, xi, theta)
        table = experiment.run(experiment.ExperimentConfig(theta=theta, knowledge=knowledge, gate_model=gate))
        assert np.array_equal(table.as_array(), expected), (knowledge, xi, theta)


@pytest.mark.parametrize("gate", [experiment.IDEAL_GATE, experiment.GateModel(kind="ppbs", visibility=0.7077)])
def test_engine_rows_do_not_depend_on_batch_size(gate):
    angles = np.random.default_rng(7).uniform(-60.0, 60.0, 512)
    for knowledge in (1e-9, 0.00348113, K_WEAK, K_STRONG, 1.0):
        batch = experiment._probability_matrix(angles, knowledge, gate)
        for i in range(len(angles)):
            single = experiment._probability_matrix(angles[i:i + 1], knowledge, gate)[0]
            assert np.array_equal(batch[i], single), (knowledge, angles[i])


@given(thetas, strengths)
@settings(deadline=None)
def test_run_matches_brute_force_oracle(theta, knowledge):
    table = experiment.run(config_for(theta, knowledge))
    assert table.as_array() == pytest.approx(
        oracles.probability_table(theta, knowledge), abs=1e-13
    )


def test_estimator_identities_on_reference_grid():
    # s1 = cos, s2 = sin * sqrt(1-K^2), s1s2 = 0, each within 1e-10
    for knowledge in INVARIANT_STRENGTHS:
        for theta in INVARIANT_GRID:
            record = experiment.lg_b(config_for(float(theta), knowledge))
            assert record.s1 == pytest.approx(oracles.s1_closed(theta), abs=1e-10)
            assert record.s2 == pytest.approx(oracles.s2_closed(theta, knowledge), abs=1e-10)
            assert record.s1s2 == pytest.approx(0.0, abs=1e-10)


def test_s1_mean_reference_points():
    for theta, expected in ((0.0, 1.0), (math.pi, -1.0), (math.pi / 3.0, 0.5)):
        assert experiment.lg_b(config_for(theta, K_STRONG)).s1 == pytest.approx(expected, abs=1e-12)


def test_s2_mean_visibility_factor():
    table = experiment.run(config_for(math.pi / 2.0, K_STRONG))
    assert experiment.s2_mean(table) == pytest.approx(0.8387608419567523, abs=1e-12)
    table = experiment.run(config_for(math.pi / 2.0, K_WEAK))
    assert experiment.s2_mean(table) == pytest.approx(0.987149411183535, abs=1e-12)


def test_lg_b_frozen_values():
    assert experiment.lg_b(config_for(7.0 * math.pi / 4.0, K_STRONG)).b == pytest.approx(
        B_7PI4_STRONG, abs=1e-12
    )
    assert experiment.lg_b(config_for(7.0 * math.pi / 4.0, K_WEAK)).b == pytest.approx(
        B_7PI4_WEAK, abs=1e-12
    )
    assert experiment.lg_b(config_for(math.pi / 4.0, K_STRONG, mb_sign=-1)).b == pytest.approx(
        -B_7PI4_STRONG, abs=1e-12
    )


def test_lg_b_boundary_and_weak_limit():
    assert experiment.lg_b(config_for(0.0, K_STRONG)).b == pytest.approx(1.0, abs=1e-12)
    nearly_free = experiment.lg_b(config_for(7.0 * math.pi / 4.0, 1e-6)).b
    assert nearly_free == pytest.approx(math.sqrt(2.0), abs=1e-9)


@given(thetas, strengths, st.sampled_from((+1, -1)))
@settings(deadline=None)
def test_lg_b_matches_closed_form(theta, knowledge, mb_sign):
    record = experiment.lg_b(config_for(theta, knowledge, mb_sign=mb_sign))
    assert record.b == pytest.approx(oracles.b_closed(theta, knowledge, mb_sign), abs=1e-12)
    assembled = mb_sign * record.s1 + mb_sign * record.s1s2 - record.s2
    assert record.b == pytest.approx(assembled, abs=1e-12)


def test_weak_value_reference_points():
    assert experiment.weak_value(config_for(0.0, K_STRONG)) == pytest.approx(1.0, abs=1e-12)
    for knowledge in (K_WEAK, K_STRONG, 0.9):
        assert experiment.weak_value(config_for(math.pi / 2.0, knowledge)) == pytest.approx(
            0.0, abs=1e-12
        )
    assert experiment.weak_value(config_for(5.0 * math.pi / 4.0, K_WEAK)) == pytest.approx(
        WV_5PI4_WEAK, abs=1e-12
    )
    strange = experiment.weak_value(config_for(5.0 * math.pi / 4.0, 1e-6))
    assert strange == pytest.approx(-(1.0 + math.sqrt(2.0)), abs=1e-8)


@given(thetas, strengths)
@settings(deadline=None)
def test_weak_value_closed_form_and_postselection(theta, knowledge):
    # keep away from the weak-limit pole where wv blows up
    assume(abs(theta - 3.0 * math.pi / 2.0) > 0.1)
    config = config_for(theta, knowledge)
    table = experiment.run(config)
    assert experiment.lg_b(config).psel == pytest.approx(table.p_dd + table.p_ad, abs=1e-12)
    assert experiment.weak_value(config) == pytest.approx(oracles.wv_closed(theta, knowledge), abs=1e-9)


def test_weak_value_sign_convention():
    config_plus = config_for(0.8, K_STRONG, mb_sign=+1)
    config_minus = config_for(0.8, K_STRONG, mb_sign=-1)
    assert experiment.weak_value(config_minus) == pytest.approx(-experiment.weak_value(config_plus), abs=1e-12)


def test_weak_value_degenerate_postselection_raises():
    # at K ~ 0 and theta = 3pi/2 the D branch carries ~K^2/4 of the weight
    with pytest.raises(DegenerateConditioningError):
        experiment.weak_value(config_for(3.0 * math.pi / 2.0, 1e-9))


def test_aav_limit_away_from_pole():
    for theta in np.linspace(0.0, TWO_PI, 113):
        if abs(theta - 3.0 * math.pi / 2.0) < 0.1:
            continue
        wv = experiment.weak_value(config_for(float(theta), 1e-6))
        assert wv == pytest.approx(oracles.aav_limit(theta), abs=1e-4)


def test_one_to_one_violation_correspondence():
    grid = experiment.ThetaGrid(0.0, TWO_PI, 64)
    for knowledge in INVARIANT_STRENGTHS:
        plus = experiment.theta_sweep(knowledge, +1, grid=grid)
        minus = experiment.theta_sweep(knowledge, -1, grid=grid)
        for b_p, wv_p, b_m, wv_m in zip(plus.b, plus.wv, minus.b, minus.wv):
            if abs(b_p - 1.0) > 1e-9:
                assert (b_p > 1.0) == (wv_p > 1.0)
            if abs(b_m - 1.0) > 1e-9:
                assert (b_m > 1.0) == (wv_m < -1.0)


@given(thetas, strengths)
@settings(deadline=None)
def test_sign_symmetry(theta, knowledge):
    flipped = experiment.lg_b(config_for(theta, knowledge, mb_sign=-1))
    assert flipped.b == pytest.approx(
        -math.cos(theta) - math.sin(theta) * oracles.visibility_factor(knowledge), abs=1e-12
    )


def assert_violation_is_strange_weak_value(b, p_d, signed_wv, knowledge):
    """B - 1 = 2 p_D (Mb wv - 1) wherever the post-selection kept something."""
    kept = np.isfinite(signed_wv)
    assert (p_d[kept] > 0.0).all()
    gap = np.abs((b - 1.0) - 2.0 * p_d * (signed_wv - 1.0)) * knowledge
    assert (gap[kept] <= 1e-13).all(), gap[kept].max()
    clear = kept & (np.abs(b - 1.0) * knowledge > 1e-13)
    assert ((b > 1.0) == (signed_wv > 1.0))[clear].all()


@given(st.floats(-9.0, 0.0), visibilities, st.sampled_from(("ideal", "ppbs")), st.sampled_from((+1, -1)),
       st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=32), st.sampled_from((1, 100, 10**6)))
@settings(deadline=None, max_examples=100)
def test_violation_is_the_strange_weak_value(log_k, xi, kind, mb_sign, angles, n_pairs):
    # the paper's one-to-one correspondence, for any gate, exact or counted
    knowledge = max(10.0**log_k, experiment.MIN_KNOWLEDGE)
    gate = experiment.IDEAL_GATE if kind == "ideal" else experiment.GateModel(kind="ppbs", visibility=xi)
    probs = experiment._probability_matrix(np.array(angles), knowledge, gate)
    est = experiment._estimates(*probs.T, knowledge, mb_sign)
    assert_violation_is_strange_weak_value(est.b, est.psel, mb_sign * est.wv, knowledge)
    plan = stats.TrialPlan(n_pairs=n_pairs, n_trials=4)
    for row in probs:
        counts = stats._sample_trials(experiment.ProbabilityTable(*row.tolist()), plan)
        b, _ = stats._lg_arrays(counts, knowledge, mb_sign)
        signed_wv, _ = stats._weak_value_arrays(counts, knowledge, mb_sign)
        p_d = (counts[:, 0] + counts[:, 2]) / counts.sum(axis=1)
        assert_violation_is_strange_weak_value(b, p_d, signed_wv, knowledge)


def test_theta_grid_arithmetic_and_validation():
    assert experiment.ThetaGrid(0.0, TWO_PI, 3).values() == pytest.approx(
        [0.0, math.pi, TWO_PI]
    )
    with pytest.raises(ValueError):
        experiment.ThetaGrid(0.0, TWO_PI, 1)
    with pytest.raises(ValueError):
        experiment.ThetaGrid(0.0, math.inf, 4)


def test_gate_model_validation():
    with pytest.raises(ValueError):
        experiment.GateModel(kind="lossy")
    with pytest.raises(ValueError):
        experiment.GateModel(kind="ideal", visibility=0.5)
    with pytest.raises(ValueError):
        experiment.GateModel(kind="ppbs", visibility=1.5)
    assert experiment.GateModel(kind="ppbs").visibility == 1.0


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        experiment.ExperimentConfig(theta=math.nan, knowledge=K_STRONG)
    with pytest.raises(ValueError):
        experiment.ExperimentConfig(theta=0.1, knowledge=K_STRONG, mb_sign=2)


@pytest.mark.parametrize("build", [
    lambda value: config_for(value, K_STRONG),
    lambda value: experiment.ThetaGrid(value, 1.0, 3),
    lambda value: experiment.ThetaGrid(0.0, value, 3),
    qcore.ket_signal,
], ids=["ExperimentConfig", "ThetaGrid_start", "ThetaGrid_stop", "ket_signal"])
@pytest.mark.parametrize("value", ["1", None, 1.0 + 0j, math.nan, -math.inf, 10**400, math.inf],
                         ids=["str", "none", "complex", "nan", "inf", "huge_int", "plus_inf"])
def test_an_angle_that_is_not_a_finite_real_is_a_value_error(build, value):
    # a TypeError or OverflowError from math.isfinite would leak otherwise
    with pytest.raises(ValueError, match="must be a finite real number, got"):
        build(value)


def test_angles_are_held_as_floats():
    assert type(config_for(np.float32(0.5), K_STRONG).theta) is float
    grid = experiment.ThetaGrid(0, np.int64(1), 3)
    assert (type(grid.start), type(grid.stop)) == (float, float)


@pytest.mark.parametrize("visibility", ["0.5", 1.0 + 0j, math.nan, -0.1, math.inf, -math.inf, 10**400])
def test_gate_model_rejects_a_visibility_that_is_not_a_real_in_the_unit_interval(visibility):
    with pytest.raises(ValueError, match=r"visibility must be a finite real number in \[0, 1\]"):
        experiment.GateModel(kind="ppbs", visibility=visibility)


@pytest.mark.parametrize("knowledge", [1.0 + 0j, "0.5", None, qcore.from_knowledge(K_STRONG)],
                         ids=["complex", "str", "none", "meter_setting"])
def test_experiment_config_rejects_a_strength_that_is_not_a_real(knowledge):
    # fails at construction, not later in run with a TypeError or AttributeError
    with pytest.raises(ValueError, match=r"\[1e-09, 1\]"):
        experiment.ExperimentConfig(theta=1.0, knowledge=knowledge)


@pytest.mark.parametrize("knowledge", [np.float64(K_STRONG), np.float32(0.5), 1, np.int64(1), True],
                         ids=["float64", "float32", "int", "int64", "bool"])
def test_experiment_config_holds_a_numpy_or_integer_strength_as_a_float(knowledge):
    config = experiment.ExperimentConfig(theta=1.0, knowledge=knowledge)
    assert type(config.knowledge) is float and config.knowledge == float(knowledge)


@pytest.mark.parametrize("gate_model", ["ppbs", None, 0.9])
def test_experiment_config_rejects_a_gate_model_that_is_not_a_gate_model(gate_model):
    # fails at construction, not later in run with an AttributeError
    with pytest.raises(ValueError, match="gate_model must be a GateModel"):
        config_for(1.0, K_STRONG, gate_model=gate_model)


@pytest.mark.parametrize("mb_sign", [0, 2, -3, -1.0, 1.0])
@pytest.mark.parametrize("entry_point", [
    lambda sign: experiment.b_max(K_STRONG, mb_sign=sign),
    lambda sign: experiment.violation_interval(K_STRONG, mb_sign=sign),
    lambda sign: experiment.theta_sweep(K_STRONG, mb_sign=sign),
    lambda sign: config_for(0.1, K_STRONG, mb_sign=sign),
    lambda sign: stats.estimate_lg(stats.CountTable(10, 10, 10, 10), K_STRONG, sign),
    lambda sign: stats.estimate_weak_value(stats.CountTable(10, 10, 10, 10), K_STRONG, sign),
], ids=["b_max", "violation_interval", "theta_sweep", "ExperimentConfig", "estimate_lg", "estimate_weak_value"])
def test_every_entry_point_rejects_an_mb_sign_other_than_plus_or_minus_one(entry_point, mb_sign):
    with pytest.raises(ValueError, match="mb_sign"):
        entry_point(mb_sign)


@pytest.mark.parametrize("mb_sign", [True, np.int64(-1), -1], ids=["bool", "int64", "int"])
def test_experiment_config_holds_an_mb_sign_as_the_int_plus_or_minus_one(mb_sign):
    config = config_for(1.0, K_STRONG, mb_sign=mb_sign)
    assert type(config.mb_sign) is int and config.mb_sign == mb_sign


@pytest.mark.parametrize("steps", [1, 2.5, "3", 100_001, 2**63, 10**400],
                         ids=["one", "float", "str", "above_bound", "2**63", "huge_int"])
def test_theta_grid_rejects_steps_that_are_not_an_integer_in_range(steps):
    # 2**63 used to pass here and leak numpy's IndexError from theta_sweep
    with pytest.raises(ValueError, match=r"grid steps must be an integer in \[2, 100000\]"):
        experiment.theta_sweep(K_STRONG, grid=experiment.ThetaGrid(0.0, 1.0, steps))


def test_theta_sweep_rows_match_scalar_entry_points():
    grid = experiment.ThetaGrid(0.0, TWO_PI, 17)
    for gate in (experiment.IDEAL_GATE, experiment.GateModel(kind="ppbs", visibility=0.6)):
        sweep = experiment.theta_sweep(K_STRONG, -1, gate, grid)
        for i, theta in enumerate(grid.values().tolist()):
            config = config_for(theta, K_STRONG, mb_sign=-1, gate_model=gate)
            assert tuple(field[i] for field in sweep) == pytest.approx(tuple(experiment.lg_b(config)), abs=1e-13)
            # sweeps carry the S1 weak value regardless of mb_sign
            plus = config_for(theta, K_STRONG, mb_sign=+1, gate_model=gate)
            assert sweep.wv[i] == pytest.approx(experiment.weak_value(plus), abs=1e-13)


def test_theta_sweep_contains_violation_at_moderate_strength():
    assert experiment.theta_sweep(K_STRONG).b.max() > 1.0


def test_theta_sweep_violation_nearly_closes_at_full_strength():
    peak = experiment.theta_sweep(0.9999).b.max()
    assert 1.0 < peak < 1.0002


def test_theta_sweep_marks_degenerate_postselection_with_nan():
    grid = experiment.ThetaGrid(3.0 * math.pi / 2.0, 3.0 * math.pi / 2.0 + 1.0, 2)
    wv = experiment.theta_sweep(1e-9, grid=grid).wv
    assert math.isnan(wv[0])
    assert not math.isnan(wv[1])


def test_b_max_frozen_and_closed_form():
    theta_star, b_star = experiment.b_max(K_STRONG)
    assert b_star == pytest.approx(B_MAX_STRONG, abs=1e-9)
    assert theta_star == pytest.approx(THETA_STAR_STRONG, abs=1e-7)
    theta_star, b_star = experiment.b_max(K_WEAK)
    assert b_star == pytest.approx(B_MAX_WEAK, abs=1e-9)
    assert theta_star == pytest.approx(THETA_STAR_WEAK, abs=1e-7)
    assert experiment.b_max(1.0)[1] == pytest.approx(1.0, abs=1e-9)


@given(st.floats(0.05, 1.0))
@settings(deadline=None, max_examples=25)
def test_b_max_matches_ceiling_everywhere(knowledge):
    _, b_star = experiment.b_max(knowledge)
    assert b_star == pytest.approx(oracles.b_ceiling(knowledge), abs=1e-9)


def test_b_max_exceeds_classical_bound_below_full_strength():
    for knowledge in (0.05, 0.3, 0.7, 0.99):
        assert experiment.b_max(knowledge)[1] > 1.0


def test_b_max_strictly_decreasing_in_strength():
    peaks = [experiment.b_max(k)[1] for k in (0.05, 0.16, 0.3, 0.54, 0.8, 1.0)]
    assert all(b > a for a, b in zip(peaks[1:], peaks))


def test_violation_interval_frozen_endpoints():
    lo, hi = experiment.violation_interval(K_STRONG)
    assert lo == pytest.approx(INTERVAL_LO_STRONG, abs=1e-8)
    assert hi == pytest.approx(TWO_PI, abs=1e-8)
    assert hi - lo == pytest.approx(WIDTH_STRONG, abs=1e-8)
    lo, hi = experiment.violation_interval(K_WEAK)
    assert lo == pytest.approx(INTERVAL_LO_WEAK, abs=1e-8)
    assert hi - lo == pytest.approx(WIDTH_WEAK, abs=1e-8)


def test_violation_interval_limits():
    assert experiment.violation_interval(1.0) is None
    lo, hi = experiment.violation_interval(1e-6)
    assert hi - lo == pytest.approx(math.pi / 2.0, abs=1e-6)
    # widths follow 2*arctan(sqrt(1-K^2)), so they shrink with strength
    assert (
        experiment.violation_interval(K_WEAK)[1] - experiment.violation_interval(K_WEAK)[0]
        > experiment.violation_interval(K_STRONG)[1] - experiment.violation_interval(K_STRONG)[0]
    )


@pytest.mark.parametrize(
    "knowledge, mb_sign",
    [
        (1.0 - 1e-8, +1),    # the whole arc lies inside one search-grid cell
        (1.0 - 1e-8, -1),
        (0.177992, +1),      # the B = 1 crossing at theta = 0 or pi sits on a grid
        (0.0827515, -1),     # point, where round-off flips the sign of B - 1
        (0.0532441, -1),
        (0.107443, +1),
    ],
)
def test_violation_interval_brackets_crossings_near_grid_points(knowledge, mb_sign):
    lo, hi = experiment.violation_interval(knowledge, mb_sign=mb_sign)
    assert 0.0 <= lo < TWO_PI
    assert hi - lo == pytest.approx(oracles.violation_width(knowledge), abs=1e-8 + 1e-13 / knowledge)
    # B = 1 exactly at theta = 0 (Mb = +S1) and theta = pi (Mb = -S1) for every K
    edge = hi if mb_sign > 0 else lo
    assert edge == pytest.approx(TWO_PI if mb_sign > 0 else math.pi, abs=1e-8)


def test_violation_interval_closed_under_fully_mixed_gate():
    gate = experiment.GateModel(kind="ppbs", visibility=0.0)
    assert experiment.violation_interval(K_STRONG, gate) is None


@pytest.mark.parametrize("mb_sign", [+1, -1])
def test_no_interval_where_the_peak_is_within_round_off_of_one(mb_sign):
    # the oracle's B never exceeds 1 here, but the engine's peak does by 1e-9,
    # about eps/K: the round-off of B's 1/K terms
    knowledge = 2.484119309168553e-07
    gate = experiment.GateModel(kind="ppbs", visibility=0.0)
    assert max(oracle_b(theta, knowledge, gate, mb_sign) for theta in ORACLE_GRID) <= 1.0
    assert experiment.violation_interval(knowledge, gate, mb_sign) is None


def test_small_arc_above_the_round_off_is_reported():
    # here B = xi (cos theta - sin theta) + 1 - xi, so B > 1 on (3 pi/2, 2 pi) and
    # peaks at 1 + 4.1e-5; B's round-off, a few eps/K ~ 1e-6, over its slope
    # xi = 1e-4 at the crossings moves the endpoints by about 1e-2 at most
    knowledge, gate = 1e-9, experiment.GateModel(kind="ppbs", visibility=1e-4)
    lo, hi = experiment.violation_interval(knowledge, gate, +1)
    assert lo == pytest.approx(1.5 * math.pi, abs=2e-2)
    assert hi == pytest.approx(TWO_PI, abs=2e-2)


@given(st.floats(-9.0, -1.0), st.floats(-12.0, 0.0), st.sampled_from((+1, -1)))
@example(log_k=-9.0, log_xi=-4.0, mb_sign=+1)
@example(log_k=-4.0, log_xi=-3.0, mb_sign=-1)     # an arc 1e-3 wide, inside one grid cell
@settings(deadline=None, max_examples=50)
def test_arcs_clearing_the_round_off_are_reported(log_k, log_xi, mb_sign):
    # B's 1/K terms round off by a few eps/K; any arc whose oracle peak clears
    # 1 by 1e-12 + 64 eps/K must be found, and none where it stays at or below 1
    knowledge = 10.0**log_k
    gate = experiment.GateModel(kind="ppbs", visibility=10.0**log_xi)
    # arcs narrower than the grid spacing show at the peak angle
    theta_star = experiment.b_max(knowledge, gate, mb_sign)[0]
    excess = max(oracle_b(theta, knowledge, gate, mb_sign) for theta in [theta_star, *ORACLE_GRID]) - 1.0
    interval = experiment.violation_interval(knowledge, gate, mb_sign)
    if excess > 1e-12 + 64.0 * np.finfo(float).eps / knowledge:
        assert interval is not None, excess
    elif excess <= 0.0:
        assert interval is None, excess


ORACLE_GRID = np.linspace(0.0, TWO_PI, 4096, endpoint=False).tolist()


def oracle_b(theta, knowledge, gate, mb_sign):
    if gate.kind == "ideal":
        return oracles.b_closed(theta, knowledge, mb_sign)
    return oracles.ppbs_b_closed(theta, knowledge, gate.visibility, mb_sign)


@given(st.floats(-9.0, 0.0), visibilities, st.sampled_from(("ideal", "ppbs")), st.sampled_from((+1, -1)))
@example(log_k=-9.0, xi=0.0, kind="ppbs", mb_sign=+1)
@example(log_k=0.0, xi=0.5, kind="ppbs", mb_sign=-1)
# the peak direction's angle is -5e-21, and -5e-21 % 2 pi rounds to 2 pi
@example(log_k=math.log10(0.9999999999), xi=0.0, kind="ppbs", mb_sign=+1)
@settings(deadline=None, max_examples=100)
def test_solvers_hold_over_the_whole_domain(log_k, xi, kind, mb_sign):
    # K log-uniform in [1e-9, 1]; the ideal gate ignores xi
    knowledge = max(10.0**log_k, experiment.MIN_KNOWLEDGE)
    gate = experiment.IDEAL_GATE if kind == "ideal" else experiment.GateModel(kind="ppbs", visibility=xi)
    tol = 1e-8 + 1e-13 / knowledge
    theta_star, b_star = experiment.b_max(knowledge, gate, mb_sign)
    assert 0.0 <= theta_star < TWO_PI
    assert b_star == pytest.approx(oracle_b(theta_star, knowledge, gate, mb_sign), abs=tol)
    assert b_star >= max(oracle_b(theta, knowledge, gate, mb_sign) for theta in ORACLE_GRID) - tol
    experiment.violation_interval(knowledge, gate, mb_sign)


@given(st.floats(-9.0, 0.0), visibilities, st.sampled_from(("ideal", "ppbs")), st.sampled_from((+1, -1)))
@example(log_k=-9.0, xi=0.0, kind="ppbs", mb_sign=+1)
@example(log_k=0.0, xi=0.5, kind="ppbs", mb_sign=-1)
@example(log_k=math.log10(0.9999999999), xi=0.0, kind="ppbs", mb_sign=+1)
@example(log_k=math.log10(1.0 - 1e-8), xi=0.0, kind="ideal", mb_sign=-1)
@example(log_k=math.log10(2.484119309168553e-07), xi=0.0, kind="ppbs", mb_sign=-1)
@example(log_k=math.log10(7.3784739887984216e-06), xi=0.00034088121497868835, kind="ppbs", mb_sign=+1)
@settings(deadline=None, max_examples=100)
def test_violation_interval_endpoints_match_the_oracles(log_k, xi, kind, mb_sign):
    # the domain and tolerance of test_solvers_hold_over_the_whole_domain
    knowledge = max(10.0**log_k, experiment.MIN_KNOWLEDGE)
    gate = experiment.IDEAL_GATE if kind == "ideal" else experiment.GateModel(kind="ppbs", visibility=xi)
    tol = 1e-8 + 1e-13 / knowledge

    def excess(theta):
        return oracle_b(theta, knowledge, gate, mb_sign) - 1.0

    interval = experiment.violation_interval(knowledge, gate, mb_sign)
    if interval is None:
        assert max(excess(theta) for theta in ORACLE_GRID) <= tol
        return
    lo, hi = interval
    assert 0.0 <= lo < TWO_PI and lo < hi
    if kind == "ideal":
        assert hi - lo == pytest.approx(oracles.violation_width(knowledge), abs=tol)
    # B - 1 changes sign across each endpoint wherever |B - 1| exceeds tol: where
    # the peak or the slope is within the 1/K round-off, so is the sign
    inward = min(tol, (hi - lo) / 2.0)
    for edge, into_arc in ((lo, +1.0), (hi, -1.0)):
        assert excess(edge - into_arc * tol) <= tol, (edge, "outside")
        assert excess(edge + into_arc * inward) >= -tol, (edge, "inside")


@pytest.mark.parametrize("theta", [1e6, -1e6, 1e15, -1e15, 1e300, -1e300])
@pytest.mark.parametrize("knowledge", [K_STRONG, K_WEAK])
@pytest.mark.parametrize("mb_sign", [+1, -1])
def test_scalar_entry_points_far_outside_one_turn(theta, knowledge, mb_sign):
    # any finite theta is in the domain; the tolerances are those of the
    # [0, 2 pi) property tests
    config = config_for(theta, knowledge, mb_sign=mb_sign)
    assert experiment.run(config).as_array() == pytest.approx(
        oracles.probability_table(theta, knowledge), abs=1e-13
    )
    assert experiment.lg_b(config).b == pytest.approx(oracles.b_closed(theta, knowledge, mb_sign), abs=1e-12)
    assert experiment.weak_value(config) == pytest.approx(oracles.wv_closed(theta, knowledge, mb_sign), abs=1e-9)


@given(thetas, strengths, visibilities, st.sampled_from((+1, -1)))
@settings(deadline=None)
def test_ppbs_gate_matches_dense_channel_oracle(theta, knowledge, xi, mb_sign):
    gate = experiment.GateModel(kind="ppbs", visibility=xi)
    config = config_for(theta, knowledge, mb_sign=mb_sign, gate_model=gate)
    table = experiment.run(config)
    assert table.as_array() == pytest.approx(
        oracles.ppbs_probability_table(theta, knowledge, xi), abs=1e-12
    )
    assert experiment.lg_b(config).b == pytest.approx(
        oracles.ppbs_b_closed(theta, knowledge, xi, mb_sign), abs=1e-10
    )

