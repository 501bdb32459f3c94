import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lgi_weaksim import qcore

K_STRONG = 0.5445
K_WEAK = 0.1598

# frozen from the hand-expanded oracle
GAMMA_STRONG = 0.8787775600230129
GAMMA_BAR_STRONG = 0.47723159995960035
GAMMA_WEAK = 0.7615116545398369
GAMMA_BAR_WEAK = 0.6481512169239522
TABLE_HALFPI_STRONG = (0.4596902104891881, 0.04030978951081193,
                       0.459690210489188, 0.040309789510811905)

thetas = st.floats(0.0, 2.0 * math.pi)
strengths = st.floats(1e-6, 1.0)


def post_gate_state(theta, knowledge):
    joint = qcore.tensor(qcore.ket_signal(theta), qcore.meter_ket(qcore.from_knowledge(knowledge)))
    return qcore.apply_cz(joint)


def test_from_knowledge_frozen_gammas():
    strong = qcore.from_knowledge(K_STRONG)
    weak = qcore.from_knowledge(K_WEAK)
    assert strong.gamma == pytest.approx(GAMMA_STRONG, abs=1e-15)
    assert strong.gamma_bar == pytest.approx(GAMMA_BAR_STRONG, abs=1e-15)
    assert weak.gamma == pytest.approx(GAMMA_WEAK, abs=1e-15)
    assert weak.gamma_bar == pytest.approx(GAMMA_BAR_WEAK, abs=1e-15)


@given(strengths)
@settings(deadline=None)
def test_meter_setting_identities(knowledge):
    setting = qcore.from_knowledge(knowledge)
    assert setting.gamma**2 + setting.gamma_bar**2 == pytest.approx(1.0, abs=1e-12)
    assert 2.0 * setting.gamma * setting.gamma_bar == pytest.approx(
        oracles.visibility_factor(knowledge), abs=1e-12
    )
    assert 2.0 * setting.gamma**2 - 1.0 == pytest.approx(knowledge, abs=1e-12)


def test_from_knowledge_rejects_out_of_range():
    with pytest.raises(ValueError):
        qcore.from_knowledge(-0.1)
    with pytest.raises(ValueError):
        qcore.from_knowledge(1.1)


@pytest.mark.parametrize("knowledge", [-0.1, -5e-324, 1.0 + 2.0**-52, 1.1, math.nan, math.inf, -math.inf,
                                       "0.5", None, 0.5 + 0j, 10**400])
def test_meter_setting_rejects_knowledge_outside_the_unit_interval(knowledge):
    with pytest.raises(ValueError):
        qcore.MeterSetting(knowledge)


@pytest.mark.parametrize("knowledge", [np.float32(0.5), np.int64(1), True])
def test_meter_setting_holds_its_strength_as_a_float(knowledge):
    setting = qcore.MeterSetting(knowledge)
    assert type(setting.knowledge) is float and setting.knowledge == float(knowledge)


@given(thetas)
@settings(deadline=None)
def test_ket_signal_components(theta):
    state = qcore.ket_signal(theta)
    assert state.amplitudes[0] == pytest.approx(math.cos(theta / 2.0), abs=1e-12)
    assert state.amplitudes[1] == pytest.approx(math.sin(theta / 2.0), abs=1e-12)


def test_meter_ket_hv_components():
    setting = qcore.from_knowledge(K_STRONG)
    ket = qcore.meter_ket(setting)
    g, gb = setting.gamma, setting.gamma_bar
    assert ket.amplitudes[0] == pytest.approx((g + gb) / math.sqrt(2.0), abs=1e-12)
    assert ket.amplitudes[1] == pytest.approx((g - gb) / math.sqrt(2.0), abs=1e-12)


def test_basis_outcome_signs_and_kets():
    assert qcore.BasisOutcome.H.sign == +1
    assert qcore.BasisOutcome.V.sign == -1
    assert qcore.BasisOutcome.D.sign == +1
    assert qcore.BasisOutcome.A.sign == -1
    np.testing.assert_allclose(qcore.BasisOutcome.D.ket(), [2**-0.5, 2**-0.5])
    np.testing.assert_allclose(qcore.BasisOutcome.A.ket(), [2**-0.5, -(2**-0.5)])


def test_tensor_basis_products():
    h = qcore.PureState(np.array([1.0, 0.0]))
    v = qcore.PureState(np.array([0.0, 1.0]))
    d = qcore.PureState(qcore.BasisOutcome.D.ket())
    np.testing.assert_allclose(qcore.tensor(h, h).amplitudes, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(qcore.tensor(v, v).amplitudes, [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(qcore.tensor(d, d).amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_apply_cz_defining_action():
    vv = qcore.JointState(np.array([0.0, 0.0, 0.0, 1.0]))
    np.testing.assert_allclose(qcore.apply_cz(vv).amplitudes, [0, 0, 0, -1], atol=1e-15)

    h = qcore.PureState(np.array([1.0, 0.0]))
    meter = qcore.meter_ket(qcore.from_knowledge(K_STRONG))
    joint = qcore.tensor(h, meter)
    np.testing.assert_allclose(qcore.apply_cz(joint).amplitudes, joint.amplitudes, atol=1e-15)

    # on the V branch the gate swaps the meter's D/A weights
    v = qcore.PureState(np.array([0.0, 1.0]))
    setting = qcore.from_knowledge(K_STRONG)
    flipped = qcore.apply_cz(qcore.tensor(v, qcore.meter_ket(setting)))
    g, gb = setting.gamma, setting.gamma_bar
    expected_meter = g * qcore.BasisOutcome.A.ket() + gb * qcore.BasisOutcome.D.ket()
    np.testing.assert_allclose(flipped.amplitudes[2:], expected_meter, atol=1e-12)


@given(thetas, strengths)
@settings(deadline=None)
def test_apply_cz_is_involution(theta, knowledge):
    state = post_gate_state(theta, knowledge)
    again = qcore.apply_cz(qcore.apply_cz(state))
    np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-12)


def test_apply_cz_preserves_norm_on_random_states():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = qcore.JointState(raw / np.linalg.norm(raw))
        out = qcore.apply_cz(state)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_measure_joint_on_product_of_diagonals():
    d = qcore.PureState(qcore.BasisOutcome.D.ket())
    state = qcore.tensor(d, d)
    assert qcore.measure_joint(state, "D", "D") == pytest.approx(1.0, abs=1e-12)
    assert qcore.measure_joint(state, "A", "D") == pytest.approx(0.0, abs=1e-12)
    assert qcore.measure_joint(state, "A", "A") == pytest.approx(0.0, abs=1e-12)


def test_measure_joint_matches_brute_force_oracle():
    state = post_gate_state(math.pi / 2.0, K_STRONG)
    got = tuple(
        qcore.measure_joint(state, m, s)
        for m, s in (("D", "D"), ("D", "A"), ("A", "D"), ("A", "A"))
    )
    assert got == pytest.approx(TABLE_HALFPI_STRONG, abs=1e-14)
    assert got == pytest.approx(oracles.probability_table(math.pi / 2.0, K_STRONG), abs=1e-14)


@given(thetas, strengths)
@settings(deadline=None)
def test_joint_probabilities_sum_to_one(theta, knowledge):
    state = post_gate_state(theta, knowledge)
    outcomes = [("D", "D"), ("D", "A"), ("A", "D"), ("A", "A")]
    probs = [qcore.measure_joint(state, m, s) for m, s in outcomes]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


@given(thetas, strengths)
@settings(deadline=None)
def test_meter_marginal_calibration(theta, knowledge):
    # P(D) - P(A) on the meter equals K cos(theta) for the ideal gate
    state = post_gate_state(theta, knowledge)
    p_d = qcore.measure_joint(state, "D", "D") + qcore.measure_joint(state, "D", "A")
    p_a = qcore.measure_joint(state, "A", "D") + qcore.measure_joint(state, "A", "A")
    assert p_d - p_a == pytest.approx(knowledge * math.cos(theta), abs=1e-12)


@given(thetas, strengths)
@settings(deadline=None)
def test_measure_density_matches_pure(theta, knowledge):
    state = post_gate_state(theta, knowledge)
    rho = qcore.DensityOperator(np.outer(state.amplitudes, state.amplitudes.conj()))
    for m, s in (("D", "D"), ("D", "A"), ("A", "D"), ("A", "A")):
        assert qcore.measure_joint(rho, m, s) == pytest.approx(
            qcore.measure_joint(state, m, s), abs=1e-12
        )


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qcore.PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qcore.JointState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        qcore.DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        qcore.DensityOperator(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        qcore.DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_amplitudes_are_immutable():
    state = qcore.ket_signal(0.3)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_measure_joint_rejects_hv_outcomes():
    state = post_gate_state(0.4, K_STRONG)
    with pytest.raises(ValueError):
        qcore.measure_joint(state, "H", "D")
