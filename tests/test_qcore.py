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

H = np.array([1.0, 0.0])
V = np.array([0.0, 1.0])
D = np.array([2**-0.5, 2**-0.5])
A = np.array([2**-0.5, -(2**-0.5)])


def post_gate_state(theta, knowledge):
    joint = qcore.tensor(qcore.ket_signal(theta), qcore.meter_ket(qcore.from_knowledge(knowledge)))
    return qcore.apply_cz(joint)


def test_from_knowledge_frozen_gammas():
    strong_gamma, strong_gamma_bar = qcore.from_knowledge(K_STRONG)
    weak_gamma, weak_gamma_bar = qcore.from_knowledge(K_WEAK)
    assert strong_gamma == pytest.approx(GAMMA_STRONG, abs=1e-15)
    assert strong_gamma_bar == pytest.approx(GAMMA_BAR_STRONG, abs=1e-15)
    assert weak_gamma == pytest.approx(GAMMA_WEAK, abs=1e-15)
    assert weak_gamma_bar == pytest.approx(GAMMA_BAR_WEAK, abs=1e-15)


@given(strengths)
@settings(deadline=None)
def test_meter_setting_identities(knowledge):
    gamma, gamma_bar = qcore.from_knowledge(knowledge)
    assert gamma**2 + gamma_bar**2 == pytest.approx(1.0, abs=1e-12)
    assert 2.0 * gamma * gamma_bar == pytest.approx(
        oracles.visibility_factor(knowledge), abs=1e-12
    )
    assert 2.0 * gamma**2 - 1.0 == pytest.approx(knowledge, abs=1e-12)


@pytest.mark.parametrize("knowledge", [-0.1, -5e-324, 1.0 + 2.0**-52, 1.1, math.nan, math.inf, -math.inf,
                                       "0.5", None, 0.5 + 0j, 10**400])
def test_from_knowledge_rejects_knowledge_outside_the_unit_interval(knowledge):
    with pytest.raises(ValueError):
        qcore.from_knowledge(knowledge)


@pytest.mark.parametrize("knowledge", [np.float32(0.5), np.int64(1), True])
def test_from_knowledge_takes_its_strength_as_a_float(knowledge):
    gammas = qcore.from_knowledge(knowledge)
    assert [type(g) for g in gammas] == [float, float] and gammas == qcore.from_knowledge(float(knowledge))


@given(thetas)
@settings(deadline=None)
def test_ket_signal_components(theta):
    state = qcore.ket_signal(theta)
    assert state[0] == pytest.approx(math.cos(theta / 2.0), abs=1e-12)
    assert state[1] == pytest.approx(math.sin(theta / 2.0), abs=1e-12)


def test_meter_ket_hv_components():
    g, gb = qcore.from_knowledge(K_STRONG)
    ket = qcore.meter_ket((g, gb))
    assert ket[0] == pytest.approx((g + gb) / math.sqrt(2.0), abs=1e-12)
    assert ket[1] == pytest.approx((g - gb) / math.sqrt(2.0), abs=1e-12)


def test_tensor_basis_products():
    np.testing.assert_allclose(qcore.tensor(H, H), [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(qcore.tensor(V, V), [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(qcore.tensor(D, D), [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_apply_cz_defining_action():
    vv = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(qcore.apply_cz(vv), [0, 0, 0, -1], atol=1e-15)

    meter = qcore.meter_ket(qcore.from_knowledge(K_STRONG))
    joint = qcore.tensor(H, meter)
    np.testing.assert_allclose(qcore.apply_cz(joint), joint, atol=1e-15)

    # on the V branch the gate swaps the meter's D/A weights
    g, gb = qcore.from_knowledge(K_STRONG)
    flipped = qcore.apply_cz(qcore.tensor(V, qcore.meter_ket((g, gb))))
    np.testing.assert_allclose(flipped[2:], g * A + gb * D, atol=1e-12)


@given(thetas, strengths)
@settings(deadline=None)
def test_apply_cz_is_involution(theta, knowledge):
    state = post_gate_state(theta, knowledge)
    again = qcore.apply_cz(qcore.apply_cz(state))
    np.testing.assert_allclose(again, state, atol=1e-12)


def test_apply_cz_preserves_norm_on_random_states():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = qcore.apply_cz(raw / np.linalg.norm(raw))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_measure_joint_on_product_of_diagonals():
    state = qcore.tensor(D, D)
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
    rho = np.outer(state, state.conj())
    for m, s in (("D", "D"), ("D", "A"), ("A", "D"), ("A", "A")):
        assert qcore.measure_joint(rho, m, s) == pytest.approx(
            qcore.measure_joint(state, m, s), abs=1e-12
        )


# one case per way out of each function's domain: (message, function, *arguments)
ANGLE, STRENGTH, KET, NORM, LABEL = "theta must be", "knowledge must be", "finite ket", "normalized", "D or A"
DOMAIN_ERRORS = {
    "ket_signal_nan": (ANGLE, qcore.ket_signal, math.nan),
    "ket_signal_inf": (ANGLE, qcore.ket_signal, math.inf),
    "ket_signal_minus_inf": (ANGLE, qcore.ket_signal, -math.inf),
    "ket_signal_str": (ANGLE, qcore.ket_signal, "0.3"),
    "from_knowledge_below_0": (STRENGTH, qcore.from_knowledge, -0.1),
    "from_knowledge_above_1": (STRENGTH, qcore.from_knowledge, 1.1),
    "meter_ket_shape": (KET, qcore.meter_ket, (1.0, 0.0, 0.0)),
    "meter_ket_nonfinite": (KET, qcore.meter_ket, (math.nan, 0.0)),
    "meter_ket_unnormalized": (NORM, qcore.meter_ket, (1.0, 1.0)),
    "tensor_signal_shape": (KET, qcore.tensor, np.array([1.0, 0.0, 0.0]), D),
    "tensor_meter_nonfinite": (KET, qcore.tensor, D, np.array([math.inf, 0.0])),
    "tensor_unnormalized": (NORM, qcore.tensor, np.array([1.0, 1.0]), D),
    "apply_cz_shape": (KET, qcore.apply_cz, np.array([1.0, 0.0, 0.0])),
    "apply_cz_matrix": (KET, qcore.apply_cz, np.diag([1.0, 0.0, 0.0, 0.0])),
    "apply_cz_nonfinite": (KET, qcore.apply_cz, np.array([math.nan, 0.0, 0.0, 0.0])),
    "apply_cz_unnormalized": (NORM, qcore.apply_cz, np.array([1.0, 1.0, 0.0, 0.0])),
    "measure_joint_meter_h": (LABEL, qcore.measure_joint, np.array([1.0, 0.0, 0.0, 0.0]), "H", "D"),
    "measure_joint_signal_x": (LABEL, qcore.measure_joint, np.array([1.0, 0.0, 0.0, 0.0]), "D", "x"),
    "measure_joint_shape": (KET, qcore.measure_joint, np.eye(2) / 2.0, "D", "D"),
    "measure_joint_nonfinite": (KET, qcore.measure_joint, np.full(4, math.nan), "D", "D"),
    "measure_joint_unnormalized": (NORM, qcore.measure_joint, np.ones(4), "D", "D"),
    "measure_joint_not_hermitian": ("Hermitian", qcore.measure_joint,
                                    np.diag([0.5, 0.5, 0.0, 0.0]) + 0.5j * np.eye(4, k=1), "D", "D"),
    "measure_joint_trace": ("unit trace", qcore.measure_joint, np.diag([0.7, 0.7, 0.0, 0.0]), "D", "D"),
    "measure_joint_not_psd": ("semidefinite", qcore.measure_joint, np.diag([1.5, -0.5, 0.0, 0.0]), "D", "D"),
}


@pytest.mark.parametrize("case", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS.keys())
def test_every_function_raises_a_value_error_outside_its_domain(case):
    message, function, *args = case
    with pytest.raises(ValueError, match=message):
        function(*args)
