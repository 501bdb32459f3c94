import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lgi_weaksim import experiment, optics, qcore
from lgi_weaksim.errors import UnreachableTargetError

K_STRONG = 0.5445

thetas = st.floats(0.0, 2.0 * math.pi)
strengths = st.floats(1e-6, 1.0)
visibilities = st.floats(0.0, 1.0)

XI_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def joint_state(theta, knowledge):
    return qcore.tensor(qcore.ket_signal(theta), qcore.meter_ket(qcore.from_knowledge(knowledge)))


def random_density(rng):
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


# the two-qubit basis (HH, HV, VH, VV) as (signal mode, meter mode) pairs of
# the oracle's network (modes 0, 1: signal H, V; 2, 3: meter H, V); the same
# pairs are the coincidence outcomes, one photon per output arm
SIGNAL_MODES = [0, 0, 1, 1]
METER_MODES = [2, 3, 2, 3]
COINCIDENCE_PAIRS = list(zip(SIGNAL_MODES, METER_MODES))


def test_path_operators_are_the_networks_coincidence_paths():
    # direct: each photon exits in its own arm; exchange: the two swap arms.
    # The network gives -0.0 at three zero entries of the exchange path, so
    # the values, not the bytes, are compared
    u = oracles.ppbs_network()
    s, m = SIGNAL_MODES, METER_MODES
    # entry [row, col]: the amplitude from basis input col to basis output row
    direct = u[np.ix_(s, s)] * u[np.ix_(m, m)]
    exchange = u[np.ix_(m, s)] * u[np.ix_(s, m)]
    assert np.array_equal(direct, optics._arrays().direct_path)
    assert np.array_equal(exchange, optics._arrays().exchange_path)


def coincidence_operator():
    """The coherent coincidence operator: the sum of the direct and exchange paths."""
    return optics._arrays().direct_path + optics._arrays().exchange_path


def test_two_photon_output_matches_oracle():
    # column i of the coincidence operator is the oracle's full two-photon
    # expansion of basis input i, restricted to coincidence outcomes
    block = coincidence_operator()
    for col in range(4):
        expected = oracles.two_photon_output(np.eye(4)[col], oracles.ppbs_network())
        for row, modes in enumerate(COINCIDENCE_PAIRS):
            assert block[row, col] == pytest.approx(expected.get(modes, 0.0), abs=1e-12)


def test_coincidence_block_is_diagonal_sign_flip():
    # HH passes both compensators: (1/sqrt3)^2; VV interferes: t^2 - r^2 = -1/3
    block = coincidence_operator()
    np.testing.assert_allclose(block, np.diag([1.0, 1.0, 1.0, -1.0]) / 3.0, atol=1e-12)


def test_diagonal_input_coincidence_probability():
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = coincidence_operator() @ qcore.tensor(d, d)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_effective_map_rejects_out_of_range_visibility():
    with pytest.raises(ValueError):
        optics.effective_map(1.2)
    with pytest.raises(ValueError):
        optics.effective_map(-0.01)


def test_success_probability_across_visibility():
    assert optics.success_probability(1.0) == pytest.approx(1.0 / 9.0, abs=1e-12)
    for xi in XI_GRID:
        success = optics.success_probability(xi)
        assert 0.0 < success <= 1.0
        assert success == pytest.approx(oracles.ppbs_success_mixed(xi), abs=1e-12)


def apply(multiplier, rho):
    """The channel on one density matrix: an entrywise product with its multiplier."""
    return rho * multiplier


def test_choi_matrix_is_positive_semidefinite():
    for xi in XI_GRID:
        multiplier = optics.effective_map(xi)
        choi = sum(np.kron(apply(multiplier, basis), basis)
                   for basis in np.eye(16, dtype=complex).reshape(16, 4, 4))
        eigenvalues = np.linalg.eigvalsh(choi)
        assert eigenvalues.min() >= -1e-10
        # trace of the Choi matrix is 4x the maximally-mixed success probability
        assert np.trace(choi).real / 4.0 == pytest.approx(optics.success_probability(xi), abs=1e-12)


def test_map_is_trace_nonincreasing_and_renormalizable():
    rng = np.random.default_rng(7)
    for xi in XI_GRID:
        multiplier = optics.effective_map(xi)
        for _ in range(20):
            rho = random_density(rng)
            out = apply(multiplier, rho)
            trace = np.trace(out).real
            assert 0.0 < trace <= 1.0 + 1e-12
            renormalized = out / trace
            assert np.trace(renormalized).real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(renormalized, renormalized.conj().T, atol=1e-10)
            assert np.linalg.eigvalsh(renormalized).min() >= -1e-10


def test_full_visibility_map_conjugates_like_cz_on_pauli_basis():
    multiplier = optics.effective_map(1.0)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    for left in paulis:
        for right in paulis:
            operator = np.kron(left, right).astype(complex)
            out = apply(multiplier, operator) * 9.0
            np.testing.assert_allclose(out, cz @ operator @ cz, atol=1e-12)


def test_zero_visibility_map_preserves_vv_without_phase():
    multiplier0 = optics.effective_map(0.0)
    vv = np.zeros((4, 4), dtype=complex)
    vv[3, 3] = 1.0
    out = apply(multiplier0, vv)
    out = out / np.trace(out).real
    np.testing.assert_allclose(out, vv, atol=1e-12)

    # distinguishable photons never see the -1: the VV/HH coherence keeps the
    # input's sign, while the interfering map flips it
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho_dd = np.outer(*(qcore.tensor(d, d),) * 2).real.astype(complex)
    assert apply(optics.effective_map(0.0), rho_dd)[3, 0].real > 0.0
    assert apply(optics.effective_map(1.0), rho_dd)[3, 0].real < 0.0


@given(visibilities)
@settings(deadline=None)
def test_multiplier_is_convex_in_visibility(xi):
    blended = optics.effective_map(xi)
    coherent = optics.effective_map(1.0)
    labeled = optics.effective_map(0.0)
    np.testing.assert_allclose(blended, xi * coherent + (1.0 - xi) * labeled, atol=1e-14)


@given(thetas, strengths, visibilities)
@settings(deadline=None)
def test_map_agrees_with_dense_conjugation_oracle(theta, knowledge, xi):
    state = joint_state(theta, knowledge)
    rho = np.outer(state, state.conj())
    out = apply(optics.effective_map(xi), rho)
    expected = oracles.ppbs_unnormalized_output(rho.real, xi)
    np.testing.assert_allclose(out, expected, atol=1e-14)


NOT_VISIBILITIES = ["0.5", None, 1.0 + 0j, math.nan, 1.5, math.inf, -math.inf, 10**400]


@pytest.mark.parametrize("function, visibility", [
    # effective_map's cases keep their bare ids; the closed forms' are prefixed
    pytest.param(function, visibility, id=("" if function is optics.effective_map else f"{function.__name__}-")
                 + str(visibility))
    for function in (optics.effective_map, optics.success_probability, optics.process_fidelity_to_cz)
    for visibility in NOT_VISIBILITIES
])
def test_effective_map_rejects_a_visibility_that_is_not_a_real_in_the_unit_interval(function, visibility):
    # the same check as GateModel's; a string used to leak a TypeError
    with pytest.raises(ValueError, match=r"visibility must be a finite real number in \[0, 1\]"):
        function(visibility)


def test_process_fidelity_endpoints_and_monotonicity():
    values = [optics.process_fidelity_to_cz(xi) for xi in XI_GRID]
    assert values[-1] == pytest.approx(1.0, abs=1e-12)
    assert values[0] == pytest.approx(0.25, abs=1e-12)
    for xi, value in zip(XI_GRID, values):
        assert value == pytest.approx(oracles.process_fidelity_closed(xi), abs=1e-12)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_b_max_nondecreasing_in_visibility():
    peaks = [
        experiment.b_max(K_STRONG, experiment.GateModel(kind="ppbs", visibility=xi))[1]
        for xi in XI_GRID
    ]
    assert all(b >= a for a, b in zip(peaks, peaks[1:]))
    assert peaks[0] == pytest.approx(1.0, abs=1e-9)
    assert peaks[-1] == pytest.approx(oracles.b_ceiling(K_STRONG), abs=1e-9)


def test_fit_visibility_recovers_known_setting():
    gate = experiment.GateModel(kind="ppbs", visibility=0.7)
    target = experiment.b_max(K_STRONG, gate)[1]
    fitted = optics.fit_visibility(target, K_STRONG)
    assert type(fitted) is float and fitted == pytest.approx(0.7, abs=1e-4)


@pytest.mark.parametrize("to_numpy", [np.float64, np.float32])
def test_fit_visibility_takes_a_numpy_k_as_its_float(to_numpy):
    knowledge = to_numpy(K_STRONG)
    target = experiment.b_max(float(knowledge), experiment.GateModel(kind="ppbs", visibility=0.7))[1]
    fitted = optics.fit_visibility(target, knowledge)
    assert type(fitted) is float and fitted == optics.fit_visibility(target, float(knowledge))


def test_fit_visibility_builds_no_gate_map():
    gate = experiment.GateModel(kind="ppbs", visibility=0.7)
    target = experiment.b_max(K_STRONG, gate)[1]
    experiment._gate_map.cache_clear()
    xi = optics.fit_visibility(target, K_STRONG)
    # the fit and its endpoint peaks are closed forms of the visibility
    assert experiment._gate_map.cache_info().misses == 0
    assert xi == pytest.approx(0.7, abs=1e-9)


@given(st.floats(-9.0, 0.0), visibilities)
@example(-9.0, 5e-6)   # a slack of 16 eps/K snapped this target, 2.07e-6 above b_max(visibility=0), to 0
@settings(deadline=None, max_examples=200)
def test_fit_visibility_round_trips_over_the_whole_domain_with_zero_tol(log_k, xi):
    knowledge = max(10.0**log_k, experiment.MIN_KNOWLEDGE)
    target = experiment.b_max(knowledge, experiment.GateModel(kind="ppbs", visibility=xi))[1]
    fitted = optics.fit_visibility(target, knowledge, tol=0.0)
    assert type(fitted) is float and 0.0 <= fitted <= 1.0
    reached = experiment.b_max(knowledge, experiment.GateModel(kind="ppbs", visibility=fitted))[1]
    slack = experiment._BMAX_ROUNDOFF
    ends = {end: experiment.b_max(knowledge, experiment.GateModel(kind="ppbs", visibility=end))[1]
            for end in (0.0, 1.0)}
    near = [end for end, peak in ends.items() if abs(target - peak) <= slack]
    if near:
        # a target within the slack of an end of the range returns that end
        assert fitted == near[0], (knowledge, xi, fitted)
    else:
        assert abs(reached - target) <= 1e-13, (knowledge, xi, fitted)


def test_fit_visibility_endpoint_returns_unity():
    target = oracles.b_ceiling(K_STRONG)
    assert optics.fit_visibility(target, K_STRONG) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("knowledge, xi", [
    # targets that b_max's engine-based search misplaced near the ends of
    # the range: 2e-13 above b_max(visibility=0), where the quadratic's roots
    # once were round-off with none on the peak's branch,
    (1.652394712316554e-08, 5.511704740692165e-13),
    # 2e-15 above b_max(visibility=1)
    (6.777931354613022e-08, 0.9999999999999931),
    # and 1e-12 below b_max(visibility=0)
    (1.2063713241572562e-05, 8.67544739528498e-16),
    # a slack of 16 eps/K once snapped this target, 2.07e-6 above b_max(visibility=0), to 0
    (1e-9, 5e-6),
])
def test_fit_visibility_round_trips_near_the_ends_with_zero_tol(knowledge, xi):
    target = experiment.b_max(knowledge, experiment.GateModel(kind="ppbs", visibility=xi))[1]
    fitted = optics.fit_visibility(target, knowledge, tol=0.0)
    assert type(fitted) is float and 0.0 <= fitted <= 1.0
    reached = experiment.b_max(knowledge, experiment.GateModel(kind="ppbs", visibility=fitted))[1]
    assert abs(reached - target) <= 1e-13


@pytest.mark.parametrize("share, end", [(0.25, 0.0), (0.75, 1.0)])
def test_fit_visibility_returns_the_nearer_end_when_no_root_is_on_the_peaks_branch(monkeypatch, share, end):
    # round-off can leave the quadratic with no root where the peak meets the target
    peaks = {xi: experiment.b_max(K_STRONG, experiment.GateModel(kind="ppbs", visibility=xi)) for xi in (0.0, 1.0)}
    b_lo, b_hi = peaks[0.0][1], peaks[1.0][1]
    monkeypatch.setattr(experiment, "b_max", lambda knowledge, gate: peaks[gate.visibility])
    monkeypatch.setattr(experiment, "_null_points", lambda u, w: [])
    assert optics.fit_visibility(b_lo + share * (b_hi - b_lo), K_STRONG) == end


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf, "1", None, 1j, 10**400])
def test_fit_visibility_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    # 1.2008 lies inside [b_max(0), b_max(1)] = [1.0, 1.3052] at this K
    with pytest.raises(ValueError, match="tol") as caught:
        optics.fit_visibility(1.2008, K_STRONG, tol=tol)
    assert not isinstance(caught.value, UnreachableTargetError)
    assert 0.0 < optics.fit_visibility(1.2008, K_STRONG) < 1.0


@pytest.mark.parametrize("target", ["1.2", None, 1.2 + 0j, math.nan, math.inf, -math.inf, 10**400])
def test_fit_visibility_rejects_a_target_that_is_not_a_finite_real(target):
    # a str or complex used to leak a TypeError, 10**400 an OverflowError
    with pytest.raises(ValueError, match="target_bmax must be a finite real number") as caught:
        optics.fit_visibility(target, K_STRONG)
    assert not isinstance(caught.value, UnreachableTargetError)


def test_fit_visibility_rejects_unreachable_targets():
    with pytest.raises(UnreachableTargetError, match="reachable"):
        optics.fit_visibility(1.4, K_STRONG)
    with pytest.raises(UnreachableTargetError, match="reachable"):
        optics.fit_visibility(0.9, K_STRONG)
