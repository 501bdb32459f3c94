"""The batched interval search and the cached gate channel against frozen copies of the old code, bit for bit.

`fig3` prints each violation interval's endpoints with nine significant
digits, and `gate` prints the gate's success probability and process
fidelity, so the predicted-path bisection, the entrywise channel multiplier
and the closed-form success and fidelity must reproduce the sequential code
exactly. The references below are the bodies the package had before: a
bisection with one engine call per step, a grid walk that evaluates one angle
at a time, a map that rebuilds the network from per-PPBS transmissions and
its Kraus sums into a 16x16 superoperator with np.kron and a permanent
block, a Choi matrix summed from 16 map applications, and the closed form's
prepared-state terms built with np.kron.
"""

import math
from collections import namedtuple

import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from lgi_weaksim import experiment, optics

TWO_PI = 2.0 * math.pi
SEARCH_GRID = 1024
GRID_SPACING = TWO_PI / SEARCH_GRID


def bits(value):
    """Exact identity of an endpoint pair; None when there is no interval."""
    return None if value is None else [float(v).hex() for v in value]


def reference_bisect(f, a, b, xtol):
    """scipy.optimize.bisect's loop, one call of f per step."""
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        raise RuntimeError(f"bisection bracket [{a!r}, {b!r}] does not enclose a sign change")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    rtol = 4.0 * np.finfo(float).eps
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge; last midpoint {xm!r}")


def reference_scalar_b(knowledge, gate_model, mb_sign):
    def scalar_b(theta):
        row = experiment._probability_matrix(np.array([theta]), knowledge, gate_model)[0]
        return experiment._estimates(*row.tolist(), knowledge, mb_sign).b

    return scalar_b


def reference_b_max(knowledge, gate_model, mb_sign):
    n, d = experiment._b_ratio(knowledge, gate_model, mb_sign)
    t = max(experiment._null_points(n, -d))
    theta_star = math.atan2(n[2] - t * d[2], n[1] - t * d[1]) % TWO_PI
    if theta_star == TWO_PI:
        theta_star = 0.0
    return theta_star, reference_scalar_b(knowledge, gate_model, mb_sign)(theta_star)


def reference_violation_interval(knowledge, gate_model=experiment.IDEAL_GATE, mb_sign=+1):
    """The sequential grid walk and bisection, one engine call per angle."""
    theta_star, b_star = reference_b_max(knowledge, gate_model, mb_sign)
    if b_star <= 1.0 + 1e-12:
        return None
    scalar_b = reference_scalar_b(knowledge, gate_model, mb_sign)
    thetas = np.linspace(0.0, TWO_PI, SEARCH_GRID, endpoint=False)
    values = experiment._estimates(
        *experiment._probability_matrix(thetas, knowledge, gate_model).T, knowledge, mb_sign).b
    peak = int(np.argmax(values))
    theta_star -= TWO_PI * round((theta_star - thetas[peak]) / TWO_PI)

    def excess(theta):
        return scalar_b(theta % TWO_PI) - 1.0

    def walk(direction):
        for step in range(1, SEARCH_GRID):
            if values[(peak + direction * step) % SEARCH_GRID] <= 1.0:
                outside = thetas[peak] + direction * step * GRID_SPACING
                if excess(outside) >= 0.0:
                    return outside
                inside = thetas[peak] + direction * (step - 1) * GRID_SPACING
                if excess(inside) < 0.0 or (step == 1 and excess(inside) == 0.0 and excess(theta_star) > 0.0):
                    inside = theta_star
                lo, hi = sorted((float(inside), float(outside)))
                return reference_bisect(excess, lo, hi, 1e-10)
        raise RuntimeError("no B = 1 crossing found; grid walk exhausted")

    theta_lo = walk(-1)
    theta_hi = walk(+1)
    width = theta_hi - theta_lo
    theta_lo %= TWO_PI
    return theta_lo, theta_lo + width


def reference_kraus_to_superoperator(kraus):
    sup = np.zeros((16, 16), dtype=complex)
    for k in kraus:
        sup += np.kron(k, k.conj())
    return sup


# (transmission_h, transmission_v) of the central PPBS and of each compensator
REFERENCE_CENTRAL = (1.0, 1.0 / 3.0)
REFERENCE_COMPENSATOR = (1.0 / 3.0, 1.0)
# modes 0-3: signal H, signal V, meter H, meter V; 4, 5: the signal and meter
# ancillas. The basis (HH, HV, VH, VV) as (signal mode, meter mode) pairs:
REFERENCE_BASIS_MODES = ((0, 2), (0, 3), (1, 2), (1, 3))


def reference_embed_beamsplitter(u, mode_a, mode_b, transmission):
    t = np.sqrt(transmission)
    r = np.sqrt(1.0 - transmission)
    rows = np.ix_((mode_a, mode_b), range(6))
    u[rows] = np.array([[t, r], [-r, t]]) @ u[rows]


def reference_network():
    """The network built from per-PPBS transmissions, each polarization split in turn."""
    u = np.eye(6)
    reference_embed_beamsplitter(u, 0, 2, REFERENCE_CENTRAL[0])
    reference_embed_beamsplitter(u, 1, 3, REFERENCE_CENTRAL[1])
    t_h, t_v = REFERENCE_COMPENSATOR
    for arm_h, arm_v, loss in ((0, 1, 4), (2, 3, 5)):
        if t_h < 1.0:
            reference_embed_beamsplitter(u, arm_h, loss, t_h)
        if t_v < 1.0:
            reference_embed_beamsplitter(u, arm_v, loss, t_v)
    return u


def reference_permanent_2x2(u, rows, cols):
    return u[rows[0], cols[0]] * u[rows[1], cols[1]] + u[rows[0], cols[1]] * u[rows[1], cols[0]]


def reference_coincidence_block(network):
    """The coherent coincidence operator, one two-photon permanent per entry."""
    block = np.zeros((4, 4), dtype=complex)
    for col, (i1, i2) in enumerate(REFERENCE_BASIS_MODES):
        for row, (j, k) in enumerate(REFERENCE_BASIS_MODES):
            block[row, col] = reference_permanent_2x2(network, (j, k), (i1, i2))
    return block


def reference_labeled_path_operators(network):
    direct = np.zeros((4, 4), dtype=complex)
    exchange = np.zeros((4, 4), dtype=complex)
    for col, (i1, i2) in enumerate(REFERENCE_BASIS_MODES):
        for row, (j, k) in enumerate(REFERENCE_BASIS_MODES):
            direct[row, col] = network[j, i1] * network[k, i2]
            exchange[row, col] = network[k, i1] * network[j, i2]
    return direct, exchange


# the map as the package held it before: a 16x16 superoperator on row-major vectorized density matrices
ReferenceMap = namedtuple("ReferenceMap", "visibility superoperator success_probability")


def reference_effective_map(visibility):
    """The map with the network and both Kraus sums rebuilt on every call."""
    network = reference_network()
    coherent = reference_coincidence_block(network)
    direct, exchange = reference_labeled_path_operators(network)
    sup = visibility * reference_kraus_to_superoperator([coherent]) + (1.0 - visibility) * (
        reference_kraus_to_superoperator([direct, exchange])
    )
    mixed_success = float(np.real(np.trace((sup @ (np.eye(4) / 4.0).reshape(16)).reshape(4, 4))))
    return ReferenceMap(visibility=visibility, superoperator=sup, success_probability=mixed_success)


def reference_choi_matrix(emap):
    """sum_ij E(|i><j|) kron |i><j|, one map application per term."""
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            basis_ij = np.zeros((4, 4), dtype=complex)
            basis_ij[i, j] = 1.0
            choi += np.kron((emap.superoperator @ basis_ij.reshape(16)).reshape(4, 4), basis_ij)
    return choi


def reference_process_fidelity(emap):
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    choi = reference_choi_matrix(emap)
    choi /= np.real(np.trace(choi))
    target = np.kron(cz, np.eye(4, dtype=complex))
    phi = np.zeros(16, dtype=complex)
    phi[0::5] = 0.5
    vec = target @ phi
    return float(np.real(np.vdot(vec, choi @ vec)))


def gate_for(kind, xi):
    return experiment.IDEAL_GATE if kind == "ideal" else experiment.GateModel(kind="ppbs", visibility=xi)


def oracle_peak_excess(knowledge, gate, mb_sign):
    """The oracle's B - 1 at the sequential search's peak angle."""
    theta_star = reference_b_max(knowledge, gate, mb_sign)[0]
    if gate.kind == "ideal":
        return oracles.b_closed(theta_star, knowledge, mb_sign) - 1.0
    return oracles.ppbs_b_closed(theta_star, knowledge, gate.visibility, mb_sign) - 1.0


def assert_same_interval(knowledge, gate, mb_sign):
    """Both endpoints equal the sequential search's, bit for bit; returns them.

    The sequential search keeps the fixed cutoff B > 1 + 1e-12, so at small K
    it reports arcs inside B's 1/K round-off. Where the oracle's B peaks at or
    below 1 there is no interval. Where it peaks above 1 by no more than twice
    the engine's cutoff, the arc is within round-off and None also stands.
    """
    expected = bits(reference_violation_interval(knowledge, gate, mb_sign))
    found = bits(experiment.violation_interval(knowledge, gate, mb_sign))
    excess = oracle_peak_excess(knowledge, gate, mb_sign)
    cutoff = max(1e-12, experiment._PEAK_ROUNDOFF / knowledge)
    if excess <= 0.0 or (found is None and excess <= 2.0 * cutoff):
        expected = None
    assert found == expected, (knowledge, gate, mb_sign, excess)
    return expected


# the domain of test_solvers_hold_over_the_whole_domain
@given(st.floats(-9.0, 0.0), st.floats(0.0, 1.0), st.sampled_from(("ideal", "ppbs")), st.sampled_from((+1, -1)))
@example(log_k=-9.0, xi=0.0, kind="ppbs", mb_sign=+1)
@example(log_k=0.0, xi=0.5, kind="ppbs", mb_sign=-1)
@example(log_k=math.log10(0.9999999999), xi=0.0, kind="ppbs", mb_sign=+1)
@settings(deadline=None, max_examples=100)
def test_violation_interval_equals_sequential_search(log_k, xi, kind, mb_sign):
    knowledge = max(10.0**log_k, experiment.MIN_KNOWLEDGE)
    assert_same_interval(knowledge, gate_for(kind, xi), mb_sign)


# the crossings on search-grid points and the arcs inside one grid cell
GRID_POINT_CASES = [
    (1.0 - 1e-8, +1), (1.0 - 1e-8, -1), (0.177992, +1), (0.0827515, -1), (0.0532441, -1), (0.107443, +1),
]


def bulk_interval_cases(count=2000, seed=2009, stress=300):
    """K log-uniform over the domain or within 1e-12..1e-2 of 1, xi in {0, 1, random}, both gates and signs.

    The last ``stress`` cases sit where the closed form's margin is widest or
    its error largest: K log-uniform in [1e-9, 1e-7] or within 1e-8 of 1,
    with the ideal gate or ppbs at xi in {0, 2**-24, 1}.
    """
    rng = np.random.default_rng(seed)
    cases = [(knowledge, experiment.IDEAL_GATE, mb_sign) for knowledge, mb_sign in GRID_POINT_CASES]
    for index in range(count):
        if rng.uniform() < 0.25:
            knowledge = 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
        else:
            knowledge = max(10.0 ** rng.uniform(-9.0, 0.0), experiment.MIN_KNOWLEDGE)
        xi = (0.0, 1.0, float(rng.uniform()))[index % 3]
        kind = ("ideal", "ppbs")[int(rng.integers(2))]
        cases.append((float(knowledge), gate_for(kind, xi), int(rng.choice((+1, -1)))))
    for index in range(stress):
        if index % 2:
            knowledge = 1.0 - 10.0 ** rng.uniform(-12.0, -8.0)
        else:
            knowledge = max(10.0 ** rng.uniform(-9.0, -7.0), experiment.MIN_KNOWLEDGE)
        kind, xi = (("ideal", None), ("ppbs", 0.0), ("ppbs", 2.0**-24), ("ppbs", 1.0))[index // 2 % 4]
        cases.append((float(knowledge), gate_for(kind, xi), int(rng.choice((+1, -1)))))
    return cases


def test_violation_interval_equals_sequential_search_in_bulk():
    compared = sum(assert_same_interval(*case) is not None for case in bulk_interval_cases())
    assert compared > 1000     # most cases have an arc whose endpoints are compared


def test_closed_form_b_is_within_the_search_margin_of_the_engine():
    # violation_interval lets the closed form decide every grid point farther
    # than _DECIDE_MARGIN / K from a decision, so its distance from the
    # engine's B must stay below that, here with a 16-fold reserve
    rng = np.random.default_rng(18)
    angles = np.concatenate([experiment._SEARCH_ANGLES, rng.uniform(0.0, TWO_PI, 512)])
    cos, sin = np.cos(angles), np.sin(angles)
    strengths = [1e-9, 1.0, 1.0 - 1e-8, 1.0 - 3.4e-11, *(10.0 ** rng.uniform(-9.0, 0.0, 12)).tolist()]
    for knowledge in strengths:
        gates = [experiment.IDEAL_GATE] + [gate_for("ppbs", xi) for xi in (0.0, 2.0**-24, 1.0, float(rng.uniform()))]
        for gate in gates:
            p = experiment._probability_matrix(angles, knowledge, gate)
            for mb_sign in (+1, -1):
                engine = experiment._lg_terms(*p.T, knowledge, mb_sign)[3]
                closed = experiment._ratio_values(*experiment._b_ratio(knowledge, gate, mb_sign), cos, sin)
                error = np.max(np.abs(closed - engine))
                assert error <= experiment._DECIDE_MARGIN / (16.0 * knowledge), (knowledge, gate, mb_sign, error)


def reference_multiplier(sup):
    """The entrywise multiplier a diagonal superoperator applies: entry (a, b) is sup[4a + b, 4a + b]."""
    assert not np.any(sup - np.diag(np.diag(sup)))     # no off-diagonal entry, not even a round-off one
    return np.diag(sup).real.reshape(4, 4)


def test_cached_gate_channel_equals_rebuilt_map():
    edges = [0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53]
    visibilities = np.concatenate([edges, np.random.default_rng(7).uniform(size=1000)])
    for xi in visibilities.tolist():
        expected = reference_effective_map(xi)
        assert optics.effective_map(xi).tobytes() == reference_multiplier(expected.superoperator).tobytes(), xi
        success, fidelity = optics.success_probability(xi), optics.process_fidelity_to_cz(xi)
        assert success == oracles.ppbs_success_mixed(xi), xi
        assert fidelity == oracles.process_fidelity_closed(xi), xi
        # the closed forms differ from the rebuilt map's sums in the last bit, never in a CSV cell
        assert "%.9g" % success == "%.9g" % expected.success_probability, xi
        assert "%.9g" % fidelity == "%.9g" % reference_process_fidelity(expected), xi


def reference_trig_coefficients(knowledge, gate_model):
    """The prepared-state terms built with one np.kron each."""
    mu = experiment._meter_amplitudes(knowledge)
    rho = np.array([np.kron(term, np.outer(mu, mu.conj())) for term in experiment._SIGNAL_TERMS])
    if gate_model.kind == "ideal":
        out = rho * experiment._CZ_SIGNS
    else:
        sup = reference_effective_map(gate_model.visibility).superoperator
        out = (rho.reshape(3, 16) @ sup.T).reshape(3, 4, 4)
    num = np.real(np.einsum("ia,jab,ib->ij", experiment._PROJ.conj(), out, experiment._PROJ))
    return num, np.real(np.trace(out, axis1=1, axis2=2))


def test_trig_coefficients_equal_kron_form():
    # b_max's peak angle, and so every gate and fig3 file, is built on them
    rng = np.random.default_rng(11)
    strengths = np.concatenate([[1e-9, 1.0, 0.5445, 0.1598], 10.0 ** rng.uniform(-9.0, 0.0, 500)])
    for index, knowledge in enumerate(strengths.tolist()):
        gate = gate_for(("ideal", "ppbs")[index % 2], (0.0, 1.0, float(rng.uniform()))[index % 3])
        num, trace = experiment._trig_coefficients(knowledge, gate)
        expected_num, expected_trace = reference_trig_coefficients(knowledge, gate)
        assert num.tobytes() == expected_num.tobytes() and trace.tobytes() == expected_trace.tobytes(), knowledge


def test_network_and_channel_terms_equal_the_per_ppbs_builder():
    network = reference_network()
    direct, exchange = reference_labeled_path_operators(network)
    coherent = reference_multiplier(reference_kraus_to_superoperator([reference_coincidence_block(network)]))
    labeled = reference_multiplier(reference_kraus_to_superoperator([direct, exchange]))
    assert optics._COHERENT.tobytes() == coherent.tobytes()
    assert optics._LABELED.tobytes() == labeled.tobytes()


def test_cached_channel_terms_are_read_only():
    # every map shares the terms, and the cache shares each map, so no caller may write into them
    for term in (optics._COHERENT, optics._LABELED, experiment._gate_map(0.37)):
        assert not term.flags.writeable
