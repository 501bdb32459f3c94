"""Independent reference implementations used as test oracles.

Everything here is computed from first principles: hand-expanded Born
rules on explicit 4-vectors, closed-form trigonometric expressions, a
mode-operator expansion for the two-photon network, and dense matrix
conjugation for the distinguishability channel. None of it shares code
with the package under test.
"""

import math

import numpy as np

SQRT_HALF = math.sqrt(0.5)


def gamma_pair(knowledge):
    return math.sqrt((1.0 + knowledge) / 2.0), math.sqrt((1.0 - knowledge) / 2.0)


def joint_amplitudes(theta, knowledge, gate=True):
    """Post-gate 4-vector (HH, HV, VH, VV), signal-major, all real."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    g, gb = gamma_pair(knowledge)
    meter_h, meter_v = (g + gb) * SQRT_HALF, (g - gb) * SQRT_HALF
    sign = -1.0 if gate else 1.0
    return np.array([c * meter_h, c * meter_v, s * meter_h, sign * s * meter_v])


_DIAG = np.array([SQRT_HALF, SQRT_HALF])
_ANTIDIAG = np.array([SQRT_HALF, -SQRT_HALF])
_BASIS = {"D": _DIAG, "A": _ANTIDIAG}


def born_probability(amplitudes, meter_outcome, signal_outcome):
    sig, met = _BASIS[signal_outcome], _BASIS[meter_outcome]
    overlap = sum(
        amplitudes[2 * i + j] * sig[i] * met[j] for i in range(2) for j in range(2)
    )
    return abs(overlap) ** 2


def probability_table(theta, knowledge):
    """(p_dd, p_da, p_ad, p_aa), first index meter, second signal."""
    amps = joint_amplitudes(theta, knowledge)
    return tuple(
        born_probability(amps, m, s) for m, s in (("D", "D"), ("D", "A"), ("A", "D"), ("A", "A"))
    )


# closed forms for the ideal gate

def visibility_factor(knowledge):
    return math.sqrt(1.0 - knowledge**2)


def s1_closed(theta):
    return math.cos(theta)


def s2_closed(theta, knowledge):
    return math.sin(theta) * visibility_factor(knowledge)


def b_closed(theta, knowledge, mb_sign=+1):
    return mb_sign * math.cos(theta) - math.sin(theta) * visibility_factor(knowledge)


def wv_closed(theta, knowledge, mb_sign=+1):
    return mb_sign * math.cos(theta) / (1.0 + math.sin(theta) * visibility_factor(knowledge))


def aav_limit(theta):
    # (1 - tan(t/2))/(1 + tan(t/2)) in a form finite at theta = pi
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (c - s) / (c + s)


def b_ceiling(knowledge):
    return math.sqrt(2.0 - knowledge**2)


def theta_at_ceiling(knowledge):
    return 2.0 * math.pi - math.atan(visibility_factor(knowledge))


def violation_width(knowledge):
    return 2.0 * math.atan(visibility_factor(knowledge))


# PPBS network: explicit matrices, modes (sH, sV, mH, mV, loss_s, loss_m)

def ppbs_network():
    t3, r3 = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    central = np.eye(6)
    central[1, 1], central[1, 3] = t3, r3
    central[3, 1], central[3, 3] = -r3, t3
    comp_s = np.eye(6)
    comp_s[0, 0], comp_s[0, 4] = t3, r3
    comp_s[4, 0], comp_s[4, 4] = -r3, t3
    comp_m = np.eye(6)
    comp_m[2, 2], comp_m[2, 5] = t3, r3
    comp_m[5, 2], comp_m[5, 5] = -r3, t3
    return comp_m @ comp_s @ central


def two_photon_output(amplitudes, network):
    """Mode-operator expansion of the two-photon output state.

    Returns {(j, k) with j <= k: amplitude on the normalized Fock state}.
    """
    n = network.shape[0]
    raw = np.zeros((n, n))
    inputs = [(0, 2), (0, 3), (1, 2), (1, 3)]  # (signal mode, meter mode) per basis slot
    for weight, (i1, i2) in zip(amplitudes, inputs):
        if weight == 0.0:
            continue
        for j in range(n):
            for k in range(n):
                raw[j, k] += weight * network[j, i1] * network[k, i2]
    table = {}
    for j in range(n):
        for k in range(j, n):
            amp = math.sqrt(2.0) * raw[j, j] if j == k else raw[j, k] + raw[k, j]
            if amp != 0.0:
                table[(j, k)] = amp
    return table


def ppbs_unnormalized_output(rho, xi):
    """Dense conjugation through the coincidence channel, no superoperator."""
    m_full = np.diag([1.0, 1.0, 1.0, -1.0]) / 3.0
    m_direct = np.eye(4) / 3.0
    m_exchange = np.diag([0.0, 0.0, 0.0, -2.0 / 3.0])
    coherent = m_full @ rho @ m_full.T
    labeled = m_direct @ rho @ m_direct.T + m_exchange @ rho @ m_exchange.T
    return xi * coherent + (1.0 - xi) * labeled


def ppbs_probability_table(theta, knowledge, xi):
    pre_gate = joint_amplitudes(theta, knowledge, gate=False)
    rho = np.outer(pre_gate, pre_gate)
    out = ppbs_unnormalized_output(rho, xi)
    out = out / np.trace(out)
    probs = []
    for m, s in (("D", "D"), ("D", "A"), ("A", "D"), ("A", "A")):
        proj = np.kron(_BASIS[s], _BASIS[m])
        probs.append(float(proj @ out @ proj))
    return tuple(probs)


def ppbs_b_closed(theta, knowledge, xi, mb_sign=+1):
    """Correlator under the distinguishability channel, K-normalized terms."""
    v = visibility_factor(knowledge)
    rho_vv = (1.0 - math.cos(theta)) * (1.0 - v) / 4.0
    coherent = mb_sign * math.cos(theta) - v * math.sin(theta)
    labeled = mb_sign + (mb_sign - 1.0) * math.sin(theta)
    return (xi * coherent + (1.0 - xi) * labeled) / (1.0 + 4.0 * (1.0 - xi) * rho_vv)


def ppbs_success_mixed(xi):
    return (2.0 - xi) / 9.0


def process_fidelity_closed(xi):
    return (1.0 + xi) / (2.0 * (2.0 - xi))


# count-space estimators with finite-difference error propagation

def b_from_count_vector(n, knowledge, mb_sign=+1, normalize_by_k=True):
    n_dd, n_da, n_ad, n_aa = n
    total = n_dd + n_da + n_ad + n_aa
    s1 = ((n_dd + n_da) - (n_ad + n_aa)) / (knowledge * total)
    s2 = ((n_dd + n_ad) - (n_da + n_aa)) / total
    raw = (n_dd - n_da - n_ad + n_aa) / total
    s1s2 = raw / knowledge if normalize_by_k else raw
    return mb_sign * (s1 + s1s2) - s2


def wv_from_count_vector(n, knowledge, mb_sign=+1):
    n_dd, _, n_ad, _ = n
    return mb_sign * (n_dd - n_ad) / (knowledge * (n_dd + n_ad))


# exact per-pair variances of the count estimators: N pairs give Var = V / N

def b_variance_per_pair(probs, knowledge, mb_sign=+1):
    """V1 = sum c_i^2 p_i - B^2, the variance of one pair's contribution to B.

    B = sum c_i p_i with c = (2 Mb/K - 1, 1, -2 Mb/K - 1, 1) over
    (dd, da, ad, aa), read off Mb (s1 + s1s2) - s2 term by term. B-hat from
    N multinomial pairs is linear in the counts, so Var[B-hat] = V1 / N.
    """
    c = (2.0 * mb_sign / knowledge - 1.0, 1.0, -2.0 * mb_sign / knowledge - 1.0, 1.0)
    b = sum(ci * pi for ci, pi in zip(c, probs))
    return sum(ci * ci * pi for ci, pi in zip(c, probs)) - b * b


def wv_variance_per_pair(probs, knowledge):
    """Delta-method variance of the weak value, per pair: 4 q (1 - q) / (K^2 p_D).

    Of N pairs about N p_D survive the signal-D post-selection, and each
    finds the meter in D with probability q = p_dd / p_D; wv = (2 q - 1) / K,
    so Var[wv-hat] = (2 / K)^2 q (1 - q) / (N p_D) to first order.
    """
    p_dd, _, p_ad, _ = probs
    p_d = p_dd + p_ad
    return 4.0 * (p_dd / p_d) * (p_ad / p_d) / (knowledge * knowledge * p_d)


def finite_difference_sigma(func, counts):
    """Poisson propagation with a numerically differentiated gradient."""
    counts = np.asarray(counts, dtype=float)
    variance = 0.0
    for i in range(4):
        h = 1e-5 * max(counts.sum(), 1.0)
        up, down = counts.copy(), counts.copy()
        up[i] += h
        down[i] -= h
        gradient = (func(up) - func(down)) / (2.0 * h)
        variance += gradient**2 * max(counts[i], 1.0)
    return math.sqrt(variance)
