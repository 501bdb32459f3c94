"""The value classes are validated named tuples that keep the contract of
the frozen dataclasses they replaced.

The references below are those dataclasses, written out as they were. Over
the whole domain, valid and invalid, each class must raise what its
reference raises, with the same message, on construction and through
``_replace``; it must hold the same field values with the same types, and
keep the reference's ``repr`` and hash. It must also refuse attribute
assignment, and survive ``pickle`` and ``copy`` as a checked value.
"""

import copy
import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgi_weaksim import experiment, stats
from lgi_weaksim.errors import _require_count, _require_real


@dataclasses.dataclass(frozen=True)
class GateModel:
    kind: str = "ideal"
    visibility: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ideal", "ppbs"):
            raise ValueError(f"gate model kind must be 'ideal' or 'ppbs', got {self.kind!r}")
        if self.kind == "ideal":
            if self.visibility is not None:
                raise ValueError("visibility applies only to the ppbs gate model")
        else:
            vis = 1.0 if self.visibility is None else _require_real(self.visibility, "visibility", 0, 1)
            object.__setattr__(self, "visibility", vis)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    theta: float
    knowledge: float
    mb_sign: int = +1
    gate_model: experiment.GateModel = experiment.IDEAL_GATE

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _require_real(self.theta, "theta"))
        object.__setattr__(self, "knowledge", experiment._require_strength(self.knowledge))
        object.__setattr__(self, "mb_sign", experiment._require_sign(self.mb_sign))
        if not isinstance(self.gate_model, experiment.GateModel):
            raise ValueError(f"gate_model must be a GateModel, got {self.gate_model!r}")


@dataclasses.dataclass(frozen=True)
class ProbabilityTable:
    p_dd: float
    p_da: float
    p_ad: float
    p_aa: float

    def __post_init__(self) -> None:
        for name in ("p_dd", "p_da", "p_ad", "p_aa"):
            object.__setattr__(self, name, _require_real(getattr(self, name), name, -1e-12, 1.0 + 1e-12))
        total = np.array([self.p_dd, self.p_da, self.p_ad, self.p_aa]).sum()
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")


@dataclasses.dataclass(frozen=True)
class ThetaGrid:
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _require_real(self.start, "grid start"))
        object.__setattr__(self, "stop", _require_real(self.stop, "grid stop"))
        object.__setattr__(self, "steps", _require_count(self.steps, "grid steps", 2, experiment.MAX_THETA_STEPS))


@dataclasses.dataclass(frozen=True)
class EstimateWithError:
    value: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _require_real(self.value, "estimate"))
        object.__setattr__(self, "sigma", _require_real(self.sigma, "sigma", 0))


@dataclasses.dataclass(frozen=True)
class TrialPlan:
    n_pairs: int
    n_trials: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_pairs", _require_count(self.n_pairs, "n_pairs", 1, stats.MAX_PAIRS))
        object.__setattr__(self, "n_trials", _require_count(self.n_trials, "n_trials", 1, stats.MAX_TRIALS))
        object.__setattr__(self, "master_seed", _require_count(self.master_seed, "master_seed"))


# values no field accepts, or accepts only after conversion
ODD = st.sampled_from([None, "0.5", 1j, math.nan, math.inf, -math.inf, 10**400, True, False,
                       np.float32(0.5), np.float64(0.25), np.int64(3), np.int64(-1)])
REALS = st.one_of(st.floats(), st.floats(-1.0, 2.0), st.integers(-3, 3), ODD)
COUNTS = st.one_of(st.integers(-2, 10**6), st.integers(2**52, 2**53 + 2), st.floats(0.0, 10.0), ODD)
ANGLES = st.floats(-10.0, 10.0)
GATES = [experiment.IDEAL_GATE, experiment.GateModel("ppbs", 0.5)]


PROBABILITIES = ("p_dd", "p_da", "p_ad", "p_aa")


def normalized(values):
    return {field: value / sum(values) for field, value in zip(PROBABILITIES, values)}


def four(strategy):
    return st.lists(strategy, min_size=4, max_size=4)


# name -> (class, its reference, each field's whole domain, valid keyword sets)
DOMAINS = {
    "GateModel": (experiment.GateModel, GateModel, {
        "kind": st.sampled_from(["ideal", "ppbs", "lossy", "", None, 1]),
        "visibility": st.one_of(st.none(), st.floats(0.0, 1.0), REALS),
    }, st.one_of(st.just({}), st.fixed_dictionaries({
        "kind": st.just("ppbs"), "visibility": st.one_of(st.none(), st.floats(0.0, 1.0))}))),
    "ExperimentConfig": (experiment.ExperimentConfig, ExperimentConfig, {
        "theta": REALS,
        "knowledge": st.one_of(st.floats(0.0, 1.0), st.floats(-1e-8, 2e-9), REALS),
        "mb_sign": st.one_of(st.sampled_from([1, -1, 0, 2, 1.0, -1.0, "1"]), ODD),
        "gate_model": st.sampled_from([*GATES, "ppbs", None, 0.9, ("ppbs", 0.5)]),
    }, st.fixed_dictionaries({
        "theta": ANGLES, "knowledge": st.floats(experiment.MIN_KNOWLEDGE, 1.0),
        "mb_sign": st.sampled_from([1, -1]), "gate_model": st.sampled_from(GATES)})),
    "ProbabilityTable": (experiment.ProbabilityTable, ProbabilityTable, dict.fromkeys(PROBABILITIES, REALS),
                         four(st.floats(0.0, 1.0)).filter(sum).map(normalized)),
    "ThetaGrid": (experiment.ThetaGrid, ThetaGrid, {
        "start": REALS,
        "stop": REALS,
        "steps": st.one_of(st.integers(-1, experiment.MAX_THETA_STEPS + 1), COUNTS),
    }, st.fixed_dictionaries({
        "start": ANGLES, "stop": ANGLES, "steps": st.integers(2, experiment.MAX_THETA_STEPS)})),
    "EstimateWithError": (stats.EstimateWithError, EstimateWithError, {"value": REALS, "sigma": REALS},
                          st.fixed_dictionaries({"value": st.floats(-1e3, 1e3), "sigma": st.floats(0.0, 1e3)})),
    "TrialPlan": (stats.TrialPlan, TrialPlan, {
        "n_pairs": COUNTS,
        "n_trials": st.one_of(st.integers(0, stats.MAX_TRIALS + 1), COUNTS),
        "master_seed": st.one_of(st.integers(-1, 2**100), COUNTS),
    }, st.fixed_dictionaries({
        "n_pairs": st.integers(1, stats.MAX_PAIRS), "n_trials": st.integers(1, stats.MAX_TRIALS),
        "master_seed": st.integers(0, 2**100)})),
}


def draw_kwargs(data, name):
    """Keyword arguments from the whole domain: valid ones half the time, each field's full range otherwise."""
    _, _, fields, valid = DOMAINS[name]
    return data.draw(st.one_of(valid, st.fixed_dictionaries(fields)))


def valid_instance(data, name):
    cls, _, _, valid = DOMAINS[name]
    return cls(**data.draw(valid))


def outcome(build, *args, **kwargs):
    """('ok', instance) or ('raised', (type, message))."""
    try:
        return "ok", build(*args, **kwargs)
    except Exception as exc:
        return "raised", (type(exc), str(exc))


def assert_same_value(value, reference):
    held = [getattr(reference, field.name) for field in dataclasses.fields(reference)]
    assert list(value) == held and [type(x) for x in value] == [type(x) for x in held]
    assert repr(value) == repr(reference)
    assert hash(value) == hash(reference)


@pytest.mark.parametrize("name", DOMAINS)
@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_construction_matches_the_frozen_dataclass(name, data):
    cls, reference, _, _ = DOMAINS[name]
    kwargs = draw_kwargs(data, name)
    (kind, value), (ref_kind, ref_value) = outcome(cls, **kwargs), outcome(reference, **kwargs)
    assert kind == ref_kind, (kwargs, value, ref_value)
    if kind == "raised":
        assert value == ref_value
        return
    assert_same_value(value, ref_value)
    # positional construction and _make take the same path as keywords
    args = [kwargs[field] for field in cls._fields if field in kwargs]
    assert cls(*args) == cls._make(args) == value


@pytest.mark.parametrize("name", DOMAINS)
@given(data=st.data())
@settings(deadline=None, max_examples=200)
def test_replace_checks_like_the_dataclass_replace(name, data):
    cls, reference, fields, _ = DOMAINS[name]
    value = valid_instance(data, name)
    field = data.draw(st.sampled_from(sorted(fields)))
    new = data.draw(fields[field])
    ref_value = reference(*value)
    (kind, replaced), (ref_kind, ref_replaced) = (
        outcome(value._replace, **{field: new}), outcome(dataclasses.replace, ref_value, **{field: new}))
    assert kind == ref_kind, (value, field, new, replaced, ref_replaced)
    if kind == "raised":
        assert replaced == ref_replaced
    else:
        assert type(replaced) is cls
        assert_same_value(replaced, ref_replaced)


@pytest.mark.parametrize("name", DOMAINS)
@given(data=st.data())
@settings(deadline=None, max_examples=50)
def test_instances_are_immutable_hashable_tuples(name, data):
    cls, _, fields, _ = DOMAINS[name]
    value = valid_instance(data, name)
    for field in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field, None))
    twin = cls(*value)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    # the tuple semantics: it unpacks, indexes and equals its plain tuple
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    assert [value[index] for index in range(len(fields))] == [getattr(value, field) for field in fields]


@pytest.mark.parametrize("name", DOMAINS)
@given(data=st.data())
@settings(deadline=None, max_examples=50)
def test_pickle_and_copy_keep_a_checked_value(name, data):
    cls, _, fields, _ = DOMAINS[name]
    value = valid_instance(data, name)
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(clone) is cls and clone == value and repr(clone) == repr(value)
        # the clone is the checked class, so _replace still validates
        with pytest.raises(ValueError):
            clone._replace(**{next(iter(fields)): "not a value"})


def pickled_float(value, protocol):
    return b"F%r\n" % value if protocol == 0 else b"G" + struct.pack(">d", value)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_runs_the_checks(protocol):
    # pickle rebuilds a value by calling its class at every protocol (0 and 1
    # would otherwise fill the tuple directly), so a payload altered to an
    # invalid value is refused rather than held
    config = experiment.ExperimentConfig(theta=1.0, knowledge=0.5)
    payload = pickle.dumps(config, protocol)
    assert pickle.loads(payload) == config
    with pytest.raises(ValueError, match=r"measurement strength K must be .*, got 2\.5$"):
        pickle.loads(payload.replace(pickled_float(0.5, protocol), pickled_float(2.5, protocol)))


def summary():
    config = experiment.ExperimentConfig(theta=7.0 * math.pi / 4.0, knowledge=0.5445)
    return stats.run_trials(stats.TrialPlan(n_pairs=3, n_trials=40, master_seed=1), config)


def test_trial_summary_is_a_named_tuple_with_nan_aware_equality():
    first, second = summary(), summary()
    assert np.isnan(first.wv).any()     # three pairs leave some trials with no post-selected event
    assert first == second and not first != second
    assert first != first._replace(coverage=first.coverage + 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)
    for field in ("b", "other"):
        with pytest.raises(AttributeError):
            setattr(first, field, second.b)
    for clone in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
        assert type(clone) is stats.TrialSummary and clone == first
    assert repr(first).startswith("TrialSummary(true_b=") and "b=array([" in repr(first)


def test_sweep_estimates_compare_with_nan_aware_equality():
    # a grid through 3 pi / 2 at K = 1e-9 has a row whose post-selection is degenerate: wv = nan there
    grid = experiment.ThetaGrid(3.0 * math.pi / 2.0, 3.0 * math.pi / 2.0 + 1.0, 3)
    first, second = (experiment.theta_sweep(1e-9, grid=grid) for _ in range(2))
    assert np.isnan(first.wv[0]) and not np.isnan(first.wv[1:]).any()
    assert first == second and not first != second
    other = experiment.theta_sweep(2e-9, grid=grid)
    assert first != other and not first == other
    assert first != first._replace(wv=np.where(np.isnan(first.wv), 0.0, first.wv))
    assert experiment.theta_sweep(0.5) == experiment.theta_sweep(0.5)
    assert experiment.theta_sweep(0.5, mb_sign=-1) != experiment.theta_sweep(0.5)
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


def test_scalar_estimates_stay_hashable_and_equal_to_their_tuple():
    config = experiment.ExperimentConfig(theta=7.0 * math.pi / 4.0, knowledge=0.5445)
    record = experiment.lg_b(config)
    plain = tuple(record)
    assert record == plain and plain == record and not record != plain
    assert hash(record) == hash(plain) == hash(experiment.lg_b(config))
    assert {record: 1}[plain] == 1
    assert record != experiment.lg_b(config._replace(theta=1.0))
    # a degenerate post-selection: wv is nan, and two such records compare equal
    degenerate = experiment.ExperimentConfig(theta=3.0 * math.pi / 2.0, knowledge=1e-9)
    first, second = experiment.lg_b(degenerate), experiment.lg_b(degenerate)
    assert math.isnan(first.wv) and first == second and not first != second
    assert hash(first) == hash(tuple(first))
