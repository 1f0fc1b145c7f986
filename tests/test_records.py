"""Every record type of the package: immutable, equal and hashed only by
type and fields, validated on every construction, and written to JSON only
through its own encoders."""
import importlib
import json
import pkgutil
from functools import lru_cache

import numpy as np
import pytest

import sirlyap
from sirlyap import cli, flow, levelset, lyap_df, lyap_en, model, ode, verify
from sirlyap.model import Record

P = model.ModelParams(beta=0.0002, gamma=0.032, mu=0.015, b_hat=17.0)
LP = lyap_en.EnLyapParams(1.0, 1.0, 0.01, 0.0902, 1e-4, 340.0, 0.5)

#: one record of each type
RECORDS = [
    P,
    model.State(100.0, 5.0, 0.0),
    flow.Constant(3.0),
    flow.Step(5.0, 3.0, 17.0),
    flow.Piecewise(((0.0, 1.0), (2.0, 5.0))),
    flow.Sinusoid(3.0, 1.0, 0.1),
    lyap_df.DfLyapParams(0.0148, 0.0745, 0.001, 0.97, 0.5),
    LP,
    cli.RunConfig(P),
    levelset.Contour(100.0, ("x3t", 0.0), [[(0.0, 1.0), (1.0, 0.0)]]),
    verify.CheckResult("stub", True, 0.5, [1.0, 2.0, 3.0], 3, {"k": 1}),
    verify.VerificationReport([verify.CheckResult("stub", True, 0.5)]),
    ode.Trajectory(np.arange(3.0), np.ones((3, 3)), np.zeros(3)),
]
IDS = [type(r).__name__ for r in RECORDS]


def _subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_records_lists_every_record_type():
    # a new record type is a decision: it joins RECORDS, and these tests, here
    for mod in pkgutil.iter_modules(sirlyap.__path__):
        importlib.import_module(f"sirlyap.{mod.name}")
    concrete = {c for c in _subclasses(Record) if c.__module__.startswith("sirlyap.") and c._fields}
    assert {type(r) for r in RECORDS} == concrete and len(RECORDS) == len(concrete) == 13


def _values(rec) -> list:
    return [getattr(rec, name) for name in rec._fields]


def _hashable(rec) -> bool:
    try:
        hash(rec)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_equal_and_hashed_only_by_type_and_fields(rec):
    same = type(rec)(*_values(rec))
    assert same == rec and not same != rec and same is not rec
    assert rec != tuple(_values(rec)) and rec != _values(rec)
    assert rec.as_dict() == dict(zip(rec._fields, _values(rec)))
    if _hashable(rec):
        assert hash(same) == hash(rec)


def test_records_of_different_types_differ():
    step, sinusoid = flow.Step(1.0, 2.0, 3.0), flow.Sinusoid(1.0, 2.0, 3.0)
    assert step != sinusoid and not step == sinusoid and len({step, sinusoid}) == 2
    assert model.State(1.0, 2.0, 3.0) != model.State(1.0, 2.0, 4.0)


def test_equal_constants_hit_the_cache():
    lyap_en.check_condition_50.cache_clear()
    first = lyap_en.check_condition_50(P, LP)
    again = lyap_en.check_condition_50(model.ModelParams(**P.as_dict()), LP.replace())
    assert again is first and lyap_en.check_condition_50.cache_info().hits == 1

    @lru_cache(maxsize=None)
    def kind(sig):
        return type(sig).__name__

    step, sinusoid = flow.Step(1.0, 2.0, 3.0), flow.Sinusoid(1.0, 2.0, 3.0)
    assert kind(step) == "Step" and kind(sinusoid) == "Sinusoid"  # two keys, not one


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(rec):
    name = rec._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(rec, name, 1.0)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1.0
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(rec, name)


@pytest.mark.parametrize("rec, change, message", [
    (P, {"mu": -1.0}, "beta, gamma and mu must be positive"),
    (P, {"b_hat": -1.0}, "b_hat must be nonnegative"),
    (model.State(1.0, 2.0, 3.0), {"i": -1.0}, "state components must be nonnegative"),
    (flow.Constant(3.0), {"c": -1.0}, "constant input must be nonnegative"),
    (flow.Step(5.0, 3.0, 17.0), {"c_after": -1.0}, "step levels must be nonnegative"),
    (flow.Piecewise(((0.0, 1.0),)), {"points": ((1.0, 1.0), (0.0, 2.0))},
     "piecewise breakpoints must be increasing"),
    (LP, {"k": 1.5}, r"k must lie in \(0, 1\)"),
    (LP, {"lambda2": 2.0}, "need 0 < lambda1 == lambda2"),
    (ode.Trajectory(np.arange(3.0), np.ones((3, 3)), np.zeros(3)), {"inputs": np.zeros(2)},
     "times, states and inputs must have equal length"),
    (LP, {"lambda_hat2": 0.0}, "lambda_hat2 must be positive"),
    (LP, {"lambda3": -1e-4}, "lambda3 must be positive"),
    (LP, {"l_bar": 0.0}, "l_bar must be positive"),
    (LP, {"delta": 0.0}, r"delta must lie in \(0, 1\)"),
    (LP, {"delta": 1.0}, r"delta must lie in \(0, 1\)"),
])
def test_replace_validates_again(rec, change, message):
    with pytest.raises(ValueError, match=message):
        rec.replace(**change)
    with pytest.raises(ValueError, match=message):
        type(rec)(**{**rec.as_dict(), **change})
    if not isinstance(rec, ode.Trajectory):  # array fields have no truth value
        assert rec.replace() == rec
    with pytest.raises(TypeError):
        rec.replace(no_such_field=1.0)


def test_positional_keyword_and_default_construction():
    assert model.ModelParams(0.0002, 0.032, mu=0.015, b_hat=17.0) == P
    assert verify.CheckResult("c", True, 0.5) == verify.CheckResult(
        name="c", passed=True, worst_margin=0.5, worst_location=None, samples=0, details={})
    cfg = cli.RunConfig(model=P)
    assert (cfg.equilibrium, cfg.horizon, cfg.resolution, cfg.seed) == ("df", 5000.0, [800, 800],
                                                                        0x5121)
    for make, name in ((lambda: cli.RunConfig(P), "levels"), (lambda: cli.RunConfig(P), "lyap"),
                       (lambda: cli.RunConfig(P), "resolution"),
                       (lambda: verify.CheckResult("c", True, 0.5), "details"),
                       (verify.VerificationReport, "checks"),
                       (lambda: levelset.Contour(1.0, ("x3t", 0.0)), "polylines")):
        assert getattr(make(), name) is not getattr(make(), name)  # no shared default
    with pytest.raises(TypeError, match="needs its field 'beta'"):
        model.ModelParams()
    with pytest.raises(TypeError):
        model.State(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError):
        model.State(1.0, 2.0, 3.0, s=1.0)
    with pytest.raises(TypeError):
        model.State(1.0, 2.0, q=3.0)


def test_repr_names_each_field():
    assert repr(P) == "ModelParams(beta=0.0002, gamma=0.032, mu=0.015, b_hat=17.0)"
    assert repr(flow.Step(5.0, 3.0, 17.0)) == "Step(t_switch=5.0, c_before=3.0, c_after=17.0)"
    assert repr(verify.CheckResult("c", True, 0.5)) == (
        "CheckResult(name='c', passed=True, worst_margin=0.5, worst_location=None, samples=0, "
        "details={})")
    for rec in RECORDS:
        assert repr(rec).startswith(f"{type(rec).__name__}({rec._fields[0]}=")


@pytest.mark.parametrize("rec", [r for r in RECORDS if isinstance(r, model.FloatRecord)],
                         ids=lambda r: type(r).__name__)
def test_float_records_round_trip_by_name(rec):
    d = rec.as_dict()
    assert list(d) == list(rec._fields) and type(rec).from_dict(d) == rec
    with pytest.raises(ValueError, match="takes exactly the keys"):
        type(rec).from_dict({**d, "extra": 1.0})


@pytest.mark.parametrize("sig", [r for r in RECORDS if isinstance(r, flow.InputSignal)],
                         ids=lambda r: type(r).__name__)
def test_signals_round_trip_by_key(sig):
    d = flow.signal_to_dict(sig)
    assert list(d) == ["kind", *sig.keys] and flow.signal_from_dict(d) == sig
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_no_record_is_written_as_a_json_array(rec):
    assert isinstance(rec, Record)
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(rec)
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(verify._jsonable({"location": rec}))
