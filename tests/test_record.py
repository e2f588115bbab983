"""The immutable value records: construction, equality, hashing, read-only fields,
copies and pickles that rebuild through ``__init__``, and the repr."""

import copy
import pickle

import numpy as np
import pytest

from qtmpair.analysis import SweepTable
from qtmpair.model import EigenSystem, FieldVector, ModelParams
from qtmpair.reference import DY2S_C82, MoleculeReference
from qtmpair.relaxation import (
    ArrheniusProcess,
    FitResult,
    LifetimePoint,
    RelaxationDataset,
    RelaxationModel,
)

PROC = ArrheniusProcess(4.0e2, 0.34)
MODEL = RelaxationModel((PROC,))
POINT = LifetimePoint(2.0, 1.5)
AXIS, LEVELS, COV, STD = np.linspace(0.0, 1.0, 3), np.zeros((3, 4)), np.eye(2), np.ones(2)

# class, positional fields, keyword form of the same record, a record that differs
CASES = [
    (ModelParams, (1.0, 0.5, 2.0, 3.0), dict(u=1.0, a=0.5, mu_x=2.0, mu_y=3.0),
     ModelParams(1.0, 0.5, 2.0, 4.0)),
    (FieldVector, (0.1, 0.2), dict(bx=0.1, by=0.2), FieldVector(0.1)),
    (EigenSystem, (np.array([1.0]), np.eye(1)), dict(values=np.array([1.0]), vectors=np.eye(1)),
     EigenSystem(np.array([2.0]), np.eye(1))),
    (SweepTable, ("U/A", AXIS, LEVELS),
     dict(axis_name="U/A", axis_values=AXIS, eigenvalues=LEVELS),
     SweepTable("By/B_Zt", AXIS, LEVELS)),
    (ArrheniusProcess, (4.0e2, 0.34), dict(tau0=4.0e2, delta=0.34), ArrheniusProcess(4.0e2, 0.35)),
    (RelaxationModel, ((PROC,),), dict(processes=(PROC,)),
     RelaxationModel((PROC, ArrheniusProcess(1.0, 5.0)))),
    (LifetimePoint, (2.0, 1.5, 0.1, "DC"),
     dict(t_kelvin=2.0, tau_s=1.5, sigma_ln_tau=0.1, mode="DC"),
     LifetimePoint(2.0, 1.5, 0.1, "AC")),
    (RelaxationDataset, ((POINT,),), dict(points=(POINT,)), RelaxationDataset((POINT, POINT))),
    (FitResult, (MODEL, STD, 0.1, COV, True, 3, (2.0, 1.0)),
     dict(model=MODEL, std_errors=STD, residual_rms=0.1, covariance=COV, converged=True,
          iterations=3, objective_trace=(2.0, 1.0)),
     FitResult(DY2S_C82.relaxation, STD, 0.1, COV, True, 3, (2.0, 1.0))),
    (MoleculeReference, ("M", MODEL, 1.9, 6.3, 0.085, 40.0),
     dict(name="M", relaxation=MODEL, threshold_field_t=1.9, reported_frequency_ghz=6.3,
          reported_tunneling_k=0.085, splitting_ratio=40.0),
     MoleculeReference("N", MODEL, 1.9, 6.3, 0.085, 40.0)),
]
IDS = [case[0].__name__ for case in CASES]
# records whose arrays hold more than one element compare equal only when they share
# those arrays, as tuples of arrays do
SHARED_ARRAYS = {"SweepTable", "FitResult"}
HASHABLE = {"ModelParams", "FieldVector", "ArrheniusProcess", "RelaxationModel", "LifetimePoint",
            "RelaxationDataset", "MoleculeReference"}


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, other):
    record = cls(*args)
    assert record == cls(**kwargs)
    assert fields(record) == fields(cls(**kwargs))
    assert cls.__slots__[:len(kwargs)] == tuple(kwargs)        # the positional order
    with pytest.raises(TypeError):
        cls(*args, *args)
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)


def test_defaults_are_as_documented():
    assert fields(FieldVector()) == (0.0, 0.0)
    assert fields(LifetimePoint(2.0, 1.5)) == (2.0, 1.5, None, "")
    assert SweepTable("U/A", AXIS, LEVELS).ground_moments is None
    assert FitResult(MODEL, STD, 0.1, COV, True, 3).objective_trace == ()


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_records_compare_by_value_and_only_with_their_own_class(cls, args, kwargs, other):
    record = cls(*args)
    twin = cls(*(args if cls.__name__ in SHARED_ARRAYS else copy.deepcopy(args)))
    assert record is not twin and record == twin and not record != twin
    assert record != other and not record == other
    assert record != fields(record)                      # the same values, another type
    assert record.__eq__(fields(record)) is NotImplemented
    if cls.__name__ in HASHABLE:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2
    else:
        with pytest.raises(TypeError):      # an ndarray field is unhashable
            hash(record)


def test_records_of_two_classes_differ_even_with_equal_values():
    field, process = FieldVector(1.0, 2.0), ArrheniusProcess(1.0, 2.0)
    assert fields(field) == fields(process)
    assert field != process and process != field
    assert len({field, process}) == 2


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_added_or_deleted(cls, args, kwargs, other):
    record = cls(*args)
    name = cls.__slots__[0]
    before = fields(record)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1.0
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert all(a is b for a, b in zip(fields(record), before))


@pytest.mark.parametrize("cls, args, kwargs, other", CASES, ids=IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_round_trip(cls, args, kwargs, other, clone):
    record = cls(*args)
    again = clone(record)
    assert type(again) is cls
    for a, b in zip(fields(again), fields(record)):
        np.testing.assert_equal(a, b)


# a valid record, a field forced past the constructor, and what the constructor says of it
TAMPERED = [
    (ModelParams(1.0, 0.5, 2.0, 3.0), "a", -1.0, "tunneling element a must be >= 0"),
    (FieldVector(0.1, 0.2), "by", float("inf"), "field components must be finite"),
    (ArrheniusProcess(4.0e2, 0.34), "tau0", 0.0, "prefactor tau0 must be positive"),
    (RelaxationModel((PROC,)), "processes", (), "need 1..4 processes, got 0"),
    (LifetimePoint(2.0, 1.5), "mode", "a,b", "cannot be written to CSV unchanged"),
    (RelaxationDataset((POINT,)), "points", (), "dataset must contain at least one point"),
]


@pytest.mark.parametrize("record, name, value, message", TAMPERED,
                         ids=[type(case[0]).__name__ for case in TAMPERED])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_rebuild_through_the_checks(record, name, value, message, clone):
    record = copy.copy(record)
    object.__setattr__(record, name, value)
    with pytest.raises(ValueError, match=message):
        clone(record)


def test_a_copy_normalizes_again():
    late, early = ArrheniusProcess(1.0, 5.0), ArrheniusProcess(1.0, 1.0)
    model = RelaxationModel((late, early))
    assert model.processes == (early, late)
    object.__setattr__(model, "processes", [late, early])
    assert pickle.loads(pickle.dumps(model)).processes == (early, late)
    params = ModelParams(1, 0, 2, 3)
    assert all(type(value) is float for value in fields(params))
    object.__setattr__(params, "u", 7)
    assert type(copy.deepcopy(params).u) is float


def test_repr_names_every_field():
    assert repr(ModelParams(1, 0.5, 2.0, 3.0)) == "ModelParams(u=1.0, a=0.5, mu_x=2.0, mu_y=3.0)"
    assert repr(FieldVector(by=0.25)) == "FieldVector(bx=0.0, by=0.25)"
    assert repr(LifetimePoint(2.0, 1.5)) == (
        "LifetimePoint(t_kelvin=2.0, tau_s=1.5, sigma_ln_tau=None, mode='')"
    )
    assert repr(MODEL) == "RelaxationModel(processes=(ArrheniusProcess(tau0=400.0, delta=0.34),))"
    assert repr(RelaxationDataset((POINT,))) == f"RelaxationDataset(points=({POINT!r},))"
    assert eval(repr(MODEL), {"RelaxationModel": RelaxationModel,
                              "ArrheniusProcess": ArrheniusProcess}) == MODEL
    result = FitResult(MODEL, STD, 0.1, COV, True, 3, (2.0, 1.0))
    assert repr(result) == (
        f"FitResult(model={MODEL!r}, std_errors={STD!r}, residual_rms=0.1, "
        f"covariance={COV!r}, converged=True, iterations=3, objective_trace=(2.0, 1.0))"
    )
    assert repr(SweepTable("U/A", AXIS, LEVELS)).startswith(
        "SweepTable(axis_name='U/A', axis_values=array([0. , 0.5, 1. ]), eigenvalues=array("
    )
    assert repr(DY2S_C82).startswith("MoleculeReference(name='Dy2S@C82', relaxation=Relaxation")
