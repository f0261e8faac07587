"""The package's record types against the frozen dataclasses in `tests/reference.py`.

Each record is a plain slotted class on `errors.Record`.  Built from the same
seeded field values as its dataclass twin, it must compare, hash and print
alike, refuse assignment and deletion with the same `FrozenInstanceError`,
survive `pickle` and `copy`, take the same constructor arguments and refuse
the same bad values with the same message.
"""

import copy
import dataclasses
import inspect
import pickle
import random

import pytest

import pseudosym
from pseudosym.cm import CM_ORDER
from pseudosym.errors import ParameterError, Record
from pseudosym.poly import LOCAL
from pseudosym.toric import toric_generators

import reference as ref

RECORDS = ("PseudoSymmetricParams", "NumericalSemigroup", "MonomialOrder", "ClosedFormBasis",
           "SweepConfig")


def _params(rng):
    a1 = rng.randrange(3, 30)
    return (a1, rng.randrange(2, 30), rng.randrange(2, 30), rng.randrange(2, 6), rng.randrange(1, a1 - 1))


def _range(rng, low):
    lo = rng.randrange(low, 12)
    return (lo, rng.randrange(lo, 14))


def _fields(name: str, rng: random.Random) -> dict:
    """Keyword arguments for record `name`, valid for the package and the reference alike."""
    if name == "PseudoSymmetricParams":
        return dict(zip(pseudosym.PseudoSymmetricParams._fields, _params(rng)))
    if name == "NumericalSemigroup":
        return {"generators": tuple(rng.randrange(1, 50) for _ in range(rng.randrange(1, 6)))}
    if name == "MonomialOrder":
        precedence = [0, 1, 2, 3]
        rng.shuffle(precedence)
        return {"precedence": tuple(precedence)}
    if name == "ClosedFormBasis":
        generators = toric_generators(pseudosym.PseudoSymmetricParams(*_params(rng)))
        return {"k": rng.randrange(1, 9), "elements": generators[:rng.randrange(6)]}
    return {"alpha1": _range(rng, 2), "alpha2": _range(rng, 2), "alpha3": _range(rng, 2),
            "alpha4": _range(rng, 2), "alpha21": _range(rng, 1),
            "require_sorted": rng.random() < 0.5, "require_c4": rng.random() < 0.5,
            "k_filter": rng.choice([None, rng.randrange(1, 5)]), "jobs": rng.randrange(1, 4),
            "max_level": rng.choice([None, rng.randrange(0, 40)])}


CASES = [(name, seed) for name in RECORDS for seed in range(12)]


def _pair(name, seed):
    """The package record and its reference twin, from one draw of field values."""
    kwargs = _fields(name, random.Random(f"{name}-{seed}"))
    return getattr(pseudosym, name)(**kwargs), getattr(ref, name)(**kwargs), kwargs


@pytest.mark.parametrize("name", RECORDS)
def test_a_slotted_record_without_dataclass_machinery(name):
    cls = getattr(pseudosym, name)
    assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls)
    assert "__slots__" in vars(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(getattr(ref, name)) if f.init)


@pytest.mark.parametrize("name", RECORDS)
def test_constructor_signature_matches_the_dataclass(name):
    # names, kinds and defaults, so positional and keyword calls bind alike;
    # a generic (*args, **kwargs) constructor fails here
    def shape(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert shape(getattr(pseudosym, name)) == shape(getattr(ref, name))


@pytest.mark.parametrize("name, seed", CASES)
class TestAgainstDataclass:
    def test_equal_values_compare_equal_and_hash_alike(self, name, seed):
        new, old, kwargs = _pair(name, seed)
        twin = type(new)(**kwargs)
        assert new == twin and not new != twin and hash(new) == hash(twin)
        # the dataclass hashes the tuple of its compared fields; so does the record
        assert hash(new) == hash(old)
        assert new.__eq__(old) is NotImplemented and new != old

    def test_unequal_values_compare_as_the_dataclass_does(self, name, seed):
        new, old, _ = _pair(name, seed)
        other_new, other_old, _ = _pair(name, seed + 1000)
        assert (new == other_new) == (old == other_old)
        assert (new != other_new) == (old != other_old)

    def test_repr_text(self, name, seed):
        new, old, _ = _pair(name, seed)
        assert repr(new) == repr(old)

    def test_set_and_delete_raise_frozen_instance_error(self, name, seed):
        new, old, _ = _pair(name, seed)
        for attr in (*new._fields, "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                setattr(new, attr, 1)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                setattr(old, attr, 1)
            assert str(raised.value) == str(expected.value)
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                delattr(new, attr)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                delattr(old, attr)
            assert str(raised.value) == str(expected.value)
        assert repr(new) == repr(old)

    def test_pickle_and_copy_round_trip(self, name, seed):
        new, _, _ = _pair(name, seed)
        copies = [pickle.loads(pickle.dumps(new, protocol))
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(new), copy.deepcopy(new)]
        for twin in copies:
            assert type(twin) is type(new) and twin == new and hash(twin) == hash(new)
            assert repr(twin) == repr(new)


@pytest.mark.parametrize("order", [LOCAL, CM_ORDER], ids=["LOCAL", "CM_ORDER"])
def test_module_orders_round_trip_with_their_scan_order(order):
    for twin in (pickle.loads(pickle.dumps(order)), copy.deepcopy(order)):
        assert twin == order and twin._least_first == order._least_first == order.precedence[::-1]


def test_semigroup_round_trips_after_its_apery_set_is_read():
    S = pseudosym.PseudoSymmetricParams(16, 20, 7, 2, 8).semigroup
    ap = S.apery
    for twin in (pickle.loads(pickle.dumps(S)), copy.deepcopy(S)):
        assert twin == S and twin.apery == ap


def test_params_round_trip_alike_after_their_derived_facts_are_read():
    params = pseudosym.PseudoSymmetricParams(16, 20, 7, 2, 8)
    before = (repr(params), hash(params), pickle.dumps(params))
    earlier = [copy.copy(params), copy.deepcopy(params)]
    params.semigroup, params.conditions
    assert (repr(params), hash(params), pickle.dumps(params)) == before
    assert repr(params) == repr(ref.PseudoSymmetricParams(16, 20, 7, 2, 8))
    later = [copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))]
    for twin in earlier + later:
        assert type(twin) is type(params) and twin == params and hash(twin) == hash(params)
        assert repr(twin) == repr(params)
        assert twin.semigroup == params.semigroup and twin.conditions == params.conditions


def test_sweep_config_defaults_and_keywords():
    assert repr(pseudosym.SweepConfig()) == repr(ref.SweepConfig())
    for f in dataclasses.fields(ref.SweepConfig):
        assert getattr(pseudosym.SweepConfig(), f.name) == f.default
        value = {"alpha21": (2, 3), "require_sorted": False, "require_c4": False,
                 "k_filter": 2, "jobs": 3, "max_level": 7}.get(f.name, (3, 4))
        config = pseudosym.SweepConfig(**{f.name: value})
        assert getattr(config, f.name) == value
        assert repr(config) == repr(ref.SweepConfig(**{f.name: value}))


INVALID = [
    ("PseudoSymmetricParams", (1, 14, 6, 2, 3)),
    ("PseudoSymmetricParams", (13, 0, 6, 2, 3)),
    ("PseudoSymmetricParams", (13, 14, -6, 2, 3)),
    ("PseudoSymmetricParams", (13, 14, 6, 1, 3)),
    ("PseudoSymmetricParams", (1, 1, 1, 1, 0)),
    ("PseudoSymmetricParams", (13, 14, 6, 2, 0)),
    ("PseudoSymmetricParams", (13, 14, 6, 2, 12)),
    ("PseudoSymmetricParams", (3, 14, 6, 2, 2)),
    ("NumericalSemigroup", ((),)),
    ("NumericalSemigroup", ((0, 3),)),
    ("NumericalSemigroup", ((5, -2, 3),)),
    ("MonomialOrder", ((0, 0, 1, 2),)),
    ("MonomialOrder", ((0, 1, 2),)),
    ("MonomialOrder", ((1, 2, 3, 4),)),
    ("SweepConfig", ((5, 4),)),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (3, 2))),
    ("SweepConfig", ((1, 8),)),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (1, 2))),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (2, 2), (0, 7))),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (2, 2), (1, 7), True, True, None, 0)),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (2, 2), (1, 7), True, True, None, 1, -1)),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (2, 2), (1, 7), True, True, None, 1, 100_001)),
    ("SweepConfig", ((2, 8), (2, 8), (2, 8), (2, 2), (1, 7), True, True, 0)),
]


@pytest.mark.parametrize("name, args", INVALID, ids=[f"{n}{a}" for n, a in INVALID])
def test_validation_messages(name, args):
    with pytest.raises(ValueError) as expected:
        getattr(ref, name)(*args)
    error = ValueError if name == "MonomialOrder" else ParameterError
    with pytest.raises(error) as raised:
        getattr(pseudosym, name)(*args)
    assert str(raised.value) == str(expected.value)
