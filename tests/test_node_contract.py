"""The dataclass contract of ``Cond`` and ``Node``, the objects every layer
builds most: frozen, slotted, compared and hashed on their fields, and
usable with ``dataclasses`` and ``pickle`` as any frozen dataclass is.
Every other frozen dataclass of the package refuses assignment alike."""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import condalg as c
from helpers import ATOM_A, ATOM_B, TA, TB

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F

# (class, field names, a value for each field, another value for each field)
CASES = [
    (c.Cond, ("true_branch", "condition", "false_branch"), (T, TA, F), (TB, c.Cond(T, TB, F), T)),
    (c.Node, ("atom", "left", "right"), (ATOM_A, LT, LF), (ATOM_B, c.Node(ATOM_B, LF, LT), LT)),
]
IDS = ["Cond", "Node"]


@pytest.mark.parametrize("cls,names,values,others", CASES, ids=IDS)
def test_fields_are_the_three_children_in_order(cls, names, values, others):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values,others", CASES, ids=IDS)
def test_keyword_construction(cls, names, values, others):
    x = cls(**dict(zip(names, values)))
    assert x == cls(*values)
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == x
    with pytest.raises(TypeError):
        cls(*values[:2])
    with pytest.raises(TypeError):
        cls(*values, values[0])


@pytest.mark.parametrize("cls,names,values,others", CASES, ids=IDS)
def test_setting_or_deleting_a_field_raises(cls, names, values, others):
    x = cls(*values)
    for name, other in zip(names, others):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
        assert getattr(x, name) is values[names.index(name)]
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("cls,names,values,others", CASES, ids=IDS)
def test_equality_and_hash_are_on_the_fields(cls, names, values, others):
    x = cls(*values)
    assert x == cls(*values) and not x != cls(*values)
    assert hash(x) == hash(cls(*values)) == hash(values)
    for k in range(3):
        changed = list(values)
        changed[k] = others[k]
        assert x != cls(*changed)
    assert x != values
    assert {x, cls(*values)} == {x}


def test_repr_is_the_text():
    assert repr(c.Cond(T, TA, F)) == "T <| a |> F"
    assert repr(c.Cond(c.Cond(T, TB, F), TA, F)) == "(T <| b |> F) <| a |> F"
    assert repr(c.Node(ATOM_A, LT, LF)) == c.render_tree(c.Node(ATOM_A, LT, LF))
    assert repr(c.Node(ATOM_A, c.Node(ATOM_B, LT, LF), LF)) == "((T <b> F) <a> F)"


@pytest.mark.parametrize("cls,names,values,others", CASES, ids=IDS)
def test_replace(cls, names, values, others):
    x = cls(*values)
    for k, name in enumerate(names):
        changed = list(values)
        changed[k] = others[k]
        assert dataclasses.replace(x, **{name: others[k]}) == cls(*changed)
    assert dataclasses.replace(x) == x
    with pytest.raises(TypeError):
        dataclasses.replace(x, missing=1)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls,names,values,others", CASES, ids=IDS)
def test_pickle_round_trip(cls, names, values, others, protocol):
    x = cls(*others)
    y = pickle.loads(pickle.dumps(x, protocol))
    assert type(y) is cls
    assert y == x and hash(y) == hash(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(y, names[0], values[0])


def frozen_dataclasses() -> list[type]:
    """Every frozen dataclass defined in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(c.__path__, "condalg."):
        for value in vars(importlib.import_module(info.name)).values():
            if (
                isinstance(value, type)
                and value.__module__.startswith("condalg.")
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                found[value.__qualname__] = value
    return [found[name] for name in sorted(found)]


FROZEN = frozen_dataclasses()


def test_frozen_dataclasses_are_found():
    names = {cls.__name__ for cls in FROZEN}
    assert {"Atom", "Cond", "Node", "Leaf", "Sigma", "CongruenceKind", "SclAnd"} <= names


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_every_frozen_dataclass_refuses_setting_and_deleting_any_name(cls):
    # The methods are the class's, so an instance made without __init__
    # (whose slots may be empty) checks them as any instance would.
    x = object.__new__(cls)
    names = [f.name for f in dataclasses.fields(cls)][:1] + ["extra"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
