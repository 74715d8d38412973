"""The dataclass contract of ``Cond`` and ``Node``, the objects every layer
builds most: frozen, slotted, compared and hashed on their fields, and
usable with ``dataclasses`` and ``pickle`` as any frozen dataclass is.
Every other frozen dataclass of the package is made by ``terms.frozen``
too, so it is built, refuses assignment, replaces and pickles alike."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import condalg as c
from condalg import terms
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


# One instance of each frozen class, as its constructor's arguments.
SAMPLES = {
    "Atom": ("a",),
    "AtomTerm": (ATOM_A,),
    "AxiomInstanceReport": ("CP1", (("x", TA), ("y", F)), True),
    "AxiomScheme": ("swap", c.parse_term("x <| y |> F"), c.parse_term("y <| x |> F")),
    "Cond": (T, TA, F),
    "CongruenceKind": ("static", c.Sigma((ATOM_A, ATOM_B))),
    "Evaluation": (((ATOM_A, True), (ATOM_B, False)), False),
    "FalseConst": (),
    "Leaf": (True,),
    "Node": (ATOM_A, LT, LF),
    "SclAnd": (c.SclAtom(ATOM_A), c.SclTrue()),
    "SclAtom": (ATOM_B,),
    "SclFalse": (),
    "SclNot": (c.SclFalse(),),
    "SclOr": (c.SclTrue(), c.SclNot(c.SclAtom(ATOM_A))),
    "SclTrue": (),
    "Sigma": ((ATOM_B, ATOM_A),),
    "TrueConst": (),
    "TruthTable": (c.Sigma((ATOM_A,)), (((True,), True), ((False,), False))),
}


def init_names(cls: type) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.init]


def test_every_frozen_dataclass_has_a_sample():
    assert sorted(SAMPLES) == [cls.__name__ for cls in FROZEN]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_every_frozen_dataclass_is_made_by_frozen(cls):
    assert cls.__setattr__ is terms._refuse_change
    assert cls.__delattr__ is terms._refuse_change
    assert "__slots__" in vars(cls)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_the_init_fields(cls):
    assert list(inspect.signature(cls).parameters) == init_names(cls)


def test_profiles_and_tracebacks_tell_the_constructors_apart():
    inits = [cls.__init__ for cls in FROZEN]
    assert [init.__qualname__ for init in inits] == [f"{cls.__qualname__}.__init__" for cls in FROZEN]
    assert len({init.__code__.co_filename for init in inits}) == len(FROZEN)


def test_an_undocumented_class_is_documented_by_its_signature():
    assert c.Leaf.__doc__ == "Leaf(value: 'bool')"
    assert c.TrueConst.__doc__ == "TrueConst()"
    assert c.Sigma.__doc__.startswith("A duplicate-free, ordered sequence of atoms")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls):
    args = SAMPLES[cls.__name__]
    x = cls(*args)
    assert all(getattr(x, name) is arg for name, arg in zip(init_names(cls), args))
    assert cls(**dict(zip(init_names(cls), args))) == x
    with pytest.raises(TypeError):
        cls(*args, None)
    required = [p for p in inspect.signature(cls).parameters.values() if p.default is p.empty]
    if required:
        with pytest.raises(TypeError):
            cls(*args[: len(required) - 1])
        with pytest.raises(TypeError):
            cls(*args, **{required[0].name: args[0]})


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_replace_builds_through_the_constructor(cls):
    x = cls(*SAMPLES[cls.__name__])
    for name in init_names(cls):
        y = dataclasses.replace(x, **{name: getattr(x, name)})
        assert type(y) is cls and y == x and y is not x
    with pytest.raises(TypeError):
        dataclasses.replace(x, missing=1)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_every_frozen_dataclass_pickles(cls, protocol):
    x = cls(*SAMPLES[cls.__name__])
    y = pickle.loads(pickle.dumps(x, protocol))
    assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)
    assert all(getattr(y, f.name) == getattr(x, f.name) for f in dataclasses.fields(cls))


@pytest.mark.parametrize(
    "build",
    [
        lambda: c.Atom('a"'),
        lambda: c.Sigma.of("a", "a"),
        lambda: c.CongruenceKind("x"),
        lambda: c.CongruenceKind("static"),
    ],
    ids=["quoted-atom", "repeated-atom", "unknown-tag", "static-without-sigma"],
)
def test_post_init_still_checks_the_fields(build):
    with pytest.raises((ValueError, c.DuplicateAtomError)):
        build()


def test_defaults_and_derived_fields_hold():
    assert c.CongruenceKind("free").sigma is None
    scheme = c.AxiomScheme(*SAMPLES["AxiomScheme"])
    assert (scheme.variables, scheme.needs_atom, scheme.needs_sigma) == (("x", "y"), False, False)
    derived = [f.name for f in dataclasses.fields(c.AxiomScheme) if not f.init]
    assert derived == ["variables", "needs_atom", "needs_sigma", "template"]
    for name in derived:
        with pytest.raises(TypeError):
            c.AxiomScheme(*SAMPLES["AxiomScheme"], **{name: getattr(scheme, name)})
        with pytest.raises(ValueError):
            dataclasses.replace(scheme, **{name: getattr(scheme, name)})
