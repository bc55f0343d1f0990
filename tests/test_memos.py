"""Every lru_cache-memoised function in sparsestab returns a value that no
caller can change, since every later caller is handed the same object."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import sparsestab
from sparsestab import SparsityPattern

# two blocks, one with a self-loop and one without
PATTERN = SparsityPattern.from_pairs(3, [(1, 1), (1, 2), (2, 3), (3, 2)])

# a small input for each memoised function, by module and name
INPUTS = {
    "atlas._orbit_table": (2,),
    "graphs._blocks": (PATTERN,),
    "graphs._scc": (PATTERN,),
    "patterns._bit_cells": (3,),
    "patterns._image_table": (3,),
    "patterns._key_bits": (3,),
}


def memoised() -> dict:
    """Each lru_cache-wrapped function defined in a sparsestab module."""
    found = {}
    for info in pkgutil.iter_modules(sparsestab.__path__):
        module = importlib.import_module(f"sparsestab.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def immutable(value) -> bool:
    """Is ``value`` built only of tuples, frozensets, frozen dataclasses and
    read-only arrays, down to scalars?"""
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(immutable(item) for item in value)
    if isinstance(value, np.ndarray):
        return not value.flags.writeable and value.dtype != object
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__dataclass_params__.frozen and all(
            immutable(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return False


def test_every_memoised_function_has_an_input():
    assert sorted(memoised()) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_memoised_result_is_immutable(name):
    fn = memoised()[name]
    result = fn(*INPUTS[name])
    assert immutable(result), (name, result)
    assert fn(*INPUTS[name]) is result


@dataclasses.dataclass
class _Mutable:
    x: int


@dataclasses.dataclass(frozen=True)
class _FrozenHolder:
    x: object


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@pytest.mark.parametrize(
    "value",
    [
        [1],
        (1, (2, [3])),
        (_FrozenHolder([1]),),
        np.zeros(2),
        _Mutable(1),
        (_read_only(np.zeros(1, dtype=object)),),
    ],
    ids=["list", "list_in_tuple", "list_in_frozen_dataclass", "writable_array", "mutable_dataclass", "object_array"],
)
def test_mutable_values_are_caught(value):
    assert not immutable(value)
