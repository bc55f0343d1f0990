import ast
import pathlib
import pkgutil

import pytest

import sparsestab
from sparsestab.paper import (
    composition_suite,
    jacobi_suite,
    run_identity_suites,
    scaling_suite,
    transpose_suite,
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transpose_suite_clean(n):
    result = transpose_suite(n, trials=6, seed=1)
    assert result.failures == 0 and result.trials > 0


@pytest.mark.parametrize("n", [2, 3])
def test_composition_suite_exhausts_small_groups(n):
    result = composition_suite(n, trials=200, seed=2)
    # trials covers the full (tau, sigma) square at these sizes
    import math

    assert result.trials == math.factorial(n) ** 2
    assert result.failures == 0


def test_scaling_suite_clean():
    assert scaling_suite(3, trials=6, seed=3).failures == 0


def test_jacobi_suite_clean():
    result = jacobi_suite(4, trials=25, seed=4)
    assert result.trials == 25 and result.failures == 0


def test_runner_covers_all_four_suites():
    results = run_identity_suites(3, trials=5, seed=5)
    assert [r.name for r in results] == [
        "transpose",
        "composition",
        "diagonal-scaling",
        "jacobi",
    ]
    assert all(r.ok for r in results)


# every module but the two front ends and the paper layer itself
ENGINE = sorted(info.name for info in pkgutil.iter_modules(sparsestab.__path__) if info.name not in ("cli", "paper"))
PAPER = {"sparsestab.paper", ".paper"}


def imported_names(module):
    """Every module, and every name taken from one, that a sparsestab
    module's source imports, relative imports spelled with their dots."""
    path = pathlib.Path(sparsestab.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_does_not_import_the_paper_layer(module):
    assert not PAPER & imported_names(module)


@pytest.mark.parametrize("module", ["cli", "__init__"])
def test_front_ends_import_the_paper_layer(module):
    assert PAPER & imported_names(module)
