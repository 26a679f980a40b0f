"""The package namespace: lazily loaded exports, and the modules a CLI process imports."""

import json
import os
import subprocess
import sys

import pytest

import nonavg

# The 53 exports and the seven star-exported submodules, sorted as dir() sorts.
PUBLIC = [
    "AvoidanceRule", "BoundsReport", "BudgetExhausted", "CellResult", "ClosedForm", "CoefficientTuple",
    "ConditionIResult", "ConditionReport", "DEFAULT_NODE_BUDGET", "Decomposition", "DomainError",
    "GreedySequence", "InvalidTuple", "KNOWN_CLOSED_FORMS", "Overflow", "SubsetSumTable", "UnsupportedM",
    "Witness", "asymptotics", "behrend_lower_bound", "catalog_closed_form", "check_residue_averaging",
    "check_residue_completeness", "check_scale_identity", "closed_form_count_bounds", "closedform",
    "compare_bound_readings", "count_zero_one_below", "count_zero_one_below_dp", "creates_solution",
    "decompose", "discover_closed_form", "errors", "extend", "generate", "greedy", "is_valid",
    "is_valid_by_cover", "naive_generate", "popcount_residue_pair", "read_cache", "relaxed_representation",
    "residue_averaging_witnesses", "skip_witness", "solver", "subset_sum_table", "term_growth_bounds",
    "theorems", "thue_morse_bit", "tuples", "uniform_family_parameters", "validate_cell",
    "verify_family_prefix", "verify_solution_free", "weight", "witness_satisfies", "write_cache",
    "zero_one_contains", "zero_one_count_bounds", "zero_one_nth",
]
SUBMODULES = {"asymptotics", "closedform", "errors", "greedy", "solver", "theorems", "tuples"}
# The modules that import nonavg.cli loads, and that a generate call keeps to.
CLI_MODULES = ["nonavg", "nonavg.cli", "nonavg.errors", "nonavg.greedy", "nonavg.solver", "nonavg.tuples"]


def test_all_is_pinned():
    assert nonavg.__all__ == PUBLIC
    assert len(PUBLIC) == 60


@pytest.mark.parametrize("name", sorted(set(PUBLIC) - SUBMODULES))
def test_export_is_the_defining_modules_object(name):
    value = getattr(nonavg, name)
    module = sys.modules[f"nonavg.{nonavg._EXPORTS[name]}"]
    assert vars(module)[name] is value
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__


def test_submodule_names():
    for name in SUBMODULES | {"cli"}:
        assert getattr(nonavg, name) is sys.modules[f"nonavg.{name}"]


def test_dir_lists_every_public_name():
    assert set(dir(nonavg)) >= set(nonavg.__all__)


def test_unknown_name():
    with pytest.raises(AttributeError, match="^module 'nonavg' has no attribute 'no_such_name'$"):
        nonavg.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nonavg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(nonavg, name) for name in PUBLIC)


def test_import_boundary_in_a_fresh_interpreter():
    """import nonavg runs no submodule; import nonavg.cli and a generate call
    load no discovery, verification or bounds module, nor decimal."""
    script = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("nonavg", "decimal"))

import nonavg
seen = [loaded()]
import nonavg.cli
seen.append(loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = nonavg.cli.main(["generate", "--tuple", "1,1", "--max-terms", "5"])
seen.append(loaded())
print(json.dumps([code, out.getvalue(), seen]))
"""
    src = os.path.dirname(os.path.dirname(nonavg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    code, out, seen = json.loads(proc.stdout)
    assert (code, out) == (0, "0\n1\n3\n4\n9\n")
    assert seen == [["nonavg"], CLI_MODULES, CLI_MODULES]
