"""Greedy nonaveraging integer sequences: generation, closed forms, counting, verification.

Submodules load on first use: ``import nonavg`` runs none of them, and a name
such as ``nonavg.generate`` or ``nonavg.theorems`` imports its defining module
when it is first looked up (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# The names each submodule exports from the package.
_NAMES = {
    "errors": "BudgetExhausted DomainError InvalidTuple Overflow UnsupportedM",
    "tuples": "CoefficientTuple SubsetSumTable is_valid is_valid_by_cover subset_sum_table weight",
    "solver": "DEFAULT_NODE_BUDGET AvoidanceRule Witness creates_solution relaxed_representation"
    " verify_solution_free witness_satisfies",
    "greedy": "GreedySequence extend generate naive_generate read_cache skip_witness write_cache",
    "closedform": "ClosedForm Decomposition count_zero_one_below count_zero_one_below_dp decompose"
    " popcount_residue_pair thue_morse_bit zero_one_contains zero_one_nth",
    "theorems": "KNOWN_CLOSED_FORMS CellResult ConditionIResult ConditionReport catalog_closed_form"
    " check_residue_averaging check_residue_completeness check_scale_identity discover_closed_form"
    " residue_averaging_witnesses uniform_family_parameters validate_cell verify_family_prefix",
    "asymptotics": "BoundsReport behrend_lower_bound closed_form_count_bounds compare_bound_readings"
    " term_growth_bounds zero_one_count_bounds",
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names.split()}

# The exports and the submodules above; cli loads as nonavg.cli but is not star-exported.
__all__ = sorted([*_EXPORTS, *_NAMES])


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _NAMES or name == "cli":
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__():
    return sorted({*globals(), *__all__})
