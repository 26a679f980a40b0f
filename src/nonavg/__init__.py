"""Greedy nonaveraging integer sequences: generation, closed forms, counting, verification."""

from .errors import BudgetExhausted, DomainError, InvalidTuple, Overflow, UnsupportedM
from .tuples import (
    CoefficientTuple,
    SubsetSumTable,
    is_valid,
    is_valid_by_cover,
    subset_sum_table,
    weight,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    AvoidanceRule,
    Witness,
    creates_solution,
    relaxed_representation,
    verify_solution_free,
    witness_satisfies,
)
from .greedy import (
    GreedySequence,
    extend,
    generate,
    naive_generate,
    read_cache,
    skip_witness,
    write_cache,
)
from .closedform import (
    ClosedForm,
    Decomposition,
    count_zero_one_below,
    count_zero_one_below_dp,
    decompose,
    popcount_residue_pair,
    thue_morse_bit,
    zero_one_contains,
    zero_one_nth,
)
from .theorems import (
    KNOWN_CLOSED_FORMS,
    CellResult,
    ConditionIResult,
    ConditionReport,
    catalog_closed_form,
    check_residue_averaging,
    check_residue_completeness,
    check_scale_identity,
    discover_closed_form,
    residue_averaging_witnesses,
    uniform_family_parameters,
    validate_cell,
    verify_family_prefix,
)
from .asymptotics import (
    BoundsReport,
    behrend_lower_bound,
    closed_form_count_bounds,
    compare_bound_readings,
    term_growth_bounds,
    zero_one_count_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
