"""The benchmark's output checkers must accept right outputs and reject corrupted ones.

Run with:  python -m pytest benchmarks/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

import checks
from checks import Form

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
nonavg = pytest.importorskip("nonavg")


def test_form_matches_known_terms():
    assert Form((1, 1)).prefix(9) == [0, 1, 3, 4, 9, 10, 12, 13, 27]
    assert Form.catalog((1, 1, 1)).prefix(10) == [0, 1, 2, 3, 4, 12, 13, 14, 15, 16]
    form = Form.catalog((1, 1, 2, 2, 5))
    for n in (0, 1, 5, 3622, 3623, 10 ** 6, 10 ** 6 + 7):
        assert form.count_below(n) == form.count_below_by_enumeration(n)
    members = [x for x in Form((1, 1)).prefix(40) if x < 200]
    assert [x for x in range(200) if Form((1, 1)).contains(x)] == members


@pytest.mark.parametrize("coeffs", list(checks.CATALOG))
def test_catalog_rows_satisfy_the_scale_identity(coeffs):
    scale, residues = checks.CATALOG[coeffs]
    assert checks.scale_identity(coeffs, residues) == scale


def test_prefix_with_one_term_changed_is_rejected():
    expected = Form.catalog((1, 1, 2)).prefix(40)
    assert checks.prefix_error((1, 1, 2), expected, expected) is None
    corrupted = list(expected)
    corrupted[17] += 1
    assert checks.prefix_error((1, 1, 2), corrupted, expected) is not None


def test_notallequal_prefix_with_one_term_changed_is_rejected():
    coeffs = (1, 1, 1)
    seq = nonavg.generate(nonavg.CoefficientTuple(coeffs), nonavg.AvoidanceRule.NOT_ALL_EQUAL, max_terms=30)
    assert checks.free_prefix_error(coeffs, seq.terms, 30, distinct=False) is None
    corrupted = list(seq.terms)
    corrupted[-1] = 3 * corrupted[-2]  # 0 + 0 + 3t = 3t
    assert checks.free_prefix_error(coeffs, corrupted, 30, distinct=False) is not None


def test_witness_that_does_not_solve_is_rejected():
    coeffs = (1, 1)
    assert checks.witness_error(coeffs, True, (0, 4, 2), 2, {0, 1, 4}) is None
    assert checks.witness_error(coeffs, True, (0, 4, 3), 3, {0, 1, 4}) is not None
    assert checks.witness_error(coeffs, False, (2, 2, 2), 2, {0, 1}) is not None
    assert checks.witness_error(coeffs, True, None, 2, {0, 1, 4}) is not None


@pytest.fixture(scope="module")
def report():
    cf, found = nonavg.discover_closed_form(nonavg.CoefficientTuple((1, 1, 1, 1)))
    return found.to_json_dict()


def test_residue_list_missing_one_value_is_rejected(report):
    assert checks.report_error((1, 1, 1, 1), report) is None
    corrupted = dict(report, R=report["R"][:5] + report["R"][6:])
    assert checks.report_error((1, 1, 1, 1), corrupted) is not None


def test_report_with_a_corrupted_cell_is_rejected(report):
    cells = [dict(cell) for cell in report["cond_ii"]]
    cells[7]["witness"] = [v + 1 for v in cells[7]["witness"]]
    assert checks.report_error((1, 1, 1, 1), dict(report, cond_ii=cells)) is not None
    assert checks.report_error((1, 1, 1, 1), dict(report, cond_ii=report["cond_ii"][:-1])) is not None


def test_count_off_by_one_is_rejected():
    form = Form.catalog((1, 1, 1, 2, 3))
    cf = nonavg.catalog_closed_form(nonavg.CoefficientTuple((1, 1, 1, 2, 3)))
    bounds = [10 ** 6, 123456789012, 10 ** 17 + 3]
    results = [cf.count_below(n) for n in bounds]
    assert checks.queries_error(form, "count_below", bounds, results) is None
    results[1] += 1
    assert checks.queries_error(form, "count_below", bounds, results) is not None


def test_bounds_report_with_count_off_by_one_is_rejected():
    form = Form((1, 1))
    report = nonavg.zero_one_count_bounds(nonavg.CoefficientTuple((1, 1)), 10 ** 9).to_json_dict()
    assert checks.bounds_error(form, "count", 10 ** 9, report) is None
    assert checks.bounds_error(form, "count", 10 ** 9, dict(report, exact=report["exact"] - 1)) is not None


def _step(form, printed, cached):
    stdout = json.dumps({"tuple": "1,1", "rule": "distinct", "frontier": form.nth(printed - 1),
                         "terms": form.prefix(printed)})
    cache = f"# tuple=1,1 rule=distinct frontier={form.nth(cached - 1)}\n"
    cache += "".join(f"{t}\n" for t in form.prefix(cached))
    return stdout, cache


def test_cache_step_that_prints_too_many_terms_is_rejected():
    form = Form((1, 1))
    assert checks.step_error(form, 5, *_step(form, 5, 40), None) is None
    assert checks.step_error(form, 42, *_step(form, 42, 42), 42) is None
    assert checks.step_error(form, 5, *_step(form, 40, 40), None) is not None
    assert checks.step_error(form, 42, *_step(form, 42, 41), 42) is not None


def test_verify_output_with_a_failed_line_is_rejected():
    assert checks.verify_lines_error("PASS a\nPASS b\n", 2) is None
    assert checks.verify_lines_error("PASS a\nFAIL b\n", 2) is not None
