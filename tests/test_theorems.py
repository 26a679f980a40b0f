"""Structure conditions, closed-form discovery, and the all-ones family."""

import hashlib
import json
import os
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from nonavg import (
    AvoidanceRule,
    BudgetExhausted,
    CoefficientTuple,
    InvalidTuple,
    KNOWN_CLOSED_FORMS,
    UnsupportedM,
    catalog_closed_form,
    check_residue_averaging,
    check_residue_completeness,
    check_scale_identity,
    discover_closed_form,
    generate,
    residue_averaging_witnesses,
    uniform_family_parameters,
    validate_cell,
    verify_family_prefix,
)
from nonavg.theorems import CellResult, _assignment_table, _first_assignments, _slack_plans

E4 = CoefficientTuple((1, 1, 1))


class TestScaleIdentity:
    def test_example_scale_12(self):
        res = check_scale_identity(E4, range(5), 12)
        assert res.passed and (res.lhs, res.rhs) == (12, 12)

    def test_example_family5(self):
        _, residues = uniform_family_parameters(5)
        res = check_scale_identity(CoefficientTuple((1, 1, 1, 1)), residues, 122)
        assert res.passed and res.rhs == 1 + 4 * 31 - 3

    def test_example_failing(self):
        res = check_scale_identity(E4, list(range(5)) + [12, 13], 13)
        assert not res.passed
        assert res.rhs == 1 + 3 * 13 - 1

    def test_requires_valid_tuple(self):
        with pytest.raises(InvalidTuple):
            check_scale_identity(CoefficientTuple((1, 1, 3)), [0], 1)

    def test_requires_residues(self):
        with pytest.raises(ValueError, match="residues must be nonempty"):
            check_scale_identity(E4, [], 1)


class TestResidueCompleteness:
    def test_example_scale_12_passes(self):
        report = check_residue_completeness(E4, range(5), 12)
        assert report.overall
        assert len(report.cells) == 12 * 2  # offsets x slacks

    def test_example_trivial_pair(self):
        report = check_residue_completeness(CoefficientTuple((1, 1)), [0], 1)
        assert report.overall
        assert len(report.cells) == 1
        assert report.cells[0].residues == (0, 0)

    def test_example_small_failing(self):
        report = check_residue_completeness(E4, [0, 1], 3)
        assert not report.overall
        assert len(report.cells) == 6
        outcomes = {(cell.r1, cell.j): cell.passed for cell in report.cells}
        assert outcomes[(2, 0)]  # 2 + 0 + 1 = 3 * 1
        assert not all(outcomes.values())

    def test_cells_are_immutable(self):
        cell = check_residue_completeness(E4, range(5), 12).cells[0]
        for field in ("r1", "j", "subset", "residues"):
            with pytest.raises(AttributeError):
                setattr(cell, field, None)
        assert cell.passed and cell.residues is not None

    def test_witnesses_revalidate_independently(self):
        report = check_residue_completeness(E4, range(5), 12)
        for cell in report.cells:
            assert validate_cell(E4, cell, report.residues), (cell.r1, cell.j)

    def test_witnesses_revalidate_for_weighted_tuple(self):
        e = CoefficientTuple((1, 1, 2))
        report = check_residue_completeness(e, range(5), 16)
        assert report.overall
        for cell in report.cells:
            assert validate_cell(e, cell, report.residues)

    def test_json_shape(self):
        report = check_residue_completeness(CoefficientTuple((1, 1)), [0], 1)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["tuple"] == "1,1"
        assert payload["c"] == 1 and payload["R"] == [0]
        assert payload["cond_i"]["pass"] is True
        assert payload["cond_ii"] == [{"r1": 0, "j": 0, "H": [], "witness": [0, 0]}]
        assert payload["overall"] is True

    def test_budget_exhaustion_point_and_message(self):
        """The budget counts one node per (cell, averaged residue, subset)
        step and the error names where the search stopped."""
        _, residues = uniform_family_parameters(5)
        with pytest.raises(BudgetExhausted) as info:
            check_residue_completeness(CoefficientTuple((1, 1, 1, 1)), residues, 122, node_budget=100)
        assert info.value.nodes == 101
        assert str(info.value) == (
            "search budget exhausted after 101 nodes in residue completeness at scale 122, cell (r1=20, j=0)"
        )

    @pytest.mark.parametrize("budget", [-1, -3])
    def test_negative_budget_stops_as_zero_does(self, budget):
        _, residues = uniform_family_parameters(5)
        e = CoefficientTuple((1, 1, 1, 1))
        with pytest.raises(BudgetExhausted) as zero:
            check_residue_completeness(e, residues, 122, node_budget=0)
        with pytest.raises(BudgetExhausted) as negative:
            check_residue_completeness(e, residues, 122, node_budget=budget)
        assert zero.value.nodes == 1
        assert (negative.value.nodes, str(negative.value)) == (zero.value.nodes, str(zero.value))


E5 = CoefficientTuple((1, 1, 1, 1))


def _rebalanced(cell):
    """cell with r1 chosen so that its equation balances."""
    *vals, r_m = cell.residues
    return cell._replace(r1=E5.weight * r_m - sum(c * v for c, v in zip(E5.coeffs[1:], vals)))


def _with_value(cell, position, value):
    """cell with the residue at ``position`` (2..m-1) replaced, rebalanced."""
    residues = list(cell.residues)
    residues[position - 2] = value
    return _rebalanced(cell._replace(residues=tuple(residues)))


class TestValidateCellRejects:
    """Each way a recorded cell can break its constraint list, applied to a
    passing cell of the (1,1,1,1) catalog report."""

    scale, residues = KNOWN_CLOSED_FORMS[(1, 1, 1, 1)]

    @pytest.fixture(scope="class")
    def cells(self):
        report = check_residue_completeness(E5, self.residues, self.scale)
        assert report.overall
        return report.cells

    def passing(self, cells, j):
        cell = next(c for c in cells if c.j == j and len(set(c.residues)) == len(c.residues))
        assert validate_cell(E5, cell, self.residues) and _rebalanced(cell) == cell
        return cell

    def test_none_cell(self, cells):
        cell = self.passing(cells, 1)
        assert not validate_cell(E5, CellResult(cell.r1, cell.j, None, None), self.residues)

    def test_residue_outside_the_set(self, cells):
        cell = self.passing(cells, 1)
        assert 6 not in self.residues
        assert not validate_cell(E5, _with_value(cell, 2, 6), self.residues)

    def test_subset_sum_is_not_j(self, cells):
        cell = self.passing(cells, 1)
        assert not validate_cell(E5, cell._replace(j=2), self.residues)

    def test_unbalanced_equation(self, cells):
        cell = self.passing(cells, 1)
        assert not validate_cell(E5, cell._replace(r1=cell.r1 + 1), self.residues)

    def test_repeat_inside_the_subset(self, cells):
        cell = self.passing(cells, 1)
        (position,) = cell.subset
        assert not validate_cell(E5, _with_value(cell, position, cell.residues[-1]), self.residues)

    def test_repeat_outside_the_subset(self, cells):
        cell = self.passing(cells, 0)
        assert cell.subset == ()
        assert not validate_cell(E5, _with_value(cell, 3, cell.residues[0]), self.residues)


def reference_report(coeffs, residues, scale):
    """The completeness report from the definitions, by brute force; see
    ``reference_search``."""
    return reference_search(coeffs, residues, scale)[0]


def reference_search(coeffs, residues, scale):
    """The completeness report from the definitions, by brute force, and per
    cell ((r1, j), the number of (r_m, H) options it visits).

    Shares no code with ``nonavg.theorems``.  Cell (r1, j) takes the least
    averaged residue r_m with d*r_m >= r1, then the first position subset H
    (by size, then lexicographically) with coefficient sum j, then the least
    inside sum.  The inside values are the lexicographically first pairwise
    distinct residues on H with that sum avoiding r_m; the outside values
    are the lexicographically first pairwise distinct residues on the other
    positions with the remaining sum.
    """
    d = sum(coeffs)
    m = len(coeffs) + 1
    positions = tuple(range(2, m))
    weight = dict(zip(positions, coeffs[1:]))
    rs = sorted(set(residues))

    def assignments(ps):
        # permutations of a sorted list come in lexicographic order
        return [(sum(weight[p] * v for p, v in zip(ps, vals)), vals) for vals in permutations(rs, len(ps))]

    subsets = {j: [] for j in range(d - 1)}
    hits = {}  # (H, r_m) -> {inside sum + outside sum: (H values, outside values)}
    for size in range(len(positions) + 1):
        for h in combinations(positions, size):
            j = sum(weight[p] for p in h)
            if j > d - 2:
                continue
            subsets[j].append(h)
            first_outside = {}
            for total, vals in assignments([p for p in positions if p not in h]):
                first_outside.setdefault(total, vals)
            inside = sorted(assignments(h))
            for r_m in rs:
                found = hits[h, r_m] = {}
                for s_in, vals in inside:
                    if r_m not in vals:
                        for s_out, out_vals in first_outside.items():
                            found.setdefault(s_in + s_out, (vals, out_vals))

    cells = []
    visits = []
    for r1 in range(scale):
        for j in range(d - 1):
            cell = {"r1": r1, "j": j, "H": None, "witness": None}
            options = ((h, r_m) for r_m in rs if d * r_m >= r1 for h in subsets[j])
            visited = 0
            for h, r_m in options:
                visited += 1
                if d * r_m - r1 in hits[h, r_m]:
                    vals, out_vals = hits[h, r_m][d * r_m - r1]
                    by_position = dict(zip(h, vals))
                    by_position.update(zip([p for p in positions if p not in h], out_vals))
                    cell = {"r1": r1, "j": j, "H": list(h), "witness": [by_position[p] for p in positions] + [r_m]}
                    break
            cells.append(cell)
            visits.append(((r1, j), visited))
    rhs = 1 + d * max(rs) - sum(weight[k] * (m - k - 1) for k in positions)
    return {
        "tuple": ",".join(map(str, coeffs)),
        "c": scale,
        "R": rs,
        "cond_i": {"lhs": scale, "rhs": rhs, "pass": scale == rhs},
        "cond_ii": cells,
        "overall": scale == rhs and all(cell["witness"] is not None for cell in cells),
    }, visits


@st.composite
def valid_tuples(draw, min_len=2, max_len=5):
    """Valid tuples: d_1 = 1 and each entry at most the sum of the ones before."""
    coeffs = [1]
    for _ in range(draw(st.integers(min_value=min_len - 1, max_value=max_len - 1))):
        coeffs.append(draw(st.integers(min_value=coeffs[-1], max_value=sum(coeffs))))
    return tuple(coeffs)


@settings(max_examples=150, deadline=None)
@given(
    valid_tuples(),
    st.lists(st.integers(min_value=-3, max_value=39), min_size=1, max_size=7, unique=True),
    st.integers(min_value=1, max_value=120),
)
def test_completeness_matches_brute_force_reference(coeffs, residues, scale):
    report = check_residue_completeness(CoefficientTuple(coeffs), residues, scale)
    assert report.to_json_dict() == reference_report(coeffs, residues, scale)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 1, 2, 2, 2), (1, 1, 1, 1, 1, 1)]),
    st.lists(st.integers(min_value=-3, max_value=39), min_size=1, max_size=7, unique=True),
    st.integers(min_value=1, max_value=120),
)
def test_completeness_with_runs_matches_brute_force_reference(coeffs, residues, scale):
    """Runs of three or more equal coefficients at positions 2..m-1, where
    the tables take one combination per run."""
    report = check_residue_completeness(CoefficientTuple(coeffs), residues, scale)
    assert report.to_json_dict() == reference_report(coeffs, residues, scale)


def plan_signs(coeffs, residues):
    """subset H -> the sign of its plan: 1 walks the inside sums, -1 the outside sums."""
    plans, _ = _slack_plans(coeffs[1:], sum(coeffs), tuple(sorted(set(residues))))
    return {plan[0]: plan[2] for slack_plans in plans for plan in slack_plans}


def test_completeness_in_both_scan_directions_matches_brute_force_reference():
    """Residues spread up to 3,000 give tables of many distinct sums, so a
    plan walks the inside sums upward when they are no more than the outside
    sums, and the outside sums downward when those are fewer.  The drawn
    cases find witnesses in both directions."""
    directions = set()  # the sign of each plan that found a witness

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([5, 6]).flatmap(lambda size: valid_tuples(min_len=size, max_len=size)),
        st.lists(st.one_of(st.integers(-3, 12), st.integers(13, 3000)), min_size=2, max_size=5, unique=True),
        st.integers(min_value=1, max_value=150),
    )
    def check(coeffs, residues, scale):
        report = check_residue_completeness(CoefficientTuple(coeffs), residues, scale)
        assert report.to_json_dict() == reference_report(coeffs, residues, scale)
        sign = plan_signs(coeffs, residues)
        directions.update(sign[cell.subset] for cell in report.cells if cell.passed)

    check()
    assert directions == {1, -1}


@pytest.mark.parametrize(
    "coeffs,residues,scale",
    [
        ((1, 1, 1, 1, 1), (0, 1, 2, 4), 9),
        ((1, 1, 1, 2, 2), (0, 1, 2, 5), 10),
        ((1, 1, 2, 2, 2), (0, 1, 3, 4), 11),
        ((1, 1, 1, 2, 2), (10, 11, 13, 15, 29), 4),
    ],
)
def test_budget_sweep_matches_reference_node_counts(coeffs, residues, scale):
    """A node is one (cell, r_m, H) option in the reference's order, so every
    budget below the total stops one node past it, in the cell where the
    reference's running count first passes the budget."""
    report, visits = reference_search(coeffs, residues, scale)
    stops = [cell for cell, visited in visits for _ in range(visited)]  # stops[b]: the cell of node b + 1
    e = CoefficientTuple(coeffs)
    for b, (r1, j) in enumerate(stops):
        with pytest.raises(BudgetExhausted) as info:
            check_residue_completeness(e, residues, scale, node_budget=b)
        assert info.value.nodes == b + 1
        assert info.value.where == f"residue completeness at scale {scale}, cell (r1={r1}, j={j})"
    assert check_residue_completeness(e, residues, scale, node_budget=len(stops)).to_json_dict() == report


def test_budget_sweep_case_walks_both_ways_over_two_plans():
    """The last budget-sweep case has a plan that walks the outside sums, a
    slack with two plans whose second finds a witness, and a cell whose
    witness is not at its least averaged residue."""
    coeffs, residues, scale = (1, 1, 1, 2, 2), (10, 11, 13, 15, 29), 4
    d = sum(coeffs)
    sign = plan_signs(coeffs, residues)
    plans, _ = _slack_plans(coeffs[1:], d, residues)
    second = {slack_plans[1][0] for slack_plans in plans if len(slack_plans) > 1}
    cells = [cell for cell in check_residue_completeness(CoefficientTuple(coeffs), residues, scale).cells if cell.passed]
    assert any(sign[cell.subset] == -1 for cell in cells)
    assert any(cell.subset in second for cell in cells)
    assert any(cell.residues[-1] > min(r for r in residues if d * r >= cell.r1) for cell in cells)


@st.composite
def keys_with_runs(draw):
    """A key of up to five positions made of runs of equal coefficients, and
    sorted residues, at least one and at least as many as the key has positions."""
    key = ()
    while len(key) < 5 and draw(st.booleans()):
        run = draw(st.integers(min_value=1, max_value=5 - len(key)))
        key += (draw(st.integers(min_value=1, max_value=4)),) * run
    size = max(len(key), 1)
    residues = draw(st.lists(st.integers(min_value=-5, max_value=59), min_size=size, max_size=size + 2, unique=True))
    return key, sorted(residues)


@settings(max_examples=150, deadline=None)
@given(keys_with_runs())
def test_assignment_table_contract(drawn):
    """The first stored assignment per sum, and the first one avoiding each
    value, are the lexicographically first permutations that qualify; the
    first-assignment table stores that first one alone."""
    key, rs = drawn
    table = _assignment_table(key, rs)
    first, first_avoiding = {}, {}
    for vals in permutations(rs, len(key)):  # lexicographic, since rs is sorted
        s = sum(c * v for c, v in zip(key, vals))
        first.setdefault(s, vals)
        for v in rs:
            if v not in vals:
                first_avoiding.setdefault((s, v), vals)
    assert {s: stored[0] for s, stored in table.items()} == first
    assert _first_assignments(key, rs) == {s: [vals] for s, vals in first.items()}
    for s, stored in table.items():
        for v in rs:
            assert next((a for a in stored if v not in a), None) == first_avoiding.get((s, v)), (s, v)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 1, 2), (1, 1, 1, 1), (1, 1, 2, 3)])
def test_catalog_reports_match_brute_force_reference(coeffs):
    scale, residues = KNOWN_CLOSED_FORMS[coeffs]
    report = check_residue_completeness(CoefficientTuple(coeffs), residues, scale)
    assert report.to_json_dict() == reference_report(coeffs, residues, scale)


# sha256 of json.dumps(report.to_json_dict(), sort_keys=True) for each catalog
# row's completeness report, recorded before the check was rewritten.
CATALOG_REPORT_DIGESTS = {
    (1, 1, 1): "f5607c33a00d1beaee25ffbde51ae054c4bf1346025813b9f39638c55866b3ab",
    (1, 1, 2): "d11edd8c6165120cfa32f9bcfbec43054233a0e36286564dc2a8dea75feb7fc9",
    (1, 1, 1, 1): "bad8aca8be1363c3301584ad1b60cb77e209c262add347c7cf12feebf971a1ea",
    (1, 1, 1, 2): "bd716afe7f65778a2cf4adeff226e70f94f01ef3f5eb259b73b041e41c1b78ed",
    (1, 1, 2, 3): "365708360549ee5bed9d91276f9ea5cfa7cdd460004762c5d9151d2045f1d621",
    (1, 1, 2, 4): "9c2399b34483e60ee9a6ed3c635bb4d4fc52d182df5130ec6523e5d2b541c967",
    (1, 1, 1, 1, 1): "8046f4b716550b579d15ce41d2777348982c6e76b9a9509caf2cc031d070fe23",
    (1, 1, 1, 1, 2): "7acad42deb7a44a4a3919faf2a235ae2c79a1d160eb95e1162ccb6f97cc2be14",
    (1, 1, 1, 1, 3): "22d710ca8a98e94b09534a51b2459b30c0ef4ebca61e2e4fb9662e9927686a33",
    (1, 1, 1, 1, 4): "30a217a2c0fbbf2f99f820865667bd13bf089d1618200e84c862efea529dedb1",
    (1, 1, 1, 2, 2): "26bccbc0e4a00432f59fb7f549dc44928f237b3daae3dd990d68c63214758c71",
    (1, 1, 1, 2, 3): "a24d37448688fe59a5f372cf25e576c05b39e86253f206368b3af8dc9a887fa2",
    (1, 1, 1, 3, 3): "e416e422fd1763411c4349d6658999d95ebdba0110fe52a1c4f125dd514047d3",
    (1, 1, 1, 3, 4): "cd93c12cd205ebfdbfd36eee6867e9fc41936e18ce7798ed90ae821e3c6e10ad",
    (1, 1, 1, 3, 5): "0dfc12a2c5bd2cfc28205fd50954e9f39d3edecfab9dac129c87bdba57cae472",
    (1, 1, 1, 3, 6): "e2bf68c9080b1c14877cd9d3d1390d074f2f7edc4da29b03a70ee20adbaaafc9",
    (1, 1, 2, 2, 2): "bb8e4b6c2bade51b825549ce837b88f837c4a98816f76a2ee0f27ea5ebac6590",
    (1, 1, 2, 2, 3): "274b0dd426794a23d6fd06406ef09fd6929219efcf4fcca3f4d096fa3421e720",
    (1, 1, 2, 2, 5): "073d01c8474dbf0f9bff6d2f5a6a36419f324c0d84cc69258456d192fed024d8",
    (1, 1, 2, 2, 6): "6f04789f92d78516fc94e45bca8b9ed268eec86cd0d58bbf5cb5e28be9b389da",
    (1, 1, 2, 3, 3): "eaf8f1331bb4503516487410a0ad05f6cdd150772d6e3fa28203b9a42039ade6",
    (1, 1, 2, 3, 4): "ae590eea2ad3718d527923610473bdba20c1a62582fff11a716b4cb33f7ae345",
    (1, 1, 2, 3, 7): "0c756acdfc6436d7527625bc530db01a98c955d72bb44f859454fb4285b194e8",
    (1, 1, 2, 4, 4): "1c2e472e771c6a7c4f34e8804a1b4c372c6d26d0d110bb7b2256a229650283de",
    (1, 1, 2, 4, 7): "26e3579dd25bc1984a0a74d956473b19486321d4cd119c16814612e268e0d8d8",
}


def test_catalog_report_digests():
    assert set(CATALOG_REPORT_DIGESTS) == set(KNOWN_CLOSED_FORMS)
    for coeffs, (scale, residues) in KNOWN_CLOSED_FORMS.items():
        report = check_residue_completeness(CoefficientTuple(coeffs), residues, scale)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_REPORT_DIGESTS[coeffs], coeffs
        assert report.to_json() == json.dumps(report.to_json_dict()), coeffs


class TestReportText:
    """``to_json`` writes, byte for byte, what ``json.dumps`` writes of the
    report's fields and cells laid out as a dict."""

    @staticmethod
    def text_matches(coeffs, residues, scale):
        report = check_residue_completeness(CoefficientTuple(coeffs), residues, scale)
        expected = json.dumps({
            "tuple": report.coefficients.text(),
            "c": report.scale,
            "R": list(report.residues),
            "cond_i": {"lhs": report.cond_i.lhs, "rhs": report.cond_i.rhs, "pass": report.cond_i.passed},
            "cond_ii": [
                {
                    "r1": cell.r1,
                    "j": cell.j,
                    "H": list(cell.subset) if cell.subset is not None else None,
                    "witness": list(cell.residues) if cell.residues is not None else None,
                }
                for cell in report.cells
            ],
            "overall": report.overall,
        })
        text = report.to_json()
        if text != expected:  # not `assert text == expected`: pytest would diff megabyte strings
            at = len(os.path.commonprefix([text, expected]))
            pytest.fail(f"first difference at {at}: {text[at:at + 60]!r} != {expected[at:at + 60]!r}")
        return report

    def test_every_cell_fails(self):
        report = self.text_matches((1, 1, 1, 1), (0, 1), 2)
        assert len(report.cells) == 6 and not any(cell.passed for cell in report.cells)

    def test_passed_and_failed_cells_mixed(self):
        report = self.text_matches((1, 1, 2, 4, 6), (0, 1, 2, 3, 4, 17, 35, 50, 51), 704)
        assert len(report.cells) == 9152
        assert sum(not cell.passed for cell in report.cells) == 1

    @pytest.mark.parametrize("residues, scale", [((0,), 1), ((0, 1, 3, 4), 5)])
    def test_one_middle_position_and_an_empty_subset(self, residues, scale):
        report = self.text_matches((1, 1), residues, scale)
        assert {cell.subset for cell in report.cells} == {()}

    @settings(max_examples=150, deadline=None)
    @given(
        valid_tuples(min_len=3, max_len=5),
        st.lists(st.one_of(st.integers(-3, 12), st.integers(13, 3000)), min_size=1, max_size=7, unique=True),
        st.integers(min_value=0, max_value=150),
    )
    def test_random_reports(self, coeffs, residues, scale):
        self.text_matches(coeffs, residues, scale)


class TestDiscovery:
    @pytest.mark.parametrize(
        "coeffs,scale,residues",
        [
            ((1, 1, 1), 12, (0, 1, 2, 3, 4)),
            ((1, 1, 2), 16, (0, 1, 2, 3, 4)),
            ((1, 1, 1, 1, 1), 25, (0, 1, 2, 3, 4, 5, 6)),
        ],
    )
    def test_examples(self, coeffs, scale, residues):
        cf, report = discover_closed_form(CoefficientTuple(coeffs))
        assert (cf.scale, cf.residues) == (scale, residues)
        assert report.overall
        assert cf.base == sum(coeffs) + 1

    def test_rejects_invalid_tuple(self):
        with pytest.raises(InvalidTuple):
            discover_closed_form(CoefficientTuple((1, 1, 3)))

    def test_caps_reached_returns_none(self):
        assert discover_closed_form(E4, max_residues=2) is None
        assert discover_closed_form(E4, max_frontier=5) is None

    def test_discovered_form_matches_greedy(self):
        """End to end: the discovered description enumerates the greedy sequence."""
        for coeffs, count in [((1, 1, 1), 150), ((1, 1, 2), 60), ((1, 1, 2, 4), 40)]:
            e = CoefficientTuple(coeffs)
            cf, _ = discover_closed_form(e)
            want = [cf.nth(k) for k in range(count)]
            assert list(generate(e, AvoidanceRule.DISTINCT, max_terms=count).terms) == want


GATE_ROWS = [
    ((1, 1, 1), 12),
    ((1, 1, 2), 16),
    ((1, 1, 1, 1), 122),
    ((1, 1, 2, 4), 29),
    ((1, 1, 1, 1, 1), 25),
    ((1, 1, 1, 1, 2), 31),
    ((1, 1, 1, 1, 3), 30),
    ((1, 1, 2, 2, 2), 32),
    ((1, 1, 1, 2), 103),
    ((1, 1, 1, 2, 2), 106),
]


def test_discovery_reproduces_catalog_fast_rows():
    for coeffs, scale in GATE_ROWS:
        e = CoefficientTuple(coeffs)
        cf, report = discover_closed_form(e, max_frontier=5000)
        assert cf.scale == scale, coeffs
        assert cf.residues == KNOWN_CLOSED_FORMS[coeffs][1]
        assert report.overall


def test_discovery_reproduces_catalog_all_rows():
    """Full catalog reproduction, including the large-scale rows, with every
    completeness witness revalidated."""
    for coeffs, (scale, residues) in KNOWN_CLOSED_FORMS.items():
        e = CoefficientTuple(coeffs)
        found = discover_closed_form(e, max_frontier=80000)
        assert found is not None, coeffs
        cf, report = found
        assert (cf.scale, cf.residues) == (scale, residues), coeffs
        assert report.overall, coeffs
        assert all(validate_cell(e, cell, report.residues) for cell in report.cells), coeffs


def test_discovery_finds_the_uncataloged_1_1_2_4_6_form():
    """(1,1,2,4,6) is not in the paper's catalog, and discovery at the
    default caps finds a closed form for it; every witness revalidates and
    the form enumerates the greedy sequence."""
    e = CoefficientTuple((1, 1, 2, 4, 6))
    assert e.coeffs not in KNOWN_CLOSED_FORMS
    cf, report = discover_closed_form(e)
    assert (cf.scale, cf.base) == (10560, 15)
    assert cf.residues == (0, 1, 2, 3, 4, 17, 35, 50, 51, 704, 705, 706, 707, 708, 721, 739, 754, 755)
    assert report.overall and len(report.cells) == 137280
    assert all(validate_cell(e, cell, report.residues) for cell in report.cells)
    assert generate(e, AvoidanceRule.DISTINCT, max_terms=40).terms == tuple(cf.nth(k) for k in range(40))


@pytest.mark.parametrize("m", [*range(8, 13), 14, 16])
def test_discovery_finds_the_all_ones_family(m):
    """Discovery on the all-ones tuples returns the family's closed form; the
    completeness tables take one combination per run of equal coefficients
    and the search one plan per inside coefficient key, so m = 9..12, 14 and
    16 finish in well under a second."""
    cf, report = discover_closed_form(CoefficientTuple.uniform(m))
    assert (cf.scale, cf.residues) == uniform_family_parameters(m)
    assert report.overall


class TestFamilyParameters:
    def test_example_m4(self):
        assert uniform_family_parameters(4) == (12, (0, 1, 2, 3, 4))

    def test_example_m5(self):
        assert uniform_family_parameters(5) == (122, (0, 1, 2, 3, 5, 7, 13, 26, 27, 28, 29, 31))

    def test_example_m9(self):
        scale, residues = uniform_family_parameters(9)
        assert scale == 468
        assert residues == tuple(list(range(8)) + [9, 13] + list(range(52, 60)) + [61])

    def test_unsupported(self):
        with pytest.raises(UnsupportedM):
            uniform_family_parameters(2)

    @pytest.mark.parametrize("m", range(3, 12))
    def test_scale_identity_holds_for_family(self, m):
        scale, residues = uniform_family_parameters(m)
        res = check_scale_identity(CoefficientTuple.uniform(m), residues, scale)
        assert res.passed, (m, res)


class TestFamilyPrefix:
    # 24, 40 and 64: the sieve's set-up grows with the coefficient groups, not with 2^m.
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 24, 40, 64])
    def test_prefixes(self, m):
        assert verify_family_prefix(m)

    def test_prefix_m9(self):
        assert verify_family_prefix(9)


class TestResidueAveraging:
    def test_explicit_witnesses_m5(self):
        witnesses = residue_averaging_witnesses(5)
        assert witnesses[7].values == (7, 0, 2, 3, 3)
        assert witnesses[13].values == (13, 3, 5, 7, 7)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 9])
    def test_passes(self, m):
        assert check_residue_averaging(m)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 9])
    def test_witnesses_satisfy_relaxed_constraints(self, m):
        _, residues = uniform_family_parameters(m)
        rset = set(residues)
        for r1, w in residue_averaging_witnesses(m).items():
            assert w is not None
            values = w.values
            assert values[0] == r1
            companions = values[1:-1]
            assert len(set(companions)) == len(companions)
            assert all(v in rset for v in values[1:])
            assert sum(values[:-1]) == (m - 1) * values[-1]


def test_catalog_closed_form_helper():
    cf = catalog_closed_form(CoefficientTuple((1, 1, 2)))
    assert (cf.base, cf.scale, cf.residues) == (5, 16, (0, 1, 2, 3, 4))
    with pytest.raises(KeyError):
        catalog_closed_form(CoefficientTuple((1, 9, 9)))
