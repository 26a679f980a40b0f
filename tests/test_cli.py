"""Command-line front end: formats, exit codes, caches, budget handling."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import nonavg
from nonavg import KNOWN_CLOSED_FORMS, AvoidanceRule, BudgetExhausted, CoefficientTuple, extend
from nonavg import cli
from nonavg.cli import _build_parser, main
from nonavg.greedy import GreedySequence

S3_17 = [0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40, 81]
S3_40_TEXT = ("0 1 3 4 9 10 12 13 27 28 30 31 36 37 39 40 81 82 84 85 90 91 93 94 108 109 111 112 117 118 "
              "120 121 243 244 246 247 252 253 255 256")


# How a cache file may spell its terms: canonical, the lenient forms that
# read_cache accepts, and an empty cache with a negative frontier.
CACHE_SPELLINGS = {
    "canonical": lambda terms: "".join(f"{t}\n" for t in terms),
    "spaces": lambda terms: "".join(f" {t}\t\n" if t % 2 else f"\t{t}  \n" for t in terms),
    "sign": lambda terms: "".join(f"+{t}\n" for t in terms),
    "leading zeros": lambda terms: "".join(f"00{t}\n" for t in terms),
    "underscore": lambda terms: "".join(f"0_{t}\n" for t in terms),
    "blank lines": lambda terms: "\n" + "".join(f"{t}\n\n" for t in terms),
    "crlf": lambda terms: "".join(f"{t}\r\n" for t in terms),
    "no final newline": lambda terms: "\n".join(map(str, terms)),
    "one lenient line": lambda terms: "".join(f"{t:03}\n" for t in terms[:1]) + "".join(f"{t}\n" for t in terms[1:]),
    "empty": lambda terms: "",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "generate", "--tuple", "1,1", "--rule", "distinct", "--max-terms", "17")
        assert code == 0
        assert [int(line) for line in out.split()] == S3_17

    def test_zero_terms(self, capsys):
        code, out, _ = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "0")
        assert code == 0 and out == ""

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--tuple", "1,1,1", "--rule", "distinct",
            "--max-value", "60", "--format", "csv",
        )
        assert code == 0
        values = [int(v) for v in out.strip().split(",")]
        assert values == [0, 1, 2, 3, 4, 12, 13, 14, 15, 16, 48, 49, 50, 51, 52, 60]
        assert len(values) == 16

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--tuple", "1,1", "--max-terms", "2", "--format", "csv", "--header",
        )
        assert code == 0 and out == "term\n0,1\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--tuple", "1,1", "--max-terms", "8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "tuple": "1,1",
            "rule": "distinct",
            "frontier": 13,
            "terms": [0, 1, 3, 4, 9, 10, 12, 13],
        }

    def test_malformed_tuple(self, capsys):
        code, _, err = run(capsys, "generate", "--tuple", "1,x", "--max-terms", "5")
        assert code == 1 and err

    def test_missing_caps(self, capsys):
        code, _, err = run(capsys, "generate", "--tuple", "1,1")
        assert code == 1

    def test_budget_exhaustion_flushes_partial(self, capsys, monkeypatch):
        monkeypatch.setenv("NONAVG_NODE_BUDGET", "4")
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "17")
        assert code == 2
        assert "budget" in err
        assert out.splitlines()[0] == "0"  # partial output flushed

    def test_cache_resume_byte_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "s3.cache")
        # uninterrupted run
        code, full, _ = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "17")
        assert code == 0
        # interrupted: a short run first, then resume with the real caps
        run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", cache)
        code, resumed, _ = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "17", "--cache", cache)
        assert code == 0
        assert resumed == full
        header = open(cache).readline()
        assert header == "# tuple=1,1 rule=distinct frontier=81\n"

    @pytest.mark.parametrize("fmt, expected", [
        ("plain", S3_40_TEXT.replace(" ", "\n") + "\n"),
        ("csv", S3_40_TEXT.replace(" ", ",") + "\n"),
        ("json", '{"tuple": "1,1", "rule": "distinct", "frontier": 256, "terms": [%s]}\n'
                 % S3_40_TEXT.replace(" ", ", ")),
    ])
    def test_output_bytes_with_and_without_cache(self, capsys, tmp_path, fmt, expected):
        """stdout is the same text without a cache, when writing one, and
        when reading it back."""
        argv = ["generate", "--tuple", "1,1", "--max-terms", "40", "--format", fmt]
        cache = str(tmp_path / "s3.cache")
        for extra in ([], ["--cache", cache], ["--cache", cache]):
            assert run(capsys, *argv, *extra) == (0, expected, "")

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(1, 10 ** 5), max_size=24, unique=True),
        gap=st.integers(0, 40),
        spelling=st.sampled_from(sorted(CACHE_SPELLINGS)),
        fmt=st.sampled_from(["plain", "csv", "csv --header", "json"]),
        ask=st.integers(-3, 3),
        budget=st.sampled_from([None, 3, 12, 40]),
    )
    def test_cache_step_bytes(self, values, gap, spelling, fmt, ask, budget):
        """A generate --cache step from a canonical or a lenient cache prints
        what an independent rendering of its terms prints, and leaves the
        cache's own bytes or the canonical text of the longer prefix: when
        it extends the cache, when it asks for fewer terms than the cache
        holds, and when the node budget stops it."""
        terms = tuple([0, *sorted(values)]) if spelling != "empty" else ()
        frontier = (terms[-1] if terms else -1) + gap * bool(terms)
        start = GreedySequence(CoefficientTuple((1, 1)), AvoidanceRule.DISTINCT, terms, frontier)
        max_terms = max(1, len(terms) + ask)
        try:
            seq, code, err = extend(start, max_terms=max_terms, node_budget=budget), 0, ""
        except BudgetExhausted as exc:
            seq, code, err = exc.partial, 2, f"generate: {exc}\n"
        shown = [str(t) for t in seq.terms]
        expected = {
            "plain": "".join(t + "\n" for t in shown),
            "csv": ",".join(shown) + "\n",
            "csv --header": "term\n" + ",".join(shown) + "\n",
            "json": json.dumps(
                {"tuple": "1,1", "rule": "distinct", "frontier": seq.frontier, "terms": list(seq.terms)}
            ) + "\n",
        }[fmt]
        header = "# tuple=1,1 rule=distinct frontier={}\n"
        original = (header.format(frontier) + CACHE_SPELLINGS[spelling](terms)).encode()
        written = original  # a cache never shrinks
        if seq.frontier > frontier:
            written = (header.format(seq.frontier) + "".join(t + "\n" for t in shown)).encode()
        with tempfile.TemporaryDirectory() as tmp:
            cache = os.path.join(tmp, "step.cache")
            with open(cache, "wb") as fh:
                fh.write(original)
            argv = ["generate", "--tuple", "1,1", "--max-terms", str(max_terms), "--cache", cache,
                    "--format", *fmt.split()]
            if budget is not None:
                argv += ["--node-budget", str(budget)]
            out, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
                got = main(argv)
            assert (got, out.getvalue(), stderr.getvalue()) == (code, expected, err)
            with open(cache, "rb") as fh:
                assert fh.read() == written
            assert os.listdir(tmp) == ["step.cache"]

    def test_cache_mismatch_regenerates(self, capsys, tmp_path):
        cache = str(tmp_path / "seq.cache")
        run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", cache)
        code, out, err = run(capsys, "generate", "--tuple", "1,1,1", "--max-terms", "6", "--cache", cache)
        assert code == 0
        assert [int(v) for v in out.split()] == [0, 1, 2, 3, 4, 12]
        assert err == f"generate: ignoring cache {cache}: it holds tuple 1,1 rule distinct\n"

    def test_short_read_of_a_longer_cache(self, capsys, tmp_path):
        cache = tmp_path / "s3.cache"
        run(capsys, "generate", "--tuple", "1,1", "--max-terms", "40", "--cache", str(cache))
        written = cache.read_text()
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "5", "--cache", str(cache))
        assert code == 0 and err == ""
        assert [int(v) for v in out.split()] == S3_17[:5]
        assert cache.read_text() == written  # the cache never shrinks

    def test_malformed_cache_is_reported_and_replaced(self, capsys, tmp_path):
        cache = tmp_path / "s3.cache"
        cache.write_text("# tuple=1,1 rule=distinct frontier=10\n0\n5\n2\n")
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", str(cache))
        assert code == 0
        assert [int(v) for v in out.split()] == S3_17[:6]
        assert err == f"generate: ignoring cache {cache}: cache terms are not strictly increasing\n"
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=10\n0\n1\n3\n4\n9\n10\n"

    @pytest.mark.parametrize("header, reason", [
        ("tuple=1,1 rule=distinct frontier=3 frontier=5", "cache header repeats 'frontier'"),
        ("tuple=1,1 rule=distinct frontier=3 frontier5", "cache header field 'frontier5' lacks '='"),
    ])
    def test_header_with_a_repeated_or_valueless_field_is_reported_and_replaced(self, capsys, tmp_path, header, reason):
        """Not read as its last value: frontier=5 over 0,1,3 would skip 4."""
        cache = tmp_path / "s3.cache"
        cache.write_text(f"# {header}\n0\n1\n3\n")
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "5", "--cache", str(cache))
        assert (code, out) == (0, "0\n1\n3\n4\n9\n")
        assert err == f"generate: ignoring cache {cache}: {reason}\n"
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=9\n0\n1\n3\n4\n9\n"

    def test_a_negative_max_value_leaves_a_cache_that_resumes(self, capsys, tmp_path):
        cache = tmp_path / "s3.cache"
        code, out, err = run(
            capsys, "generate", "--tuple", "1,1", "--max-value", "-3", "--cache", str(cache), "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"tuple": "1,1", "rule": "distinct", "frontier": -1, "terms": []}
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=-1\n"
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "3", "--cache", str(cache))
        assert (code, out, err) == (0, "0\n1\n3\n", "")
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=3\n0\n1\n3\n"

    def test_a_cache_frontier_below_minus_one_is_reported_and_replaced(self, capsys, tmp_path):
        cache = tmp_path / "s3.cache"
        cache.write_text("# tuple=1,1 rule=distinct frontier=-5\n")
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "3", "--cache", str(cache))
        assert (code, out) == (0, "0\n1\n3\n")
        assert err == f"generate: ignoring cache {cache}: cache frontier -5 lies below -1\n"
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=3\n0\n1\n3\n"

    def test_cache_without_header_is_reported_and_replaced(self, capsys, tmp_path):
        cache = tmp_path / "s3.cache"
        cache.write_text("0\n1\n3\n")
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", str(cache))
        assert code == 0
        assert [int(v) for v in out.split()] == S3_17[:6]
        assert err == f"generate: ignoring cache {cache}: missing cache header\n"
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=10\n0\n1\n3\n4\n9\n10\n"

    def test_budget_exhaustion_flushes_partial_to_the_cache(self, capsys, tmp_path):
        cache = tmp_path / "s3.cache"
        run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", str(cache))
        code, out, err = run(
            capsys, "generate", "--tuple", "1,1", "--max-terms", "17", "--cache", str(cache), "--node-budget", "12",
        )
        assert code == 2
        assert [int(v) for v in out.split()] == S3_17[:13]
        assert err == "generate: search budget exhausted after 13 nodes at candidate 37 with 13 terms\n"
        assert cache.read_text() == "# tuple=1,1 rule=distinct frontier=36\n" + out
        _, fresh, _ = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "17")
        assert run(capsys, "generate", "--tuple", "1,1", "--max-terms", "17", "--cache", str(cache)) == (0, fresh, "")

    def test_malformed_budget_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("NONAVG_NODE_BUDGET", "lots")
        code, out, err = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "3")
        assert (code, out, err) == (1, "", "nonavg: bad NONAVG_NODE_BUDGET value 'lots'\n")

    def test_well_formed_wrong_cache_is_trusted(self, capsys, tmp_path):
        """Only the structure is checked on load, not the terms themselves."""
        cache = tmp_path / "bad.cache"
        cache.write_text("# tuple=1,1 rule=distinct frontier=10\n0\n2\n5\n")
        code, out, _ = run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", str(cache))
        assert code == 0
        assert [int(v) for v in out.split()] == [0, 2, 5, 11, 12, 14]


class TestDiscover:
    def test_known_row(self, capsys):
        code, out, _ = run(capsys, "discover", "--tuple", "1,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["c"] == 16
        assert payload["R"] == [0, 1, 2, 3, 4]
        assert payload["overall"] is True
        assert payload["closed_form"] == "c=16 base=5 R=0,1,2,3,4"

    def test_invalid_tuple(self, capsys):
        code, _, err = run(capsys, "discover", "--tuple", "1,1,3")
        assert code == 1 and "not a valid" in err

    def test_bigger_row(self, capsys):
        code, out, _ = run(capsys, "discover", "--tuple", "1,1,1,1")
        payload = json.loads(out)
        assert code == 0 and payload["c"] == 122 and len(payload["R"]) == 12

    def test_caps_give_no_result_marker(self, capsys):
        code, out, _ = run(capsys, "discover", "--tuple", "1,1,1", "--max-frontier", "5")
        assert code == 2
        payload = json.loads(out)
        assert payload["found"] is False and payload["max_frontier"] == 5

    def test_budget_exhausted_in_completeness_check_names_the_cell(self, capsys):
        code, out, err = run(capsys, "discover", "--tuple", "1,1,1", "--node-budget", "25")
        assert code == 2 and out == ""
        assert err == (
            "discover: search budget exhausted after 26 nodes in residue completeness at scale 12, cell (r1=9, j=1)\n"
        )


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


# sha256 of json.dumps([exit code, stdout, stderr]) of `discover --tuple T` at
# the default caps: the 25 catalog rows, then the 10 uncataloged sorted valid
# tuples of length 3 to 5.  Recorded before the completeness check was swept
# slack by slack.
DISCOVER_DIGESTS = {
    "1,1,1": "c9b3a69621e7b10c4f6d648c5b805d3ffaa32d8438e0b0922e9955cc451b9d89",
    "1,1,2": "d01697452f0aa66d9e77aec59f5ebd4466d9f869e991f66fc031da0b5ef0131c",
    "1,1,1,1": "bf9140e0071afba33c357d7fb7f5dd24034e8b10504d696dbafcbfa501c0ed10",
    "1,1,1,2": "ba0cdb1ab502456f78770a3adf684cc02023b0b25b71d6419cfeddaec7a2797f",
    "1,1,2,3": "0cf4f96b290590ab7f4b0f86d115f54d3c666b2468b77521fa0c209fd73b71ed",
    "1,1,2,4": "6f166d8f0770c070afe44994bf96df81565dcfe5e3b640cb3ef64aee88b98093",
    "1,1,1,1,1": "4e56b07752b17903f937e003ddf3d3261c25680af7968df488c9153c24b384ec",
    "1,1,1,1,2": "a617ddabaea2a35144a5e757bfadacb5c1eeeef36f0a35b540b0ebc0102fe640",
    "1,1,1,1,3": "33568b066dd8fc602d2b52943d7ef929d64f277d262a5fd83bfbb8b98809a3db",
    "1,1,1,1,4": "3463aa40fa6c7dce8e591e4cc08f4a4bfc49f1709ecdcce8713d45e1cc984b18",
    "1,1,1,2,2": "3e381e9f7643875ce9bea0225d902244b6ee0f95a51ec7f97993d30c7e8129ad",
    "1,1,1,2,3": "ac3159d02572a2dc7f2b5d1c1e5c77d5257aa7a9f20300bfbb0853602f9e7a99",
    "1,1,1,3,3": "0b7b827f1bfe80616192ba99473bae5e567cf97a010b53391cf29260a810c0b9",
    "1,1,1,3,4": "e30412f37f7fdfea390c0cb9e51990055c8983090d6e9b65c33bbbb8ac09e984",
    "1,1,1,3,5": "04cb1526291fa9a141c4eb75643968ac2abdc3572c7c215195ad484d45d48a81",
    "1,1,1,3,6": "319100f2b5afa89d2d59c5b636bda5e6f3f6e69386debeb6c22413088f53dcd3",
    "1,1,2,2,2": "573b1e88e194236de80483422106901cdc27e1ae23eebe145e6f72b02fc498dd",
    "1,1,2,2,3": "7492130a5d29dc56d78b34ec1bf1078e49fb52f50657316d38b7ec393e03143f",
    "1,1,2,2,5": "f15833b0283fc9b00ef76142796f3108cf7005fb0b0c995d2c78737d699b3205",
    "1,1,2,2,6": "b40cab27f2d3509af8f5dc26e01b7b5157440619ae5876b4615b979fe5695190",
    "1,1,2,3,3": "b20df33d7e2ddb8832620631985c188582e795672ab0f44aca73b95a3326fe7e",
    "1,1,2,3,4": "d7a044fb392b37d177ba37f27e7eecc5cec493bc046b4b53ae49a13f8f074e61",
    "1,1,2,3,7": "dba55362f9bc6afe6bea052f9473532fc0e0e76dd22904f773b2af132c12a2d6",
    "1,1,2,4,4": "da64df93cc4b09d755f2b429fb2048455cb6555b5af7a8a2e74b46b026f9ced9",
    "1,1,2,4,7": "93565c5b3ace8d67ee19b890c28a8e9762cf1e01832aebb2a471bee9e5f5029d",
    "1,1,1,3": "b8e7c8494a0b4145073ea33727a61ab709e68455e6cc7006381af2466d523d3d",
    "1,1,2,2": "463dabc47580afed1bf4985ccad9447ad17a59dc7e48472c44f7c3c5a2981ccf",
    "1,1,1,2,4": "74afa21393a5e1a22668f5f92190b926d318d34fe93df1d641438f3564d7a9aa",
    "1,1,1,2,5": "3e63b14d2cd86a816a26955512e165373f4fd79f231f865b33a6248258d4339e",
    "1,1,2,2,4": "0e595753f139094a5e21df1d851642027b5a756573c821f14009179dc985a3d2",
    "1,1,2,3,5": "d689d371bdc94085ee8abce098e3348ea6176da1231c94915b9e5842794c200e",
    "1,1,2,3,6": "38b058a810d740863eca826aa56efbe7dea9302b836480b3bc87ec53a97106dc",
    "1,1,2,4,5": "836527caefb3a98d1cf6c9b679ce746a8376f11983b70a39050af6987b66cb95",
    "1,1,2,4,6": "12c5bc46bfea5904361640e419663ad7dd23613018666124c032fa7dd00e119a",
    "1,1,2,4,8": "d4294c4811b2c18be8f9bd03b951caffbe0de4ddad64fca3b94f82a4a7aba5b2",
}

# tuple -> (the least --node-budget at which discover completes, sha256 of the
# json.dumps list of [exit code, stdout, stderr] at every budget from 0 up to
# it), recorded with DISCOVER_DIGESTS.
DISCOVER_BUDGET_SWEEP_DIGESTS = {
    "1,1,1": (30, "f1824e3e2d3303ad60d4aa30fb5c123808253929ff0bcab661c1f63fc59c9179"),
    "1,1,2,4": (255, "5d2477fed516e49c44776ea964f6c342035e11b4ef19cd5bd749519db2316389"),
    "1,1,1,1,1": (328, "c8cc8e75a3884f7c6c589e787b75c5e4ca88d20f418ab7dfc5e1872936e77df5"),
}


class TestDiscoverBytes:
    """discover's exit code, stdout and stderr, pinned by digest."""

    @pytest.fixture(autouse=True)
    def default_budget(self, monkeypatch):
        monkeypatch.delenv("NONAVG_NODE_BUDGET", raising=False)

    def test_rows(self, capsys):
        assert {",".join(map(str, coeffs)) for coeffs in KNOWN_CLOSED_FORMS} < set(DISCOVER_DIGESTS)
        got = {text: _digest(run(capsys, "discover", "--tuple", text)) for text in DISCOVER_DIGESTS}
        assert got == DISCOVER_DIGESTS

    @pytest.mark.parametrize("text", DISCOVER_BUDGET_SWEEP_DIGESTS)
    def test_every_budget_up_to_completion(self, capsys, text):
        records = []
        while not records or records[-1][0] == 2:
            records.append(run(capsys, "discover", "--tuple", text, "--node-budget", str(len(records))))
        assert (len(records) - 1, _digest(records)) == DISCOVER_BUDGET_SWEEP_DIGESTS[text]


class TestVerify:
    def test_table1_single_m(self, capsys):
        code, out, _ = run(capsys, "verify", "table1", "--m", "6")
        assert code == 0
        assert "PASS family prefix m=6" in out
        assert "FAIL" not in out

    def test_table2_row(self, capsys):
        code, out, _ = run(capsys, "verify", "table2", "--rows", "1,1,1")
        assert code == 0 and "PASS catalog row 1,1,1" in out

    def test_table2_multiple_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "table2", "--rows", "1,1,2;1,1,2,4")
        assert code == 0
        assert out.count("PASS") == 2

    def test_table1_large_m(self, capsys):
        code, out, _ = run(capsys, "verify", "table1", "--m", "40")
        assert code == 0
        assert out == "PASS family scale identity m=40\nPASS family prefix m=40\n"

    def test_table1_budget_exhausted(self, capsys):
        code, _, err = run(capsys, "verify", "table1", "--m", "4", "--node-budget", "1")
        assert code == 2 and err.startswith("verify: search budget exhausted")

    def test_table2_default_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "table2")
        rows = [",".join(map(str, coeffs)) for coeffs, (scale, _) in KNOWN_CLOSED_FORMS.items() if scale <= 122]
        assert code == 0 and len(rows) == 19
        assert out == "".join(f"PASS catalog row {row}\n" for row in rows)

    def test_table2_row_of_ten_ones(self, capsys):
        """Not a catalog row: discovery finds the all-ones family's form."""
        code, out, _ = run(capsys, "verify", "table2", "--rows", "1,1,1,1,1,1,1,1,1")
        assert (code, out) == (0, "PASS closed form exists for 1,1,1,1,1,1,1,1,1\n")

    def test_table2_row_without_a_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "table2", "--rows", "1,1,2,2", "--max-frontier", "100")
        assert code == 1 and out == "FAIL closed form exists for 1,1,2,2\n"

    @pytest.mark.parametrize("rows", ["", "1,1,1;;1,1,2"])
    def test_table2_empty_row_is_a_usage_error(self, capsys, rows):
        """An empty --rows is a list with one empty row, not the default rows."""
        code, out, err = run(capsys, "verify", "table2", "--rows", rows)
        assert (code, out, err) == (1, "", "nonavg: cannot parse coefficient list ''\n")

    def test_props_needs_a_tuple(self, capsys):
        code, out, err = run(capsys, "verify", "props")
        assert (code, out, err) == (1, "", "verify props: need --tuple\n")

    def test_props_empty_tuple_is_a_usage_error(self, capsys):
        """A given empty --tuple is parsed, as bounds parses it, not taken as missing."""
        code, out, err = run(capsys, "verify", "props", "--tuple", "", "--n", "16")
        assert (code, out, err) == (1, "", "nonavg: cannot parse coefficient list ''\n")

    def test_props(self, capsys):
        code, out, _ = run(capsys, "verify", "props", "--tuple", "1,1", "--n", "4096")
        assert code == 0
        assert "PASS popcount residue law n<4096" in out
        assert "PASS bit-parity sequence law n<4096" in out

    def test_props_scientific_n(self, capsys):
        code, out, _ = run(capsys, "verify", "props", "--tuple", "1,1", "--n", "1.024e3")
        assert code == 0 and "PASS popcount residue law n<1024" in out

    def test_props_fractional_n(self, capsys):
        code, out, err = run(capsys, "verify", "props", "--tuple", "1,1", "--n", "1024.5")
        assert code == 1 and out == "" and "integer" in err

    @pytest.mark.parametrize("n", ["-1", "-4096", "-1e3"])
    def test_props_negative_n(self, capsys, n):
        code, out, err = run(capsys, "verify", "props", "--tuple", "1,1", f"--n={n}")
        assert code == 1 and out == ""
        assert err == f"nonavg: n must be nonnegative, got {n!r}\n"

    def test_props_negative_n_as_separate_argument(self, capsys):
        code, out, err = run(capsys, "verify", "props", "--tuple", "1,1", "--n", "-1")
        assert (code, out, err) == (1, "", "nonavg: n must be nonnegative, got '-1'\n")

    def test_props_zero_n(self, capsys):
        code, out, err = run(capsys, "verify", "props", "--tuple", "1,1", "--n", "0")
        assert code == 0 and err == ""
        assert out == "PASS popcount residue law n<0\nPASS bit-parity sequence law n<0\n"

    @pytest.mark.parametrize("n, budget, code", [
        ("1e400", "1000", 2), ("16", "16", 0), ("17", "16", 2), ("0", "-3", 0), ("1", "-3", 2),
    ])
    def test_props_budget(self, capsys, n, budget, code):
        """One node per member checked, counted before the loop: an --n of
        400 digits with a budget of 1,000 exits 2 at once.  A budget of k
        covers --n k, and a negative budget acts as 0."""
        result = run(capsys, "verify", "props", "--tuple", "1,1", "--n", n, "--node-budget", budget)
        assert result[0] == code
        if code == 2:
            nodes = max(int(budget), 0) + 1
            assert result[1:] == ("", f"verify: search budget exhausted after {nodes} nodes\n")

    def test_props_budget_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("NONAVG_NODE_BUDGET", "5")
        code, out, err = run(capsys, "verify", "props", "--tuple", "1,1", "--n", "16")
        assert (code, out, err) == (2, "", "verify: search budget exhausted after 6 nodes\n")


class TestNegativeBudget:
    """A negative node budget acts as 0 in every subcommand that searches,
    whether it comes from --node-budget or NONAVG_NODE_BUDGET."""

    @pytest.fixture(autouse=True)
    def no_budget_variable(self, monkeypatch):
        monkeypatch.delenv("NONAVG_NODE_BUDGET", raising=False)

    @pytest.mark.parametrize("argv", [
        ("generate", "--tuple", "1,1", "--max-terms", "5"),
        ("generate", "--tuple", "1,1,2", "--max-value", "40", "--format", "json"),
        ("discover", "--tuple", "1,1,1"),
        ("verify", "table1", "--m", "4"),
        ("verify", "table2", "--rows", "1,1,1;1,1,2"),
        ("verify", "props", "--tuple", "1,1", "--n", "1"),
    ], ids=" ".join)
    def test_reads_as_zero(self, capsys, monkeypatch, argv):
        zero = run(capsys, *argv, "--node-budget", "0")
        assert zero[0] == 2 and zero[2].startswith(f"{argv[0]}: search budget exhausted after 1 nodes")
        assert run(capsys, *argv, "--node-budget", "-3") == zero
        monkeypatch.setenv("NONAVG_NODE_BUDGET", "-3")
        assert run(capsys, *argv) == zero
        monkeypatch.setenv("NONAVG_NODE_BUDGET", "0")
        assert run(capsys, *argv) == zero


class TestBounds:
    def test_tuple_report(self, capsys):
        code, out, _ = run(capsys, "bounds", "--tuple", "1,1", "--n", "81")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == 16
        assert payload["lower"] == pytest.approx(8.0)
        assert payload["upper"] == pytest.approx(32.0)

    def test_cf_report(self, capsys):
        code, out, _ = run(capsys, "bounds", "--cf", "c=12 base=4 R=0,1,2,3,4", "--n", "48")
        assert code == 0
        assert json.loads(out)["exact"] == 10

    @pytest.mark.parametrize("cf, message", [
        ("c=12 c=13 base=4 R=0,1,2,3,4", "closed form repeats 'c'"),
        ("c=12 base=4 R=0,1,2,3,4 oops", "closed form field 'oops' lacks '='"),
    ])
    def test_cf_text_is_strict(self, capsys, cf, message):
        """Not answered for the last c, nor with the stray part left out."""
        code, out, err = run(capsys, "bounds", "--cf", cf, "--n", "1000")
        assert (code, out, err) == (1, "", f"nonavg: {message}\n")

    def test_cf_with_a_negative_residue(self, capsys):
        code, out, err = run(capsys, "bounds", "--cf", "c=12 base=4 R=-1,0,1", "--n", "48")
        assert (code, out, err) == (1, "", "nonavg: residues must include 0\n")

    def test_cf_alone_takes_any_base(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "100", "--cf", "c=12 base=5 R=0,1,2,3,4")
        assert (code, err) == (0, "") and json.loads(out)["params"] == {"d": 4, "c": 12, "r_count": 5}

    def test_cf_with_its_tuple(self, capsys):
        alone = run(capsys, "bounds", "--n", "100", "--cf", "c=12 base=4 R=0,1,2,3,4")
        assert run(capsys, "bounds", "--n", "100", "--cf", "c=12 base=4 R=0,1,2,3,4", "--tuple", "1,1,1") == alone

    @pytest.mark.parametrize("tuple_text, message", [
        ("1,1,1", "base must equal the tuple weight plus one"),
        ("1,1,3", "CoefficientTuple(1,1,3) is not valid"),
        ("1,,1", "cannot parse coefficient list '1,,1'"),
        ("", "cannot parse coefficient list ''"),
    ])
    def test_cf_is_checked_against_the_tuple(self, capsys, tuple_text, message):
        code, out, err = run(capsys, "bounds", "--n", "100", "--cf", "c=12 base=5 R=0,1,2,3,4", "--tuple", tuple_text)
        assert (code, out, err) == (1, "", f"nonavg: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--n", "100", "--tuple", ""), "cannot parse coefficient list ''"),
        (("--n", "100", "--cf", ""), "cannot parse closed form ''"),
        (("--n", "100", "--cf", "", "--tuple", "1,1,1"), "cannot parse closed form ''"),
        (("--section4", "--n", ""), "n must be an integer, got ''"),
    ])
    def test_a_given_empty_value_is_parsed(self, capsys, argv, message):
        """An empty --tuple, --cf or --n is given, so it is parsed and refused, not taken as missing."""
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out, err) == (1, "", f"nonavg: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("--tuple", "1,1,3", "--cf", "c=1 base=9 R=0"),
        ("--tuple", "1,1"),
        ("--cf", "c=12 base=4 R=0,1,2,3,4"),
        ("--tuple", ""),
    ])
    def test_section4_takes_no_tuple_or_cf(self, capsys, argv):
        """--section4 answers for its own worked example, so a subject is refused, not dropped."""
        code, out, err = run(capsys, "bounds", "--section4", "--n", "1e10", *argv)
        assert (code, out, err) == (1, "", "bounds: --section4 takes no --tuple or --cf\n")

    def test_scientific_n(self, capsys):
        code, out, _ = run(capsys, "bounds", "--section4", "--n", "1e10")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 10 ** 10
        assert payload["matches"]["f"] == ["base5"]

    @pytest.mark.parametrize("n", ["5", "16"])
    def test_section4_n_at_or_below_the_scale(self, capsys, n):
        """The base5 reading's closed-form bound needs n above its scale 16."""
        code, out, err = run(capsys, "bounds", "--section4", "--n", n)
        assert code == 1 and out == ""
        assert err == "nonavg: n must exceed the scale\n"

    def test_n_is_parsed_exactly(self, capsys):
        code, out, _ = run(capsys, "bounds", "--tuple", "1,1", "--n", "12345678901234567891")
        assert code == 0
        assert json.loads(out)["n"] == 12345678901234567891

    def test_exact_count_above_10_12(self, capsys):
        code, out, _ = run(capsys, "bounds", "--tuple", "1,1", "--n", "12345678901234567891")
        assert code == 0
        assert json.loads(out)["exact"] == 1202590842880

    def test_exact_scientific_n(self, capsys):
        code, out, _ = run(capsys, "bounds", "--tuple", "1,1", "--n", "8.1e1")
        assert code == 0 and json.loads(out)["exact"] == 16

    @pytest.mark.parametrize("text", ["1e-3", "81.5", "2.5e0", "nan", "inf", "1e5000", "eighty"])
    def test_non_integer_n_is_a_usage_error(self, capsys, text):
        code, out, err = run(capsys, "bounds", "--tuple", "1,1", "--n", text)
        assert code == 1 and out == "" and err.startswith("nonavg: n must")

    def test_n_too_large_for_the_bounds_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--tuple", "1,1", "--n", "1e400")
        assert code == 1 and out == ""
        assert err == "nonavg: int too large to convert to float\n"

    def test_missing_subject(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "10")
        assert code == 1

    def test_missing_n(self, capsys):
        code, out, err = run(capsys, "bounds", "--tuple", "1,1")
        assert (code, out, err) == (1, "", "bounds: need --n\n")


TOP_USAGE = "usage: nonavg [-h] {generate,discover,verify,bounds} ...\n"
GENERATE_USAGE = (
    "usage: nonavg generate [-h] --tuple TUPLE_TEXT [--rule {distinct,notallequal}]\n"
    "                       [--max-terms MAX_TERMS] [--max-value MAX_VALUE]\n"
    "                       [--format {json,csv,plain}] [--header] [--cache CACHE]\n"
    "                       [--node-budget NODE_BUDGET]\n"
)
GENERATE_HELP = GENERATE_USAGE + """
options:
  -h, --help            show this help message and exit
  --tuple TUPLE_TEXT
  --rule {distinct,notallequal}
  --max-terms MAX_TERMS
  --max-value MAX_VALUE
  --format {json,csv,plain}
  --header              emit a header row in csv format
  --cache CACHE         resumable cache file path
  --node-budget NODE_BUDGET
"""
TOP_HELP = TOP_USAGE + """
Batch command-line front end. Subcommands: generate (with resumable caches),
discover, verify, bounds. Exit codes: 0 success, 1 usage or malformed input, 2
budget exhausted (partial results are flushed first). The environment variable
NONAVG_NODE_BUDGET overrides the default solver node budget.

positional arguments:
  {generate,discover,verify,bounds}
    generate            greedy sequence generation
    discover            closed-form discovery
    verify              structure checks
    bounds              counting and growth bounds reports

options:
  -h, --help            show this help message and exit
"""

# (argv, exit code, stdout, stderr) at COLUMNS=80: a happy path of each
# subcommand, then what argparse itself answers, from the subcommand's parser
# (its usage) or the top-level one (leftover arguments, help, no or an
# unknown subcommand, an option before the subcommand).
DISPATCH_BYTES = [
    (("generate", "--tuple", "1,1", "--max-terms", "5"), 0, "0\n1\n3\n4\n9\n", ""),
    (("generate", "--tuple", "1,1,1", "--rule", "notallequal", "--max-value", "10", "--format", "csv", "--header"),
     0, "term\n0,1,4,5\n", ""),
    (("generate", "--tuple", "1,1", "--max-t", "3"), 0, "0\n1\n3\n", ""),
    (("discover", "--tuple", "1,1"), 0,
     '{"tuple": "1,1", "c": 1, "R": [0], "cond_i": {"lhs": 1, "rhs": 1, "pass": true}, '
     '"cond_ii": [{"r1": 0, "j": 0, "H": [], "witness": [0, 0]}], "overall": true, '
     '"found": true, "closed_form": "c=1 base=3 R=0"}\n', ""),
    (("verify", "props", "--tuple", "1,1", "--n", "16"), 0,
     "PASS popcount residue law n<16\nPASS bit-parity sequence law n<16\n", ""),
    (("bounds", "--tuple", "1,1", "--n", "81"), 0,
     '{"n": 81, "exact": 16, "lower": 7.999999999999999, "upper": 31.999999999999996, '
     '"theta": 0.6309297535714574, "params": {"d": 2}}\n', ""),
    (("generate", "--tuple", "1,1", "--max-terms", "3", "--bogus"), 1, "",
     TOP_USAGE + "nonavg: error: unrecognized arguments: --bogus\n"),
    (("bounds", "--tuple", "1,1", "--n", "81", "extra"), 1, "",
     TOP_USAGE + "nonavg: error: unrecognized arguments: extra\n"),
    (("generate", "--max-terms", "3"), 1, "",
     GENERATE_USAGE + "nonavg generate: error: the following arguments are required: --tuple\n"),
    (("generate", "--tuple", "1,1", "--rule", "sometimes", "--max-terms", "3"), 1, "",
     GENERATE_USAGE + "nonavg generate: error: argument --rule: invalid choice: 'sometimes' "
     "(choose from 'distinct', 'notallequal')\n"),
    (("generate", "--tuple", "1,1", "--max-terms", "x"), 1, "",
     GENERATE_USAGE + "nonavg generate: error: argument --max-terms: invalid int value: 'x'\n"),
    (("generate", "--tuple", "1,1", "--he"), 1, "",
     GENERATE_USAGE + "nonavg generate: error: ambiguous option: --he could match --help, --header\n"),
    (("verify", "table3"), 1, "",
     "usage: nonavg verify [-h] [--m M] [--rows ROWS] [--tuple TUPLE_TEXT] [--n N]\n"
     "                     [--max-frontier MAX_FRONTIER] [--node-budget NODE_BUDGET]\n"
     "                     {table1,table2,props}\n"
     "nonavg verify: error: argument target: invalid choice: 'table3' (choose from 'table1', 'table2', 'props')\n"),
    (("generate", "-h"), 0, GENERATE_HELP, ""),
    (("--help",), 0, TOP_HELP, ""),
    ((), 1, "", TOP_USAGE + "nonavg: error: the following arguments are required: command\n"),
    (("frobnicate", "--tuple", "1,1"), 1, "",
     TOP_USAGE + "nonavg: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'generate', 'discover', 'verify', 'bounds')\n"),
    (("--tuple", "1,1", "generate", "--max-terms", "3"), 1, "",
     TOP_USAGE + "nonavg: error: argument command: invalid choice: '1,1' "
     "(choose from 'generate', 'discover', 'verify', 'bounds')\n"),
]
# The calls argparse answers itself, with help or a usage error.
ARGPARSE_ANSWERS = [argv for argv, code, out, _ in DISPATCH_BYTES if code or "usage:" in out]


class TestDispatch:
    """Which parser reads a call changes neither the bytes nor the parsed arguments."""

    @pytest.mark.parametrize("argv, code, out, err", DISPATCH_BYTES, ids=[" ".join(c[0]) for c in DISPATCH_BYTES])
    def test_bytes(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("argv", [c[0] for c in DISPATCH_BYTES if c[0] not in ARGPARSE_ANSWERS], ids=" ".join)
    def test_namespace_matches_the_top_level_parser(self, monkeypatch, argv):
        seen = []
        monkeypatch.setitem(cli._RUNNERS, argv[0], lambda args, out: seen.append(args) or 0)
        assert main(list(argv)) == 0
        assert seen == [_build_parser().parse_args(list(argv))]

    def test_entry_point_reads_sys_argv(self, capsys, monkeypatch, tmp_path):
        """main() parses sys.argv[1:] as main(list) parses the list: a cache step and a usage error."""
        cache = tmp_path / "s3.cache"
        run(capsys, "generate", "--tuple", "1,1", "--max-terms", "6", "--cache", str(cache))
        start = cache.read_bytes()
        for argv in [
            ("generate", "--tuple", "1,1", "--max-terms", "9", "--format", "json", "--cache", str(cache)),
            ("generate", "--tuple", "1,1", "--max-terms", "9", "--bogus"),
        ]:
            cache.write_bytes(start)
            from_list = run(capsys, *argv), cache.read_bytes()
            cache.write_bytes(start)
            monkeypatch.setattr(sys, "argv", ["nonavg", *argv])
            code = main()
            captured = capsys.readouterr()
            assert ((code, captured.out, captured.err), cache.read_bytes()) == from_list
        assert from_list[0][0] == 1 and from_list[1] == start


class TestParserReuse:
    """The parser is built once per process; reusing it changes no output."""

    @staticmethod
    def fresh(*argv):
        src = os.path.dirname(os.path.dirname(nonavg.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "nonavg.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_one_process_matches_separate_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap at the terminal width
        calls = [
            ("generate", "--tuple", "1,1", "--rule", "sometimes", "--max-terms", "3"),
            ("bounds", "--tuple", "1,1", "--n", "81"),
            ("--help",),
            *ARGPARSE_ANSWERS,
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        assert in_process == [self.fresh(*argv) for argv in calls]
        assert [code for code, _, _ in in_process[:3]] == [1, 0, 0]
        assert "invalid choice: 'sometimes' (choose from 'distinct', 'notallequal')" in in_process[0][2]
