import hashlib
import io
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poincount
from poincount import catalog
from poincount.cli import _render, run


def capture(argv, env_format=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = capture(argv + ["--format"] if False else ["--format", "json"] + argv)
    assert code in (0, 1), err
    return code, json.loads(out)


def test_list_exit_zero_and_count():
    code, payload = run_json(["list"])
    assert code == 0
    assert payload["fields"]["entries"] == 22
    assert payload["schema"] == "poincount.output/1"


def test_show_almost_complex_table_row():
    code, payload = run_json(["show", "almost-complex", "--n", "4", "--kmax", "6"])
    assert code == 0
    table = payload["tables"][0]
    h_row = [row[1] for row in table["rows"]]
    assert h_row == [0, 16, 272, 1320, 4392, 11840, 27744]


def test_verify_single_entry_exit_zero():
    code, payload = run_json(["verify", "--id", "fedosov", "--nmax", "4", "--kmax", "50"])
    assert code == 0
    assert payload["fields"]["mismatch"] == 0
    assert payload["fields"]["match"] == 4


def test_analyze_exact_rational_sigma():
    code, payload = run_json(["analyze", "--expr", "1/(1-z^2)^3"])
    assert code == 0
    fields = payload["fields"]
    assert fields["functional_dimension_d"] == 3
    assert fields["functional_rank_sigma"] == {"num": "1", "den": "8"}
    assert fields["single_pole_form"] is False
    assert fields["other_unit_poles"] == [["1 + z", 3]]


def test_no_floats_anywhere_in_json():
    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into JSON payload")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for argv in (
        ["show", "kaehler", "--n", "2", "--kmax", "8"],
        ["analyze", "--expr", "(1+z)/(1-z)^2"],
        ["metric2d", "--kmax", "2"],
    ):
        _, payload = run_json(argv)
        walk(payload)


def test_exit_codes_for_errors():
    code, out, err = capture(["show", "nonsense"])
    assert code == 2 and "error" in err
    code, out, err = capture(["show", "riemannian", "--n", "1"])
    assert code == 2
    code, out, err = capture(["analyze", "--expr", "1/(1-w)"])
    assert code == 2
    code, out, err = capture(["analyze", "--expr", "2z"])  # implicit product
    assert code == 2
    for argv in (
        ["analyze", "--expr", "1/0"],  # division by zero while parsing
        ["analyze", "--expr", "(1-z)/(z-z)"],
        ["analyze", "--expr", "(" * 3000 + "z" + ")" * 3000],  # deep nesting
        ["analyze", "--expr", "z" + "+z" * 3000],  # deep left-leaning sum
        ["analyze", "--expr", "z^100000000"],  # exponent above exprs.MAX_EXPONENT
        ["strata-demo", "--kmax", "-1"],  # negative jet order
        ["strata-demo", "--kmax", "0"],  # a stratum condition above the jet order
        ["rederive", "--id", "einstein", "--n", "4", "--kmax", "-3"],
        ["verify", "--id", "riemannian", "--nmax", "1"],  # selects no sample
        ["verify", "--nmax", "-5"],  # checks nothing
        ["verify", "--id", "riemannian", "--nmax", "-5"],
    ):
        code, out, err = capture(argv)
        assert code == 2 and out == "", argv[:2]
        assert err.startswith("poincount: error:") and err.count("\n") == 1
    for entry_id in ("einstein", "self-dual-metrics", "self-dual-conformal"):
        err = capture(["verify", "--id", entry_id, "--nmax", "3"])[2]
        assert err == (
            f"poincount: error: {entry_id} has no sample with n <= 3; "
            "the smallest n with a sample is 4\n"
        )
    # --nmax 0 checks only the entries without n: 3 ODEs and 8 normal forms
    code, out, err = capture(["--format", "json", "verify", "--nmax", "0"])
    assert (code, json.loads(out)["fields"]["reports"]) == (0, 11)
    assert capture(["verify", "--nmax", "-5"])[2] == "poincount: error: --nmax must be >= 0, got -5\n"
    err = capture(["strata-demo", "--kmax", "0"])[2]
    assert "'sigma1'" in err and "'u10'" in err and "jet order 0" in err
    for argv in (  # a negative --kmax is named the same way by every series command
        ["show", "riemannian", "--n", "2", "--kmax", "-3"],
        ["verify", "--id", "riemannian", "--kmax", "-3"],
        ["analyze", "--expr", "z", "--kmax", "-3"],
        ["rederive", "--id", "einstein", "--n", "4", "--kmax", "-3"],
    ):
        assert capture(argv)[2] == "poincount: error: series order must be >= 0\n", argv[0]
    code, out, err = capture(["no-such-command"])
    assert code == 2


def test_expression_degree_is_bounded_before_evaluation():
    # every exponent is within MAX_EXPONENT, but the nested powers build
    # degree 22,500 and 10^6 (the first took 10.8 s, then failed on the
    # digit limit); the degree walk refuses them before any arithmetic
    refused = "poincount: error: expression degree is above the limit 10000\n"
    for expr in ("((1-z)^150)^150", "((1-z)^1000)^1000"):
        start = time.perf_counter()
        assert capture(["analyze", "--expr", expr, "--kmax", "3"]) == (2, "", refused)
        assert time.perf_counter() - start < 0.1, expr
    assert capture(["analyze", "--expr", "z^5000*z^5001"]) == (2, "", refused)
    for expr in ("z^10000", "(1-z)^300/(1-z)^299"):  # at or below the limit
        assert capture(["analyze", "--expr", expr, "--kmax", "3"])[0] == 0, expr


def test_n_and_param_n_must_agree():
    # --n 3 --param n=4 once printed n = 3
    assert capture(["show", "riemannian", "--n", "3", "--param", "n=4"]) == (
        2, "", "poincount: error: parameter n is given twice, as 3 and 4\n"
    )
    assert capture(["show", "riemannian", "--n", "3", "--param", "n=3"]) == capture(
        ["show", "riemannian", "--n", "3"]
    )


def test_a_repeated_param_must_agree():
    # a second p=2 once silently replaced p=1
    base = ["show", "poincare-dulac", "--param", "case=saddle", "--param", "p=1", "--param", "q=1"]
    assert capture(base + ["--param", "p=2"]) == (
        2, "", "poincount: error: parameter p is given twice, as 1 and 2\n"
    )
    assert capture(base + ["--param", "p=1"]) == capture(base)


def test_an_alias_case_must_agree():
    # the nonresonant 2*z was once printed under the saddle alias
    assert capture(["show", "poincare-dulac-saddle", "--param", "case=nonresonant"]) == (
        2, "", "poincount: error: parameter case is given twice, as 'saddle' by "
        "poincare-dulac-saddle and 'nonresonant'\n"
    )
    saddle = ["show", "poincare-dulac-saddle", "--param", "p=1", "--param", "q=1"]
    code, out, _ = capture(saddle + ["--param", "case=saddle"])
    assert code == 0 and (code, out, "") == capture(saddle)


def test_usage_errors_exit_two_and_internal_errors_propagate(monkeypatch):
    from poincount import jetflow

    # metric2d with a misspelled stratum name (letter O for zero)
    misspelled = dict(
        jetflow.METRIC2D, strata=[{"label": "generic", "equalities": ["g11_1O"]}]
    )
    monkeypatch.setattr(jetflow, "get_scenario", lambda _: jetflow.Scenario(misspelled))
    for argv, text in (
        (["strata-demo", "--kmax", "-1"], "outside the supported range"),  # a bad --kmax
        (["show", "nonsense"], "unknown catalog entry 'nonsense'"),
        (["analyze", "--expr", "1/0"], "division by the zero rational function"),
        (["analyze", "--expr", "z^100000000"], "above the limit 10000"),
        (["metric2d", "--kmax", "10"], "jet order 10 is outside"),
        (["metric2d", "--kmax", "1"], "names 'g11_1O', which is not a jet coordinate"),
    ):
        code, out, err = capture(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("poincount: error:") and err.count("\n") == 1, argv
        assert text in err, argv
    # a ValueError that is not a UsageError is a fault of the program, and
    # run() does not report it as a usage error
    def internal(*args):
        raise ValueError("tail(3) = -1 is not a nonnegative integer")

    monkeypatch.setattr(jetflow, "stratum_codim_sequence", internal)
    with pytest.raises(ValueError, match="tail"):
        capture(["metric2d", "--kmax", "1"])


def test_engine_invariant_violation_exits_three(monkeypatch):
    from poincount import jetflow

    def broken(self, stratum):
        raise jetflow.InvariantViolation("generator not tangent to stratum 'generic'")

    monkeypatch.setattr(jetflow._StratumEngine, "acting_counts", broken)
    code, out, err = capture(["metric2d", "--kmax", "1"])
    assert code == 3 and out == ""
    assert err.startswith("poincount: engine invariant violated:") and err.count("\n") == 1


def test_rederive_match_exit_zero():
    # short horizons included: the plan rows are compared order by order
    for argv in (
        ["--id", "einstein", "--n", "4", "--kmax", "12"],
        ["--id", "almost-complex", "--n", "5", "--kmax", "12"],
        ["--id", "einstein", "--n", "4", "--kmax", "2"],
    ):
        code, payload = run_json(["rederive"] + argv)
        assert code == 0, argv
        assert payload["fields"]["match"] is True


def test_metric2d_output():
    code, payload = run_json(["metric2d", "--kmax", "3"])
    assert code == 0
    rows = payload["tables"][0]["rows"]
    assert [r[1] for r in rows] == [0, 0, 1, 1]


def test_strata_demo_deterministic_bytes():
    argv = ["--format", "markdown", "strata-demo", "--kmax", "6", "--seed", "7"]
    first = capture(argv)
    second = capture(argv)
    assert first == second
    assert first[0] == 0
    assert "sigma3" in first[1]


#: sha256 of stdout recorded at commit 835e013 (the last two at 65fd952);
#: every later change to the engine, the fitting rule or the pole analysis
#: must leave these bytes alone.  metric2d samples under `positivity`, so
#: its digest also pins the redraw order of rejected samples.
PINNED_STDOUT = {
    ("markdown", "strata-demo", "--kmax", "7", "--seed", "2024"):
        "0f1b91265413ceb9657b95b1119b12e0c4f66e5b080f23c40a1721af60fac07e",
    ("json", "strata-demo", "--kmax", "7", "--seed", "2024"):
        "03eee9392728bff5131f652aac2e70ec21daa06518d0afe3f7a9f8f16860535a",
    ("json", "metric2d", "--kmax", "4"):
        "2b2e5392b44c31a47462f60aece5a4ef9ae4cb4a34eba7e25420aa5655e4f219",
    ("json", "verify", "--kmax", "50", "--nmax", "8"):
        "c542367342c9028192ad3868b5eb5a3e7b9e2443b578b83324b0c5d8e30ccf2b",
    ("csv", "strata-demo", "--kmax", "7", "--seed", "7"):
        "5319941f43fd797d90e97d566d939d5dc851e8432cd4b875aadc380620062b96",
    ("markdown", "metric2d", "--kmax", "6"):
        "aac38547c9711bfb245c20cb99ec8191857bb94b21e3977deb6b3c6305d7ca17",
    ("json", "metric2d", "--kmax", "9"):
        "7666d963584ab65c6262e324861a5e80ddb16c70fece3cb84ed4cde54abad0b8",
    # powers through the parse kernels, and the catalog's ONE_MINUS_Z ** n
    ("json", "analyze", "--expr", "(1+z)^7/(1-z^2)^3", "--kmax", "40"):
        "bae5deba494f30e6296c5ba18081a0705f3a202536bcad1fcf6af521f01fa164",
    ("csv", "show", "hyper-kaehler", "--n", "3", "--kmax", "30"):
        "6f83408f70dc64da9bc5d38845b1c67e66dd7127bde0c15d80787ac73bd888c0",
    # recorded at 60912ae: a wide int table, and a table of rational cells
    ("json", "analyze", "--expr", "1/((1-z)^3*(1-z^2)^2)", "--kmax", "200"):
        "6bc4e8871ab102d1ba427d544b75214802688e2249f1fa2b8acb712d968d7425",
    ("json", "analyze", "--expr", "1/(2-z)", "--kmax", "10"):
        "18265c412a8b3a983e1b8d07255056827405137e4cc28449bac0dcd5deab9076",
    # recorded at 91387ac: the roster's notes, validity ranges and base
    # dimensions (kaehler n=2 has base dimension 2n = 4)
    ("markdown", "list"):
        "de1a8333c937d81fd6dc1a12010f934252322dbd02b9bdb8da8d8641dd5c77cc",
    ("csv", "list"):
        "c16dfc40dc3636185b0c2976d2c0787f009bb4e94aa6e991cfa976f65f84d7c5",
    ("json", "list"):
        "1d4aa5434193aaecb8da9f1094a2bd62f7eda521058a0e583453354154f075e1",
    ("markdown", "show", "einstein", "--n", "5"):
        "03200e51f4e60107f062b995f042c732af846c15f4652e494f8a75ef796ee810",
    ("json", "show", "self-dual-conformal", "--n", "4"):
        "e8003a7f67918e57200176aaec24845c29315c7f77cf742e76ba8902e54ce368",
    ("csv", "show", "kaehler", "--n", "2"):
        "c4ab19bfeed7e9f4ac0d4106b50cc2a96487581f554dcacef50a0d60f4818b48",
}


def test_pinned_stdout_bytes():
    for (fmt, *argv), digest in PINNED_STDOUT.items():
        code, out, err = capture(["--format", fmt] + argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, argv[0])


#: sha256 of the concatenated `--format json show ID [--n N] --kmax 30`
#: stdout of every catalog sample with h(k) data and n <= 8, in roster
#: order, recorded at 6e0c399.  `tail_polynomial_in_k` is read off the tail
#: a spec derives from its Newton row, so this pins that derivation's
#: formatting too.
SHOW_HILBERT_SAMPLES_DIGEST = "f4c9abe96881eebcee6c2f39a12e0d2cedcbfc5f2df4fd4b3e92cbc8b23739a1"


def test_show_bytes_of_every_hilbert_sample():
    digest, shown = hashlib.sha256(), 0
    for entry in catalog.list_entries():
        if entry.hilbert is None:
            continue
        for sample in entry.samples(8):
            params = [arg for key, value in sample.items() for arg in (f"--{key}", str(value))]
            code, out, err = capture(["--format", "json", "show", entry.id, *params, "--kmax", "30"])
            assert code == 0, err
            digest.update(out.encode())
            shown += 1
    assert shown == 102
    assert digest.hexdigest() == SHOW_HILBERT_SAMPLES_DIGEST


#: Text with the characters JSON escapes: quotes, backslashes, control
#: characters, and non-ASCII up to the astral planes.
_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'))

#: Ints up to the 4300 digits that str() may write by default.
_BIG = 10**4299

_INTS = st.integers() | st.integers(-_BIG, _BIG)

#: Tables as the payloads hold them: lists of equal-length int lists.
_INT_TABLES = st.integers(0, 4).flatmap(
    lambda width: st.lists(st.lists(_INTS, min_size=width, max_size=width), max_size=5)
)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT | _INT_TABLES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_JSON_VALUES)
@example({"a\u00e9\"\\\n": [[{"b": [-(10**4000), True, None, {}, []]}], ()], "": False})
@example({"rows": [[0, 1, 1], [1, 3, 4], [2, 6, 10]]})
@example([[-1, -20], [0, -(10**30)]])
@example([[10**4299 + 7, -(10**4299)], [1, 2]])  # 4300 digits, the most str() writes
# near misses, each written item by item
@example([[1, True], [2, 3]])
@example([[1, 2], [3]])
@example([[], []])
@example([(1, 2), (3, 4)])
@example([[1, {"num": "1", "den": "2"}], [2, 3]])
def test_json_render_is_the_stdlib_indent_encoding(value):
    assert _render(value, "json") == json.dumps(value, indent=2) + "\n"


def test_every_command_prints_stdlib_indented_json():
    for argv in (
        ["list"],
        ["show", "kaehler", "--n", "2", "--kmax", "8"],
        ["show", "takens-bogdanov", "--kmax", "8"],
        ["verify", "--id", "fedosov", "--nmax", "4", "--kmax", "20"],
        ["analyze", "--expr", "1/(1-z^2)^3", "--kmax", "30"],
        ["analyze", "--expr", "z/(1+z)"],
        ["strata-demo", "--kmax", "7"],
        ["metric2d", "--kmax", "3"],
        ["rederive", "--id", "einstein", "--n", "4", "--kmax", "12"],
    ):
        code, out, err = capture(["--format", "json"] + argv)
        assert code == 0, err
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv[0]


def test_oversized_coefficients_are_a_usage_error():
    # h_900 of 1/(1 - 100000 z) has 4501 digits, more than str() writes; so
    # has a numerator coefficient of (1 + 99999 z)^1000, whatever --kmax is
    limit = sys.get_int_max_str_digits()
    for expr, kmax in (("1/(1-100000*z)", "900"), ("(1+99999*z)^1000", "1")):
        for fmt in ("markdown", "csv", "json"):
            argv = ["--format", fmt, "analyze", "--expr", expr, "--kmax", kmax]
            code, out, err = capture(argv)
            assert (code, out) == (2, ""), (expr, fmt)
            assert err.startswith("poincount: error:") and err.count("\n") == 1, (expr, fmt)
            assert f"more than {limit} digits" in err and "lower --kmax" in err, (expr, fmt)
    argv = ["analyze", "--expr", "1/(1-100000*z)", "--kmax", "859"]
    assert capture(argv)[0] == 0  # 4296 digits are written


def test_oversized_integer_literals_are_a_usage_error():
    # an integer literal or --param value with more digits than int() may
    # read is refused where it is read, naming the limit
    limit = sys.get_int_max_str_digits()
    for argv, text in (
        (["analyze", "--expr", "1" + "0" * 5000], "integer literal has 5001 digits"),
        (["analyze", "--expr", "z+0" + "0" * limit], f"integer literal has {limit + 1} digits"),
        (["show", "riemannian", "--param", "n=" + "1" * 5000], "--param n has 5000 digits"),
        (["show", "riemannian", "--param", "n=-0" + "0" * limit], f"--param n has {limit + 1}"),
    ):
        for fmt in ("markdown", "csv", "json"):
            code, out, err = capture(["--format", fmt] + argv)
            assert (code, out) == (2, ""), (argv[:2], fmt)
            assert err.startswith("poincount: error:") and err.count("\n") == 1, (argv[:2], fmt)
            assert text in err and f"limit {limit} " in err, (argv[:2], fmt)
    # a literal of exactly the limit is read, and so is a zero-padded exponent
    assert capture(["analyze", "--expr", "1" + "0" * (limit - 1), "--kmax", "1"])[0] == 0
    code, out, err = capture(["analyze", "--expr", "z^" + "0" * limit + "1", "--kmax", "3"])
    assert (code, err) == (0, "")


def test_parse_errors_are_one_line_on_the_given_stream(capsys):
    # argparse's own reports go to the stderr handed to run(), never to the
    # process's streams, on one line with each echoed word cut short
    for argv, text in (
        (["show", "riemannian", "--n", "1" * 5001], "argument --n: invalid int value: '1111"),
        (["no-such-command"], "invalid choice: 'no-such-command' (choose from 'list', "),
        (["analyze"], "the following arguments are required: --expr"),
        (["--format", "xml", "list"], "invalid choice: 'xml' (choose from 'markdown', "),
        (["list", "a\nb"], "unrecognized arguments: a b"),
    ):
        code, out, err = capture(argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith("poincount: error:") and err.count("\n") == 1, argv[:2]
        assert text in err and len(err) < 200, argv[:2]
    for argv, text in ((["--help"], "usage: poincount [-h]"), (["analyze", "-h"], "--expr EXPR")):
        code, out, err = capture(argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: poincount") and text in out, argv
    assert capsys.readouterr() == ("", "")


def test_error_lines_bound_every_echoed_word():
    # values echoed outside argparse are cut like argparse's own: one line,
    # each word at most 40 characters and "..."
    long = "v" * 100
    for argv, text in (
        (["show", long], "unknown catalog entry 'vvvv"),
        (["show", "riemannian", "--param", long], "--param needs key=value, got 'vvvv"),
        (["show", "riemannian", "--param", f"n={long}"], "outside validity"),
        (["show", "poincare-dulac", "--param", f"case={long}"], "outside validity"),
    ):
        code, out, err = capture(argv)
        assert (code, out) == (2, ""), argv[:3]
        assert err.startswith("poincount: error:") and err.count("\n") == 1, argv[:3]
        assert text in err and max(map(len, err.split())) <= 40 + len("..."), err


def test_oversized_catalog_sizes_are_refused_before_any_work(monkeypatch):
    # the bounds themselves are accepted; one more is refused with a line
    # that names the bound, before the catalog or a plan is reached
    from dataclasses import replace

    from poincount import catalog, counting
    from poincount.exprs import MAX_N, MAX_NMAX

    show = ["show", "riemannian", "--kmax", "2"]
    assert capture(show + ["--n", str(MAX_N)])[0] == 0
    assert capture(["rederive", "--id", "einstein", "--n", str(MAX_N), "--kmax", "3"])[0] == 0
    assert capture(["verify", "--id", "einstein", "--nmax", str(MAX_NMAX), "--kmax", "3"])[0] == 0

    def reached(*args, **kwargs):
        raise AssertionError("the bound was not checked first")

    entry = catalog.get_entry("riemannian")
    monkeypatch.setitem(catalog._BY_ID, "riemannian", replace(
        entry, validity=reached, base_dim=reached, hilbert=reached, claimed_p=reached))
    # the Poincare-Dulac parameters m, p and q have the same bound as n
    pd_cases = [("poincare-domain", "m", ()), ("saddle-node", "m", ()),
                ("saddle", "p", ("q=1",)), ("saddle", "q", ("p=1",))]

    def pd_show(case, key, value, rest):
        argv = ["show", f"poincare-dulac-{case}", "--kmax", "2"]
        for param in (f"{key}={value}", *rest):
            argv += ["--param", param]
        return argv

    for case, key, rest in pd_cases:
        assert capture(pd_show(case, key, MAX_N, rest))[0] == 0, (case, key)
    dulac = catalog.get_entry("poincare-dulac")
    monkeypatch.setitem(catalog._BY_ID, "poincare-dulac", replace(
        dulac, validity=reached, base_dim=reached, claimed_p=reached))
    for case, key, rest in pd_cases:
        code, out, err = capture(pd_show(case, key, MAX_N + 1, rest))
        text = f"poincare-dulac: {key} is above the limit {MAX_N}"
        assert (code, out, err) == (2, "", f"poincount: error: {text}\n"), (case, key)
    monkeypatch.setitem(counting.SHIPPED_PLANS, "einstein", (reached, range(4, 7)))
    monkeypatch.setattr(catalog, "verify_all", reached)
    monkeypatch.setattr(catalog, "select_samples", reached)
    for argv, text in (
        (show + ["--n", str(MAX_N + 1)], f"riemannian: n is above the limit {MAX_N}"),
        (show + ["--param", f"n={MAX_N + 1}"], f"riemannian: n is above the limit {MAX_N}"),
        (["rederive", "--id", "einstein", "--n", str(MAX_N + 1)],
         f"the einstein plan: n is above the limit {MAX_N}"),
        (["verify", "--nmax", str(MAX_NMAX + 1)], f"--nmax is above the limit {MAX_NMAX}"),
        (["verify", "--id", "einstein", "--nmax", str(MAX_NMAX + 1)],
         f"--nmax is above the limit {MAX_NMAX}"),
    ):
        code, out, err = capture(argv)
        assert (code, out, err) == (2, "", f"poincount: error: {text}\n"), argv[:2]


def test_an_oversized_kmax_is_refused_before_any_work(monkeypatch):
    # the bound itself is accepted; one more is refused with one line,
    # before a series or a counting plan is computed
    from poincount import cli, counting
    from poincount.algebra import RationalFunction
    from poincount.exprs import MAX_KMAX

    assert MAX_KMAX == 10_000
    assert capture(["analyze", "--expr", "z", "--kmax", str(MAX_KMAX)])[0] == 0

    def reached(*args, **kwargs):
        raise AssertionError("the bound was not checked first")

    monkeypatch.setattr(RationalFunction, "series", reached)
    monkeypatch.setattr(counting, "plan_values", reached)
    monkeypatch.setattr(cli, "plan_values", reached)
    for argv in (
        ["show", "riemannian", "--n", "4"],
        ["verify"],
        ["analyze", "--expr", "z"],
        ["rederive", "--id", "fedosov", "--n", "2"],
    ):
        code, out, err = capture(argv + ["--kmax", str(MAX_KMAX + 1)])
        assert (code, out, err) == (2, "", "poincount: error: --kmax is above the limit 10000\n"), argv


def test_other_value_errors_propagate(monkeypatch):
    # only the int-to-text digit limit is a usage error; any other ValueError,
    # from a command or from a renderer, is a fault of the program
    from poincount import cli

    def boom(*args):
        raise ValueError("boom")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_render", boom)
        with pytest.raises(ValueError, match="^boom$"):
            capture(["list"])
    monkeypatch.setattr(cli.catalog, "list_entries", boom)
    with pytest.raises(ValueError, match="^boom$"):
        capture(["list"])


def test_strata_demo_short_horizon_is_a_clean_error():
    # constant-tail fitting needs 3 equal trailing values; k_max = 4 cannot
    # show them for every stratum and must exit with a usage-style error
    code, out, err = capture(["strata-demo", "--kmax", "4", "--seed", "7"])
    assert code == 2 and "extend k_max" in err


def test_formats_agree_on_data():
    _, payload = run_json(["show", "riemannian", "--n", "2", "--kmax", "5"])
    h_json = [row[1] for row in payload["tables"][0]["rows"]]
    code, md, _ = capture(["--format", "markdown", "show", "riemannian", "--n", "2", "--kmax", "5"])
    md_rows = [
        line.split("|")[2].strip()
        for line in md.splitlines()
        if line.startswith("|") and "---" not in line and "h_k" not in line
    ]
    assert [str(v) for v in h_json] == md_rows
    code, csv_text, _ = capture(["--format", "csv", "show", "riemannian", "--n", "2", "--kmax", "5"])
    assert code == 0
    csv_rows = [
        line.split(",")[1]
        for line in csv_text.splitlines()
        if line and line[0].isdigit()
    ]
    assert csv_rows == [str(v) for v in h_json]


def test_env_var_default_format(monkeypatch):
    monkeypatch.setenv("POINCOUNT_FORMAT", "json")
    out = io.StringIO()
    code = run(["list"], stdout=out)
    assert code == 0
    json.loads(out.getvalue())


def test_env_var_read_at_every_run(monkeypatch):
    from poincount import cli as cli_mod

    monkeypatch.setenv("POINCOUNT_FORMAT", "json")
    json.loads(capture(["list"])[1])
    monkeypatch.setenv("POINCOUNT_FORMAT", "csv")
    assert capture(["list"])[1].startswith("command,list\n")
    assert capture(["--format", "json", "list"])[1].startswith("{")  # the flag wins
    monkeypatch.setenv("POINCOUNT_FORMAT", "yaml")  # not a format: markdown
    assert capture(["list"])[1].startswith("## poincount list\n")
    monkeypatch.delenv("POINCOUNT_FORMAT")
    assert capture(["list"])[1].startswith("## poincount list\n")
    assert cli_mod._parser.cache_info().misses == 1  # one parser served every call


def test_analyze_high_pole_order_exactly():
    code, payload = run_json(["analyze", "--expr", "1/(1-z)^1000", "--kmax", "5"])
    assert code == 0
    fields = payload["fields"]
    assert fields["functional_dimension_d"] == 1000
    assert fields["functional_rank_sigma"] == 1
    assert fields["single_pole_form"] is True
    rows = payload["tables"][0]["rows"]
    assert [row[1] for row in rows] == [comb(k + 999, 999) for k in range(6)]
    assert [row[2] for row in rows] == [comb(k + 1000, 1000) for k in range(6)]


def test_show_hilbert_flag_and_notes():
    _, payload = run_json(["show", "takens-bogdanov", "--kmax", "8"])
    assert any("closed form only" in n for n in payload["notes"])
    h_row = [row[1] for row in payload["tables"][0]["rows"]]
    # series of the closed form: gaps at k = 1 mod 3 starting from k = 6
    assert h_row == [0, 0, 1, 1, 1, 1, 0, 1, 1]


def test_show_with_extra_params():
    _, payload = run_json(
        ["show", "poincare-dulac-saddle", "--param", "p=1", "--param", "q=1", "--kmax", "6"]
    )
    h_row = [row[1] for row in payload["tables"][0]["rows"]]
    assert h_row == [0, 1, 0, 1, 0, 1, 0]


def test_only_ascii_digits_are_numbers():
    # str.isdigit() also holds for superscripts, which int() refuses, and for
    # other scripts' digits, which int() reads: neither is a number here
    domain = ["show", "poincare-dulac-poincare-domain", "--kmax", "4", "--param"]
    for argv, text in (
        (["analyze", "--expr", "z^²"], "unexpected character '²' at position 2"),
        (["analyze", "--expr", "1/(1-z)^٣"], "unexpected character '٣' at position 8"),
        (domain + ["m=²"], "poincare-dulac"),
        (domain + ["m=٣"], "poincare-dulac"),
        (domain + ["m=--3"], "poincare-dulac"),
    ):
        code, out, err = capture(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("poincount: error:") and err.count("\n") == 1, argv
        assert text in err, argv
    # a sign and spaces around ASCII digits still make an int
    assert capture(domain + ["m= +3 "])[:2] == capture(domain + ["m=3"])[:2]
    assert capture(domain + ["m=3"])[0] == 0


def test_unreadable_parameters_are_outside_validity():
    # a missing parameter or a non-number value is named like any other
    # parameter set outside the entry's validity, never in Python's words
    domain = ["show", "poincare-dulac-poincare-domain", "--kmax", "4", "--param"]
    for argv, text in (
        (["show", "riemannian"], "riemannian: parameters {} outside validity (n >= 2)"),
        (domain + ["m=²"], "poincare-dulac: parameters {'case': 'poincare-domain', 'm': '²'} "
                           "outside validity ("),
        (domain + ["m=x"], "'m': 'x'} outside validity ("),
    ):
        code, out, err = capture(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("poincount: error:") and err.count("\n") == 1, argv
        assert text in err, argv
        assert "<lambda>" not in err and "not supported" not in err, argv


def test_self_dual_entries_need_their_parameter():
    # n = 4 is the only valid value, but it is not a default: without --n
    # the entry is outside validity, as every entry with a parameter n is
    for entry in ("self-dual-metrics", "self-dual-conformal"):
        code, out, err = capture(["show", entry])
        assert code == 2 and out == "", entry
        assert err == f"poincount: error: {entry}: parameters {{}} outside validity (n = 4)\n"


def test_verify_mismatch_exit_one(monkeypatch):
    from poincount import catalog as cat
    from poincount import cli as cli_mod

    fake = [cat.VerificationReport("riemannian", {"n": 2}, "mismatch", {"k": 3})]
    monkeypatch.setattr(cli_mod.catalog, "verify_all", lambda k, n: fake)
    out = io.StringIO()
    code = run(["--format", "json", "verify"], stdout=out)
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["fields"]["mismatch"] == 1


def test_verify_with_no_reports_exits_two(monkeypatch):
    from poincount import cli as cli_mod

    monkeypatch.setattr(cli_mod.catalog, "verify_all", lambda k, n: [])
    code, out, err = capture(["verify"])
    assert (code, out) == (2, "")
    assert err == "poincount: error: verify --nmax 8 selects no catalog sample\n"


def test_verify_alias_filters_family_samples():
    code, payload = run_json(["verify", "--id", "takens-bogdanov"])
    assert code == 0
    rows = payload["tables"][0]["rows"]
    assert len(rows) == 1
    assert "takens-bogdanov" in rows[0][1]


def test_module_entry_points_match_run():
    expected = io.StringIO()
    assert run(["list"], stdout=expected) == 0
    src = str(Path(poincount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for module in ("poincount", "poincount.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "list"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected.getvalue(), module
