"""Command-line front end: catalog queries, verification, analysis, demos.

Subcommands:

    list                                   roster overview
    show ID [--n N] [--param k=v] [--kmax K]
    verify [--id ID] [--nmax N] [--kmax K]
    analyze --expr EXPR [--kmax K]
    strata-demo [--kmax K] [--seed S]
    metric2d [--kmax K] [--seed S]
    rederive --id ID --n N [--kmax K]

Output formats: markdown (default), csv, json; select with --format or the
POINCOUNT_FORMAT environment variable.  JSON payloads are exact: every
non-integer rational is {"num": "...", "den": "..."} with decimal-digit
strings, never floating point.  The JSON bytes are those of
json.dumps(payload, indent=2): strings ASCII-escaped, a two-space indent.
Output is byte-identical for identical argv and seed.  Exit codes: 0
success / all consistent, 1 mismatch findings present, 2 usage or
validity errors (a verify that selects no sample is one: it would check
nothing; so is a result with an integer longer than Python's
int-to-text digit limit, 4300 by default, an integer in EXPR or a
--param value longer than the text-to-int limit, an EXPR whose unreduced
numerator or denominator would pass degree 10000, a catalog parameter
given twice with different values by --n, --param or an id alias, an n
or other integer catalog parameter above 64, an --nmax above 32 and a
--kmax above 10000 for show, verify, analyze and rederive), 3 a broken
jet-engine invariant (a sentinel parameter acts, or a generator leaves
its stratum; both are read off the engine's plan once, before any point
is drawn).  An error is one line, each echoed word cut to 40 characters.

EXPR grammar (integer coefficients over the single symbol z):

    expr   := term { ("+" | "-") term }
    term   := factor { ("*" | "/") factor }
    factor := "-" factor | atom [ "^" integer ]
    atom   := integer | "z" | "(" expr ")"
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import accumulate, chain

from . import analysis, catalog, jetflow
from .algebra import RationalFunction, UnsupportedArgument
from .counting import SHIPPED_PLANS, plan_values, shipped_plan
from .errors import UsageError
from .exprs import MAX_KMAX, MAX_NMAX, _read_int, parse_rational_function
from .hilbert import gf_from_hilbert

SCHEMA = "poincount.output/1"
FORMATS = ("markdown", "csv", "json")


# ---------------------------------------------------------------------------
# Payload assembly and rendering
# ---------------------------------------------------------------------------


def _rat(value) -> dict | int:
    """Exact JSON encoding: integers stay integers, rationals become digit strings."""
    if isinstance(value, int):
        return value
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _cell_text(value) -> str:
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return f"{value['num']}/{value['den']}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _payload(command: str, fields: dict, tables: list, notes: list[str]) -> dict:
    return {
        "schema": SCHEMA,
        "catalog_version": catalog.CATALOG_VERSION,
        "command": command,
        "fields": fields,
        "tables": tables,
        "notes": notes,
    }


def _render_markdown(payload: dict) -> str:
    out = [f"## poincount {payload['command']}", ""]
    if payload["fields"]:
        for key, value in payload["fields"].items():
            out.append(f"- {key}: {_cell_text(value)}")
        out.append("")
    for table in payload["tables"]:
        out.append(f"### {table['title']}")
        out.append("")
        cols = table["columns"]
        out.append("| " + " | ".join(cols) + " |")
        out.append("|" + "|".join("---" for _ in cols) + "|")
        for row in table["rows"]:
            out.append("| " + " | ".join(_cell_text(c) for c in row) + " |")
        out.append("")
    for note in payload["notes"]:
        out.append(f"> {note}")
    return "\n".join(out).rstrip() + "\n"


def _render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["command", payload["command"]])
    for key, value in payload["fields"].items():
        writer.writerow(["field", key, _cell_text(value)])
    for table in payload["tables"]:
        writer.writerow(["table", table["title"]])
        writer.writerow(table["columns"])
        for row in table["rows"]:
            writer.writerow([_cell_text(c) for c in row])
    for note in payload["notes"]:
        writer.writerow(["note", note])
    return buf.getvalue()


_json_str = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the values a payload
    holds (str keys only), without the standard library's pure-Python
    indent encoder: an exact int is its repr (int.__repr__), a str goes
    through the C encoder.  `indent` opens each item line of a container.

    A table, a list of lists of one length whose cells (one at least) are
    all exact ints, not bools, is written in one step: one "%d" row
    template for that length and indent, repeated for every row and filled
    from the flattened cells.  "%d" of an int is its repr, digit limit and
    ValueError included, so the bytes are those of the item-by-item path."""
    kind = type(value)
    if kind is int:  # not bool
        return repr(value)
    if kind is str:
        return _json_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_json_str(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {list} and len(set(map(len, value))) == 1:
            cells = tuple(chain.from_iterable(value))
            if set(map(type, cells)) == {int}:
                cell = inner + "  "
                row = "[" + cell + ("," + cell).join(["%d"] * len(value[0])) + inner + "]"
                rows = ("," + inner).join([row] * len(value)) % cells
                return "[" + inner + rows + indent + "]"
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)  # bool, None


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload) + "\n"
    if fmt == "csv":
        return _render_csv(payload)
    return _render_markdown(payload)


def _gf_fields(p: RationalFunction) -> dict:
    report = analysis.analyze(p)
    return {
        "P": p.format(),
        "numerator_coefficients": [_rat(c) for c in p.num.coeffs],
        "denominator_coefficients": [_rat(c) for c in p.den.coeffs],
        "functional_dimension_d": report.d,
        "functional_rank_sigma": _rat(report.sigma),
        "single_pole_form": report.conforms_to_pr,
        "other_unit_poles": [
            [poly.format(), mult] for poly, mult in report.other_unit_poles
        ],
    }


def _series_rows(p: RationalFunction, kmax: int) -> list:
    """[k, h_k, s_k] for k = 0..kmax: one series, s_k its running sum.

    Integral coefficients are ints, so the common case sums ints.
    """
    series = p.series(kmax)
    return [
        [k, _rat(h), _rat(s)]
        for k, (h, s) in enumerate(zip(series, accumulate(series)))
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_extra_params(pairs: list[str], n: int | None) -> dict:
    """{key: value} of --n and the --param pairs; a repeat must agree."""
    params = {} if n is None else {"n": n}
    for pair in pairs:
        if "=" not in pair:
            raise catalog.OutOfValidity(f"--param needs key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        value = _read_int(raw, f"--param {key}") if _is_int(raw) else raw.strip()
        if params.setdefault(key, value) != value:
            raise catalog.OutOfValidity(
                f"parameter {key} is given twice, as {params[key]!r} and {value!r}"
            )
    return params


def _check_kmax(args) -> None:
    """Refuse a --kmax above MAX_KMAX; a negative one is the series'
    own refusal."""
    if args.kmax > MAX_KMAX:
        raise UsageError(f"--kmax is above the limit {MAX_KMAX}")


def _is_int(text: str) -> bool:
    """An optional sign and ASCII digits, as int() reads them."""
    return re.fullmatch(r"\s*[+-]?[0-9]+\s*", text) is not None


def cmd_list(args) -> tuple[int, dict]:
    rows = []
    for entry in catalog.list_entries():
        rows.append(
            [
                entry.id,
                entry.title,
                ",".join(entry.params) if entry.params else "-",
                entry.validity_note,
                "yes" if entry.hilbert else "no",
                ",".join(sorted(entry.flags)) if entry.flags else "-",
            ]
        )
    payload = _payload(
        "list",
        {"entries": len(rows), "aliases": sorted(catalog.ID_ALIASES)},
        [
            {
                "title": "catalog",
                "columns": ["id", "title", "params", "validity", "h-data", "flags"],
                "rows": rows,
            }
        ],
        [],
    )
    return 0, payload


def cmd_show(args) -> tuple[int, dict]:
    _check_kmax(args)
    params = _parse_extra_params(args.param, args.n)
    p = catalog.claimed_poincare(args.id, **params)
    entry, clean = catalog.resolve(args.id)
    fields = {
        "id": entry.id,
        "title": entry.title,
        "params": json.dumps({**clean, **params}, sort_keys=True),
        "base_dim": catalog.base_dimension(args.id, **params),
        "kmax": args.kmax,
    }
    fields.update(_gf_fields(p))
    rows = _series_rows(p, args.kmax)
    notes = []
    try:
        spec = catalog.hilbert_spec(args.id, **params)
        gf_ok = gf_from_hilbert(spec) == p
        fields["hilbert_matches_closed_form"] = gf_ok
        fields["tail_start"] = spec.tail_start
        fields["tail_polynomial_in_k"] = spec.tail.format("k")
    except catalog.NoHilbertData:
        notes.append("entry ships a closed form only; no independent h(k) data")
    if entry.note:
        notes.append(entry.note)
    payload = _payload(
        "show",
        fields,
        [{"title": "counting sequence", "columns": ["k", "h_k", "s_k"], "rows": rows}],
        notes,
    )
    return 0, payload


def cmd_verify(args) -> tuple[int, dict]:
    # Exit 0 means "all consistent", so a run that checks nothing is refused.
    if args.nmax < 0:
        raise UsageError(f"--nmax must be >= 0, got {args.nmax}")
    if args.nmax > MAX_NMAX:
        raise UsageError(f"--nmax is above the limit {MAX_NMAX}")
    _check_kmax(args)
    if args.id:
        entry, samples = catalog.select_samples(args.id, args.nmax)
        reports = [
            catalog.verify_entry(entry.id, sample, args.kmax) for sample in samples
        ]
    else:
        reports = catalog.verify_all(args.kmax, args.nmax)
    if not reports:
        raise UsageError(f"verify --nmax {args.nmax} selects no catalog sample")
    rows = []
    mismatches = 0
    for rep in reports:
        if rep.status == "mismatch":
            mismatches += 1
        rows.append(
            [
                rep.entry_id,
                json.dumps(rep.params, sort_keys=True),
                rep.status,
                json.dumps(rep.detail, sort_keys=True, default=str)
                if rep.detail
                else "-",
            ]
        )
    payload = _payload(
        "verify",
        {
            "kmax": args.kmax,
            "nmax": args.nmax,
            "reports": len(reports),
            "match": sum(r.status == "match" for r in reports),
            "skipped": sum(r.status == "skipped" for r in reports),
            "mismatch": mismatches,
        },
        [
            {
                "title": "verification reports",
                "columns": ["entry", "params", "status", "detail"],
                "rows": rows,
            }
        ],
        [],
    )
    return (1 if mismatches else 0), payload


def cmd_analyze(args) -> tuple[int, dict]:
    _check_kmax(args)
    f = parse_rational_function(args.expr)
    fields = {"expr": args.expr}
    fields.update(_gf_fields(f))
    tables = []
    if f.den.coefficient(0) != 0:
        tables.append(
            {
                "title": "coefficients",
                "columns": ["k", "h_k", "s_k"],
                "rows": _series_rows(f, args.kmax),
            }
        )
    payload = _payload("analyze", fields, tables, [])
    return 0, payload


def cmd_strata_demo(args) -> tuple[int, dict]:
    rows = jetflow.lie_example_table(args.kmax, args.seed)
    table_rows = [
        [row.label, " ".join(str(v) for v in row.h), row.counting_function.format()]
        for row in rows
    ]
    dist_rows = []
    for rep in jetflow.distribution_example():
        checks = "; ".join(f"{name}: {'yes' if ok else 'no'}" for name, ok in rep.checks)
        dist_rows.append([rep.stratum, rep.rank, checks or "-"])
    notes = sorted({row.note for row in rows})
    payload = _payload(
        "strata-demo",
        {"scenario": "x-reparam", "kmax": args.kmax, "seed": args.seed},
        [
            {
                "title": "orbit codimension increments per stratum",
                "columns": ["stratum", "h_0..h_kmax", "P(z)"],
                "rows": table_rows,
            },
            {
                "title": "3D distribution sub-example",
                "columns": ["stratum", "rank", "invariant checks"],
                "rows": dist_rows,
            },
        ],
        notes,
    )
    return 0, payload


def cmd_metric2d(args) -> tuple[int, dict]:
    scenario = jetflow.get_scenario("metric2d")
    _, h = jetflow.stratum_codim_sequence(scenario, "generic", args.kmax, args.seed)
    payload = _payload(
        "metric2d",
        {"kmax": args.kmax, "seed": args.seed},
        [
            {
                "title": "plane metrics under diffeomorphisms",
                "columns": ["k", "h_k"],
                "rows": [[k, h[k]] for k in range(args.kmax + 1)],
            }
        ],
        [],
    )
    return 0, payload


def cmd_rederive(args) -> tuple[int, dict]:
    _check_kmax(args)
    if args.kmax < 0:
        raise UnsupportedArgument("series order must be >= 0")
    got = plan_values(shipped_plan(args.id, args.n), args.kmax)
    want = catalog.hilbert_spec(args.id, n=args.n).values(args.kmax)
    first_mismatch = next((k for k in range(args.kmax + 1) if got[k] != want[k]), None)
    rows = [[k, got[k], want[k]] for k in range(args.kmax + 1)]
    payload = _payload(
        "rederive",
        {
            "id": args.id,
            "n": args.n,
            "kmax": args.kmax,
            "match": first_mismatch is None,
            "first_mismatch_k": "-" if first_mismatch is None else first_mismatch,
        },
        [
            {
                "title": "dimension-count rederivation vs catalog",
                "columns": ["k", "from_plan", "catalog"],
                "rows": rows,
            }
        ],
        [],
    )
    return (0 if first_mismatch is None else 1), payload


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


#: The most characters of one word that an error line echoes; a longer
#: word is cut there and marked "...".
_ECHO_CHARS = 40


class _Help(Exception):
    """--help was given: the help text, for run() to write on its stdout."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises where the stock one writes to the
    process's streams and exits, so that run() reports on the streams it
    was handed: --help raises _Help with the text, a parse error raises
    UsageError.  add_subparsers makes its parsers of this class too."""

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poincount",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        help="output format (default: markdown, or POINCOUNT_FORMAT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="roster overview").set_defaults(func=cmd_list)

    p_show = sub.add_parser("show", help="one entry: h/s tables, P(z), d, sigma")
    p_show.add_argument("id")
    p_show.add_argument("--n", type=int, default=None)
    p_show.add_argument(
        "--param", action="append", default=[], help="extra parameter key=value"
    )
    p_show.add_argument("--kmax", type=int, default=10)
    p_show.set_defaults(func=cmd_show)

    p_verify = sub.add_parser("verify", help="h(k) vs closed-form consistency")
    p_verify.add_argument("--id", default=None)
    p_verify.add_argument("--nmax", type=int, default=8)
    p_verify.add_argument("--kmax", type=int, default=50)
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser("analyze", help="pole analysis of an expression in z")
    p_analyze.add_argument("--expr", required=True)
    p_analyze.add_argument("--kmax", type=int, default=10)
    p_analyze.set_defaults(func=cmd_analyze)

    p_strata = sub.add_parser("strata-demo", help="orbit codimension strata table")
    p_strata.add_argument("--kmax", type=int, default=7)
    p_strata.add_argument("--seed", type=int, default=2024)
    p_strata.set_defaults(func=cmd_strata_demo)

    p_metric = sub.add_parser("metric2d", help="plane-metric moduli by rank counting")
    p_metric.add_argument("--kmax", type=int, default=4)
    p_metric.add_argument("--seed", type=int, default=2024)
    p_metric.set_defaults(func=cmd_metric2d)

    p_rederive = sub.add_parser(
        "rederive", help="dimension-count plan vs catalog sequence"
    )
    p_rederive.add_argument(
        "--id", required=True, choices=sorted(SHIPPED_PLANS)
    )
    p_rederive.add_argument("--n", type=int, required=True)
    p_rederive.add_argument("--kmax", type=int, default=40)
    p_rederive.set_defaults(func=cmd_rederive)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first run() so that
    importing stays cheap; it holds no per-call state."""
    return build_parser()


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
        code, payload = args.func(args)
        text = _render(payload, args.format or os.environ.get("POINCOUNT_FORMAT", "markdown"))
    except _Help as exc:
        stdout.write(str(exc))
        return 0
    except (UsageError, jetflow.GenericityFailure, jetflow.BadSample) as exc:
        code, line = 2, f"error: {exc}"
    except jetflow.InvariantViolation as exc:
        code, line = 3, f"engine invariant violated: {exc}"
    except ValueError as exc:
        # only an int longer than str() may write, not one int() may read
        message = str(exc)
        if not (message.startswith("Exceeds the limit (") and "conversion;" in message):
            raise
        limit = sys.get_int_max_str_digits()
        code, line = 2, (
            f"error: a result has more than {limit} digits, the limit "
            "of Python's int-to-text conversion; try a lower --kmax"
        )
    else:
        stdout.write(text)
        return code
    # one line, whatever the echoed values hold, each word bounded
    words = [w if len(w) <= _ECHO_CHARS else w[:_ECHO_CHARS] + "..." for w in line.split()]
    print("poincount:", *words, file=stderr)
    return code


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
