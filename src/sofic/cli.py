"""Command-line front end: quotient sweeps, defect tables, reference values.

Subcommands
-----------
algebraic    entropy trace of a principal algebraic action along a quotient
             chain, with a spectral reference value and an invertibility
             certificate appended.
subshift     homomorphism-count entropy table of a subshift of finite type
             over cyclic approximations.
mahler       Mahler measure estimates (Jensen and quadrature) plus the
             torus invertibility certificate for a Laurent polynomial.
sofic-check  multiplicativity and freeness defects of quotient-induced
             sofic maps for a list of group elements.

Exit codes: 0 success, 2 invalid input, 3 non-invertible input (report is
still written), 4 resource guard tripped.

One writer, ``_report``, writes every report as it renders it, never as
one string, and deterministically: identical configurations produce
byte-identical output.  CSV carries the main table only: a header, then
one line per row, where an empty cell is a missing value, a number is
written by ``repr`` and free text is quoted only when it holds a comma, a
double quote or a newline.  JSON is the whole report as an object with
``indent=2``: the same table plus, by subcommand, the skipped quotients,
the caveats (only when there are any), the invertibility certificate, the
residual or the SFT echo.  In it ``null`` stands for a missing value or,
in a table row, a non-finite float.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import asdict
from typing import Iterable, List, Optional, Sequence, Tuple

from . import algebraic, spectral, subshift as subshift_mod
from .groups import (
    COSET_CAP,
    ExplicitQuotient,
    GroupRingElement,
    ResourceGuardError,
    _is_integer,
    element_mul,
    freeness_defect,
    multiplicative_defect,
    normalize_element,
    parse_laurent,
    parse_word,
    render_word,
    sofic_map_from_quotient,
    torus_quotient,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_RESOURCE = 4

DEFAULT_GRIDS = {1: 8192, 2: 256, 3: 48, 4: 24}

GROUP_RANKS = {"Z": 1, "Z2": 2, "Z3": 3, "Z4": 4}

# The most entries of the permutations one sofic-check map stores, 240 MB as
# int64; run_sofic_check keeps one map alive at a time.
SOFIC_MAP_CAP = 3 * 10**7

# The most report rows of one sofic-check, one per ordered pair of distinct
# elements per quotient: a row takes about 70 bytes in CSV (its pair and
# product) and 470 bytes in JSON (also its cells, held for json.dump), so
# 10^5 rows peak near 37 MB and 76 MB, of which 30 MB hold no row.
SOFIC_ROW_CAP = 10**5


class ConfigError(ValueError):
    """Invalid command-line configuration or input file."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sofic",
        description="Entropy of algebraic actions and subshifts over finite quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    common.add_argument("--out", help="write the report to this path instead of stdout")

    group_args = argparse.ArgumentParser(add_help=False)
    group_args.add_argument(
        "--group",
        default="Z",
        help="Z, Z2, Z3, Z4, or file:<quotient-chain.json> for explicit quotient data",
    )
    group_args.add_argument(
        "--quotients", help="range a..b of cyclic moduli (expanded per axis for Z^d)"
    )
    group_args.add_argument(
        "--moduli",
        action="append",
        help="explicit comma-separated moduli for one quotient; repeatable",
    )

    p_alg = sub.add_parser(
        "algebraic",
        parents=[common, group_args],
        help="entropy trace of a principal algebraic action",
    )
    p_alg.add_argument("--poly", help="Laurent polynomial in x, y, z, w")
    p_alg.add_argument("--grid", type=int, help="torus grid per axis for the reference")

    p_sub = sub.add_parser(
        "subshift",
        parents=[common],
        help="homomorphism-count entropy table for an SFT",
    )
    p_sub.add_argument("--sft", required=True, help="path to the SFT JSON description")
    p_sub.add_argument("--quotients", required=True, help="range a..b of cycle lengths")
    p_sub.add_argument(
        "--budget", default="0", help="comma-separated list of site budgets"
    )

    p_mah = sub.add_parser(
        "mahler",
        parents=[common],
        help="Mahler measure estimates and invertibility certificate",
    )
    p_mah.add_argument("--group", default="Z", help="Z, Z2, Z3, or Z4")
    p_mah.add_argument("--poly", required=True, help="Laurent polynomial in x, y, z, w")
    p_mah.add_argument("--grid", type=int, help="torus grid per axis")

    p_chk = sub.add_parser(
        "sofic-check",
        parents=[common, group_args],
        help="multiplicativity/freeness defect table of quotient-induced maps",
    )
    p_chk.add_argument(
        "--elements",
        required=True,
        help="semicolon-separated group elements (ints for Z, comma tuples for Z^d, words for explicit chains)",
    )
    return parser


# ---------------------------------------------------------------------------
# argument helpers


def _parse_range(text: str) -> range:
    """The range a..b, refused over COSET_CAP values before it is listed:
    no subcommand admits that many quotients or lengths."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"quotient range must look like a..b, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"quotient range bounds must be integers, got {text!r}") from None
    if a < 1 or b < a:
        raise ConfigError(f"quotient range must satisfy 1 <= a <= b, got {text!r}")
    if b - a + 1 > COSET_CAP:
        raise ResourceGuardError(
            f"quotient range {text!r} holds {b - a + 1} values, over the cap {COSET_CAP}"
        )
    return range(a, b + 1)


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_elements(text: str, rank: int) -> list:
    elements = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if rank == 0:
            elements.append(parse_word(chunk))
        elif rank == 1:
            try:
                elements.append(int(chunk))
            except ValueError:
                raise ConfigError(f"expected an integer element, got {chunk!r}") from None
        else:
            vec = _parse_int_list(chunk)
            if len(vec) != rank:
                raise ConfigError(
                    f"element {chunk!r} has {len(vec)} components, expected {rank}"
                )
            elements.append(tuple(vec))
    if not elements:
        raise ConfigError("no elements given")
    return elements


def _load_chain(path: str):
    """Load an explicit quotient chain: optional poly, quotient list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        obj = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read quotient chain {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path!r}: {exc.msg} (at position {exc.pos})"
        ) from None
    specs = obj.get("quotients") if isinstance(obj, dict) else None
    if not isinstance(specs, list) or not specs:
        raise ConfigError(f"quotient chain {path!r} lists no quotients")
    # numpy reads a bool among integers as 0 or 1.  Scanning every entry's
    # type costs milliseconds, so only a text with a JSON bool is scanned;
    # the letters r of true and f of false, in no key of the format, rule
    # most texts out faster than a search for the words
    has_bools = ("r" in text and "true" in text) or ("f" in text and "false" in text)
    quotients = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict) or "table" not in spec or "images" not in spec:
            raise ConfigError(f"quotient #{i} needs 'table' and 'images' fields")
        label = spec.get("label", f"quotient{i}")
        if not isinstance(label, str):
            raise ConfigError(f"quotient #{i} label must be a string, got {label!r}")
        if has_bools and _holds_bool(spec["table"]):
            raise ConfigError(
                f"quotient #{i} in {path!r}: table entries must be integers, not bool"
            )
        try:
            quotients.append(
                ExplicitQuotient(
                    table=spec["table"], generator_images=spec["images"], label=label
                )
            )
        except ValueError as exc:
            raise ConfigError(f"quotient #{i} in {path!r}: {exc}") from None
    poly = None
    if "poly" in obj:
        if not isinstance(obj["poly"], dict):
            raise ConfigError(f"'poly' in {path!r} must map words to integer coefficients")
        terms = {}
        for word_text, coeff in obj["poly"].items():
            if not _is_integer(coeff):
                raise ConfigError(
                    f"'poly' coefficient of {word_text!r} in {path!r} must be an integer, "
                    f"got {coeff!r}"
                )
            terms[parse_word(word_text)] = coeff
        poly = GroupRingElement(0, terms)
    return poly, quotients


def _holds_bool(value) -> bool:
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _resolve_group(args) -> Tuple[int, Optional[GroupRingElement], Optional[list]]:
    """(rank, chain poly, chain quotients); rank 0 means explicit chain."""
    group = args.group
    if group in GROUP_RANKS:
        return GROUP_RANKS[group], None, None
    if group.startswith("file:"):
        return (0, *_load_chain(group[len("file:") :]))
    raise ConfigError(f"unknown group {group!r}; use Z, Z2, Z3, Z4, or file:<path>")


def _torus_quotients(args, rank: int) -> Tuple[int, Iterable]:
    """How many torus quotients the flags name, and the quotients; those of
    a --quotients range are built as they are drawn."""
    if args.moduli:
        if args.quotients:
            raise ConfigError("give either --quotients or --moduli, not both")
        quotients = []
        for text in args.moduli:
            moduli = _parse_int_list(text)
            if len(moduli) != rank:
                raise ConfigError(
                    f"--moduli {text!r} has {len(moduli)} entries, expected {rank}"
                )
            quotients.append(torus_quotient(moduli))
        return len(quotients), quotients
    if not args.quotients:
        raise ConfigError("a quotient range (--quotients a..b) is required")
    moduli = _parse_range(args.quotients)
    return len(moduli), (torus_quotient([n] * rank) for n in moduli)


def _json_cell(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if not isinstance(value, str):
        return repr(value)
    if "," in value or '"' in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _report(args, obj: dict, table: str, columns: Sequence[str]) -> None:
    """Write the report of ``obj`` to ``args.out``, or stdout, as it renders.

    ``obj[table]`` yields the rows once, each a tuple of its cells in
    ``columns`` order, so a named-tuple row whose fields are the columns
    goes in as it is.  JSON writes all of ``obj`` in its key order, each
    row as the object of its columns (the one table held) and a non-finite
    float in a row written as null.  CSV writes the header ``columns``, then
    each row as it is drawn.  Cells must be Python numbers, strings or None:
    ``repr`` of a numpy scalar is not its value's text.  A refusal comes
    before this call, so none writes a byte or creates ``--out``; an
    ``--out`` that cannot be opened is a ConfigError, before any byte is
    written.

    CPython writes an int of more than 4300 digits only with its limit
    lifted, so an exact count of any length is written with the limit lifted
    for the writing alone, which parses nothing.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            obj = {**obj, table: [dict(zip(columns, map(_json_cell, row))) for row in obj[table]]}
        try:
            out = open(args.out, "w", encoding="utf-8", newline="\n") if args.out else None
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.out!r}: {exc}") from None
        with out or contextlib.nullcontext(sys.stdout) as fh:
            if args.format == "json":
                json.dump(obj, fh, indent=2)
            else:
                fh.write(",".join(columns))
                for row in obj[table]:
                    fh.write("\n" + ",".join(map(_csv_cell, row)))
            fh.write("\n")
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# subcommands


def run_algebraic(args) -> int:
    rank, chain_poly, chain_quotients = _resolve_group(args)
    if rank == 0:
        if args.poly:
            raise ConfigError(
                "explicit chains take the polynomial from the chain file, not --poly"
            )
        if chain_poly is None:
            raise ConfigError("the quotient chain file defines no 'poly'")
        f = chain_poly
        quotients = chain_quotients
    else:
        if not args.poly:
            raise ConfigError("--poly is required for torus groups")
        f = parse_laurent(args.poly, rank)
        quotients = _torus_quotients(args, rank)[1]
    if f.is_zero:
        raise ConfigError("the zero element has no principal algebraic action")

    grid = DEFAULT_GRIDS.get(rank) if args.grid is None else args.grid
    if rank >= 2:  # the reference is the quadrature's, on an even grid >= 4
        spectral._check_quadrature(f, grid)
    if rank >= 1:
        spectral._check_grid(rank, grid)
    # the trace checks the quotient order and refuses an over-cap chain
    # before any grid is scanned
    trace = algebraic.entropy_trace(f, quotients)
    certificate = None
    if rank >= 1:
        certificate, quadrature = spectral._torus_scan(f, grid)
        try:  # Jensen's on rank 1, else the quadrature; a refused Jensen's is a caveat
            estimate = spectral.mahler_jensen(f) if rank == 1 else quadrature()
            trace.reference_value = estimate.value
        except (spectral.NearZeroError, ValueError) as exc:
            if rank == 1:
                trace.caveats.append(f"no reference value: {exc}")

    obj = {
        "f_description": trace.f_description,
        "reference_value": trace.reference_value,
        "records": trace.records,
        "skipped": [r._asdict() for r in trace.skipped],
    }
    if trace.caveats:
        obj["caveats"] = trace.caveats
    obj["certificate"] = asdict(certificate) if certificate is not None else None
    obj["residual"] = trace.residual
    _report(args, obj, "records", ("label", "d", "log_fix_count", "h_n"))

    summary = sys.stdout if args.out else sys.stderr
    if trace.records:
        last = trace.records[-1]
        summary.write(f"final h = {last.h_n!r} at {last.label} (d={last.d})\n")
    if trace.skipped:
        summary.write(f"skipped {len(trace.skipped)} non-invertible quotient(s)\n")
    if trace.residual is not None:
        summary.write(f"residual |h_N - reference| = {trace.residual!r}\n")
    for note in trace.caveats:
        summary.write(f"caveat: {note}\n")

    if certificate is not None and certificate.verdict == "not_invertible_suspected":
        return EXIT_NOT_INVERTIBLE
    if not trace.records:
        return EXIT_NOT_INVERTIBLE
    return EXIT_OK


def run_subshift(args) -> int:
    try:
        with open(args.sft, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read SFT file {args.sft!r}: {exc}") from None
    try:
        sft = subshift_mod.SubshiftSFT.from_json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {args.sft!r}: {exc.msg} (at position {exc.pos})"
        ) from None
    except ValueError as exc:
        raise ConfigError(f"invalid SFT in {args.sft!r}: {exc}") from None

    lengths = _parse_range(args.quotients)
    table = subshift_mod.subshift_entropy_table(sft, lengths, _parse_int_list(args.budget))
    obj = {"sft": sft.to_json_obj(), "rows": table.rows}
    _report(args, obj, "rows", ("n", "budget", "count", "h_n", "method"))
    return EXIT_OK


def run_mahler(args) -> int:
    if args.group not in GROUP_RANKS:
        raise ConfigError("mahler supports the torus groups Z, Z2, Z3, Z4")
    rank = GROUP_RANKS[args.group]
    f = parse_laurent(args.poly, rank)
    grid = DEFAULT_GRIDS[rank] if args.grid is None else args.grid

    # Jensen's and the grid's refusals come before the scan; |F| near zero drops a row
    estimates = [spectral.mahler_jensen(f)] if rank == 1 else []
    spectral._check_quadrature(f, grid)
    certificate, quadrature = spectral._torus_scan(f, grid)
    try:
        estimates.append(quadrature())
    except spectral.NearZeroError:
        pass

    obj = {
        "poly": f.render(),
        "estimates": [(e.method, e.value, e.error_bound, e.evaluations, e.grid)
                      for e in estimates],
        "certificate": asdict(certificate),
    }
    columns = ("method", "value", "error_bound", "evaluations", "grid")
    _report(args, obj, "estimates", columns)

    summary = sys.stdout if args.out else sys.stderr
    for e in estimates:
        bound = (f"error bound {e.error_bound:.3e}" if e.error_bound is not None
                 else f"no error bound: certificate {certificate.verdict}")
        summary.write(f"{e.method}: {e.value!r} ({bound})\n")
    summary.write(f"certificate: {certificate.verdict}\n")
    if certificate.verdict == "not_invertible_suspected":
        return EXIT_NOT_INVERTIBLE
    return EXIT_OK


def run_sofic_check(args) -> int:
    rank, _, chain_quotients = _resolve_group(args)
    if rank == 0:
        count_quotients, quotients = len(chain_quotients), chain_quotients
    else:
        count_quotients, quotients = _torus_quotients(args, rank)
    elements = [normalize_element(e, rank) for e in _parse_elements(args.elements, rank)]
    # the ordered pairs of distinct elements, counted before any is listed
    count = len(elements) ** 2 - sum(c * c for c in Counter(elements).values())
    if not count:
        raise ConfigError("need at least two distinct elements for defect checks")
    # and the rows, before any quotient is built
    if count * count_quotients > SOFIC_ROW_CAP:
        raise ResourceGuardError(
            f"{count * count_quotients} report rows ({count} pairs of elements, "
            f"{count_quotients} quotients) exceed the cap {SOFIC_ROW_CAP}"
        )
    pairs = [(s, t) for s in elements for t in elements if s != t]
    quotients = list(quotients)

    needed = set(elements) | {element_mul(s, t, rank) for s, t in pairs}
    d = max(q.size for q in quotients)
    if d * len(needed) > SOFIC_MAP_CAP:
        raise ResourceGuardError(
            f"a sofic map of {len(needed)} elements on {d} cosets exceeds the cap "
            f"{SOFIC_MAP_CAP} permutation entries"
        )

    # every needed element is a product of listed ones, so taking their
    # images refuses an unknown generator before the first byte
    for q in quotients:
        for e in elements:
            q.index(e)
    # one string per element, shared by its rows
    names = {e: render_word(e) if rank == 0 else str(e) if rank == 1 else
             "|".join(map(str, e)) for e in elements}

    def rows():
        for q in quotients:
            sigma = sofic_map_from_quotient(q, needed)
            for s, t in pairs:
                yield (q.label, q.size, names[s], names[t],
                       multiplicative_defect(sigma, s, t), freeness_defect(sigma, s, t))
            del sigma  # freed before the next quotient's map is built

    columns = ("label", "d", "s", "t", "multiplicative_defect", "freeness_defect")
    _report(args, {"group": args.group, "rows": rows()}, "rows", columns)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "algebraic": run_algebraic,
        "subshift": run_subshift,
        "mahler": run_mahler,
        "sofic-check": run_sofic_check,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ResourceGuardError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return EXIT_RESOURCE


def console_entry():
    sys.exit(main())
