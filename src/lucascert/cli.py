"""Command-line frontend.

Subcommands:

  expand    print exact Q coefficients of a catalog series
  opinfo    singularities, indicial polynomial, MOM verdict, good primes,
            p-curvature nilpotency of an operator JSON file
  certify   build and print a Lucas-type certificate as JSON
  casebook  run congruence cases over primes and emit a report table

Exit codes: 0 success, 1 input error, 2 verification failure,
3 height-bound violation.  All numeric output is exact.
"""

import argparse
import json
import sys
from functools import cache

from .casebook import batch_report, case_ids, results_to_csv
from .catalog import default_catalog, load_catalog, lookup, gen_terms
from .certify import MAX_T, assemble_certificate
from .diffop import (
    diffop_from_json,
    good_primes,
    indicial_at_zero,
    is_mom,
    p_curvature,
    reduce_op_mod_p,
    singularities,
)
from .errors import (
    BadPrime,
    BudgetExceeded,
    HeightBoundViolated,
    LucascertError,
    NoCycleFound,
    NotSeriesExpandable,
    ParseError,
    ReconstructionFailed,
)
from .fields import is_prime
from .poly import format_poly

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_BOUND = 3

DEFAULT_PRIMES = (3, 5, 7, 11, 13)
MIN_T = 64
MAX_BOUND = 10**7  # good-prime budget: a 10 MB sieve and 664579 primes
# expand budget, in terms: at this order f2, apery and f3 print in 2-4 s and 80-115 MB
# (2 cores, CPython 3.11.7); at 20000, f2 alone takes 85 s and 1 GB
MAX_EXPAND_T = 5000
# budget of the power kinds binom_power and f_r, in r^2 T^3: a term C(2n,n)^r has about 0.6 r n
# digits, printed in time quadratic in them, so T terms take about 2.6e-12 r^2 T^3 s (same host):
# 3 s at r = 3, T = 5000 and 34 s at r = 150, T = 900. The r T^2 digits alone do not bound it:
# near r T^2 = 1.6e7, r = 64 takes 1.3 s and r = 4096 8.2 s
MAX_EXPAND_R2T3 = 3**2 * MAX_EXPAND_T**3
# budget of the sum kinds cy210 and cy26, whose terms are O(j) big-binomial sums, so their
# cost grows about as T^3: 400 terms print in about 0.3 s and 1600 take 8-16 s (same host), and
# 5000 would take several minutes
MAX_SUM_EXPAND_T = 400
# opinfo p-curvature budget, in p: on apery it takes about 0.013 s at p = 101 and 0.05 s at 211,
# and grows about as p^1.8 (2 cores, CPython 3.11.7), so p = 401 takes 0.17 s; a random order-16
# delta-operator with degree-16 coefficients takes 0.12 s at p = 5. The order is not budgeted yet
MAX_CURVATURE_P = 211
# casebook budget, in p, for the cases whose work grows with p. Measured as the first case run in a
# fresh process (2 cores, CPython 3.11.7, three runs each): independence, which expands its series
# over Q to T = max(300, p + 8), is the costly one at 0.03-0.08 s at p = 61 and 67, 0.04-0.06 s at 71
# and 0.10-0.17 s at 101; 210 and 26, which walk jp + 1 exact binomials for each a(jp) but reduce
# them mod p before any power, take 0.010-0.016 s at 61 to 71 and 0.021-0.027 s at 101
MAX_CASEBOOK_P = 67


def _parse_primes(text, allow_two):
    primes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            p = int(part)
        except ValueError:
            raise ParseError(f"{part!r} is not an integer", location="--primes") from None
        if not is_prime(p):
            raise BadPrime(f"{p} is not prime")
        if p == 2 and not allow_two:
            raise BadPrime("p = 2 is excluded by default; pass --allow-two to include it")
        primes.append(p)
    return primes


def _load_cat(args):
    if args.catalog:
        return load_catalog(args.catalog)
    return default_catalog()


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_expand(args):
    if args.T > MAX_EXPAND_T:
        raise BudgetExceeded(f"expand needs T = {args.T} series terms, above the budget MAX_EXPAND_T = {MAX_EXPAND_T}")
    entry = lookup(args.series, _load_cat(args))
    if entry.kind in ("binom_power", "f_r") and entry.r**2 * args.T**3 > MAX_EXPAND_R2T3:
        raise BudgetExceeded(f"expand needs T = {args.T} terms of the power series {args.series!r} with r = {entry.r}, "
                             f"r^2 T^3 above the budget MAX_EXPAND_R2T3 = {MAX_EXPAND_R2T3}")
    if entry.kind in ("cy210", "cy26") and args.T > MAX_SUM_EXPAND_T:
        raise BudgetExceeded(f"expand needs T = {args.T} terms of the sum series {args.series!r}, "
                             f"above the budget MAX_SUM_EXPAND_T = {MAX_SUM_EXPAND_T}")
    terms = gen_terms(entry, args.T)
    # CPython 3.11+ refuses int -> str past 4300 digits by default; f2 passes it near n = 3600,
    # and the budget above is what bounds the work instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        strs = [str(t) for t in terms]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    _emit(args, json.dumps(strs) if args.format == "json" else "\n".join(strs))
    return EXIT_OK


def cmd_opinfo(args):
    if args.bound > MAX_BOUND:
        raise ParseError(f"good-prime bound {args.bound} exceeds the limit {MAX_BOUND}", location="--bound")
    primes = _parse_primes(args.primes, args.allow_two)
    for p in primes:
        if p > MAX_CURVATURE_P:
            raise BudgetExceeded(f"p-curvature at p = {p} is above the budget MAX_CURVATURE_P = {MAX_CURVATURE_P}")
    with open(args.operator, "r", encoding="utf-8") as fh:
        L = diffop_from_json(fh.read())
    report = singularities(L)
    try:
        ind = format_poly(indicial_at_zero(L), var="x")
    except NotSeriesExpandable:  # 0 is an irregular singular point
        ind = None
    info = {
        "order": L.order,
        "basis": L.basis,
        "mom": is_mom(L),
        "indicial": ind,
        "finite_singular_factors": [
            {"factor": format_poly(fac), "regular": reg}
            for fac, reg in report.finite_points
        ],
        "infinity": report.infinity,
        "count_r": report.count_r,
        "good_primes": good_primes(L, args.bound),
    }
    curvature = {}
    for p in primes:
        try:
            _, nilpotent = p_curvature(reduce_op_mod_p(L, p))
            curvature[str(p)] = nilpotent
        except BadPrime as exc:
            curvature[str(p)] = f"bad prime: {exc}"
    info["p_curvature_nilpotent"] = curvature
    if args.format == "json":
        _emit(args, json.dumps(info, indent=2))
    else:
        factors = [f"{e['factor']}{'' if e['regular'] else ' (irregular)'}" for e in info["finite_singular_factors"]]
        lines = [
            f"order: {info['order']} ({info['basis']}-basis)",
            f"MOM at zero: {'yes' if info['mom'] else 'no'}",
            f"indicial at zero: {'none, 0 is an irregular singular point' if ind is None else ind}",
            f"finite singular factors: {', '.join(factors) or 'none'}",
            f"infinity: {info['infinity']}",
            f"count r: {info['count_r']}",
            f"good primes <= {args.bound}: {info['good_primes']}",
            "p-curvature nilpotent: "
            + ", ".join(f"p={p}: {v}" for p, v in curvature.items()),
        ]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_certify(args):
    entry = lookup(args.series, _load_cat(args))
    cert = assemble_certificate(entry, args.p, T=args.T)
    _emit(args, json.dumps(cert.to_json(), indent=2))
    if cert.verified_to <= 2 * cert.bound:
        # two height-<= bound rational functions agreeing past order 2 bound are equal; this one is not pinned
        print(f"warning: verified_to = {cert.verified_to} is at most 2*bound = {2 * cert.bound}, "
              f"so the check does not pin A among rational functions of height <= {cert.bound}", file=sys.stderr)
    return EXIT_OK


def cmd_casebook(args):
    primes = _parse_primes(args.primes, args.allow_two)
    ids = case_ids() if args.cases == ["all"] else args.cases
    for case_id in (c for c in ids if c in ("210", "26", "independence")):
        for p in primes:
            if p > MAX_CASEBOOK_P:
                raise BudgetExceeded(f"casebook {case_id} at p = {p} is above the budget MAX_CASEBOOK_P = {MAX_CASEBOOK_P}")
    results = batch_report(primes, ids)
    warned = [r for r in results if r.excluded]
    if args.format == "csv":
        _emit(args, results_to_csv(results))
    else:
        _emit(args, json.dumps([r.to_json() for r in results], indent=2))
    for r in warned:
        why = r.note.partition(" excluded: ")[2]
        print(f"warning: case {r.case_id} at p={r.p} excluded: {why}", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error; here 2 means verification failure
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@cache  # one parser a process: main parses every argv with it
def build_parser():
    parser = _Parser(
        prog="lucascert",
        description="Holonomic series mod p: operator analysis and Lucas-type certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def series_options(sp, T_default):
        sp.add_argument("series")
        default = T_default or "from the height bound"
        sp.add_argument("--T", type=int, default=T_default,
                        help=f"truncation order (>= {MIN_T}; default {default})")
        sp.add_argument("--catalog", help="path to a catalog JSON file")

    def prime_options(sp):
        sp.add_argument(
            "--primes",
            default=",".join(str(p) for p in DEFAULT_PRIMES),
            help="comma-separated primes (2 excluded unless --allow-two)",
        )
        sp.add_argument("--allow-two", action="store_true", help="permit p = 2")

    def output_options(sp, formats=None):
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("expand", help=f"print exact coefficients of a catalog series (at most {MAX_EXPAND_T} terms)")
    series_options(sp, 512)
    output_options(sp, ("text", "json"))
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("opinfo", help=f"analyze an operator JSON file (p-curvature at p <= {MAX_CURVATURE_P})")
    sp.add_argument("operator", help="path to operator JSON")
    sp.add_argument("--bound", type=int, default=20, help=f"good-prime search bound (<= {MAX_BOUND})")
    prime_options(sp)
    output_options(sp, ("text", "json"))
    sp.set_defaults(fn=cmd_opinfo)

    sp = sub.add_parser("certify", help=f"build a Lucas-type certificate (at most {MAX_T} terms)")
    sp.add_argument("-p", type=int, required=True, dest="p")
    # without an explicit --T the library picks an order from the height bound
    series_options(sp, None)
    output_options(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("casebook", help=f"run worked-example cases (210, 26 and independence at p <= {MAX_CASEBOOK_P})")
    sp.add_argument("cases", nargs="+", help=f"case ids ({', '.join(case_ids())}) or 'all'")
    prime_options(sp)
    output_options(sp, ("json", "csv"))
    sp.set_defaults(fn=cmd_casebook)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code
    T = getattr(args, "T", None)
    if T is not None and T < MIN_T:
        print(f"error: --T must be >= {MIN_T}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except HeightBoundViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ReconstructionFailed, NoCycleFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (LucascertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
