"""Command-line interface.

Subcommands: `verify` (randomized exact identity suites), `constants`
(exact bound-constant tables), `bsd` (classical domain tables), and
`spectrum` (radial eigensolver runs).  `bsd --family` hands its --p/--q/--m
to `DomainFactor`, which checks them against the family table in
`domains`; `spectrum` reads the flags each radial model takes from
`_MODELS`.  Exit codes: 0 on success, 1 when a verification suite reports
failures, 2 on usage errors (a bad domain or model parameter prints
`error: ...`), and 1 when the reader of stdout closes it early.
`--format json` prints one compact document per call.  The parser is built
on the first call and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (
    BoundConstant,
    c_k,
    c_pq,
    constant_table,
    middle_k_bound,
    middle_pq_bound,
    spectral_bound,
)
from .domains import (
    _FAMILIES,
    BoundReport,
    DomainFactor,
    classical_table,
    degree_k_bounds,
    domain,
    parse_product,
)
from .harness import SUITES, RandomSpec, run_all, run_suite
from .spectral import (
    MAX_CELLS,
    ComplexHyperbolic,
    RealHyperbolic,
    check_grid,
    lambda0_estimate,
    richardson_extrapolate,
)


# The radial models and the flags each takes, its required flag first.
_MODELS = {
    "rh": (RealHyperbolic, ("m", "curvature")),
    "ch": (ComplexHyperbolic, ("n",)),
}
_MODEL_FLAGS = ("m", "n", "curvature")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _radius_list(text: str) -> list[float]:
    try:
        values = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad radius list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("radius list is empty")
    if len(values) > 1 and len(set(values)) < 2:
        raise argparse.ArgumentTypeError("extrapolation needs two distinct radii")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    returns a fresh Namespace and error only prints and exits, so a call
    leaves nothing behind for the next one."""
    parser = argparse.ArgumentParser(
        prog="kahlerlab",
        description="Exact pointwise Kaehler identities, spectral bound "
        "constants, domain tables, and radial eigensolves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run randomized exact verification suites"
    )
    p_verify.add_argument("--dim", type=int, default=2, help="complex dimension")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument(
        "--suite", choices=("all",) + SUITES, default="all"
    )
    p_verify.add_argument("--coeff-bound", type=int, default=3)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")

    p_const = sub.add_parser("constants", help="exact bound-constant tables")
    p_const.add_argument("--dim", type=int, required=True)
    p_const.add_argument("--k", type=int, default=None)
    p_const.add_argument("--p", type=int, default=None)
    p_const.add_argument("--q", type=int, default=None)
    p_const.add_argument(
        "--eta-sq", type=_fraction, default=None, metavar="A/B",
        help="squared sup norm of the potential 1-form; adds a spectral column",
    )
    p_const.add_argument("--format", choices=("csv", "json", "md"), default="csv")

    p_bsd = sub.add_parser(
        "bsd", help="bounded symmetric domain invariant and bound tables"
    )
    p_bsd.add_argument("--family", choices=tuple(_FAMILIES))
    p_bsd.add_argument("--p", type=int, default=None)
    p_bsd.add_argument("--q", type=int, default=None)
    p_bsd.add_argument("--m", type=int, default=None)
    p_bsd.add_argument(
        "--product", default=None, metavar="SPEC",
        help="product label such as 'I(2,3)xIV(5)'",
    )
    p_bsd.add_argument("--ricci", type=_fraction, default=Fraction(1), metavar="A/B")
    p_bsd.add_argument(
        "--degrees", action="store_true",
        help="emit the per-degree bound rows for the selected domain",
    )
    p_bsd.add_argument("--format", choices=("csv", "json", "md"), default="csv")

    p_spec = sub.add_parser("spectrum", help="radial Dirichlet eigensolves")
    p_spec.add_argument("--model", choices=tuple(_MODELS), required=True)
    p_spec.add_argument("--m", type=int, default=None, help="real dimension (rh)")
    p_spec.add_argument("--n", type=int, default=None, help="complex dimension (ch)")
    p_spec.add_argument(
        "--curvature", type=float, default=None,
        help="curvature scale for the rh model",
    )
    p_spec.add_argument("--radius", type=float, default=None)
    p_spec.add_argument(
        "--grid", type=int, required=True,
        help=f"number of cells, at most {MAX_CELLS}",
    )
    p_spec.add_argument(
        "--radii", type=_radius_list, default=None, metavar="R1,R2,...",
        help="several radii; at least two enable extrapolation",
    )
    p_spec.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _emit_table(rows: list[dict], fmt: str) -> None:
    """Rows are ordered dicts of printable values."""
    if fmt == "json":
        print(json.dumps(rows))
        return
    if not rows:
        return
    headers = list(rows[0])
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([row[h] for h in headers])
        return
    widths = {
        h: max(len(h), *(len(str(row[h])) for row in rows)) for h in headers
    }
    print("| " + " | ".join(h.ljust(widths[h]) for h in headers) + " |")
    print("| " + " | ".join("-" * widths[h] for h in headers) + " |")
    for row in rows:
        print(
            "| " + " | ".join(str(row[h]).ljust(widths[h]) for h in headers) + " |"
        )


def _cmd_verify(args) -> int:
    try:
        rspec = RandomSpec(seed=args.seed, coeff_bound=args.coeff_bound)
        if args.suite == "all":
            reports = run_all(args.dim, args.trials, rspec)
        else:
            reports = [run_suite(args.suite, args.dim, args.trials, rspec)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([rep.to_dict() for rep in reports]))
    else:
        for rep in reports:
            status = "pass" if rep.passed else f"FAIL ({len(rep.failures)})"
            print(
                f"{rep.suite:14s} n={rep.n} trials={rep.trials} "
                f"seed={rep.seed} {status} [{rep.elapsed:.2f}s]"
            )
            for f in rep.failures[:20]:
                print(f"  {f.identity} trial={f.trial}")
                print(f"    inputs: {f.inputs}")
                print(f"    lhs:    {f.lhs}")
                print(f"    rhs:    {f.rhs}")
            if len(rep.failures) > 20:
                print(f"  ... and {len(rep.failures) - 20} more")
    return 0 if all(rep.passed for rep in reports) else 1


def _constant_rows(args, parser) -> list[BoundConstant]:
    n = args.dim
    if args.k is not None and (args.p is not None or args.q is not None):
        parser.error("give either --k or --p/--q, not both")
    if (args.p is None) != (args.q is None):
        parser.error("--p and --q must be given together")
    if args.k is not None:
        k = args.k
        if k == n:
            return [
                BoundConstant(
                    label="middle degree, adjacent-degree substitute",
                    value=middle_k_bound(n), n=n, k=k,
                )
            ]
        return [BoundConstant(label="degree", value=c_k(n, k), n=n, k=k)]
    if args.p is not None:
        p, q = args.p, args.q
        if p + q == n:
            return [
                BoundConstant(
                    label="middle degree, adjacent-bidegree substitute",
                    value=middle_pq_bound(n, p, q), n=n, p=p, q=q,
                )
            ]
        return [BoundConstant(label="bidegree", value=c_pq(n, p, q), n=n, p=p, q=q)]
    return constant_table(n)


def _constant_item(row: BoundConstant, eta_sq: Optional[Fraction]) -> dict:
    item = {
        "n": row.n,
        "k": "" if row.k is None else row.k,
        "p": "" if row.p is None else row.p,
        "q": "" if row.q is None else row.q,
        "label": row.label,
        "constant": str(row.value),
        "approx": f"{float(row.value):.12g}",
    }
    if eta_sq is not None:
        bound = row.with_eta(eta_sq)
        item["spectral_bound"] = str(bound)
        item["spectral_approx"] = f"{float(bound):.12g}"
    return item


def _cmd_constants(args, parser) -> int:
    try:
        rows = _constant_rows(args, parser)
        printable = [_constant_item(row, args.eta_sq) for row in rows]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_table(printable, args.format)
    return 0


def _select_domain(args, parser):
    if args.family is not None and args.product is not None:
        parser.error("give either --family or --product, not both")
    if args.product is not None:
        return parse_product(args.product)
    if args.family is not None:
        return domain(DomainFactor(args.family, p=args.p, q=args.q, m=args.m))
    if any(v is not None for v in (args.p, args.q, args.m)):
        parser.error("--p/--q/--m need --family")
    return None


def _bsd_row(report: BoundReport) -> dict:
    return {
        "domain": report.spec.label(),
        "dim": report.dimension,
        "ricci": str(report.ricci),
        "length_sq": str(report.length_sq),
        "hsc_bound": str(report.hsc_bound),
        "lambda0_bound": str(report.lambda0),
        "lambda0_approx": f"{float(report.lambda0):.12g}",
        "eta_min_sq": str(report.eta_sq),
    }


def _cmd_bsd(args, parser) -> int:
    try:
        spec = _select_domain(args, parser)
        if spec is None:
            if args.degrees:
                parser.error("--degrees needs a specific domain")
            reports = classical_table(ricci=args.ricci)
            _emit_table([_bsd_row(rep) for rep in reports], args.format)
            return 0
        if args.degrees:
            label = spec.label()
            rows = [
                {
                    "domain": label,
                    "k": row.k,
                    "bound": str(row.value),
                    "approx": f"{float(row.value):.12g}",
                    "route": row.route,
                }
                for row in degree_k_bounds(spec, args.ricci)
            ]
            _emit_table(rows, args.format)
            return 0
        _emit_table([_bsd_row(BoundReport.build(spec, args.ricci))], args.format)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_spectrum(args, parser) -> int:
    build, flags = _MODELS[args.model]
    given = {flag: getattr(args, flag) for flag in _MODEL_FLAGS
             if getattr(args, flag) is not None}
    if flags[0] not in given:
        parser.error(f"{args.model} model needs --{flags[0]}")
    if not given.keys() <= set(flags):
        parser.error(f"{args.model} model takes only "
                     + ", ".join(f"--{flag}" for flag in flags))
    radii = args.radii
    if radii is None:
        if args.radius is None:
            parser.error("give --radius or --radii")
        radii = [args.radius]
    elif args.radius is not None:
        parser.error("give either --radius or --radii, not both")
    try:
        model = build(**given)
        for radius in radii:  # refuse any radius before the first solve
            check_grid(model, radius, args.grid)
        results = [lambda0_estimate(model, radius, args.grid) for radius in radii]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    extrapolated = None
    if len(results) >= 2:
        extrapolated = richardson_extrapolate(
            [(res.radius, res.scaled_lambda) for res in results]
        )
    payload = {
        "model": model.describe(),
        "grid": args.grid,
        "samples": [res.to_dict() for res in results],
        "extrapolated_scaled": extrapolated,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for res in results:
            print(
                f"R={res.radius:g} N={res.cells} lambda={res.lambda_min:.12g} "
                f"scaled={res.scaled_lambda:.12g} residual={res.residual:.3e} "
                f"bracket=[{res.bracket_lo!r}, {res.bracket_hi!r}]"
            )
        if extrapolated is not None:
            print(f"extrapolated scaled bottom: {extrapolated:.12g}")
    return 0


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "constants":
        return _cmd_constants(args, parser)
    if args.command == "bsd":
        return _cmd_bsd(args, parser)
    return _cmd_spectrum(args, parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = cli_dispatch(argv)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
    except BrokenPipeError:
        # The reader stopped early (`| head`).  Point stdout at devnull so
        # the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
