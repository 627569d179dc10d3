"""Command-line front end.

Subcommands:
  classify    full verdict with evidence trail (JSON or text)
  enumerate   series truncation of Q(x,y) from the walk enumeration
  matrix      the sigma-distance matrices M1 and M2
  verify      functional-equation and closed-form checks on seeded
              random weightings
  phase-scan  exact boundary-contact ratios over an (a, b) grid (CSV)

Exit codes: 0 success, 1 malformed input or a usage error, 2 a
verification contract failed (coverage gap, evidence failure, oracle
mismatch).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import classifier, enumerator, model as model_mod
from .errors import ContractViolation, ModelFormatError, QuadwalkError
from .exactalg import TooManyDigits, rat_from_string, rat_to_string
from .model import build_model, model_from_json, model_to_json, Weighting
from .sigmadist import build_matrices

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CONTRACT = 2

WEIGHT_POOL = [
    Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
    Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
]


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return model_from_json(fh.read())
    except OSError as e:
        raise ModelFormatError(f"cannot read model file: {e}") from None


def _emit(args, payload: dict):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


def cmd_classify(args) -> int:
    m = _load_model(args.model)
    result = classifier.classify(m)
    payload = {"model": json.loads(model_to_json(m)), **result.to_jsonable()}
    _emit(args, payload)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    m = _load_model(args.model)
    series = enumerator.enumerate_walks(m, args.order)
    if args.format == "json":
        print(series.to_json())
    else:
        for n, term in enumerate(series.terms):
            body = " + ".join(
                f"{rat_to_string(c)}*x^{i}*y^{j}" for (i, j), c in sorted(term.items())
            )
            print(f"t^{n}: {body if body else '0'}")
    return EXIT_OK


def cmd_matrix(args) -> int:
    m = _load_model(args.model)
    M1, M2 = build_matrices(m)
    payload = {"M1": M1.to_jsonable(), "M2": M2.to_jsonable()}
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Seeded random weightings: the functional equation residual must
    vanish, and solvable families must match the enumeration."""
    rng = random.Random(args.seed)
    report = {"seed": args.seed, "order": args.order, "checks": []}
    for tag in ("S1", "S2", "S3", "S4", "S5"):
        ss = model_mod.StepSet(tag)
        for trial in range(args.trials):
            d = {s: rng.choice(WEIGHT_POOL) for s in ss.steps}
            a = rng.choice(WEIGHT_POOL)
            b = rng.choice(WEIGHT_POOL)
            m = build_model(ss, Weighting(d=d, a=a, b=b))
            series = enumerator.enumerate_walks(m, args.order)
            enumerator.functional_equation_residual(m, series)
            report["checks"].append(
                {"model": json.loads(model_to_json(m)), "residual": "0"}
            )
    # closed-form families against the enumeration
    for tag, a, b in (("S1", 3, Fraction(3, 2)), ("S2", 2, 2), ("S3", 2, 2)):
        m = model_mod.make_model(tag, a=a, b=b)
        res = classifier.verify_closed_form(m, order=args.order)
        report["checks"].append(
            {"model": json.loads(model_to_json(m)), "closed_form": res["verdict"]}
        )
    _emit(args, report)
    return EXIT_OK


def cmd_phase_scan(args) -> int:
    """Exact contact ratios [t^n]Q(1,0)/[t^n]Q(1,1) and the y-axis
    counterpart over an (a, b) grid; raw exploratory data only."""
    m0 = _load_model(args.model)
    rows = ["a,b,n,ratio_x_axis,ratio_y_axis"]
    for a in args.a_values:
        for b in args.b_values:
            m = build_model(
                m0.stepset, Weighting(d=dict(m0.weighting.d), a=a, b=b)
            )
            series = enumerator.enumerate_walks(m, args.order)
            q10 = [sum(layer.values(), Fraction(0))
                   for layer in enumerator.specialize(series, "y=0")]
            q01 = [sum(layer.values(), Fraction(0))
                   for layer in enumerator.specialize(series, "x=0")]
            q11 = enumerator.specialize(series, "x=1,y=1")
            for n in range(args.order + 1):
                rx = q10[n] / q11[n]
                ry = q01[n] / q11[n]
                rows.append(
                    f"{_decimal(a)},{_decimal(b)},{n},{_decimal(rx)},{_decimal(ry)}"
                )
    print("\n".join(rows))
    return EXIT_OK


def _decimal(r: Fraction) -> str:
    """Exact rational rendered as a decimal string, truncated to 12 places."""
    if r.denominator == 1:
        return str(r.numerator)
    sign = "-" if r < 0 else ""
    r = abs(r)
    whole, rem = divmod(r.numerator, r.denominator)
    out = []
    for _ in range(12):
        if rem == 0:
            break
        rem *= 10
        digit, rem = divmod(rem, r.denominator)
        out.append(str(digit))
    return f"{sign}{whole}." + ("".join(out) if out else "0")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_BAD_INPUT, not argparse's 2, which
    here means a verification contract failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


MAX_ORDER = 100   # the enumeration is cubic in the order
MAX_TRIALS = 100
MAX_SCAN_VALUES = 16  # per phase-scan axis: one enumeration per grid point


def _int_range(lo, hi):
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"expected an integer from {lo} to {hi}, got {n}")
        return n
    return parse


def _rationals(text):
    try:
        values = [rat_from_string(s) for s in text.split(",")]
    except TooManyDigits as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}")
    if len(values) > MAX_SCAN_VALUES:
        raise argparse.ArgumentTypeError(
            f"expected at most {MAX_SCAN_VALUES} values, got {len(values)}")
    return values


_FLAGS = {
    "--model": dict(required=True, help="path to a model JSON file"),
    "--order": dict(type=_int_range(0, MAX_ORDER), default=12,
                    help=f"series truncation order N, 0..{MAX_ORDER} (default 12)"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--seed": dict(type=int, default=0, help="seed for randomized weight grids"),
    "--trials": dict(type=_int_range(1, MAX_TRIALS), default=2,
                     help=f"random weightings per step set, 1..{MAX_TRIALS} (default 2)"),
    "--a-values": dict(type=_rationals, default="1/2,1,2,3",
                       help=f"comma-separated rationals for a, at most {MAX_SCAN_VALUES}"),
    "--b-values": dict(type=_rationals, default="1/2,1,2,3",
                       help=f"comma-separated rationals for b, at most {MAX_SCAN_VALUES}"),
}

# each subcommand takes exactly the flags its handler reads
_COMMANDS = (
    ("classify", cmd_classify, "classify Q(x,y) with evidence", ("--model", "--format")),
    ("enumerate", cmd_enumerate, "series truncation of Q(x,y)",
     ("--model", "--order", "--format")),
    ("matrix", cmd_matrix, "sigma-distance matrices M1, M2", ("--model", "--format")),
    ("verify", cmd_verify, "oracle checks on random weightings",
     ("--order", "--seed", "--trials", "--format")),
    ("phase-scan", cmd_phase_scan, "contact-ratio scan over (a,b)",
     ("--model", "--order", "--a-values", "--b-values")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadwalk",
        description="Exact classification of quadrant-walk generating "
        "functions with interacting boundaries (genus-zero step sets).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ContractViolation as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except QuadwalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
