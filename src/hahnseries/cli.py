"""Command-line front end.

One subcommand per major operation, a session fixed by (rank, default
precision, seed), text or JSON output.  Exit codes: 0 on success, 2 on
a violated precondition or domain error, 3 on a parse error.  For a
fixed argv and seed the output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from .analytic import (
    OneUnit,
    exp,
    hensel_lift,
    log,
    newton_puiseux,
    rational_reconstruct,
    unit_pow,
)
from .coeffs import Coefficient, Place
from .errors import HahnSeriesError, ParseError
from .exponents import as_exponent
from .parsing import parse_expression
from .series import AtLeast, SeriesPolynomial, TruncatedSeries
from .valuation_spaces import (
    BasisFamily,
    ScalarField,
    build_restricted_exp,
    chain_basis_build,
    inclusion_exclusion_approx,
    is_valuation_independent,
    mult_inclusion_exclusion,
    optimal_approx,
    skeleton_of,
    tensor_basis,
)

__all__ = ["main"]


def _parse_prec(text, rank):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        parts = [Fraction(p.strip()) for p in text[1:-1].split(",")]
    else:
        parts = [Fraction(text)]
    if len(parts) == 1 and rank > 1:
        parts = parts + [Fraction(0)] * (rank - 1)
    return as_exponent(tuple(parts), rank)


def _seeded_candidates(seed):
    """Infinite distinct nonzero rationals in a seed-determined order."""
    rng = random.Random(seed)
    block = 0
    while True:
        lo, hi = 20 * block + 1, 20 * (block + 1)
        values = [q for n in range(lo, hi + 1) for q in (n, -n)]
        rng.shuffle(values)
        yield from values
        block += 1


class _Session:
    def __init__(self, args):
        self.rank = args.rank
        self.prec = _parse_prec(args.prec, args.rank)
        self.seed = args.seed
        self.json = args.json

    def parse(self, text):
        return parse_expression(text, rank=self.rank, default_prec=self.prec)

    def parse_series(self, text) -> TruncatedSeries:
        value = self.parse(text)
        if isinstance(value, SeriesPolynomial):
            raise ParseError("expected a series, got a polynomial in y")
        if isinstance(value, Coefficient):
            value = TruncatedSeries([(self.prec.scale(0), value)], self.prec)
        return value

    def parse_poly(self, text) -> SeriesPolynomial:
        value = self.parse(text)
        if not isinstance(value, SeriesPolynomial):
            raise ParseError("expected a polynomial in y")
        return value

    def parse_coeff(self, text) -> Coefficient:
        value = self.parse(text)
        if not isinstance(value, Coefficient):
            raise ParseError("expected a coefficient expression")
        return value

    def candidate_specs(self, variables):
        if self.seed is None:
            return [(v, None) for v in variables]
        return [
            (v, _seeded_candidates(self.seed + 1000 * i))
            for i, v in enumerate(variables)
        ]


def _scalar_field(text) -> ScalarField:
    if not text:
        return ScalarField.rationals()
    return ScalarField.with_vars(int(p) for p in text.split(",") if p.strip())


def _vmin_json(v):
    if isinstance(v, AtLeast):
        return {"v_min": str(v.bound), "exact": False}
    return {"v_min": str(v), "exact": True}


def _place_json(p: Place):
    return {"var": p.var, "q": str(p.q)}


def _emit(session, command, result_text, result_json, out):
    if session.json:
        payload = {"command": command, "status": "ok", "result": result_json}
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(result_text)
    print(text, file=out)


# -- command handlers --------------------------------------------------------


def _cmd_exp(session, args, out):
    u = exp(session.parse_series(args.expr))
    _emit(session, "exp", [str(u.series)], {"series": str(u.series)}, out)


def _cmd_log(session, args, out):
    result = log(OneUnit(session.parse_series(args.expr)))
    _emit(session, "log", [str(result)], {"series": str(result)}, out)


def _cmd_pow(session, args, out):
    u = OneUnit(session.parse_series(args.expr))
    result = unit_pow(u, Fraction(args.exponent))
    _emit(session, "pow", [str(result.series)], {"series": str(result.series)}, out)


def _cmd_hensel(session, args, out):
    q = session.parse_poly(args.poly)
    r = session.parse_series(args.root)
    root = hensel_lift(q, r)
    _emit(session, "hensel", [str(root)], {"series": str(root)}, out)


def _cmd_puiseux(session, args, out):
    q = session.parse_poly(args.poly)
    roots = newton_puiseux(q, session.prec, branch_count=args.branches)
    _emit(
        session,
        "puiseux",
        [str(r) for r in roots] or ["(no branches)"],
        {"roots": [str(r) for r in roots]},
        out,
    )


def _cmd_ratrec(session, args, out):
    f = session.parse_series(args.expr)
    result = rational_reconstruct(f, args.deg_num, args.deg_den)
    if result is None:
        _emit(session, "ratrec", ["none"], {"found": False, "num": None, "den": None}, out)
        return
    num, den = result
    _emit(
        session,
        "ratrec",
        [f"num = {num}", f"den = {den}"],
        {"found": True, "num": str(num), "den": str(den)},
        out,
    )


def _cmd_vmin(session, args, out):
    v = session.parse_series(args.expr).v_min()
    _emit(session, "vmin", [str(v)], _vmin_json(v), out)


def _cmd_specialize(session, args, out):
    f = session.parse_series(args.expr)
    image = f.specialize(Place(args.var, Fraction(args.value)))
    _emit(session, "specialize", [str(image)], {"series": str(image)}, out)


def _cmd_splitneg(session, args, out):
    neg, ring = session.parse_series(args.expr).split_neg()
    _emit(
        session,
        "splitneg",
        [f"negative: {neg}", f"ring: {ring}"],
        {"negative": str(neg), "ring": str(ring)},
        out,
    )


def _cmd_indep(session, args, out):
    family = [session.parse_series(e) for e in args.exprs]
    result = is_valuation_independent(family, _scalar_field(args.scalar_vars))
    if result.independent:
        _emit(
            session,
            "indep",
            ["independent"],
            {"independent": True, "witness": None, "value": None},
            out,
        )
    else:
        witness = [str(w) for w in result.witness]
        _emit(
            session,
            "indep",
            [f"dependent at value {result.value}", "witness: " + ", ".join(witness)],
            {"independent": False, "witness": witness, "value": str(result.value)},
            out,
        )


def _cmd_optapprox(session, args, out):
    f = session.parse_series(args.expr)
    basis = BasisFamily(
        [session.parse_series(b) for b in args.basis],
        _scalar_field(args.scalar_vars),
    )
    approx = optimal_approx(f, basis)
    _emit(session, "optapprox", [str(approx)], {"series": str(approx)}, out)


def _inclexcl_report(session, command, h, result, out):
    lines = [f"h = {h}"]
    for key, s in result.summands.items():
        lines.append(f"sigma {key}: {s}")
    lines.append("places: " + "; ".join(str(p) for p in result.places))
    _emit(
        session,
        command,
        lines,
        {
            "h": str(h),
            "summands": {k: str(s) for k, s in result.summands.items()},
            "places": [_place_json(p) for p in result.places],
        },
        out,
    )


def _cmd_inclexcl(session, args, out):
    f = session.parse_series(args.expr)
    variables = [int(v) for v in args.vars.split(",")]
    result = inclusion_exclusion_approx(f, session.candidate_specs(variables))
    _inclexcl_report(session, "inclexcl", result.h, result, out)


def _cmd_multinclexcl(session, args, out):
    u = OneUnit(session.parse_series(args.expr))
    variables = [int(v) for v in args.vars.split(",")]
    result = mult_inclusion_exclusion(u, session.candidate_specs(variables))
    _inclexcl_report(session, "multinclexcl", result.h.series, result, out)


def _cmd_skeleton(session, args, out):
    family = [session.parse_series(e) for e in args.exprs]
    skel = skeleton_of(family, _scalar_field(args.scalar_vars))
    lines = []
    classes = []
    for cls in skel.classes:
        leading = [str(c) for c in cls.leading]
        lines.append(
            f"value {cls.value}: dim {cls.dim}, leading [" + ", ".join(leading) + "]"
        )
        classes.append({"value": str(cls.value), "dim": cls.dim, "leading": leading})
    _emit(session, "skeleton", lines, {"classes": classes}, out)


def _cmd_tensor(session, args, out):
    basis = BasisFamily(
        [session.parse_series(b) for b in args.basis],
        _scalar_field(args.scalar_vars),
    )
    coeffs = [session.parse_coeff(c) for c in args.coeff]
    small = _scalar_field(args.small_scalar_vars)
    result = tensor_basis(basis, coeffs, small)
    entries = [str(e) for e in result.entries]
    _emit(session, "tensor", entries, {"entries": entries}, out)


def _cmd_restexp(session, args, out):
    additive = BasisFamily(
        [session.parse_series(b) for b in args.additive], ScalarField.rationals()
    )
    units = [OneUnit(session.parse_series(u)) for u in args.unit]
    mapping = build_restricted_exp(additive, units)
    lines = []
    pairs = []
    for b, image in zip(mapping.additive.entries, mapping.images):
        lines.append(f"{b}  ->  {image.series}")
        pairs.append({"basis": str(b), "image": str(image.series)})
    applied = None
    if args.apply is not None:
        applied = str(mapping.apply(session.parse_series(args.apply)).series)
        lines.append(f"image: {applied}")
    _emit(session, "restexp", lines, {"pairs": pairs, "applied": applied}, out)


def _cmd_chain(session, args, out):
    stage_vars = []
    stage_inputs = []
    for stage in args.stage:
        head, _, tail = stage.partition("|")
        stage_vars.append(
            frozenset(int(v) for v in head.split(",") if v.strip())
        )
        stage_inputs.append(
            [session.parse_series(e) for e in tail.split(";") if e.strip()]
        )
    bases = chain_basis_build(stage_inputs, stage_vars)
    lines = []
    stages = []
    for i, basis in enumerate(bases):
        entries = [str(e) for e in basis.entries]
        lines.append(f"stage {i}: " + (", ".join(entries) if entries else "(empty)"))
        stages.append(entries)
    _emit(session, "chain", lines, {"stages": stages}, out)


class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction such as -1/3 as a value, not an option.

    Subcommand parsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hahnseries",
        description="Exact truncated Hahn/Puiseux series computations",
    )
    parser.add_argument("--prec", default="10", help="default precision exponent")
    parser.add_argument("--rank", type=int, default=1, help="exponent group rank")
    parser.add_argument("--seed", type=int, default=None, help="randomize place candidates")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="exponential of an infinitesimal")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("log", help="logarithm of a 1-unit")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_log)

    p = sub.add_parser("pow", help="rational power of a 1-unit")
    p.add_argument("expr")
    p.add_argument("exponent")
    p.set_defaults(handler=_cmd_pow)

    p = sub.add_parser("hensel", help="lift an approximate root")
    p.add_argument("poly")
    p.add_argument("--root", required=True)
    p.set_defaults(handler=_cmd_hensel)

    p = sub.add_parser("puiseux", help="fractional-exponent roots")
    p.add_argument("poly")
    p.add_argument("--branches", type=int, default=None)
    p.set_defaults(handler=_cmd_puiseux)

    p = sub.add_parser("ratrec", help="rational reconstruction")
    p.add_argument("expr")
    p.add_argument("--deg-num", type=int, required=True)
    p.add_argument("--deg-den", type=int, required=True)
    p.set_defaults(handler=_cmd_ratrec)

    p = sub.add_parser("vmin", help="minimal support valuation")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_vmin)

    p = sub.add_parser("specialize", help="apply a place coefficientwise")
    p.add_argument("expr")
    p.add_argument("--var", type=int, required=True)
    p.add_argument("--value", required=True)
    p.set_defaults(handler=_cmd_specialize)

    p = sub.add_parser("splitneg", help="split off the negative-exponent part")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_splitneg)

    p = sub.add_parser("indep", help="valuation independence test")
    p.add_argument("exprs", nargs="+")
    p.add_argument("--scalar-vars", default="")
    p.set_defaults(handler=_cmd_indep)

    p = sub.add_parser("optapprox", help="optimal approximation from a basis")
    p.add_argument("expr")
    p.add_argument("--basis", action="append", required=True)
    p.add_argument("--scalar-vars", default="")
    p.set_defaults(handler=_cmd_optapprox)

    p = sub.add_parser("inclexcl", help="inclusion-exclusion approximation")
    p.add_argument("expr")
    p.add_argument("--vars", required=True)
    p.set_defaults(handler=_cmd_inclexcl)

    p = sub.add_parser("multinclexcl", help="multiplicative inclusion-exclusion")
    p.add_argument("expr")
    p.add_argument("--vars", required=True)
    p.set_defaults(handler=_cmd_multinclexcl)

    p = sub.add_parser("skeleton", help="value-graded skeleton of a family")
    p.add_argument("exprs", nargs="+")
    p.add_argument("--scalar-vars", default="")
    p.set_defaults(handler=_cmd_skeleton)

    p = sub.add_parser("tensor", help="tensor a basis with a coefficient basis")
    p.add_argument("--basis", action="append", required=True)
    p.add_argument("--coeff", action="append", required=True)
    p.add_argument("--scalar-vars", default="")
    p.add_argument("--small-scalar-vars", default="")
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("restexp", help="build a restricted exponential")
    p.add_argument("--additive", action="append", required=True)
    p.add_argument("--unit", action="append", required=True)
    p.add_argument("--apply", default=None)
    p.set_defaults(handler=_cmd_restexp)

    p = sub.add_parser("chain", help="iterated basis extension along stages")
    p.add_argument("--stage", action="append", required=True,
                   help="format: vars|expr;expr  (vars comma separated)")
    p.set_defaults(handler=_cmd_chain)

    return parser


def _error_payload(command, code, err):
    return json.dumps(
        {
            "command": command or "",
            "status": "error",
            "error": {"code": code, "message": str(err)},
        },
        indent=2,
        sort_keys=True,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    close_out = False
    if args.out:
        out = open(args.out, "w")
        close_out = True
    try:
        session = _Session(args)
        args.handler(session, args, out)
        return 0
    except ParseError as err:
        if args.json:
            print(_error_payload(args.command, 3, err), file=out)
        else:
            print(f"parse error: {err}", file=sys.stderr)
        return 3
    except (HahnSeriesError, ZeroDivisionError, ValueError) as err:
        if args.json:
            print(_error_payload(args.command, 2, err), file=out)
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if close_out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
