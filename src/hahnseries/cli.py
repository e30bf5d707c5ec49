"""Command-line front end.

One subcommand per major operation, a session fixed by (rank, default
precision, seed), text or JSON output.  Exit codes: 0 on success, 2 on
a violated precondition or domain error, 3 on a parse error.  For a
fixed argv and seed the output is byte-identical across runs.

Each subcommand has a handler ``_cmd_<name>(session, args)`` that does
no I/O and returns ``(text_lines, json_result)``.  ``main`` alone writes:
it opens and closes ``--out``, wraps ``json_result`` in the report
envelope (``command`` comes from argparse), and maps a ``ParseError`` to
exit code 3 and any other ``HahnSeriesError`` or a ``ZeroDivisionError``
to 2.  Results go to stdout or ``--out``; a text-mode error goes to
stderr, a ``--json`` error report to where the result would have gone.

Handlers reach the layers only through the package's exports
(``hs.exp``), so a subcommand loads just the layers it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import re
import sys
from fractions import Fraction

import hahnseries as hs

from .errors import HahnSeriesError, ParseError, PreconditionError

__all__ = ["main"]


def __getattr__(name):
    # The package's exports, never cached here: perfbench's binding test reads
    # cli.exp, cli.unit_pow, cli.parse_expression and cli.tensor_basis.
    if name not in hs.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(hs, name)


def _number(kind, text, what):
    """kind(text), with a malformed value (a zero denominator too) raised
    as a PreconditionError that names the option."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as err:
        raise PreconditionError(f"{what}: {err}") from None


def _int_list(text, what):
    """Comma-separated integers; empty items are skipped."""
    return [_number(int, p, what) for p in text.split(",") if p.strip()]


def _parse_prec(text, rank):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        parts = [_number(Fraction, p.strip(), "--prec") for p in text[1:-1].split(",")]
    else:
        parts = [_number(Fraction, text, "--prec")]
    if len(parts) == 1 and rank > 1:
        parts = parts + [Fraction(0)] * (rank - 1)
    return hs.as_exponent(tuple(parts), rank)


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
        if args.rank < 1:
            raise PreconditionError("--rank must be a positive integer")
        self.rank = args.rank
        self.prec = _parse_prec(args.prec, args.rank)
        self.seed = args.seed

    def parse(self, text):
        return hs.parse_expression(text, rank=self.rank, default_prec=self.prec)

    def parse_series(self, text):
        value = self.parse(text)
        if isinstance(value, hs.SeriesPolynomial):
            raise ParseError("expected a series, got a polynomial in y")
        if isinstance(value, hs.Coefficient):
            value = hs.TruncatedSeries([(self.prec.scale(0), value)], self.prec)
        return value

    def parse_poly(self, text):
        value = self.parse(text)
        if not isinstance(value, hs.SeriesPolynomial):
            raise ParseError("expected a polynomial in y")
        return value

    def parse_coeff(self, text):
        value = self.parse(text)
        if not isinstance(value, hs.Coefficient):
            raise ParseError("expected a coefficient expression")
        return value

    def parse_basis(self, texts, scalar_vars=""):
        entries = [self.parse_series(t) for t in texts]
        return hs.BasisFamily(entries, _scalar_field(scalar_vars))

    def candidate_specs(self, vars_text):
        """The --vars list, each variable with its seeded candidate order."""
        variables = [_number(int, v, "--vars") for v in vars_text.split(",")]
        if self.seed is None:
            return [(v, None) for v in variables]
        return [
            (v, _seeded_candidates(self.seed + 1000 * i))
            for i, v in enumerate(variables)
        ]


def _scalar_field(text, what="--scalar-vars"):
    if not text:
        return hs.ScalarField.rationals()
    return hs.ScalarField.with_vars(_int_list(text, what))


# -- command handlers --------------------------------------------------------


def _one_series(s):
    """The result of a command whose answer is one series."""
    return [str(s)], {"series": str(s)}


def _cmd_exp(session, args):
    return _one_series(hs.exp(session.parse_series(args.expr)).series)


def _cmd_log(session, args):
    return _one_series(hs.log(hs.OneUnit(session.parse_series(args.expr))))


def _cmd_pow(session, args):
    u = hs.OneUnit(session.parse_series(args.expr))
    power = _number(Fraction, args.exponent, "pow exponent")
    return _one_series(hs.unit_pow(u, power).series)


def _cmd_hensel(session, args):
    q = session.parse_poly(args.poly)
    return _one_series(hs.hensel_lift(q, session.parse_series(args.root)))


def _cmd_puiseux(session, args):
    q = session.parse_poly(args.poly)
    roots = hs.newton_puiseux(q, session.prec, branch_count=args.branches)
    roots = [str(r) for r in roots]
    return roots or ["(no branches)"], {"roots": roots}


def _cmd_ratrec(session, args):
    f = session.parse_series(args.expr)
    result = hs.rational_reconstruct(f, args.deg_num, args.deg_den)
    if result is None:
        return ["none"], {"found": False, "num": None, "den": None}
    num, den = result
    lines = [f"num = {num}", f"den = {den}"]
    return lines, {"found": True, "num": str(num), "den": str(den)}


def _cmd_vmin(session, args):
    v = session.parse_series(args.expr).v_min()
    if isinstance(v, hs.AtLeast):
        return [str(v)], {"v_min": str(v.bound), "exact": False}
    return [str(v)], {"v_min": str(v), "exact": True}


def _cmd_specialize(session, args):
    f = session.parse_series(args.expr)
    place = hs.Place(args.var, _number(Fraction, args.value, "--value"))
    return _one_series(f.specialize(place))


def _cmd_splitneg(session, args):
    neg, ring = session.parse_series(args.expr).split_neg()
    return [f"negative: {neg}", f"ring: {ring}"], {"negative": str(neg), "ring": str(ring)}


def _cmd_indep(session, args):
    family = [session.parse_series(e) for e in args.exprs]
    result = hs.is_valuation_independent(family, _scalar_field(args.scalar_vars))
    if result.independent:
        return ["independent"], {"independent": True, "witness": None, "value": None}
    witness = [str(w) for w in result.witness]
    return (
        [f"dependent at value {result.value}", "witness: " + ", ".join(witness)],
        {"independent": False, "witness": witness, "value": str(result.value)},
    )


def _cmd_optapprox(session, args):
    f = session.parse_series(args.expr)
    basis = session.parse_basis(args.basis, args.scalar_vars)
    return _one_series(hs.optimal_approx(f, basis))


def _inclexcl_report(h, result):
    summands = {k: str(s) for k, s in result.summands.items()}
    lines = [f"h = {h}"]
    lines += [f"sigma {k}: {s}" for k, s in summands.items()]
    lines.append("places: " + "; ".join(str(p) for p in result.places))
    places = [{"var": p.var, "q": str(p.q)} for p in result.places]
    return lines, {"h": str(h), "summands": summands, "places": places}


def _cmd_inclexcl(session, args):
    f = session.parse_series(args.expr)
    result = hs.inclusion_exclusion_approx(f, session.candidate_specs(args.vars))
    return _inclexcl_report(result.h, result)


def _cmd_multinclexcl(session, args):
    u = hs.OneUnit(session.parse_series(args.expr))
    result = hs.mult_inclusion_exclusion(u, session.candidate_specs(args.vars))
    return _inclexcl_report(result.h.series, result)


def _cmd_skeleton(session, args):
    family = [session.parse_series(e) for e in args.exprs]
    skel = hs.skeleton_of(family, _scalar_field(args.scalar_vars))
    lines = []
    classes = []
    for cls in skel.classes:
        leading = [str(c) for c in cls.leading]
        lines.append(
            f"value {cls.value}: dim {cls.dim}, leading [" + ", ".join(leading) + "]"
        )
        classes.append({"value": str(cls.value), "dim": cls.dim, "leading": leading})
    return lines, {"classes": classes}


def _cmd_tensor(session, args):
    basis = session.parse_basis(args.basis, args.scalar_vars)
    coeffs = [session.parse_coeff(c) for c in args.coeff]
    small = _scalar_field(args.small_scalar_vars, "--small-scalar-vars")
    entries = [str(e) for e in hs.tensor_basis(basis, coeffs, small).entries]
    return entries, {"entries": entries}


def _cmd_restexp(session, args):
    additive = session.parse_basis(args.additive)
    units = [hs.OneUnit(session.parse_series(u)) for u in args.unit]
    mapping = hs.build_restricted_exp(additive, units)
    lines = []
    pairs = []
    for b, image in zip(mapping.additive.entries, mapping.images):
        lines.append(f"{b}  ->  {image.series}")
        pairs.append({"basis": str(b), "image": str(image.series)})
    applied = None
    if args.apply is not None:
        applied = str(mapping.apply(session.parse_series(args.apply)).series)
        lines.append(f"image: {applied}")
    return lines, {"pairs": pairs, "applied": applied}


def _cmd_chain(session, args):
    stage_vars = []
    stage_inputs = []
    for stage in args.stage:
        head, _, tail = stage.partition("|")
        stage_vars.append(frozenset(_int_list(head, "--stage")))
        stage_inputs.append(
            [session.parse_series(e) for e in tail.split(";") if e.strip()]
        )
    bases = hs.chain_basis_build(stage_inputs, stage_vars)
    stages = [[str(e) for e in basis.entries] for basis in bases]
    lines = [
        f"stage {i}: " + (", ".join(entries) if entries else "(empty)")
        for i, entries in enumerate(stages)
    ]
    return lines, {"stages": stages}


class _Parser(argparse.ArgumentParser):
    """Reads a token such as -1/3 or -t^2 as a value, not an option.

    argparse consults the matcher only for tokens that are not registered
    options, so -h still prints help and an unknown --flag is still an
    error.  Subcommand parsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


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


def _failure(err):
    """Exit code, JSON report and text lines of a domain error."""
    code = 3 if isinstance(err, ParseError) else 2
    report = {"status": "error", "error": {"code": code, "message": str(err)}}
    return code, report, [("parse error" if code == 3 else "error") + f": {err}"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, result = args.handler(_Session(args), args)
        code, report = 0, {"status": "ok", "result": result}
    except (HahnSeriesError, ZeroDivisionError) as err:
        code, report, lines = _failure(err)
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        # --out is opened only to be written: a text-mode error leaves it be
        if args.out and (code == 0 or args.json):
            try:
                out = stack.enter_context(open(args.out, "w"))
            except OSError as err:
                code, report, lines = _failure(PreconditionError(f"--out: {err}"))
        if code and not args.json:
            out = sys.stderr
        if args.json:
            import json

            report["command"] = args.command
            lines = [json.dumps(report, indent=2, sort_keys=True)]
        print("\n".join(lines), file=out)
        return code


if __name__ == "__main__":
    sys.exit(main())
