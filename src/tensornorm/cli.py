"""Command line surface.

Subcommands::

    norm <setup-file> <element>     exact norm plus the audited reduction
    reduce [--fields F] <element>   the certified reduced representation
    decompose [--fields F] <element>  pure part, tail and their values
    check <suite> [options]         run a property suite and report

Exit codes: 0 on success or confirmed expectations, 1 when a property
suite records failures, 2 on usage, parse or configuration errors
(including scenario shapes beyond ``generators.MAX_TERMS``,
``MAX_DEGREE`` and ``MAX_VARS`` variables per side, and towers beyond
``closure.MAX_FIELD_ORDER``), 3 on an
internal error: any other exception, an invariant check included, is
reported on one line without a traceback.  Diagnostics go to stderr;
reports and results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .parsing import (FieldSetup, ParseError, format_tensor_elem,
                      format_tower_elem, load_field_setup, parse_field_setup)
from .generators import ScenarioConfig
from .suites import SUITE_NAMES, run_suite
from .tensor import orthogonalize_left, pure_decompose

_DEFAULT_SETUP = """
p 2
levels 4
base closure
K t:-1
L u:-1
"""


def _render_reduction(rep) -> str:
    lines = [f"reduced representation ({len(rep.terms)} terms):"]
    for i, (u, v) in enumerate(rep.terms, 1):
        uv, vv = u.value(), v.value()
        lines.append(f"  term {i}: u = {format_tower_elem(u)} | "
                     f"v = {format_tower_elem(v)} | "
                     f"|u| = {uv} | |v| = {vv} | |u||v| = {uv * vv}")
    lines.append(f"certified norm: {rep.norm}")
    return "\n".join(lines)


def _load_setup(path) -> FieldSetup:
    if path is None:
        return parse_field_setup(_DEFAULT_SETUP)
    return load_field_setup(path)


def _parse_vars(text):
    out = []
    for item in text.split(","):
        name, _, expo = item.strip().partition(":")
        if not expo:
            raise ValueError(f"variable {item!r} needs name:exponent")
        out.append((name, Fraction(expo)))
    return tuple(out)


def _cmd_norm(args):
    setup = _load_setup(args.setup)
    z = setup.parse_element(args.element)
    rep = orthogonalize_left(z)
    print(rep.norm)
    print(_render_reduction(rep))
    return 0


def _cmd_reduce(args):
    setup = _load_setup(args.fields)
    z = setup.parse_element(args.element)
    print(_render_reduction(orthogonalize_left(z)))
    return 0


def _cmd_decompose(args):
    setup = _load_setup(args.fields)
    z = setup.parse_element(args.element)
    d = pure_decompose(z)
    print(f"alpha: {d.alpha}")
    print(f"beta: {d.beta}")
    print(f"norm: {d.alpha * d.beta}")
    print(f"pure part: {format_tensor_elem(d.pure_part)}")
    print(f"tail: {format_tensor_elem(d.tail)}")
    return 0


def _cmd_check(args):
    base = None if args.base in (None, "closure") else int(args.base)
    scenario = ScenarioConfig(
        p=args.p,
        level_bound=args.levels,
        k_vars=_parse_vars(args.k_vars),
        l_vars=_parse_vars(args.l_vars),
        trials=args.trials,
        seed=args.seed,
        max_terms=args.max_terms,
        max_degree=args.max_degree,
        base_level=base,
        offset=args.offset,
    )
    report = run_suite(args.suite, scenario)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensornorm",
        description="exact tensor-product norms over valued function fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="norm of an element, with audit")
    p_norm.add_argument("setup", help="field setup file")
    p_norm.add_argument("element", help="tensor expression, e.g. 't (x) 1 + 1 (x) u'")
    p_norm.set_defaults(func=_cmd_norm)

    p_reduce = sub.add_parser("reduce", help="certified reduced representation")
    p_reduce.add_argument("--fields", help="field setup file (default: built-in)")
    p_reduce.add_argument("element")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_dec = sub.add_parser("decompose", help="pure decomposition")
    p_dec.add_argument("--fields", help="field setup file (default: built-in)")
    p_dec.add_argument("element")
    p_dec.set_defaults(func=_cmd_decompose)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", choices=SUITE_NAMES)
    p_check.add_argument("--trials", type=int, default=300)
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--offset", type=int, default=0,
                         help="absolute index of the first trial (replays)")
    p_check.add_argument("--p", type=int, default=2)
    p_check.add_argument("--levels", type=int, default=4,
                         help="closure lattice level bound")
    p_check.add_argument("--base", default="closure",
                         help="base field: 'closure' or a lattice level")
    p_check.add_argument("--k-vars", default="t:-1",
                         help="comma list of name:exponent, e.g. 't:-1,s:-1/2'")
    p_check.add_argument("--l-vars", default="u:-1")
    p_check.add_argument("--max-terms", type=int, default=4)
    p_check.add_argument("--max-degree", type=int, default=4)
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable report")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
