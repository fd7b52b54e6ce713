"""Command-line front end.

    nsq bracket  [-n DIM] "EXPR1" "EXPR2"        Poisson bracket
    nsq hamvf    [-n DIM] [--gauge-b1] "EXPR"    canonical Hamiltonian field
    nsq quantize [-n DIM] --map q1|q2 "EXPR"     operator image
    nsq reduce   [-n DIM] "EXPR"                 restriction to the slice
    nsq verify   [-n DIM] [--seed N] [--format text|json] [--gauge-seed N] --suite NAME

Exit codes: 0 success / all cases passed, 1 verification failure, 2 usage
or parse error.  NSQ_SEED serves as the seed fallback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import EngineError, IndexRangeError
from .packed import check_dimension
from .parsing import parse_observable, print_observable
from .quantization import format_operator, make_q1, make_q2, quantize
from .reports import DEFAULT_N, DEFAULT_SEED

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def dimension(text: str) -> int:
    """argparse type for -n: a positive integer, else a usage error."""
    try:
        return check_dimension(int(text))
    except IndexRangeError as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a word starting with '-' as a positional
    unless its first two characters name an option, so that an EXPR such as
    "-qh(1,1)" needs no '--' before it; subcommand parsers are built with it too."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string[:2] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


class _SuiteHelp(argparse.HelpFormatter):
    """Names the registered suites in the help of --suite, importing
    nsq.suites only when that help is shown."""

    def _get_help_string(self, action):
        if action.dest != "suite":
            return super()._get_help_string(action)
        from .suites import SUITES

        return f"one of: {', '.join(sorted(SUITES))}, all"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nsq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, **kwargs)
        p.add_argument("-n", type=dimension, default=DEFAULT_N, help="dimension (default 2)")
        return p

    p = command("bracket", "Poisson bracket of two expressions")
    p.add_argument("exprs", nargs=2, metavar="EXPR")

    p = command("hamvf", "canonical Hamiltonian vector field")
    p.add_argument("--gauge-b1", action="store_true", help="slice-tangent representative")
    p.add_argument("expr", metavar="EXPR")

    p = command("quantize", "operator image under a quantization map")
    p.add_argument("--map", choices=["q1", "q2"], required=True)
    p.add_argument("expr", metavar="EXPR")

    p = command("reduce", "restriction to the 2n-dimensional slice")
    p.add_argument("expr", metavar="EXPR")

    p = command("verify", "run a named verification suite", formatter_class=_SuiteHelp)
    p.add_argument("--seed", type=int, default=None, help="suite seed")
    p.add_argument("--format", choices=["text", "json"], default="text", help="output encoding")
    p.add_argument("--suite", required=True, help="the suite to run")
    p.add_argument("--gauge-seed", type=int, default=None, help="inject gauge terms")

    return parser


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NSQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"nsq: invalid NSQ_SEED {env!r}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    return DEFAULT_SEED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    try:
        if args.command == "bracket":
            from .poisson import bracket

            f = parse_observable(args.exprs[0], args.n)
            g = parse_observable(args.exprs[1], args.n)
            print(print_observable(bracket(f, g)))
            return 0

        if args.command == "hamvf":
            from .forms import ham_vf
            from .subbundle import gauge_fix_for_B1

            f = parse_observable(args.expr, args.n)
            x = gauge_fix_for_B1(f) if args.gauge_b1 else ham_vf(f)
            print(repr(x))
            return 0

        if args.command == "quantize":
            f = parse_observable(args.expr, args.n)
            qmap = make_q1(args.n) if args.map == "q1" else make_q2(args.n)
            print(format_operator(quantize(qmap, f)))
            return 0

        if args.command == "reduce":
            from .subbundle import reduce_observable

            f = parse_observable(args.expr, args.n)
            print(repr(reduce_observable(f)))
            return 0

        if args.command == "verify":
            from .suites import SUITES, run_suite

            seed = _seed_of(args)
            names = sorted(SUITES) if args.suite == "all" else [args.suite]
            if any(name not in SUITES for name in names):
                print(f"nsq: unknown suite {args.suite!r}", file=sys.stderr)
                return USAGE_ERROR
            failed = False
            for name in names:
                report = run_suite(name, n=args.n, seed=seed, gauge_seed=args.gauge_seed)
                if args.format == "json":
                    print(report.to_json())
                else:
                    print(report.summary())
                failed = failed or not report.all_passed
            return VERIFY_FAILURE if failed else 0

    except EngineError as exc:
        print(f"nsq: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"nsq: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
