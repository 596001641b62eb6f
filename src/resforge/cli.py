"""Command line front end.

    resforge symbol --p 7 --n 2 7 7
    resforge symbol --p 13 --n 3 --method all --format json 2 13
    resforge verify theorem --p 7
    resforge verify all --seed 42 --format json
    resforge table --p 5 --n 4 --vmax 1 --format csv

Flags fall back to environment variables RESFORGE_P, RESFORGE_F,
RESFORGE_N, RESFORGE_SEED and RESFORGE_FORMAT.  symbol and table take
no precision or enumeration bound: the rank-one routes read only the
valuation and the residue of each unit, and enumerate nothing.  Exit
status is 0 on success, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import PrecisionError
from .extension import corrected_symbol, get_engine
from .fields import MuScalar, _check_n, field_make
from .padic import LocalField
from .symbols import (crosscheck, delta_route_symbol, power_residue_symbol,
                      symbol_value_str)
from .verify import SUITES, _sweep_inputs, run_suite


def _add_field_args(sub):
    sub.add_argument("--p", type=int, help="residue characteristic (prime)")
    sub.add_argument("--f", type=int, help="residue degree (default 1)")
    sub.add_argument("--n", type=int,
                     help="order of the root-of-unity group, dividing q - 1")


_FORMATS = {"symbol": ("human", "json"), "verify": ("human", "json"),
            "table": ("human", "json", "csv")}

# each command's flags that fall back to RESFORGE_<name>, besides --format:
# flag -> (name, cast, default); main reads a variable only for a flag left out
_FIELD_ENV = {"p": ("P", int, None), "f": ("F", int, 1), "n": ("N", int, None)}
_ENV = {"symbol": _FIELD_ENV, "table": _FIELD_ENV, "verify": {"seed": ("SEED", int, 0)}}


class _UsageError(Exception):
    """A bad flag value; main reports it on one line and exits 2."""


def _field(args) -> LocalField:
    """The field named by --p/--f, after checking that --n divides q - 1."""
    if args.p is None:
        raise _UsageError("--p is required (or set RESFORGE_P)")
    if args.n is None:
        raise _UsageError("--n is required (or set RESFORGE_N)")
    try:
        lf = LocalField(args.p, args.f)
        _check_n(lf.field, args.n)
    except ValueError as exc:
        raise _UsageError(exc) from None
    return lf


def _cmd_symbol(args) -> int:
    lf = _field(args)
    try:
        a = lf.parse(args.a)
        b = lf.parse(args.b)
    except (ValueError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.method == "all":
            rep = crosscheck(lf, a, b, args.n)
            if args.format == "json":
                print(rep.to_json())
            else:
                val = symbol_value_str(lf, MuScalar(args.n, rep.direct))
                print(f"({args.a}, {args.b})_{args.n} over Q_{args.p}"
                      + (f"^{args.f}" if args.f > 1 else ""))
                print(f"  direct:    zeta^{rep.direct} = {val}")
                print(f"  muset:     zeta^{rep.muset}")
                print(f"  extension: zeta^{rep.extension}")
                print(f"  agree: {rep.agree}   ({rep.micros} us)")
            return 0 if rep.agree else 1
        if args.method == "direct":
            s = power_residue_symbol(lf, a, b, args.n)
        elif args.method == "muset":
            s = delta_route_symbol(lf, a, b, args.n)
        else:
            s = corrected_symbol(a, b, get_engine(lf, args.n))
        if args.format == "json":
            print(json.dumps({"p": args.p, "f": args.f, "n": args.n,
                              "a": args.a, "b": args.b,
                              "method": args.method, "exp": s.exp,
                              "value": symbol_value_str(lf, s)}))
        else:
            print(f"zeta^{s.exp} = {symbol_value_str(lf, s)}")
        return 0
    except (ValueError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_verify(args) -> int:
    kw = {"seed": args.seed}
    if args.p:
        for p in args.p:
            try:
                field_make(p)
            except ValueError as exc:   # not prime, or q beyond the bound
                raise _UsageError(exc) from None
        if 2 in args.p and args.suite in ("zolotarev", "all"):
            raise _UsageError("the zolotarev suite needs odd primes")
        kw["ps"] = tuple(args.p)
    result = run_suite(args.suite, **kw)
    if args.format == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        rows = result["suites"] if args.suite == "all" else [result]
        for r in rows:
            for c in r["checks"]:
                status = "PASS" if c["failures"] == 0 else "FAIL"
                print(f"{status}  {r['suite']}.{c['name']}: "
                      f"{c['cases'] - c['failures']}/{c['cases']}")
                if c["failures"]:
                    print(f"      first counterexample: "
                          f"{json.dumps(c['first_counterexample'])}")
        print("OK" if result["ok"] else "FAILED")
    return 0 if result["ok"] else 1


def _cmd_table(args) -> int:
    lf = _field(args)
    if args.vmax < 0:
        raise _UsageError(f"--vmax must be >= 0, not {args.vmax}")
    side = (lf.q - 1) * (2 * args.vmax + 1)
    if side * side > args.max_entries:
        print(f"error: grid of {side * side} entries exceeds "
              f"--max-entries {args.max_entries}", file=sys.stderr)
        return 2
    inputs = list(_sweep_inputs(lf, range(-args.vmax, args.vmax + 1)))
    rows = []
    for a in inputs:
        for b in inputs:
            s = power_residue_symbol(lf, a, b, args.n)
            rows.append((a.as_str(), b.as_str(), s.exp, symbol_value_str(lf, s)))
    if args.format == "json":
        print(json.dumps([{"p": args.p, "f": args.f, "n": args.n,
                           "a": a, "b": b, "exp": e, "value": val}
                          for a, b, e, val in rows]))
    else:  # csv (and the human default)
        print("p,f,n,a,b,exp,value")
        for a, b, e, val in rows:
            print(f"{args.p},{args.f},{args.n},{a},{b},{e},{val}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resforge",
        description="n-th power residue symbols over unramified p-adic fields, "
                    "three ways")
    subs = parser.add_subparsers(dest="command", required=True)

    sym = subs.add_parser("symbol", help="compute one symbol")
    _add_field_args(sym)
    sym.add_argument("--method", choices=("direct", "muset", "extension", "all"),
                     default="all")
    sym.add_argument("a")
    sym.add_argument("b")
    sym.set_defaults(func=_cmd_symbol)

    ver = subs.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=(*SUITES, "all"))
    ver.add_argument("--p", type=int, action="append",
                     help="restrict sweep primes (repeatable)")
    ver.add_argument("--seed", type=int)
    ver.set_defaults(func=_cmd_verify)

    tab = subs.add_parser("table", help="emit a symbol table over a grid")
    _add_field_args(tab)
    tab.add_argument("--vmax", type=int, default=1,
                     help="valuations range over [-vmax, vmax]")
    tab.add_argument("--max-entries", type=int, default=250_000)
    tab.set_defaults(func=_cmd_table)

    for name, sub in subs.choices.items():
        sub.add_argument("--format", choices=_FORMATS[name])
    args = parser.parse_args(argv)
    env = {**_ENV[args.command], "format": ("FORMAT", str, "human")}
    for dest, (name, cast, default) in env.items():
        if getattr(args, dest) is None:
            raw = os.environ.get(f"RESFORGE_{name}")
            try:
                setattr(args, dest, default if raw is None else cast(raw))
            except ValueError:
                print(f"error: bad RESFORGE_{name}={raw!r}", file=sys.stderr)
                return 2
    # argparse checks a given --format only, so a RESFORGE_FORMAT value is
    # checked here, against the choices of the invoked command
    if args.format not in _FORMATS[args.command]:
        print(f"error: bad RESFORGE_FORMAT={args.format!r}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
