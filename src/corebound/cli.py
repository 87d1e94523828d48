"""Command-line front end.

Subcommands:
  local      one subset-local probability query
  global     whole-graph methods at a single parameter point
  sweep      CSV/JSON table over a range of expected edge counts
  breakdown  scan for the first expected edge count where a formula fails
  oracle     exhaustive desk-scale exact values

Exit status: 0 success, 2 invalid arguments, 3 output I/O failure.  A value
that fails a check after parsing prints one ``error: ...`` line on stderr.  An
``--out`` file is written to a temp file and renamed onto its path, so a
failed write leaves no partial file and an existing file unchanged.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import shutil
import sys

from . import montecarlo, sweep as sweep_mod
from .local_prob import gilbert_prob
from .numerics import ProbValue, choose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

LOCAL_METHODS = (*sweep_mod.FORMULA_METHODS, "gilbert", "mc")
GLOBAL_METHODS = sweep_mod.SWEEP_METHODS


def _cell(x) -> str:
    """CSV text of a row value: a flag as 1/0, a float as its shortest
    round-trip repr (byte-stable across runs), anything else as str."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _column_name(method: str) -> str:
    return method.replace("-", "_")


def core_order(text: str) -> int:
    """argparse type of --r: an int >= 1."""
    r = int(text)
    if r < 1:
        raise argparse.ArgumentTypeError(f"core order must be >= 1, got {r}")
    return r


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, required=True, help="edge cardinality (>= 2)")
    parser.add_argument("--r", type=core_order, default=1, help="core order (default 1)")


def _add_mc(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")


def _resolve_p(n: int, k: int, p: float | None, e: float | None) -> float:
    if (p is None) == (e is None):
        raise ValueError("give exactly one of --p or --e-u/--e-v")
    if p is None:
        m = choose(n, k)
        if m == 0:
            return 0.0
        p = e / m
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    return p


def _emit(args, rows: list[dict], json_obj) -> int:
    """Write ``rows`` as CSV (header from the first row's keys) or
    ``json_obj`` as JSON, to stdout or atomically to ``--out``."""
    def write(fh) -> None:
        _write_payload(fh, args.format, rows, json_obj)

    try:
        if args.out == "-":
            write(sys.stdout)
        else:
            _write_atomically(args.out, write)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_atomically(path: str, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then rename it onto
    ``path``: a failed write leaves no partial file, and an existing one keeps
    its bytes.  A path that exists but is not a regular file (a pipe, or a
    device such as /dev/stdout) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as fh:
            write(fh)
        return
    target = os.path.realpath(path)  # through a symlink, replace the file it names
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            write(fh)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _json_safe(obj):
    """``obj`` with each nan or inf (not JSON; its validity flag is false) as None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _json_safe(x) for key, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    return obj


def _write_payload(fh, fmt: str, rows: list[dict], json_obj) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_cell(x) for x in row.values()] for row in rows)
    else:
        json.dump(_json_safe(json_obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# local
# ---------------------------------------------------------------------------

def cmd_local(args) -> int:
    p = _resolve_p(args.u, args.k, args.p, args.e_u)
    method = args.method
    if method == "mc":
        est = sweep_mod.mc_value("local", args.u, p, args.k, args.r, args.trials, args.seed)
        row = {"u": args.u, "p": p, "method": method, "value": est.mean,
               "valid": True, "trials": est.trials, "stderr": est.stderr}
        return _emit(args, [row], row)
    if method == "gilbert":
        if args.k != 2:
            raise ValueError("--method gilbert requires --k 2")
        pv = gilbert_prob(args.u, p)
    else:
        pv = sweep_mod.formula_value(method, "local", args.u, p, args.k, args.r)
    row = {"u": args.u, "p": p, "method": method, "value": pv.value, "valid": pv.valid}
    return _emit(args, [row], {**row, "note": pv.note})


# ---------------------------------------------------------------------------
# global
# ---------------------------------------------------------------------------

def _method_cells(values: dict[str, ProbValue], mc=None, breaks=None) -> dict:
    """Row cells of formula values (value and flag per method, plus a break
    flag when ``breaks`` is given) and of a Monte Carlo estimate."""
    cells = {}
    for m, pv in values.items():
        col = _column_name(m)
        cells[col] = pv.value
        cells[f"{col}_valid"] = pv.valid
        if breaks is not None:
            cells[f"{col}_break"] = breaks[m]
    if mc is not None:
        cells["mc_mean"] = mc.mean
        cells["mc_stderr"] = mc.stderr
    return cells


def cmd_global(args) -> int:
    p = _resolve_p(args.v, args.k, args.p, args.e_v)
    methods = tuple(dict.fromkeys(args.method)) if args.method else ("connectivity",)
    values = {m: sweep_mod.formula_value(m, "global", args.v, p, args.k, args.r)
              for m in methods if m != "mc"}
    est = (sweep_mod.mc_value("global", args.v, p, args.k, args.r, args.trials, args.seed)
           if "mc" in methods else None)
    point, cells = {"v": args.v, "p": p}, _method_cells(values, est)
    return _emit(args, [{**point, **cells}], {**point, "k": args.k, "r": args.r, **cells})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_table(result: sweep_mod.SweepResult):
    rows = []
    for row in result.rows:
        breaks = {m: at is not None and row.e >= at for m, at in result.breakdown_at.items()}
        rows.append({"e_v": row.e, "v": row.v, "p": row.p,
                     **_method_cells(row.values, row.mc, breaks)})
    json_obj = {
        "spec": dataclasses.asdict(result.spec),
        "rows": rows,
        "breakdown_at": {_column_name(m): at for m, at in result.breakdown_at.items()},
    }
    return rows, json_obj


def cmd_sweep(args) -> int:
    methods = tuple(dict.fromkeys(args.method)) if args.method else ("connectivity", "mc")
    spec = sweep_mod.SweepSpec(k=args.k, r=args.r, overhead=args.overhead,
                               e_min=args.e_min, e_max=args.e_max, methods=methods,
                               trials=args.trials, seed=args.seed, scope=args.scope)
    result = sweep_mod.run_sweep(spec)
    rows, json_obj = _sweep_table(result)
    status = _emit(args, rows, json_obj)
    if status == EXIT_OK:
        # summary goes to stderr when the table itself occupies stdout
        sink = sys.stderr if args.out == "-" else sys.stdout
        for m, threshold in result.breakdown_at.items():
            where = str(threshold) if threshold is not None else "none"
            print(f"breakdown_at {_column_name(m)}={where}", file=sink)
    return status


# ---------------------------------------------------------------------------
# breakdown
# ---------------------------------------------------------------------------

def cmd_breakdown(args) -> int:
    threshold = sweep_mod.find_breakdown(args.k, args.r, args.overhead,
                                         args.method, args.scope, args.cap)
    if threshold is None:
        print(f"no breakdown found for {args.method} at or below e={args.cap}")
    else:
        print(f"breakdown {args.method} at e={threshold}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    p = _resolve_p(args.v, args.k, args.p, args.e_v)
    if args.exactly_one is not None:
        value = montecarlo.exact_exactly_one(args.v, args.k, p, args.r, args.exactly_one)
        kind = f"exactly-one ({args.exactly_one})"
    else:
        value = montecarlo.exact_global(args.v, args.k, p, args.r)
        kind = "at-least-one"
    point, cells = {"v": args.v, "p": p}, {"kind": kind, "value": value}
    return _emit(args, [{**point, **cells}], {**point, "k": args.k, "r": args.r, **cells})


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corebound",
        description="Core-formation probabilities in k-uniform random hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser("local", help="probability on one specific vertex subset")
    p_local.add_argument("--u", type=int, required=True, help="subset size")
    p_local.add_argument("--p", type=float, default=None)
    p_local.add_argument("--e-u", dest="e_u", type=float, default=None,
                         help="expected induced edge count (sets p = e_u / C(u,k))")
    p_local.add_argument("--method", choices=LOCAL_METHODS, default="connectivity")
    _add_model(p_local)
    _add_mc(p_local)
    _add_output(p_local)
    p_local.set_defaults(func=cmd_local)

    p_global = sub.add_parser("global", help="whole-graph probability methods at one point")
    p_global.add_argument("--v", type=int, required=True, help="vertex count")
    p_global.add_argument("--p", type=float, default=None)
    p_global.add_argument("--e-v", dest="e_v", type=float, default=None,
                          help="expected edge count (sets p = e_v / C(v,k))")
    p_global.add_argument("--method", action="append", choices=GLOBAL_METHODS,
                          help="repeatable; default connectivity")
    _add_model(p_global)
    _add_mc(p_global)
    _add_output(p_global)
    p_global.set_defaults(func=cmd_global)

    p_sweep = sub.add_parser("sweep", help="table over a range of expected edge counts")
    p_sweep.add_argument("--overhead", type=float, required=True,
                         help="vertex-to-edge ratio: v = round(overhead * e)")
    p_sweep.add_argument("--e-min", dest="e_min", type=int, required=True)
    p_sweep.add_argument("--e-max", dest="e_max", type=int, required=True)
    p_sweep.add_argument("--method", action="append", choices=GLOBAL_METHODS,
                         help="repeatable; default connectivity + mc")
    p_sweep.add_argument("--scope", choices=sweep_mod.SCOPES, default="global")
    _add_model(p_sweep)
    _add_mc(p_sweep)
    _add_output(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_break = sub.add_parser("breakdown", help="first expected edge count where a formula fails")
    p_break.add_argument("--overhead", type=float, default=1.0)
    p_break.add_argument("--method", choices=sweep_mod.FORMULA_METHODS, required=True)
    p_break.add_argument("--scope", choices=sweep_mod.SCOPES, default="local")
    p_break.add_argument("--cap", type=int, default=500, help="scan limit (default 500)")
    _add_model(p_break)
    p_break.set_defaults(func=cmd_breakdown)

    p_oracle = sub.add_parser("oracle", help="exhaustive exact values (desk scale)")
    p_oracle.add_argument("--v", type=int, required=True)
    p_oracle.add_argument("--p", type=float, default=None)
    p_oracle.add_argument("--e-v", dest="e_v", type=float, default=None)
    p_oracle.add_argument("--exactly-one", dest="exactly_one",
                          choices=("minimal", "maximal"), default=None,
                          help="count hypergraphs with exactly one core set "
                               "(default: at-least-one)")
    _add_model(p_oracle)
    _add_output(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
