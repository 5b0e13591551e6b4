"""Command-line interface.

Subcommands: field-info | construct | cost | repair-demo | search-min | verify |
compare.  Human-readable tables by default, machine JSON with --json.  Exit
codes: 0 success, 1 verification/repair failure or closed pipe, 2 bad parameters.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .construction import (
    build_low_io_scheme,
    compare_baselines,
    largest_valid_s,
    predicted_cost,
)
from .fieldmath import FieldContext, field_context
from .scheme import RepairScheme
from .search import (
    VerificationError,
    gaussian_binomial,
    min_io_exhaustive,
    verify_bound,
    visit_count,
)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.strip().strip("[]").replace(",", " ").split()]


def _context(args) -> FieldContext:
    flags = (args.modulus, args.basis)  # None where the flag is absent: the default
    return field_context(args.q, args.ell, *(_parse_int_list(v) if v else None for v in flags))


def _field_flags(sub) -> None:
    sub.add_argument("--q", type=int, required=True, help="subfield size (prime)")
    sub.add_argument("--ell", type=int, required=True, help="extension degree")
    sub.add_argument("--modulus", help="field modulus, ascending coefficients, e.g. 1,1,0,1")
    sub.add_argument("--basis", help="working basis as encoded elements, e.g. 1,2,4")


def _dumps(v, pad: str = "\n") -> str:
    """json.dumps(v, indent=2), byte for byte, without its generator machinery: lists,
    tuples and str-keyed dicts are laid out here, ints and strs written as json writes
    them, and any other value is left to json.dumps."""
    inner = pad + "  "
    if type(v) is int or type(v) is str:
        return int.__repr__(v) if type(v) is int else encode_basestring_ascii(v)
    if isinstance(v, (list, tuple)):
        items, ends = [_dumps(x, inner) for x in v], "[]"
    elif isinstance(v, dict) and all(type(k) is str for k in v):
        items = [encode_basestring_ascii(k) + ": " + _dumps(x, inner) for k, x in v.items()]
        ends = "{}"
    else:
        return json.dumps(v, indent=2).replace("\n", pad)  # strings hold no raw newline
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def _emit(args, payload: dict, human) -> None:
    if args.json:
        print(_dumps(payload))
    else:
        human(payload)


def _print_report_table(report: dict) -> None:
    print(f"bandwidth: {report['bandwidth']} subsymbols transmitted")
    print(f"io cost:   {report['io_cost']} subsymbols read (formula: {report['io_cost_formula']})")
    print("  node  rank  read  subsymbols")
    for row in report["per_node"]:
        cols = ",".join(str(c) for c in row["cols"]) or "-"
        print(f"  {row['i']:>4}  {row['rank']:>4}  {row['nz']:>4}  {cols}")


def _cmd_field_info(args) -> int:
    ctx = _context(args)
    payload = {
        "q": ctx.q,
        "ell": ctx.ell,
        "order": ctx.order,
        "modulus": list(ctx.modulus),
        "basis": list(ctx.basis),
        "dual_basis": list(ctx.dual_basis),
    }

    def human(p):
        print(ctx.describe())
        print(f"order {p['order']}, symbols carry {p['ell']} subsymbols over GF({p['q']})")
        print(f"basis:      {p['basis']}")
        print(f"dual basis: {p['dual_basis']}")

    _emit(args, payload, human)
    return 0


def _construction(args):
    """(ctx, s, scheme) for --q/--ell/--k/--s, moved to --node."""
    ctx = _context(args)
    s = args.s if args.s is not None else largest_valid_s(ctx.q, ctx.ell, ctx.order - args.k)
    scheme = build_low_io_scheme(ctx, args.k, s)
    if args.node != 1:
        scheme = scheme.translate(args.node)
    return ctx, s, scheme


def _cmd_construct(args) -> int:
    ctx, s, scheme = _construction(args)
    n = ctx.order
    report = scheme.cost_report()
    payload = {
        "s": s,
        "predicted": predicted_cost(ctx.q, ctx.ell, s),
        "bandwidth": report["bandwidth"],
        "io_cost": report["io_cost"],
        "scheme": scheme.to_dict(),
        "cost_report": report,
    }

    def human(p):
        print(
            f"scheme for q={ctx.q} ell={ctx.ell} n={n} k={args.k} s={s}, node {args.node}"
        )
        print(f"predicted io cost: {p['predicted']}")
        _print_report_table(p["cost_report"])

    _emit(args, payload, human)
    return 0


def _cmd_cost(args) -> int:
    try:
        data = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    if isinstance(data, dict) and "scheme" in data:
        data = data["scheme"]
    scheme = RepairScheme.from_dict(data)
    scheme.require_valid()
    report = scheme.cost_report()

    def human(p):
        print(f"scheme for node {p['node']} of n={p['n']} k={p['k']}")
        _print_report_table(p)

    _emit(args, report, human)
    return 0


def _cmd_repair_demo(args) -> int:
    ctx, s, scheme = _construction(args)
    n = ctx.order
    codeword = scheme.code.random_codeword(args.seed)
    erased = codeword[args.node - 1]
    punctured = list(codeword)
    punctured[args.node - 1] = None
    value, reads = scheme.repair_transcript(punctured)
    total = sum(len(v) for v in reads.values())
    exact = value == erased
    payload = {
        "q": ctx.q,
        "ell": ctx.ell,
        "k": args.k,
        "s": s,
        "node": args.node,
        "seed": args.seed,
        "erased": erased,
        "recovered": value,
        "exact": exact,
        "reads": {str(i): cols for i, cols in sorted(reads.items())},
        "total_read": total,
        "io_cost": scheme.io_cost_direct(),
    }

    def human(p):
        print(
            f"repair node {args.node} of q={ctx.q} ell={ctx.ell} n={n} k={args.k} "
            f"(s={s}, seed {args.seed})"
        )
        for i, cols in sorted(reads.items()):
            print(f"  helper {i}: reads subsymbols {cols}")
        print(f"total subsymbols read: {total} (scheme reports {p['io_cost']})")
        print("recovered: exact" if exact else "recovered: MISMATCH")

    _emit(args, payload, human)
    return 0 if exact else 1


def _cmd_search_min(args) -> int:
    ctx = _context(args)
    cost, scheme = min_io_exhaustive(ctx, args.r, star=args.node, workers=args.workers)
    report = scheme.cost_report()
    payload = {
        "q": ctx.q,
        "ell": ctx.ell,
        "r": args.r,
        "node": args.node,
        "subspaces": gaussian_binomial(args.r * ctx.ell, ctx.ell, ctx.q),
        "visited": visit_count(ctx.q, ctx.ell, args.r),
        "min_io_cost": cost,
        "witness": scheme.to_dict(),
        "cost_report": report,
    }

    def human(p):
        print(
            f"searched {p['subspaces']} subspaces ({p['visited']} visited) for "
            f"q={ctx.q} ell={ctx.ell} r={args.r}, node {args.node}"
        )
        print(f"minimum io cost: {cost}")
        print(f"witness dual codewords: {[list(g) for g in scheme.duals]}")

    _emit(args, payload, human)
    return 0


def _cmd_verify(args) -> int:
    ctx = _context(args)
    report = verify_bound(ctx, args.r, workers=args.workers)

    def human(p):
        line = f"r={p['r']} bound {p['bound']}, construction {p['construction']}"
        if p["searched"]:
            line += f", exhaustive min {p['min']}"
        else:
            visited = visit_count(p["q"], p["ell"], p["r"])
            line += f", search skipped ({visited} schemes to visit, over cap)"
        print(line)
        print(f"gap: {p['gap']}")

    _emit(args, report, human)
    return 0


def _cmd_compare(args) -> int:
    ctx = _context(args)  # the closed forms below assume a valid field
    table = compare_baselines(args.q, args.ell, args.s, args.k)
    if args.check:
        scheme = build_low_io_scheme(ctx, args.k, args.s)
        table["measured_io"] = scheme.io_cost_direct()
        table["measured_bandwidth"] = scheme.bandwidth()

    def human(p):
        print(f"q={p['q']} ell={p['ell']} s={p['s']} k={p['k']} (n={p['n']})")
        print(f"  prior scheme bandwidth:  {p['prior_bandwidth']}")
        print(f"  prior scheme io cost:    {p['prior_io']}")
        print(f"  trivial repair io cost:  {p['trivial_io']}")
        print(f"  this construction:       {p['ours']}")
        flag = "yes" if p["bound_condition"] else "no"
        print(f"  ours < k*ell guaranteed (n-k <= (s+1)q^(ell-1)/ell): {flag}")
        print(f"  ours < k*ell holds: {'yes' if p['below_trivial'] else 'no'}")
        if "measured_io" in p:
            print(
                f"  measured: io {p['measured_io']}, bandwidth {p['measured_bandwidth']}"
            )

    _emit(args, table, human)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repair-lab",
        description="Measure I/O cost and bandwidth of linear Reed-Solomon repair schemes.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="print field, basis, and dual basis")
    _field_flags(p)
    p.set_defaults(fn=_cmd_field_info)

    p = sub.add_parser("construct", help="build a low-I/O scheme and report its cost")
    _field_flags(p)
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--s", type=int, default=None, help="shape parameter (default: deepest feasible)")
    p.add_argument("--node", type=int, default=1, help="failed node index (default 1)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("cost", help="cost report for a scheme JSON read from stdin")
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("repair-demo", help="erase one symbol and repair it, tracing reads")
    _field_flags(p)
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--s", type=int, default=None, help="shape parameter (default: deepest feasible)")
    p.add_argument("--node", type=int, default=1, help="node to erase (default 1)")
    p.add_argument("--seed", type=int, default=0, help="codeword seed (default 0)")
    p.set_defaults(fn=_cmd_repair_demo)

    p = sub.add_parser("search-min", help="exhaustive minimum I/O over all schemes")
    _field_flags(p)
    p.add_argument("--r", type=int, required=True, help="number of parities n - k")
    p.add_argument("--node", type=int, default=1, help="failed node index (default 1)")
    p.add_argument("--workers", type=int, default=None, help="worker processes")
    p.set_defaults(fn=_cmd_search_min)

    p = sub.add_parser("verify", help="check the certified lower bound for r parities")
    _field_flags(p)
    p.add_argument("--r", type=int, required=True, help="number of parities n - k")
    p.add_argument("--workers", type=int, default=None, help="worker processes")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("compare", help="closed-form baseline comparison table")
    _field_flags(p)
    p.add_argument("--s", type=int, required=True, help="shape parameter")
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--check", action="store_true", help="also measure the construction")
    p.set_defaults(fn=_cmd_compare)

    return parser


_parser = functools.cache(build_parser)  # built once per process, by the first main()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:  # the reader has gone; keep the interpreter's exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
