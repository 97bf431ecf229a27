"""Command-line workbench: validate, traj, verify, table, cycles, identities, graph.

Outputs go to stdout (or --out PATH) and are deterministic for a fixed
command line; worker count and wall time never change report bytes, so a
human-readable run header goes to stderr instead.  Numeric bounds accept
scientific notation parsed to exact integers (1e7 -> 10000000).  Each
subcommand imports the functions it runs when it is called, so a start
loads only the modules of its command.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from importlib import resources

from gcollatz import __version__
from gcollatz.core import (
    DEFAULT_BLOCK,
    DEFAULT_BUDGET,
    DomainError,
    InternalError,
    Triplet,
    report_json,
    validate_triplet,
)
from gcollatz.family import (
    VerificationError,
    attractor_minima,
    identify_pq,
    make_pq,
    registry_diagnostics,
)

WORKERS_ENV = "GCOLLATZ_WORKERS"
MAX_INT_DIGITS = 4300  # CPython's default int/str conversion limit


def exact_int(text: str) -> int:
    """Parse '123', '1e7', '6.5e9' to an exact int; reject inexact,
    non-finite and over-long values."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value.adjusted() >= MAX_INT_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_INT_DIGITS} digits: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def int_set(text: str) -> frozenset[int]:
    return frozenset(exact_int(part) for part in text.split(",") if part.strip())


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


class SystemExit2(SystemExit):
    """Usage error: print the message and exit with status 2."""

    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _add_triplet_args(sp):
    sp.add_argument("--p", type=int, help="family exponent p (use with --q)")
    sp.add_argument("--q", type=int, help="family exponent q (use with --p)")
    sp.add_argument("--d", type=exact_int, help="modulus d of an explicit triplet")
    sp.add_argument("--alpha", type=exact_int, help="multiplier alpha")
    sp.add_argument("--beta", type=exact_int, help="offset beta (may be negative)")
    sp.add_argument("--kappa", type=int, default=1, choices=(1, -1), help="residue sign kappa0")


def _resolve_triplet(args) -> Triplet:
    family = args.p is not None or args.q is not None
    explicit = args.d is not None or args.alpha is not None or args.beta is not None
    if family == explicit:
        raise SystemExit2("choose exactly one triplet selector: --p/--q or --d/--alpha/--beta")
    if family:
        if args.p is None or args.q is None:
            raise SystemExit2("family selector needs both --p and --q")
        if args.kappa != 1:
            raise SystemExit2("--kappa -1 selects no family member: use --d/--alpha/--beta")
        return make_pq(args.p, args.q)
    if args.d is None or args.alpha is None or args.beta is None:
        raise SystemExit2("explicit selector needs --d, --alpha and --beta")
    return validate_triplet(args.d, args.alpha, args.beta, args.kappa)


def _family_minima(t: Triplet) -> frozenset[int] | None:
    """Attractor minima of a two-power family member, else None."""
    pq = identify_pq(t)
    return None if pq is None else attractor_minima(*pq)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(doc: dict, out: str | None) -> None:
    doc["artifact_version"] = __version__
    _emit(report_json(doc), out)


def _csv(rows: list[dict], out: str | None) -> None:
    """A header line of the first row's keys, then one line per row; None is an empty cell."""
    cols = list(rows[0])
    lines = [",".join(cols)]
    lines += [",".join("" if r[c] is None else str(r[c]) for c in cols) for r in rows]
    _emit("\n".join(lines) + "\n", out)


def _header(line: str) -> None:
    print(f"# {line}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    params = {"p": args.p, "q": args.q, "d": args.d, "alpha": args.alpha,
              "beta": args.beta, "kappa0": args.kappa}
    try:
        t = _resolve_triplet(args)
    except DomainError as err:
        _dump(
            {
                "schema": "gcollatz.validate/1",
                "valid": False,
                "error": {"code": err.code, "message": str(err)},
                "params": {k: v for k, v in params.items() if v is not None},
            },
            args.out,
        )
        return 1
    pq = identify_pq(t)
    doc = {
        "schema": "gcollatz.validate/1",
        "valid": True,
        "triplet": t.as_dict(),
        "label": t.label,
        "decomposition": None
        if t.decomposition is None
        else {"lambda0": t.decomposition.lambda0, "nu0": t.decomposition.nu0},
        "family": None if pq is None else {"p": pq[0], "q": pq[1]},
    }
    if pq is not None:
        doc["attractor_minima"] = sorted(attractor_minima(*pq))
        notes = [s for s in registry_diagnostics() if f"(p={pq[0]},q={pq[1]})" in s]
        if notes:
            doc["diagnostics"] = notes
    _dump(doc, args.out)
    return 0


def cmd_traj(args) -> int:
    from gcollatz.dynamics import trajectory

    t = _resolve_triplet(args)
    if args.descend:
        stop = "descent"
    elif args.stop is not None:
        stop = args.stop
    else:
        stop = _family_minima(t)
    tr = trajectory(t, args.n, stop=stop, budget=args.budget)
    _header(f"triplet={t.label} n={args.n} budget={args.budget}")
    if args.format == "json":
        _dump(
            {
                "schema": "gcollatz.trajectory/1",
                "triplet": t.as_dict(),
                "label": t.label,
                "start": tr.start,
                "stop": sorted(stop) if isinstance(stop, frozenset) else stop,
                "values": list(tr.values),
                "terminal": tr.terminal,
                "stopped_at": tr.stopped_at,
            },
            args.out,
        )
    else:
        body = "\n".join(str(v) for v in tr.values)
        _emit(body + f"\n# terminal={tr.terminal} steps={len(tr.values) - 1}\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from gcollatz.dynamics import verify_range

    t = _resolve_triplet(args)
    minima = args.minima
    if minima is None:
        minima = _family_minima(t)
        if minima is None and args.mode == "attractor":
            raise SystemExit2("attractor mode needs --minima for a non-family triplet")
    _header(
        f"triplet={t.label} range=[{args.start},{args.to}] mode={args.mode} "
        f"budget={args.budget} block={args.block_size} workers={args.workers}"
    )
    rep = verify_range(
        t,
        args.start,
        args.to,
        mode=args.mode,
        minima=minima,
        budget=args.budget,
        workers=args.workers,
        checkpoint=args.checkpoint,
        block_size=args.block_size,
    )
    if args.format == "csv":
        n, steps = rep.max_sigma or (None, None)
        _csv([{"label": rep.triplet.label, "n_start": rep.n_start, "n_end": rep.n_end,
               "mode": rep.mode, "verified": rep.verified,
               "failures": ";".join(map(str, rep.failures)),
               "max_sigma_n": n, "max_sigma_steps": steps, "pass": rep.passed}], args.out)
    else:
        _dump(rep.to_dict(include_timing=args.timing), args.out)
    return 0 if rep.passed else 1


def _reference_max_sigma() -> dict[int, int]:
    """Reference maxima for the table's comparison column, by p."""
    text = resources.files("gcollatz").joinpath("data/reference_max_sigma.json").read_text()
    return {int(p): s for p, s in json.loads(text)["max_sigma"].items()}


def cmd_table(args) -> int:
    from gcollatz.dynamics import max_stopping_scans

    if args.p_max < 0 or args.n_max < 1:
        raise SystemExit2("need --p-max >= 0 and --n-max >= 1")
    _header(
        f"table p<= {args.p_max} n_max={args.n_max} budget={args.budget} workers={args.workers}"
    )
    reference = _reference_max_sigma()
    rows = []
    ps = range(args.p_max + 1)
    for scan in max_stopping_scans(ps, args.n_max, budget=args.budget, workers=args.workers,
                                   checkpoint=args.checkpoint):
        ref = reference.get(scan.p)
        # the table document holds n_max and budget once; rows carry no per-map detail
        row = {k: v for k, v in scan.to_dict().items()
               if k not in ("schema", "n_max", "budget", "per_map")}
        row["reference"] = ref
        row["matches_reference"] = None if ref is None else scan.max_sigma == ref
        rows.append(row)
    if args.format == "json":
        _dump({"schema": "gcollatz.table/1", "n_max": args.n_max,
               "budget": args.budget, "rows": rows}, args.out)
    else:
        _csv(rows, args.out)
    return 0


def cmd_cycles(args) -> int:
    from gcollatz.dynamics import find_cycles_in_range

    t = _resolve_triplet(args)
    _header(f"triplet={t.label} n<= {args.to} budget={args.budget}")
    scan = find_cycles_in_range(t, args.to, budget=args.budget)
    _dump(
        {
            "schema": "gcollatz.cycles/1",
            "triplet": t.as_dict(),
            "label": t.label,
            "n_max": args.to,
            "budget": args.budget,
            "cycles": [
                {"omega": c.omega, "length": c.length, "members": list(c.members)}
                for c in scan.cycles
            ],
            "exhausted": list(scan.exhausted),
        },
        args.out,
    )
    return 0


def cmd_identities(args) -> int:
    from gcollatz.identities import PreconditionError, check_identity

    t = _resolve_triplet(args)
    try:
        rep = check_identity(args.theorem, t, trials=args.trials, seed=args.seed)
    except PreconditionError as err:
        _dump(
            {
                "schema": "gcollatz.identity_report/1",
                "theorem": args.theorem,
                "triplet": t.as_dict(),
                "label": t.label,
                "error": {"code": err.code, "message": str(err)},
                "pass": False,
            },
            args.out,
        )
        return 1
    _dump(rep.to_dict(), args.out)
    return 0 if rep.passed else 1


def cmd_graph(args) -> int:
    from gcollatz.invgraph import build_inverse_graph, export_dot, export_json

    t = _resolve_triplet(args)
    g = build_inverse_graph(t, set(args.root), args.depth, max_nodes=args.max_nodes)
    _emit(export_dot(g) if args.format == "dot" else export_json(g), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gcollatz",
        description="Workbench for generalized Collatz triplet maps.",
    )
    ap.add_argument("--version", action="version", version=f"gcollatz {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, triplet=True):
        if triplet:
            _add_triplet_args(sp)
        sp.add_argument("--out", help="write output to PATH instead of stdout")

    sp = sub.add_parser("validate", help="validate a triplet and identify its family")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("traj", help="print one trajectory")
    common(sp)
    sp.add_argument("--n", type=exact_int, required=True)
    until = sp.add_mutually_exclusive_group()
    until.add_argument("--stop", type=int_set, help="comma-separated attractor minima")
    until.add_argument("--descend", action="store_true", help="stop at the first value below n")
    sp.add_argument("--budget", type=exact_int, default=DEFAULT_BUDGET)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_traj)

    sp = sub.add_parser("verify", help="certify every seed in a range")
    common(sp)
    sp.add_argument("--from", dest="start", type=exact_int, default=1)
    sp.add_argument("--to", type=exact_int, required=True)
    sp.add_argument("--mode", choices=("descent", "attractor"), default="descent")
    sp.add_argument("--minima", type=int_set, help="override the attractor minima")
    sp.add_argument("--budget", type=exact_int, default=DEFAULT_BUDGET)
    sp.add_argument("--block-size", type=exact_int, default=DEFAULT_BLOCK)
    sp.add_argument("--workers", type=int)  # default_workers() when parsed
    sp.add_argument("--checkpoint", help="line-delimited JSON journal for resume")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--timing", action="store_true", help="include wall_time in the report")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("table", help="stopping-time records per p with reference comparison")
    common(sp, triplet=False)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--n-max", type=exact_int, required=True)
    sp.add_argument("--budget", type=exact_int, default=DEFAULT_BUDGET)
    sp.add_argument("--workers", type=int)  # default_workers() when parsed
    sp.add_argument("--checkpoint", help="line-delimited JSON journal for resume")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("cycles", help="discover cycles from every seed up to a bound")
    common(sp)
    sp.add_argument("--to", type=exact_int, required=True)
    sp.add_argument("--budget", type=exact_int, default=DEFAULT_BUDGET)
    sp.set_defaults(fn=cmd_cycles)

    sp = sub.add_parser("identities", help="sample a closed-form identity against iteration")
    common(sp)
    sp.add_argument("--theorem", choices=("31", "32", "33"), required=True)
    sp.add_argument("--trials", type=exact_int, default=10**4)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_identities)

    sp = sub.add_parser("graph", help="bounded inverse-orbit graph as DOT or JSON")
    common(sp)
    sp.add_argument("--root", type=exact_int, action="append", required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--max-nodes", type=exact_int, default=10**6)
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.set_defaults(fn=cmd_graph)

    return ap


_parser = functools.cache(build_parser)  # built on the first main() call, then kept


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "workers", 1) is None:
        args.workers = default_workers()
    try:
        return args.fn(args)
    except DomainError as err:
        print(f"error [{err.code}]: {err}", file=sys.stderr)
        return 1
    except (InternalError, VerificationError, OverflowError, MemoryError) as err:
        print(f"error [{type(err).__name__}]: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
