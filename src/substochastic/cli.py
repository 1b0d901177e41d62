"""Command-line entry point.

Exit codes: 0 success / certified, 2 numerical-only verdict, 3 unknown or
inconclusive, 1 error (usage errors included).  Data goes to stdout (or
--out); progress to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from .classify import classify_recurrence
from .constructions import BUILTIN_FAMILIES, family_from_config
from .cycles import (
    enumerate_cycles,
    min_cycle_transversal,
    sup_cycle_gain,
)
from .digraph import _MODES, WeightedDigraph
from .families import family_gain, family_to_float, truncate
from .inequalities import SUITES, run_suite
from .rational import weight_to_str
from .spectral import charpoly, perron_ladder, perron_root
from .sweeps import SweepSpec, fit_decay, run_sweep, sweep_csv, sweep_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NUMERICAL = 2
EXIT_UNKNOWN = 3


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe after the work was done: send the unflushed
        # rest (and the interpreter's exit-time flush) to devnull so neither errs
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _read(path: str) -> str:
    """The text of the file ``path``, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_digraph(args) -> WeightedDigraph:
    if args.digraph:
        return WeightedDigraph.from_json(_read(args.digraph), mode=args.mode)
    if not args.family:
        args._parser.error("provide --digraph FILE or --family NAME --n N")
    if args.n is None:
        args._parser.error("--n is required with --family")
    return truncate(_load_family(args), args.n)


def _load_family(args):
    params = json.loads(args.params) if args.params else {}
    fam = family_from_config(args.family, params)
    if args.mode == "float":
        fam = family_to_float(fam)
    return fam


def _gain_payload(g) -> dict:
    return {
        "value": g.value,
        "weight": weight_to_str(g.weight),
        "length": g.length,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    stream = enumerate_cycles(_load_digraph(args), max_length=args.max_len,
                              max_count=args.max_count)
    cycles = [
        {
            "vertices": [v + 1 for v in c.vertices],
            "length": c.length,
            "weight": weight_to_str(c.weight),
            "gain": _gain_payload(c.gain),
        }
        for c in stream
    ]
    _emit(json.dumps({"cycles": cycles, "truncated": stream.truncated}, indent=2), args.out)
    return EXIT_OK


def _cmd_fvs(args) -> int:
    res = min_cycle_transversal(_load_digraph(args), budget=args.budget)
    _emit(json.dumps({
        "vertices": sorted(v + 1 for v in res.vertices),
        "size": res.size,
        "optimality": res.optimality,
    }, indent=2), args.out)
    return EXIT_OK if res.optimality == "exact" else EXIT_NUMERICAL


def _cmd_omega(args) -> int:
    if args.family and args.n is not None:
        if args.improper:  # a family's omega counts every cycle of length <= n
            raise ValueError("--improper applies to --digraph only, not to --family")
        g = family_gain(_load_family(args), args.n)
    else:
        g = sup_cycle_gain(_load_digraph(args), max_length=args.n, proper_only=not args.improper)
    _emit(json.dumps({"omega": _gain_payload(g), "max_length": args.n}, indent=2), args.out)
    return EXIT_OK


def _cmd_perron(args) -> int:
    d = _load_digraph(args)
    _emit(json.dumps({"perron_root": perron_root(d, tol=args.tol)}, indent=2), args.out)
    return EXIT_OK


def _cmd_charpoly(args) -> int:
    coeffs = charpoly(_load_digraph(args), method=args.method)
    _emit(json.dumps({
        "method": args.method,
        "coefficients": [weight_to_str(c) for c in coeffs],
        "nonzero_eig_count": len(coeffs) - 1,
        "det_at_one": weight_to_str(sum(coeffs)),
    }, indent=2), args.out)
    return EXIT_OK


def _cmd_ladder(args) -> int:
    fam = _load_family(args)
    ns = [int(x) for x in args.n_list.split(",")]
    spec = perron_ladder(fam, ns, mode=args.ladder_mode)
    lines = ["n,lambda_n,gap_to_limit"]
    for n in sorted(spec.values):
        gap = ""
        if spec.limit_method == "closed-form":
            gap = repr(spec.limit_estimate - spec.values[n])
        lines.append(f"{n},{spec.values[n]!r},{gap}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    fam = _load_family(args)
    verdict = classify_recurrence(
        fam, n_max=args.n_max, p_max=args.p_max, vertex=args.vertex
    )
    payload = {
        "family": args.family,
        "verdict": verdict.verdict,
        "confidence": verdict.confidence,
        "evidence": None if verdict.evidence is None else {
            "kind": type(verdict.evidence).__name__,
            **{k: (list(v) if isinstance(v, tuple) else (str(v) if isinstance(v, Fraction) else v))
               for k, v in dataclasses.asdict(verdict.evidence).items()},
        },
        "notes": list(verdict.notes),
    }
    _emit(json.dumps(payload, indent=2, default=str), args.out)
    if verdict.verdict == "unknown":
        return EXIT_UNKNOWN
    return EXIT_OK if verdict.confidence == "certified" else EXIT_NUMERICAL


def _cmd_construct(args) -> int:
    fam = _load_family(args)
    d = truncate(fam, args.emit_truncation)
    _emit(d.to_json(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        count=args.count,
        seed=args.seed,
        order_max=args.order_max,
        mode=args.mode,
        sigma_k=args.k,
    )
    _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    return EXIT_OK if report.ok else EXIT_ERROR


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        family=args.family,
        params=json.loads(args.params) if args.params else {},
        n_grid=tuple(int(x) for x in args.n_grid.split(",")),
        mode=args.mode,
        compute_fvs=not args.no_fvs,
    )
    rows = run_sweep(spec)
    _emit(sweep_csv(rows) if args.format == "csv" else sweep_json(rows), args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    text = _read(args.input)
    x_col, y_col = 0, 1
    pairs, header = [], None
    for row, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            float(parts[0])
        except ValueError:
            if header is not None or pairs:  # only the first line may be a header
                raise ValueError(f"row {row} is not numeric: {line!r}") from None
            header = [p.strip() for p in parts]
            for named in (args.x_col, args.y_col):
                if named is not None and named not in header:
                    raise ValueError(f"column {named!r} is not in the header ({', '.join(header)})")
            x_name, y_name = args.x_col or "n", args.y_col or "gap_to_limit"
            x_col = header.index(x_name) if x_name in header else x_col
            y_col = header.index(y_name) if y_name in header else y_col
            continue
        if max(x_col, y_col) >= len(parts):
            raise ValueError(f"row {row} has {len(parts)} column(s), "
                             f"column {max(x_col, y_col) + 1} is needed: {line!r}")
        try:
            pairs.append((float(parts[x_col]), float(parts[y_col])))
        except ValueError:
            raise ValueError(f"row {row} is not numeric: {line!r}") from None
    fit = fit_decay(pairs, window=args.window, log_correction=args.log_correction)
    _emit(json.dumps(dataclasses.asdict(fit), indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse ``type=`` for integers >= ``low``: a smaller value is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type=`` for floats > 0; NaN and infinity are left to the library."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


_positive_float.__name__ = "float"


def _index_range(text: str) -> tuple[int, int]:
    """An argparse ``type=`` for an index range ``lo:hi``."""
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be lo:hi with integer ends, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR; argparse's own 2 would read as EXIT_NUMERICAL.

    Option names must be spelled out: with abbreviations on, ``--n`` would
    silently mean ``--n-max`` or ``--n-list`` where no ``--n`` exists.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a subcommand's defaults override those of the command above it, so
        # after parsing ``_parser`` is the innermost parser the command line reached
        self.set_defaults(_parser=self)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Each shared option is declared once, in a parent parser.  Commands that
    # include a parent share its Action objects, so a command's own
    # set_defaults would change them for every command: sweep declares its own
    # --mode for its float default.
    out, mode, family, params, digraph = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    out.add_argument("--out", default=None, help="write output to a file instead of stdout")
    mode.add_argument("--mode", choices=_MODES, default="exact",
                      help="arithmetic mode for weights")
    family.add_argument("--family", choices=BUILTIN_FAMILIES, help="built-in family name")
    params.add_argument("--params", help="family parameters as a JSON object")
    digraph.add_argument("--digraph", help="digraph JSON file ('-' for stdin)")
    digraph.add_argument("--n", type=_int_at_least(1), default=None,
                         help="truncation order for --family")
    one_family = [mode, out, family, params]
    one_digraph = [mode, out, digraph, family, params]

    def leaf(subparsers, name, func, parents, **kwargs):
        p = subparsers.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    ap = _Parser(
        prog="substochastic",
        description="Spectral analysis of substochastic weightings of strong digraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    cyc = sub.add_parser("cycles", help="cycle enumeration, transversals, gain suprema")
    cyc_sub = cyc.add_subparsers(dest="cycles_op", required=True)
    p = leaf(cyc_sub, "enumerate", _cmd_enumerate, one_digraph)
    p.add_argument("--max-len", type=_int_at_least(1), default=None)
    p.add_argument("--max-count", type=_int_at_least(0), default=None)
    p = leaf(cyc_sub, "fvs", _cmd_fvs, one_digraph)
    p.add_argument("--budget", type=_int_at_least(0), default=200_000)
    p = leaf(cyc_sub, "omega", _cmd_omega, one_digraph)
    p.add_argument("--improper", action="store_true",
                   help="include the cycle equal to the whole digraph")

    spec = sub.add_parser("spectral", help="Perron roots, characteristic polynomials, ladders")
    spec_sub = spec.add_subparsers(dest="spectral_op", required=True)
    p = leaf(spec_sub, "perron", _cmd_perron, one_digraph)
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p = leaf(spec_sub, "charpoly", _cmd_charpoly, one_digraph)
    p.add_argument("--method", choices=("coates", "elimination"), default="elimination")
    p = leaf(spec_sub, "ladder", _cmd_ladder, one_family)
    p.add_argument("--n-list", required=True, help="comma-separated truncation orders")
    p.add_argument("--ladder-mode", choices=("leading", "sup_exact", "witness"),
                   default="leading")

    p = leaf(sub, "classify", _cmd_classify, one_family,
             help="transience/recurrence verdict for a family")
    p.add_argument("--n-max", type=_int_at_least(1), default=120)
    p.add_argument("--p-max", type=_int_at_least(1), default=1000)
    p.add_argument("--vertex", type=_int_at_least(0), default=None)

    p = leaf(sub, "construct", _cmd_construct, [mode, out, params],
             help="build a named family and emit a truncation")
    p.add_argument("family", choices=BUILTIN_FAMILIES)
    p.add_argument("--emit-truncation", type=_int_at_least(1), required=True)

    p = leaf(sub, "verify", _cmd_verify, [mode, out], help="run a determinant-inequality suite")
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order-max", type=_int_at_least(2), default=8)
    p.add_argument("--k", type=_int_at_least(1), default=None,
                   help="sigma-k suite only: check sigma_min(K,|W|) (default: every k)")

    p = leaf(sub, "sweep", _cmd_sweep, [out, params], help="per-n ladder/gain sweep over a family")
    p.add_argument("--family", choices=BUILTIN_FAMILIES, required=True)
    p.add_argument("--n-grid", required=True, help="comma-separated strictly increasing orders")
    p.add_argument("--mode", choices=_MODES, default="float")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-fvs", action="store_true", help="skip the transversal column")

    p = leaf(sub, "fit", _cmd_fit, [out], help="fit a decay exponent to (n, gap) pairs")
    p.add_argument("--input", required=True, help="CSV of n,gap rows ('-' for stdin)")
    p.add_argument("--x-col", help="x column name in the header (default: n, else column 0)")
    p.add_argument("--y-col", help="y column name (default: gap_to_limit, else column 1)")
    p.add_argument("--window", type=_index_range, help="index range lo:hi")
    p.add_argument("--log-correction", action="store_true")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args, extras = ap.parse_known_args(argv)
    if extras:
        # reported by the subcommand, so its usage line shows its own options
        args._parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    # OverflowError: an exact value too large for float arithmetic, such as a cycle gain
    except (RuntimeError, ValueError, OSError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
