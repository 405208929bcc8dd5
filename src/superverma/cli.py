"""Command-line interface.

Subcommands::

    superverma borels <n> [--graph dot|json]
    superverma rho <n> <label>
    superverma aty <tuple>
    superverma char {verma|bg} <n> <label> <tuple> [--depth D] [--json]
    superverma ds <n> <label> <tuple> --alpha p,q [--depth D] [--json]
    superverma verify {conjecture|mabg|gl22|structure} [options]

Exit codes: 0 when every verdict is PASS or CERTIFIED-TO-DEPTH, 1 when any
check is REFUTED or FAIL, 2 on a usage error (malformed tuples and labels
are reported with the offending position, and every ``ValueError`` the
library raises on its arguments becomes a one-line usage message).

The full default verification suite is the composition::

    superverma verify structure && superverma verify conjecture --n 2 \
        && superverma verify mabg --n 2,3 && superverma verify gl22

Reports are deterministic; pass ``--timing`` to include measured wall time
in JSON output (at the cost of byte-identical reruns).  The environment
variable ``SUPERVERMA_JOBS=k`` spreads Borel sweeps over ``k`` worker
processes; the worker-pool modules load only when ``k > 1``.
"""

from __future__ import annotations

import argparse
import sys

from .borels import (
    all_borels,
    borel_graph_dot,
    borel_graph_json,
    format_label,
    parse_label,
    rho_vector,
)
from .homology import ds_homology
from .modules import bg_realization, verma_realization
from .verify import (
    DEFAULT_DEPTH,
    verify_conjecture,
    verify_gl22_examples,
    verify_maBG,
    verify_structure,
)
from .weights import atypicality, bg_character, in_lambda_BG, verma_character


def parse_int_tuple(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer tuple, reporting bad pieces by
    position (1-based)."""
    pieces = text.strip().lstrip("(").rstrip(")").split(",")
    out = []
    for i, piece in enumerate(pieces):
        try:
            out.append(int(piece.strip()))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {piece.strip()!r} at position {i + 1}"
            ) from None
    return tuple(out)


def parse_root(text: str) -> tuple[int, int]:
    pair = parse_int_tuple(text)
    if len(pair) != 2:
        raise argparse.ArgumentTypeError(f"expected two indices, got {len(pair)}")
    return pair


def parse_n_list(text: str) -> tuple[int, ...]:
    return parse_int_tuple(text)


def format_rho(n: int, vec) -> str:
    """Render a weight as a signed combination of e1..en and d1..dn."""
    parts = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        sym = f"e{i + 1}" if i < n else f"d{i + 1 - n}"
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = "" if abs(c) == 1 else str(abs(c))
        parts.append(f"{sign}{mag}{sym}")
    return "".join(parts) if parts else "0"


def _label_arg(parser: argparse.ArgumentParser, text: str):
    try:
        return parse_label(text)
    except ValueError as err:
        parser.error(str(err))


def _print_character(char, as_json: bool) -> None:
    if as_json:
        print(char.to_json())
        return
    print("# weight  even odd")
    for w, (e, o) in sorted(char.table.items()):
        if (e, o) != (0, 0):
            print(f"{','.join(map(str, w))}  {e} {o}")


def _cmd_borels(parser, args) -> int:
    if args.graph == "dot":
        print(borel_graph_dot(args.n))
    elif args.graph == "json":
        print(borel_graph_json(args.n))
    else:
        # format every label before printing, so a failure prints nothing
        print("\n".join(format_label(label) for label in all_borels(args.n)))
    return 0


def _cmd_rho(parser, args) -> int:
    label = _label_arg(parser, args.label)
    print(format_rho(args.n, rho_vector(args.n, label)))
    return 0


def _cmd_aty(parser, args) -> int:
    if len(args.tuple) % 2:
        parser.error(f"tuple length {len(args.tuple)} is odd")
    print(atypicality(args.tuple))
    return 0


def _cmd_char(parser, args) -> int:
    label = _label_arg(parser, args.label)
    n = args.n
    if len(args.tuple) != 2 * n:
        parser.error(f"tuple length {len(args.tuple)} != {2 * n}")
    depth = DEFAULT_DEPTH.get(n, 4) if args.depth is None else args.depth
    if args.kind == "verma":
        char = verma_character(n, label, args.tuple, depth)
    else:
        if label != ():
            parser.error("char bg supports only the label '()'")
        if not in_lambda_BG(args.tuple):
            parser.error(f"tuple {args.tuple} is not in the anchored family")
        char = bg_character(n, args.tuple, depth)
    _print_character(char, args.json)
    return 0


def _cmd_ds(parser, args) -> int:
    label = _label_arg(parser, args.label)
    n = args.n
    if len(args.tuple) != 2 * n:
        parser.error(f"tuple length {len(args.tuple)} != {2 * n}")
    if args.bg and label != ():
        parser.error("ds --bg supports only the label '()'")
    depth = DEFAULT_DEPTH.get(n, 4) if args.depth is None else args.depth
    try:
        if args.bg:
            m = bg_realization(n, args.tuple, depth)
        else:
            m = verma_realization(n, label, args.tuple, depth)
        result = ds_homology(m, args.alpha)
    except AssertionError as err:
        parser.error(str(err))
    if args.json:
        print(result.to_json())
        return 0
    print(f"# alpha={args.alpha[0]},{args.alpha[1]} valid_depth={result.valid_depth}")
    print("# weight  even odd")
    for w in result.support():
        e, o = result.dims(w)
        print(f"{','.join(map(str, w))}  {e} {o}")
    return 0


def _cmd_verify(parser, args) -> int:
    # the options each scenario takes; any other is a usage error
    takes = dict(conjecture="n depth borel alpha", mabg="n depth", gl22="depth", structure="n")
    for opt in ("n", "depth", "borel", "alpha"):
        if getattr(args, opt) is not None and opt not in takes[args.scenario].split():
            parser.error(f"verify {args.scenario} does not take --{opt}")
    reports = []
    if args.scenario == "conjecture":
        for n in args.n or (2,):
            label = None if args.borel is None else _label_arg(parser, args.borel)
            reports.append(
                verify_conjecture(n, label=label, alpha=args.alpha, depth=args.depth)
            )
    elif args.scenario == "mabg":
        for n in args.n or (2, 3):
            reports.append(verify_maBG(n, depth=args.depth))
    elif args.scenario == "gl22":
        reports.append(verify_gl22_examples(depth=args.depth))
    else:
        for n in args.n or (2, 3):
            reports.append(verify_structure(n))
    for rep in reports:
        if args.json:
            print(rep.to_json(timing=args.timing))
        else:
            print(rep.summary())
            for case in rep.failures():
                print(f"  {case.key}: {case.verdict} {case.detail}")
    return 0 if all(rep.ok for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superverma",
        description="Exact truncated modules over gl(n|n) and their rank-one homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("borels", help="list Borel labels or print the reflection graph")
    p.add_argument("n", type=int)
    p.add_argument("--graph", choices=("dot", "json"))

    p = sub.add_parser("rho", help="rho vector of a Borel, as e/d coordinates")
    p.add_argument("n", type=int)
    p.add_argument("label")

    p = sub.add_parser("aty", help="atypicality of a rho-shifted tuple")
    p.add_argument("tuple", type=parse_int_tuple)

    p = sub.add_parser("char", help="truncated character of a module")
    p.add_argument("kind", choices=("verma", "bg"))
    p.add_argument("n", type=int)
    p.add_argument("label")
    p.add_argument("tuple", type=parse_int_tuple)
    p.add_argument("--depth", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ds", help="rank-one homology census of a module")
    p.add_argument("n", type=int)
    p.add_argument("label")
    p.add_argument("tuple", type=parse_int_tuple)
    p.add_argument("--alpha", type=parse_root, required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--bg", action="store_true", help="use the anchored module")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a named verification scenario")
    p.add_argument("scenario", choices=("conjecture", "mabg", "gl22", "structure"))
    p.add_argument("--n", type=parse_n_list, help="rank or comma list of ranks")
    p.add_argument("--depth", type=int)
    p.add_argument("--borel", help="restrict the conjecture sweep to one Borel")
    p.add_argument("--alpha", type=parse_root, help="restrict to one odd root")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--timing", action="store_true", help="include wall time in JSON output"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "borels": _cmd_borels,
        "rho": _cmd_rho,
        "aty": _cmd_aty,
        "char": _cmd_char,
        "ds": _cmd_ds,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(parser, args)
    except ValueError as err:
        # the library validates arguments with ValueError: a usage error
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
