"""Command-line front end.

Subcommands (long-form flags only):

    compute FILE [--json]          invariant report per code block
    batch DIR --out DIR            JSON report per catalog entry + summary
    check-moves FILE [--steps N] [--seed S] [--trials T]
                                   random-walk invariance harness
    skein FILE [--crossing X]      skein identity report(s), JSON
    family --j N                   print the 2N-crossing sharpness code
    bound FILE [--odd-conjecture]  crossing-number lower bound
    catalog-summary DIR            print the summary table for a catalog

Exit status: 0 on success, 1 on invalid input or an OS error on a file it
names, 2 on internal failures (including an invariance violation found by
check-moves, which would be a library bug).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    evaluate_catalog,
    full_report,
    generate_family,
    load_catalog,
    odd_conjecture_experiment,
    read_code_file,
    summary_table,
)
from .codes import CodeError, KnotoidCode, serialize
from .moves import iter_walk
from .skein import verify_skein


def _load_knotoids(path: str) -> list[tuple[str, KnotoidCode]]:
    named = read_code_file(path)
    if not named:
        raise CodeError(f"{path}: no code blocks found")
    return named


# (label, JSON key) of each line of a text report, in order
_TEXT_FIELDS = (
    ("name", "name"), ("crossings", "diagram_crossings"), ("C+", "c_plus"), ("C-", "c_minus"),
    ("CH+", "ch_plus"), ("CH-", "ch_minus"), ("norm sum", "norm_sum"),
    ("crossing-number bound", "crossing_lower_bound"), ("properness", "properness"),
)


def _render_report_text(report) -> str:
    d = report.to_json_dict()
    return "\n".join(f"{label}: {d[key]}" for label, key in _TEXT_FIELDS)


def cmd_compute(args: argparse.Namespace) -> int:
    reports = [full_report(code, name) for name, code in _load_knotoids(args.file)]
    if args.json:
        import json  # imported only where a report is serialized

        payload = [r.to_json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        print("\n\n".join(_render_report_text(r) for r in reports))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    reports = evaluate_catalog(args.directory, args.out)
    print(f"wrote {len(reports)} report(s) to {args.out}")
    return 0


def cmd_check_moves(args: argparse.Namespace) -> int:
    for flag, count in (("--steps", args.steps), ("--trials", args.trials)):
        if count < 0:
            raise CodeError(f"{flag} must be >= 0")
    for name, code in _load_knotoids(args.file):
        base = full_report(code, name)
        if base.is_virtual:
            raise CodeError(f"{name}: move checking requires a realizable code")
        base_row = (base.c_plus, base.c_minus, base.ch_plus, base.ch_minus)
        performed = 0
        for trial in range(args.trials):
            seed = args.seed + trial
            for step, (_, current) in enumerate(iter_walk(code, args.steps, seed)):
                performed += 1
                row = full_report(current, name)
                if (row.c_plus, row.c_minus, row.ch_plus, row.ch_minus) != base_row:
                    print(f"FAIL {name}: invariants changed (seed {seed})")
                    # the walk is seeded, so a replay up to this step prints its moves and codes
                    for i, (m, reached) in zip(range(step + 1), iter_walk(code, args.steps, seed)):
                        print(f"  step {i}: {m.kind} gaps={m.gaps} positions={m.positions} "
                              f"labels={m.labels} -> {serialize(reached)}")
                    return 2
        print(f"OK {name}: {args.trials} walk(s), {performed} of {args.trials * args.steps} "
              f"step(s) performed, invariants stable (C+={base.c_plus} C-={base.c_minus} "
              f"CH+={base.ch_plus} CH-={base.ch_minus})")
    return 0


def cmd_skein(args: argparse.Namespace) -> int:
    import json  # imported only where a report is serialized

    results = []
    for name, code in _load_knotoids(args.file):
        if args.crossing is not None:
            if args.crossing not in code.signs:
                raise CodeError(f"{name}: no crossing {args.crossing!r} in code")
            results.append(verify_skein(code, args.crossing).as_dict())
        else:
            results.extend(verify_skein(code, lab).as_dict() for lab in code.labels)
    print(json.dumps(results[0] if len(results) == 1 else results, indent=2))
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    if args.j < 1:
        raise CodeError("--j must be >= 1")
    print(serialize(generate_family(args.j)))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    for name, code in _load_knotoids(args.file):
        report = full_report(code, name)
        if report.crossing_lower_bound is None:
            raise CodeError(f"{name}: the bound needs a realizable code (this one is virtual)")
        print(report.crossing_lower_bound)
        if args.odd_conjecture:
            sides = odd_conjecture_experiment(report)
            print(f"odd-conjecture lhs={sides['lhs']} rhs={sides['rhs']}")
    return 0


def cmd_catalog_summary(args: argparse.Namespace) -> int:
    reports = [full_report(code, name) for name, code in load_catalog(args.directory)]
    print(summary_table(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotoid-casson",
        description="Exact Casson-type invariants of knotoids from signed Gauss codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant report for the codes in a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("batch", help="evaluate a catalog directory, one JSON per entry")
    p.add_argument("directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("check-moves", help="random-walk invariance harness")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_check_moves)

    p = sub.add_parser("skein", help="skein identity report (JSON)")
    p.add_argument("file")
    p.add_argument("--crossing", default=None)
    p.set_defaults(func=cmd_skein)

    p = sub.add_parser("family", help="print a sharpness family code")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bound", help="crossing-number lower bound of a code")
    p.add_argument("file")
    p.add_argument("--odd-conjecture", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("catalog-summary", help="print the summary table for a catalog")
    p.add_argument("directory")
    p.set_defaults(func=cmd_catalog_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
