"""Command-line interface: solve, check, gen, bench.

Exit codes: 0 success, 2 infeasible instance or supply, 3 input error,
4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from .core import (
    InfeasibleInstanceError,
    InternalInvariantError,
    TriviallyInfeasibleError,
)
from .fileio import (
    ParseError,
    emit_instance,
    emit_schedule,
    parse_instance,
    parse_supply,
)
from .flow import check_feasible
from .gen import GenerationError, generate_instance
from .pipeline import PipelineConfig, solve_instance
from .rational import as_rat
from .schedule import OracleLimitError, exact_opt
from .simplex import SimplexError

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_limits(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("limits must be n,D,m")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _parse_epsilon(text: str):
    try:
        eps = as_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"--epsilon {text!r} is not a rational") from exc
    if eps <= 0:
        raise ParseError(f"--epsilon {text!r} must be positive")
    return eps


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(
        mode=args.mode,
        epsilon=_parse_epsilon(args.epsilon),
        exact=getattr(args, "exact", False),
        oracle_limits=args.limits,
    )


def _witness_text(offset, witness, deficiency) -> str:
    spans = " ".join(
        f"[{iv.start + offset},{iv.end + offset}]" for iv in witness
    )
    return f"infeasible: deficiency {deficiency} on {spans or '(empty)'}"


def cmd_solve(args) -> int:
    instance = parse_instance(_read(args.instance))
    config = _config_from_args(args)
    result = solve_instance(instance, config)

    report = {
        "mode": result.mode,
        "machines": instance.machines,
        "wakeup": instance.wakeup,
        "horizon": instance.horizon + instance.offset,
        "jobs": len(instance.jobs),
        "total_ptime": instance.total_ptime,
        "lp_objective": str(result.lp_objective),
        "candidates": [
            {
                "weight": str(c.weight),
                "pre_energy": c.pre_energy,
                "post_energy": c.post_energy,
                "added_length": c.added_length,
            }
            for c in result.candidates
        ],
        "chosen": result.chosen,
        "energy": result.energy,
        "bound": str(result.bound),
        "guarantee": "lp+P" if instance.machines == 1 else "2lp+P",
    }
    if result.points is not None:
        report["point_count"] = len(result.points)
    if result.oracle_energy is not None:
        report["oracle_energy"] = result.oracle_energy
        report["ratio_to_opt"] = (
            result.energy / result.oracle_energy
            if result.oracle_energy else 1.0
        )

    text = emit_schedule(instance, result.schedule)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)

    if args.report == "json":
        print(json.dumps(report, indent=2), file=sys.stderr)
    else:
        lines = [
            f"mode {report['mode']}",
            f"LP objective {report['lp_objective']}",
            f"candidates {len(result.candidates)} (chosen {result.chosen})",
            f"energy {result.energy} (bound {report['bound']}, "
            f"{report['guarantee']})",
        ]
        if "oracle_energy" in report:
            lines.append(
                f"oracle {report['oracle_energy']} "
                f"(ratio {report['ratio_to_opt']:.4f})"
            )
        print("\n".join(lines), file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    instance = parse_instance(_read(args.instance))
    supply = parse_supply(_read(args.supply), instance)
    result = check_feasible(instance, supply)
    if result.feasible:
        print(f"feasible: flow {result.flow_value} covers all "
              f"{instance.total_ptime} units")
        return EXIT_OK
    print(_witness_text(instance.offset, result.witness, result.deficiency))
    return EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    try:
        instance = generate_instance(
            args.seed, args.jobs, args.machines, args.horizon,
            args.wakeup, args.density,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    text = emit_instance(instance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_BENCH_COLUMNS = [
    "file", "n", "m", "D", "Q", "P", "mode", "lp_objective", "energy",
    "bound", "oracle", "ratio_energy_lp", "ratio_energy_opt", "t_precheck",
    "t_lp", "t_decompose", "t_extend", "t_assign", "t_total", "error",
]


def _bench_row(path: Path, config: PipelineConfig, args) -> dict:
    row = {"file": path.name}
    start = time.perf_counter()
    try:
        instance = parse_instance(_read(str(path)))
        row.update(
            n=len(instance.jobs), m=instance.machines,
            D=instance.horizon + instance.offset, Q=instance.wakeup,
            P=instance.total_ptime,
        )
        result = solve_instance(instance, config)
        row.update(
            mode=result.mode,
            lp_objective=str(result.lp_objective),
            energy=result.energy,
            bound=str(result.bound),
        )
        if result.lp_objective > 0:
            row["ratio_energy_lp"] = (
                f"{float(result.energy / result.lp_objective):.4f}"
            )
        if args.exact:
            try:
                opt = exact_opt(instance, args.limits)
            except OracleLimitError:
                opt = None  # beyond oracle limits: leave the column blank
            if opt is not None:
                row["oracle"] = opt[0]
                if opt[0] > 0:
                    row["ratio_energy_opt"] = (
                        f"{result.energy / opt[0]:.4f}"
                    )
        for stage in ("precheck", "lp", "decompose", "extend", "assign"):
            row[f"t_{stage}"] = (
                f"{result.stage_seconds.get(stage, 0.0):.4f}"
            )
    except (ParseError, TriviallyInfeasibleError,
            InfeasibleInstanceError, GenerationError) as exc:
        row["error"] = str(exc)
    row["t_total"] = f"{time.perf_counter() - start:.4f}"
    return row


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    config.exact = False
    out = open(args.out, "w", newline="") if args.out \
        else nullcontext(sys.stdout)
    with out as stream:
        writer = csv.DictWriter(stream, fieldnames=_BENCH_COLUMNS)
        writer.writeheader()
        for path in sorted(Path(args.corpus).glob("*.txt")):
            writer.writerow(_bench_row(path, config, args))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powersched",
        description="Energy-minimal scheduling with a power-down mechanism",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=["auto", "full", "restricted"],
                       default="auto")
        p.add_argument("--epsilon", default="1/4",
                       help="restricted-mode accuracy, a positive rational "
                            "like 1/4")
        p.add_argument("--limits", type=_parse_limits, default=(6, 12, 2),
                       help="oracle limits n,D,m")

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--out", help="schedule output path (default stdout)")
    p_solve.add_argument("--exact", action="store_true",
                         help="also run the exhaustive oracle")
    p_solve.add_argument("--report", choices=["text", "json"], default="text")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="check a supply against an instance")
    p_check.add_argument("instance")
    p_check.add_argument("supply")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a feasible instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--jobs", type=int, default=5)
    p_gen.add_argument("--machines", type=int, default=1)
    p_gen.add_argument("--horizon", type=int, default=10)
    p_gen.add_argument("--wakeup", type=int, default=1)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a corpus and emit a CSV table")
    p_bench.add_argument("corpus")
    p_bench.add_argument("--out", help="CSV output path (default stdout)")
    p_bench.add_argument("--exact", action="store_true")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GenerationError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TriviallyInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InfeasibleInstanceError as exc:
        print(_witness_text(0, exc.witness, exc.deficiency), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InternalInvariantError, SimplexError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
