"""densegaze benchmark entry point.

    python3 benchmarks/run.py --workload stock_oracle --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 benchmarks/run.py --workload all --smoke --seconds 1 --trace 1

Run from anywhere; the densegaze sources are taken from src/ next to
this directory. The report goes to standard output; its last line is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a separate traced run. `all` runs each workload in a
process of its own, so that peak memory is per workload. Exit status is
0 when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("stock_oracle", "crowd_noisy", "gaze_pool")
# A single workload run ends within 180 s; `all` gives each child that much.
CHILD_TIMEOUT_S = 180
FAILED = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scenes (about 50 objects), for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_report(report: dict, feeds: dict) -> None:
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}, indent=1))
    name = report["meta"]["workload"]["name"]
    print(f"\n{name}: attempted {report['attempted']}, failed {report['failed']}, "
          f"failed_ratio {report['failed'] / report['attempted']:.4f}")
    for metric, m in report["metrics"].items():
        print(f"  {metric:28s} {m['value']:>16.6f} {m['unit']}")
    for layer in dict.fromkeys(m.split(".", 1)[0] for m in report["metrics"] if "." in m):
        print(f"  {layer} metrics should move: {feeds[layer]}")


def result_line(report: dict) -> dict:
    return {
        "correct": report["failed"] == 0 and bool(report["metrics"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness

    try:
        report = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except harness.SetupError as exc:
        print(f"set-up failed: {exc}")
        print(json.dumps(FAILED))
        return 1
    print_report(report, harness.FEEDS)
    line = result_line(report)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_child(cmd: list[str]) -> dict:
    """A child run's result line; a failed result when it times out,
    prints no result or exits non-zero."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"no result within {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
        return FAILED
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return FAILED
    return result if proc.returncode == 0 else {**result, "correct": False}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        result = run_child(cmd)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "densegaze" / "__init__.py").is_file():
        print(f"densegaze sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
