"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: synth, density, saccade, run, eval, bench, stats.
Exit codes: 0 success, 2 configuration error, 3 I/O or format error,
4 detector adapter failure.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from .config import CONFIG_KEYS, ConfigError, ConfigKey, PipelineConfig, build_config, parse_value
from .core import ScaleLevel, load_scene, save_scene
from .density import DmapError, read_dmap, render_gt_density, write_dmap
from .evaluate import curve_csv, evaluate_detections, format_table
from .gaze import (
    AdapterError,
    CostedDetector,
    DetectorAdapter,
    ExternalCommandDetector,
    NoisyDetector,
    OracleDetector,
)
from .merge import read_detections, write_detections
from .pipeline import BudgetReport, compare_budgets, run_pipeline, select, sliding_window_run
from .saccade import patch_manifest
from .synth import SCENE_KEYS, InfeasibleSceneError, build_scene_spec, generate_scene, scene_stats

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ADAPTER = 4


def _add_key_flags(parser: argparse.ArgumentParser, keys: dict[str, ConfigKey]) -> None:
    for name, key in keys.items():
        parser.add_argument(f"--{key.flag or name.replace('_', '-')}", dest=name, help=key.help)


def _key_values(args: argparse.Namespace, keys: dict[str, ConfigKey]) -> dict:
    """The flags that were given, each parsed by its key's rule."""
    return {
        name: parse_value(name, raw, keys)
        for name in keys
        if (raw := getattr(args, name)) is not None
    }


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    _add_key_flags(parser, CONFIG_KEYS)


def _add_adapter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--adapter", default="oracle", help="oracle, noisy, or exec:<command>")
    parser.add_argument("--jitter", type=float, default=0.0, help="noisy adapter box jitter (px)")
    parser.add_argument("--miss-rate", type=float, default=0.0, help="noisy adapter miss probability")
    parser.add_argument("--fp-rate", type=float, default=0.0, help="noisy adapter false positives per patch")
    parser.add_argument("--seed", type=int, default=0, help="noisy adapter root seed")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return build_config(args.config, _key_values(args, CONFIG_KEYS))


@contextmanager
def _as_config_error():
    """A ValueError raised in the block, such as a bad spec or adapter
    parameter, is a configuration error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _make_adapter(args: argparse.Namespace, annotations) -> DetectorAdapter:
    choice = args.adapter
    with _as_config_error():
        if choice == "oracle":
            return OracleDetector(annotations)
        if choice == "noisy":
            return NoisyDetector(
                annotations,
                jitter=args.jitter,
                miss_rate=args.miss_rate,
                fp_rate=args.fp_rate,
                seed=args.seed,
            )
        if choice.startswith("exec:"):
            return ExternalCommandDetector(shlex.split(choice[len("exec:") :]))
    raise ConfigError(f"unknown adapter {choice!r}; expected oracle, noisy, or exec:<command>")


def _write_json(payload, path=None) -> None:
    """payload as indented JSON and a newline, to the file at path or to stdout."""
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def cmd_synth(args: argparse.Namespace) -> int:
    with _as_config_error():
        spec = build_scene_spec(args.spec, _key_values(args, SCENE_KEYS))
    annotations, extent = generate_scene(spec)
    save_scene(args.out, annotations, extent)
    _write_json({"annotations": len(annotations), "out": str(args.out)})
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    annotations, extent = load_scene(args.annotations)
    dset = render_gt_density(annotations, extent, config.downsample, config.boundaries)
    write_dmap(dset, args.out)
    _write_json(
        {
            "out": str(args.out),
            "map_size": [dset.width, dset.height],
            "mass": {s.label: dset[s].total_mass() for s in ScaleLevel},
        }
    )
    return EXIT_OK


def cmd_saccade(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    annotations, extent = load_scene(args.annotations)
    _, patches = select(annotations, extent, config, read_dmap(args.density) if args.density else None)
    _write_json(patch_manifest(patches), args.out)
    _write_json({"patches": len(patches), "out": str(args.out)})
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    annotations, extent = load_scene(args.annotations)
    adapter = _make_adapter(args, annotations)
    density = read_dmap(args.density) if args.density else None
    run = run_pipeline(annotations, extent, config, adapter, density=density)
    write_detections(args.out, run.detections)
    if args.dump_density:
        write_dmap(run.density, args.dump_density)
    if args.dump_patches:
        _write_json(patch_manifest(run.patches), args.dump_patches)
    if args.dump_config:
        Path(args.dump_config).write_text(config.to_file_text(), encoding="utf-8")
    _write_json(
        {
            "detections": len(run.detections),
            "out": str(args.out),
            "budget": run.budget.to_json_dict(),
            "standard_size": list(run.standard_size),
        }
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    detections = read_detections(args.detections)
    annotations, _ = load_scene(args.annotations)
    report = evaluate_detections(detections, annotations)
    if args.out:
        _write_json(report.to_json_dict(), args.out)
    if args.pr_csv:
        Path(args.pr_csv).write_text(curve_csv(report.overall), encoding="utf-8")
    print(report.to_table())
    _write_json(report.to_json_dict())
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    annotations, extent = load_scene(args.annotations)
    # One adapter serves all three runs. The costed wrapper answers patch by
    # patch, so it wraps only when there is busy work (a nonzero cost) to meter.
    adapter = _make_adapter(args, annotations)
    if args.cost_per_pixel:
        with _as_config_error():
            adapter = CostedDetector(adapter, args.cost_per_pixel)

    run = run_pipeline(annotations, extent, config, adapter)
    runs: dict[str, BudgetReport] = {"saccade": run.budget}
    for grid in dict.fromkeys((config.grids[0], config.grids[1])):
        _, report = sliding_window_run(
            extent,
            grid,
            adapter,
            run.standard_size,
            expansion=config.expansion,
            workers=config.workers,
            nms_iou=config.nms_iou,
        )
        runs[f"sw_{grid * grid}"] = report

    ratios = {name: compare_budgets(runs["saccade"], r) for name, r in runs.items() if name != "saccade"}
    payload = {
        "note": "pixel budgets are the deterministic cost proxy; wall-clock is informative only",
        "standard_size": list(run.standard_size),
        "runs": {name: r.to_json_dict() for name, r in runs.items()},
        # JSON has no infinity: a ratio over an empty saccade run is null.
        "ratios": {f"{name}_vs_saccade": None if math.isinf(r) else r for name, r in ratios.items()},
    }
    rows = [("run", "patches", "pixels", "wall_s", "ratio_vs_saccade")]
    for name, report in runs.items():
        ratio = ratios.get(name, 1.0)
        rows.append(
            (name, str(report.patch_count), str(report.pixels_processed),
             f"{report.wall_seconds:.3f}", f"{ratio:.2f}")
        )
    print(format_table(rows))
    if args.out:
        _write_json(payload, args.out)
    _write_json(payload)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    annotations, extent = load_scene(args.annotations)
    stats = scene_stats(annotations, extent)
    _write_json(stats.to_json_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densegaze",
        description="Density-guided dual-stage detection pipeline for gigapixel scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic annotated scene")
    p.add_argument("--out", required=True, help="annotation JSON to write")
    p.add_argument("--spec", metavar="FILE", help="key=value scene spec file")
    _add_key_flags(p, SCENE_KEYS)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("density", help="render ground-truth density maps to a DMAP file")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True, help="DMAP file to write")
    _add_config_flags(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("saccade", help="emit the selected-patch manifest")
    p.add_argument("--annotations", required=True)
    p.add_argument("--density", help="use a precomputed DMAP instead of rendering")
    p.add_argument("--out", required=True, help="patch manifest JSON to write")
    _add_config_flags(p)
    p.set_defaults(func=cmd_saccade)

    p = sub.add_parser("run", help="full pipeline: density, saccade, gaze, merge")
    p.add_argument("--annotations", required=True)
    _add_adapter_flags(p)
    p.add_argument("--density", help="use a precomputed DMAP instead of rendering")
    p.add_argument("--out", required=True, help="detections JSON to write")
    p.add_argument("--dump-density", help="also write the density maps as DMAP")
    p.add_argument("--dump-patches", help="also write the patch manifest JSON")
    p.add_argument("--dump-config", help="also write the effective config file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score detections against annotations")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--pr-csv", help="write precision-recall samples as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="compare pixel budgets: saccade vs sliding windows")
    p.add_argument("--annotations", required=True)
    _add_adapter_flags(p)
    p.add_argument("--cost-per-pixel", type=float, default=0.0, help="busy-work per pixel")
    p.add_argument("--out", help="write the comparison JSON here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="bucket counts and coverage of a scene")
    p.add_argument("--annotations", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleSceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdapterError as exc:
        print(f"adapter error: {exc}", file=sys.stderr)
        return EXIT_ADAPTER
    except (OSError, DmapError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
