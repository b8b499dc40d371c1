"""Command-line interface chaining the pipeline stages.

Subcommands: synth, oracle, cluster, eval, gradcheck, pipeline. Every
run with a fixed config + seed is bit-reproducible; stage failures exit
nonzero with a stage-tagged message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .fileio import (load_config, load_poses_json, load_predictions_csv,
                     save_predictions_csv, save_report_csv, save_report_json)
from .losses import GRADCHECK_STEP, gradcheck_trials
from .metrics import evaluate
from .pipeline import (StageError, StageWarning, estimate_poses, predict, read_scene,
                       run_pipeline, synthesize, write_poses, write_scene)

# Unused here; bound because perfbench/tracing.py wraps these names on binpose.cli.
from .cluster import cluster_predictions  # noqa: F401
from .synth import apply_occlusion, generate_scene, oracle_predict  # noqa: F401
from .workspace import denormalize_pose, fit_normalization, normalize_scene  # noqa: F401


def _add_common(p: argparse.ArgumentParser, out_dir: bool = True) -> None:
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--seed", type=int, default=0)
    if out_dir:
        p.add_argument("--out-dir", default="out", help="artifact directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it:
    parsing leaves it as it was, so one serves every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="binpose",
        description="symmetry-aware 6D pose estimation pipeline (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a scene with ground truth")
    _add_common(p)

    p = sub.add_parser("oracle", help="emit per-point predictions for the scene "
                                      "synth wrote to --out-dir")
    _add_common(p)

    p = sub.add_parser("cluster", help="cluster a prediction file into poses")
    _add_common(p)
    p.add_argument("--single-stage", action="store_true",
                   help="centroid-only clustering with averaged rotations")
    p.add_argument("--icp", action="store_true",
                   help="refine each voted pose against the labeled scene points")

    p = sub.add_parser("eval", help="score predicted poses against ground truth")
    _add_common(p)
    p.add_argument("--csv", action="store_true", help="also write report.csv")

    p = sub.add_parser("gradcheck", help="finite-difference loss gradient check")
    _add_common(p, out_dir=False)
    p.add_argument("--loss", default="translation,rotation",
                   help="comma-separated: translation, rotation, total")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--epsilon", type=float, default=GRADCHECK_STEP)

    p = sub.add_parser("pipeline", help="run synth through eval in one go")
    _add_common(p)
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--single-stage", action="store_true")
    p.add_argument("--icp", action="store_true", help="refine voted poses with ICP")
    return parser


def _print_summary(report: dict) -> None:
    print(json.dumps({k: report[k] for k in ("n_gt", "n_pred", "tp", "f1_inst", "recall")}))


def _cmd_synth(args, cfg) -> int:
    scene = synthesize(cfg, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    write_scene(args.out_dir, scene)
    print(f"wrote scene with {len(scene.instances)} instances, "
          f"{scene.points.shape[0]} visible points -> {args.out_dir}")
    return 0


def _cmd_oracle(args, cfg) -> int:
    pred = predict(cfg, read_scene(args.out_dir), args.seed)
    save_predictions_csv(os.path.join(args.out_dir, "predictions.csv"), pred)
    print(f"wrote {len(pred)} per-point predictions -> {args.out_dir}/predictions.csv")
    return 0


def _cmd_cluster(args, cfg) -> int:
    pred = load_predictions_csv(os.path.join(args.out_dir, "predictions.csv"))
    result = estimate_poses(cfg, pred, args.single_stage, args.icp)
    write_poses(args.out_dir, result)
    print(f"clustered {len(pred)} points into {len(result.poses)} instances")
    return 0


def _cmd_eval(args, cfg) -> int:
    from .fileio import load_scene_json
    gt = load_scene_json(os.path.join(args.out_dir, "scene.json"))
    poses, _ = load_poses_json(os.path.join(args.out_dir, "poses.json"))
    report = evaluate(poses, gt["poses"], gt["n_visible"], cfg.model.points,
                      cfg.model.group, cfg.model.mask, cfg.eval)
    save_report_json(os.path.join(args.out_dir, "report.json"), report,
                     extra={"seed": gt["seed"]})
    if args.csv:
        save_report_csv(os.path.join(args.out_dir, "report.csv"), [report])
    _print_summary(report.to_dict())
    return 0


def _cmd_gradcheck(args, cfg) -> int:
    for loss in [s.strip() for s in args.loss.split(",")]:   # "" is an unknown selector
        err = gradcheck_trials(loss, cfg.model.points, cfg.model.group,
                               cfg.model.mask, trials=args.trials,
                               epsilon=args.epsilon, seed=args.seed)
        print(json.dumps({"loss": loss, "max_rel_err": err,
                          "trials": args.trials, "epsilon": args.epsilon}))
    return 0


def _cmd_pipeline(args, cfg) -> int:
    payload = run_pipeline(cfg, args.seed, out_dir=args.out_dir,
                           scenes=args.scenes, single_stage=args.single_stage,
                           use_icp=args.icp)
    _print_summary(payload)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "oracle": _cmd_oracle,
    "cluster": _cmd_cluster,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StageWarning)
        try:
            return _COMMANDS[args.command](args, load_config(args.config))
        except (ValueError, FileNotFoundError, RuntimeError) as e:
            tag = "" if isinstance(e, StageError) else f"[{args.command}] "
            print(f"error: {tag}{e}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
