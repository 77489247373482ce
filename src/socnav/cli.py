"""Command-line entry point.

Subcommands: gen-data, pretrain, finetune, eval, plot, pipeline. One
global --seed is propagated to each stage with a fixed offset, so stages
are independently reproducible. Existing output files are never
overwritten without --force.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import trainer as tr
from .config import RTG_MODES, Config, ConfigError
from .dataset import (atomic_write, dataset_stats, dumps_lossless, generate_dataset,
                      load_trajectories)
from .plotting import figure_paths, plot_trajectories, worlds_to_log, write_positions_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_config(path, seed=None) -> Config:
    cfg = Config.load(path) if path else Config()
    if seed is not None:
        cfg.seed = seed
    cfg.validate()
    return cfg


def _guard_overwrite(paths, force: bool):
    for p in paths:
        if p and os.path.exists(p) and not force:
            raise CliError(f"refusing to overwrite {p} (pass --force)", EXIT_CONFIG)


def _count(text) -> int:
    """argparse type of an episode count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_bundle(cfg: Config, path):
    """Read a bundle whose blocks match the config's models in name and shape;
    the first missing, extra or reshaped block is a configuration error."""
    policy_store, rtgp_store, meta = tr.load_bundle(path)
    for role, store, model in zip(("policy", "rtgp"), (policy_store, rtgp_store),
                                  tr.build_models(cfg)):
        want = {n: b.shape for n, b in model.init_store(0).blocks.items()}
        got = {n: b.shape for n, b in store.blocks.items()}
        for name in [*want, *(n for n in got if n not in want)]:
            if got.get(name) != want.get(name):
                found, expected = (f"shape {s[name]}" if name in s else "missing"
                                   for s in (got, want))
                raise CliError(f"{path}: {role} block {name!r} is {found} in the "
                               f"checkpoint and {expected} in the config's model",
                               EXIT_CONFIG)
    return policy_store, rtgp_store, meta


def _write_manifest(path, command, cfg: Config, artifacts, started,
                    stages=None, dry_run=False):
    manifest = {
        "command": command,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "artifacts": sorted(a for a in artifacts if a),
        "stages": stages or {},
        "dry_run": dry_run,
        "started_unix": started,
        "finished_unix": time.time(),
    }
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# -- stages: each writes its artifact; `pipeline` chains the same code ------


def _gen_data(cfg: Config, episodes: int, out):
    """Generate and write the offline dataset; returns (trajectories, stats)."""
    return generate_dataset(episodes, seed=cfg.seed + tr.SEED_DATA, sim_cfg=cfg.sim,
                            gamma=cfg.train.gamma, out_path=out, config_hash=cfg.hash(),
                            max_capacity=cfg.train.buffer_capacity)


def _pretrain(cfg: Config, trajs, out):
    """Pre-train and write the bundle; returns (result, bundle meta)."""
    result = tr.pretrain_offline(trajs, cfg, seed=cfg.seed)
    meta = {"config_hash": cfg.hash(), "phase": "pretrained",
            "env_transitions": result.env_transitions}
    tr.save_bundle(out, result.policy_store, result.rtgp_store, meta=meta)
    return result, meta


def _finetune(cfg: Config, policy_store, rtgp_store, meta, trajs, out, episodes,
              rtg_mode):
    """Fine-tune the stores in place and write the bundle; returns (result, meta)."""
    result = tr.finetune_online(policy_store, rtgp_store, trajs, cfg, seed=cfg.seed,
                                episodes=episodes, rtg_mode=rtg_mode)
    prev = int(meta.get("env_transitions", 0))
    meta = {"config_hash": cfg.hash(), "phase": "finetuned", "rtg_mode": result.rtg_mode,
            "env_transitions": prev + result.env_transitions}
    tr.save_bundle(out, result.policy_store, result.rtgp_store, meta=meta)
    return result, meta


def _eval(cfg: Config, policy_store, rtgp_store, meta, episodes, report_path,
          positions_log, rtg_mode):
    """Evaluate and write the report, plus the positions log if a path is given."""
    rtg_mode = rtg_mode or meta.get("rtg_mode", cfg.train.rtg_mode)
    report, worlds = tr.evaluate(policy_store, rtgp_store, cfg, num_episodes=episodes,
                                 seed=cfg.seed, rtg_mode=rtg_mode,
                                 train_transitions=int(meta.get("env_transitions", 0)),
                                 record_world=bool(positions_log))
    with atomic_write(report_path) as fh:
        fh.write(report.to_json())
    if positions_log:
        seeds = [rec["seed"] for rec in report.per_episode]
        write_positions_log(positions_log, worlds_to_log(worlds, seeds, cfg.sim.dt))
    return report


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config, args.seed)
    if args.safety_space is not None:
        cfg.sim.robot_orca.safety_space = args.safety_space
    _guard_overwrite([args.out, args.out + ".stats.json"], args.force)
    _, stats = _gen_data(cfg, args.episodes, args.out)
    print(f"wrote {args.out}: {args.episodes} episodes, "
          f"success {stats.success_rate:.3f}, collision {stats.collision_rate:.3f}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.out], args.force)
    trajectories, _ = load_trajectories(args.data)
    result, _ = _pretrain(cfg, trajectories, args.out)
    print(f"wrote {args.out}: {result.iterations} iterations, final losses "
          f"policy {result.policy_losses[-1]:.5f} rtgp {result.rtgp_losses[-1]:.5f}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.out], args.force)
    policy_store, rtgp_store, meta = _load_bundle(cfg, args.ckpt)
    trajectories, _ = load_trajectories(args.data)
    result, _ = _finetune(cfg, policy_store, rtgp_store, meta, trajectories, args.out,
                          args.episodes, args.rtg_mode)
    n_succ = sum(1 for e in result.episodes if e.outcome == "success")
    print(f"wrote {args.out}: {len(result.episodes)} episodes "
          f"({n_succ} successes), {result.env_transitions} transitions")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.report, args.positions_log], args.force)
    policy_store, rtgp_store, meta = _load_bundle(cfg, args.ckpt)
    report = _eval(cfg, policy_store, rtgp_store, meta, args.episodes, args.report,
                   args.positions_log, args.rtg_mode)
    print(f"wrote {args.report}: success {report.success_rate:.3f}, "
          f"reward {report.mean_return:.4f}")
    return EXIT_OK


def cmd_plot(args) -> int:
    written = plot_trajectories(args.log, args.out, force=args.force)
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load_config(args.config, args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    paths = {
        "config": os.path.join(out, "config.json"),
        "dataset": os.path.join(out, "dataset.jsonl"),
        "pretrained": os.path.join(out, "pretrained.ckpt"),
        "finetuned": os.path.join(out, "finetuned.ckpt"),
        "report": os.path.join(out, "eval_report.json"),
        "positions": os.path.join(out, "eval_positions.jsonl"),
        "plots": os.path.join(out, "plots"),
        "manifest": os.path.join(out, "manifest.json"),
    }
    started = time.time()
    if args.dry_run:
        _write_manifest(paths["manifest"], "pipeline", cfg, [], started,
                        dry_run=True)
        print(f"dry run: wrote {paths['manifest']} only")
        return EXIT_OK

    figures = [p for i in range(args.eval_episodes) for p in figure_paths(paths["plots"], i)]
    _guard_overwrite([paths["config"], paths["dataset"], paths["dataset"] + ".stats.json",
                      paths["pretrained"], paths["finetuned"], paths["report"],
                      paths["positions"], *figures], args.force)
    with atomic_write(paths["config"]) as fh:
        fh.write(cfg.to_json() + "\n")
    episodes = cfg.train.offline_episodes if args.episodes is None else args.episodes
    trajectories, stats = _gen_data(cfg, episodes, paths["dataset"])
    pre, meta = _pretrain(cfg, trajectories, paths["pretrained"])
    ft, meta = _finetune(cfg, pre.policy_store, pre.rtgp_store, meta, trajectories,
                         paths["finetuned"], args.finetune_episodes, rtg_mode=None)
    report = _eval(cfg, ft.policy_store, ft.rtgp_store, meta, args.eval_episodes,
                   paths["report"], paths["positions"], rtg_mode=None)
    written = plot_trajectories(paths["positions"], paths["plots"], force=args.force)
    stages = {"gen-data": {"episodes": episodes, "success_rate": stats.success_rate},
              "pretrain": {"iterations": pre.iterations,
                           "policy_loss": pre.policy_losses[-1],
                           "rtgp_loss": pre.rtgp_losses[-1]},
              "finetune": {"episodes": len(ft.episodes),
                           "env_transitions": ft.env_transitions},
              "eval": {"success_rate": report.success_rate,
                       "mean_return": report.mean_return},
              "plot": {"files": len(written)}}

    artifacts = [paths[k] for k in ("config", "dataset", "pretrained",
                                    "finetuned", "report", "positions")]
    artifacts += [paths["dataset"] + ".stats.json"] + written
    _write_manifest(paths["manifest"], "pipeline", cfg, artifacts, started,
                    stages=stages)
    print(f"pipeline complete: success {report.success_rate:.3f}, "
          f"manifest {paths['manifest']}")
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = dataset_stats(args.data)
    print(dumps_lossless(stats.to_dict()))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="socnav", description=__doc__)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="global seed")
    p.add_argument("--force", action="store_true",
                   help="allow overwriting existing outputs")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="collect the offline dataset")
    g.add_argument("--episodes", type=_count, required=True)
    g.add_argument("--safety-space", type=float, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    g = sub.add_parser("pretrain", help="offline pre-training")
    g.add_argument("--data", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_pretrain)

    g = sub.add_parser("finetune", help="online fine-tuning")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--data", required=True, help="offline dataset for the hybrid buffer")
    g.add_argument("--episodes", type=_count, default=None)
    g.add_argument("--rtg-mode", choices=RTG_MODES, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_finetune)

    g = sub.add_parser("eval", help="seeded policy evaluation")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--episodes", type=_count, default=500)
    g.add_argument("--report", required=True)
    g.add_argument("--rtg-mode", choices=RTG_MODES, default=None)
    g.add_argument("--positions-log", default=None,
                   help="also write per-step world positions for plotting")
    g.set_defaults(fn=cmd_eval)

    g = sub.add_parser("plot", help="render trajectory figures from a positions log")
    g.add_argument("--log", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_plot)

    g = sub.add_parser("stats", help="print dataset statistics")
    g.add_argument("--data", required=True)
    g.set_defaults(fn=cmd_stats)

    g = sub.add_parser("pipeline", help="gen-data > pretrain > finetune > eval > plot")
    g.add_argument("--out", required=True)
    g.add_argument("--episodes", type=_count, default=None,
                   help="offline dataset episodes (default from config)")
    g.add_argument("--finetune-episodes", type=_count, default=None)
    g.add_argument("--eval-episodes", type=_count, default=100)
    g.add_argument("--dry-run", action="store_true")
    g.set_defaults(fn=cmd_pipeline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures map to a stable exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
