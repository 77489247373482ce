"""Command-line entry point.

Subcommands: gen-data, stats, pretrain, finetune, eval, plot, pipeline. The
config file plus --seed describes a run: no flag overrides a config field,
and only the evaluation episode count is a flag. The seed is propagated to
each stage with a fixed offset, so stages are independently reproducible.
Every refusal (a ConfigError, or a FileExistsError for an existing output
without --force) comes before the command's first write.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import trainer as tr
from .config import Config, ConfigError
from .core import joint_dim
from .dataset import (atomic_write, dataset_stats, dumps_lossless, generate_dataset,
                      load_trajectories, stats_path)
from .plotting import (figure_paths, plot_trajectories, read_positions_log, worlds_to_log,
                       write_positions_log)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
# training bytes depend on the BLAS thread count these variables set
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _load_config(path, seed=None) -> Config:
    cfg = Config.load(path) if path else Config()
    if seed is not None:
        cfg.seed = seed
    cfg.validate()
    return cfg


def _guard_overwrite(paths, force: bool):
    for p in paths:
        if p and os.path.exists(p) and not force:
            raise FileExistsError(f"refusing to overwrite {p} (pass --force)")


def _count(text) -> int:
    """argparse type of an episode count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _blas_threads() -> dict:
    """Each BLAS thread variable's value, None when unset."""
    return {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def _warn_blas_threads():
    """One stderr line when no BLAS thread count is set and more than one
    CPU is usable: BLAS then runs a thread per CPU, which is slower beside
    the training threads and writes other checkpoint bytes."""
    if all(v is None for v in _blas_threads().values()) and len(os.sched_getaffinity(0)) > 1:
        print("warning: OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are unset, so BLAS "
              "runs one thread per CPU; set OPENBLAS_NUM_THREADS=1 for faster "
              "training and reproducible checkpoints", file=sys.stderr)


def _load_dataset(cfg: Config, path):
    """Read a dataset written for the config's state width and discount;
    another state width or `gamma` is a configuration error naming both."""
    trajectories, header = load_trajectories(path)
    want = joint_dim(cfg.sim.num_peds)
    for t in trajectories:
        if t.states.shape[-1] != want:
            raise ConfigError(f"{path}: states are {t.states.shape[-1]} wide, the config's "
                              f"{cfg.sim.num_peds} pedestrians need {want}")
    if header.get("gamma") != cfg.train.gamma:
        raise ConfigError(f"{path}: return labels use gamma {header.get('gamma')}, the "
                          f"config's train.gamma is {cfg.train.gamma}")
    return trajectories


def _load_bundle(cfg: Config, path):
    """Read a bundle whose blocks match the config's models in name and shape
    and whose recorded `rtg_mode`, if any, is the config's; the first missing,
    extra or reshaped block, or another mode, is a configuration error."""
    policy_store, rtgp_store, meta = tr.load_bundle(path)
    mode = meta.get("rtg_mode", cfg.train.rtg_mode)
    if mode != cfg.train.rtg_mode:
        raise ConfigError(f"{path}: fine-tuned in rtg_mode {mode!r}, the config's "
                          f"train.rtg_mode is {cfg.train.rtg_mode!r}")
    for role, store, model in zip(("policy", "rtgp"), (policy_store, rtgp_store),
                                  tr.build_models(cfg)):
        want = {n: b.shape for n, b in model.init_store(0).blocks.items()}
        got = {n: b.shape for n, b in store.blocks.items()}
        for name in [*want, *(n for n in got if n not in want)]:
            if got.get(name) != want.get(name):
                found, expected = (f"shape {s[name]}" if name in s else "missing"
                                   for s in (got, want))
                raise ConfigError(f"{path}: {role} block {name!r} is {found} in the "
                                  f"checkpoint and {expected} in the config's model")
    return policy_store, rtgp_store, meta


def _write_manifest(path, command, cfg: Config, artifacts, started,
                    stages=None, dry_run=False):
    manifest = {
        "command": command,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "blas_threads": _blas_threads(),
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


def _gen_data(cfg: Config, out):
    """Generate and write the offline dataset; returns (trajectories, stats)."""
    return generate_dataset(cfg.train.offline_episodes, seed=cfg.seed + tr.SEED_DATA,
                            sim_cfg=cfg.sim, gamma=cfg.train.gamma, out_path=out,
                            config_hash=cfg.hash(), max_capacity=cfg.train.buffer_capacity)


def _pretrain(cfg: Config, trajs, out):
    """Pre-train and write the bundle; returns (result, bundle meta)."""
    result = tr.pretrain_offline(trajs, cfg)
    meta = {"config_hash": cfg.hash(), "phase": "pretrained",
            "env_transitions": result.env_transitions, "blas_threads": _blas_threads()}
    tr.save_bundle(out, result.policy_store, result.rtgp_store, meta=meta)
    return result, meta


def _finetune(cfg: Config, policy_store, rtgp_store, meta, trajs, out):
    """Fine-tune the stores in place and write the bundle; returns (result, meta)."""
    result = tr.finetune_online(policy_store, rtgp_store, trajs, cfg)
    prev = int(meta.get("env_transitions", 0))
    meta = {"config_hash": cfg.hash(), "phase": "finetuned", "rtg_mode": result.rtg_mode,
            "env_transitions": prev + result.env_transitions,
            "blas_threads": _blas_threads()}
    tr.save_bundle(out, result.policy_store, result.rtgp_store, meta=meta)
    return result, meta


def _eval(cfg: Config, policy_store, rtgp_store, meta, episodes, report_path,
          positions_log):
    """Evaluate and write the report, plus the positions log if a path is given."""
    report, worlds = tr.evaluate(policy_store, rtgp_store, cfg, num_episodes=episodes,
                                 record_world=bool(positions_log),
                                 train_transitions=int(meta.get("env_transitions", 0)))
    with atomic_write(report_path) as fh:
        fh.write(report.to_json())
    if positions_log:
        seeds = [rec["seed"] for rec in report.per_episode]
        write_positions_log(positions_log, worlds_to_log(worlds, seeds, cfg.sim.dt))
    return report


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.out, stats_path(args.out)], args.force)
    _, stats = _gen_data(cfg, args.out)
    print(f"wrote {args.out}: {cfg.train.offline_episodes} episodes, "
          f"success {stats.success_rate:.3f}, collision {stats.collision_rate:.3f}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.out], args.force)
    _warn_blas_threads()
    trajectories = _load_dataset(cfg, args.data)
    result, _ = _pretrain(cfg, trajectories, args.out)
    print(f"wrote {args.out}: {result.iterations} iterations, final losses "
          f"policy {result.policy_losses[-1]:.5f} rtgp {result.rtgp_losses[-1]:.5f}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.out], args.force)
    _warn_blas_threads()
    policy_store, rtgp_store, meta = _load_bundle(cfg, args.ckpt)
    trajectories = _load_dataset(cfg, args.data)
    result, _ = _finetune(cfg, policy_store, rtgp_store, meta, trajectories, args.out)
    n_succ = sum(1 for e in result.episodes if e.outcome == "success")
    print(f"wrote {args.out}: {len(result.episodes)} episodes "
          f"({n_succ} successes), {result.env_transitions} transitions")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _guard_overwrite([args.report, args.positions_log], args.force)
    policy_store, rtgp_store, meta = _load_bundle(cfg, args.ckpt)
    report = _eval(cfg, policy_store, rtgp_store, meta, args.episodes, args.report,
                   args.positions_log)
    print(f"wrote {args.report}: success {report.success_rate:.3f}, "
          f"reward {report.mean_return:.4f}")
    return EXIT_OK


def cmd_plot(args) -> int:
    episodes = read_positions_log(args.log)
    _guard_overwrite([p for rec in episodes
                      for p in figure_paths(args.out, rec.get("episode", 0))], args.force)
    written = plot_trajectories(episodes, args.out)
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
        _guard_overwrite([paths["manifest"]], args.force)
        _write_manifest(paths["manifest"], "pipeline", cfg, [], started,
                        dry_run=True)
        print(f"dry run: wrote {paths['manifest']} only")
        return EXIT_OK

    outputs = [paths["config"], paths["dataset"], stats_path(paths["dataset"]),
               paths["pretrained"], paths["finetuned"], paths["report"], paths["positions"]]
    figures = [p for i in range(args.eval_episodes) for p in figure_paths(paths["plots"], i)]
    _guard_overwrite(outputs + figures, args.force)
    _warn_blas_threads()
    trajectories, stats = _gen_data(cfg, paths["dataset"])
    with atomic_write(paths["config"]) as fh:
        fh.write(cfg.to_json() + "\n")
    pre, meta = _pretrain(cfg, trajectories, paths["pretrained"])
    ft, meta = _finetune(cfg, pre.policy_store, pre.rtgp_store, meta, trajectories,
                         paths["finetuned"])
    report = _eval(cfg, ft.policy_store, ft.rtgp_store, meta, args.eval_episodes,
                   paths["report"], paths["positions"])
    written = plot_trajectories(read_positions_log(paths["positions"]), paths["plots"])
    stages = {"gen-data": {"episodes": len(trajectories), "success_rate": stats.success_rate},
              "pretrain": {"iterations": pre.iterations,
                           "policy_loss": pre.policy_losses[-1],
                           "rtgp_loss": pre.rtgp_losses[-1]},
              "finetune": {"episodes": len(ft.episodes),
                           "env_transitions": ft.env_transitions},
              "eval": {"success_rate": report.success_rate,
                       "mean_return": report.mean_return},
              "plot": {"files": len(written)}}

    _write_manifest(paths["manifest"], "pipeline", cfg, outputs + written, started,
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
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    g = sub.add_parser("pretrain", help="offline pre-training")
    g.add_argument("--data", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_pretrain)

    g = sub.add_parser("finetune", help="online fine-tuning")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--data", required=True, help="offline dataset for the hybrid buffer")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_finetune)

    g = sub.add_parser("eval", help="seeded policy evaluation")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--episodes", type=_count, default=500)
    g.add_argument("--report", required=True)
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
    g.add_argument("--eval-episodes", type=_count, default=100)
    g.add_argument("--dry-run", action="store_true")
    g.set_defaults(fn=cmd_pipeline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures map to a stable exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
