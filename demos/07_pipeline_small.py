"""A complete (miniature) run of the training pipeline: collect, pretrain
offline, fine-tune online with the hybrid buffer, evaluate, plot."""

import json
import tempfile
from pathlib import Path

from socnav.cli import main

out = Path(tempfile.mkdtemp()) / "run"
cfg = {
    "sim": {"num_peds": 3},
    "net": {"hidden_dim": 32, "num_heads": 2, "ffn_dim": 32, "rtgp_window": 6,
            "policy_context": 6, "policy_blocks": 1, "head_hidden": 16},
    "train": {"pretrain_iters": 60, "batch_size": 16,
              "sampled_trajs": 2, "offline_episodes": 20,
              "finetune_episodes": 6},
    "seed": 11,
}
cfg_path = out.parent / "config.json"
cfg_path.write_text(json.dumps(cfg))

rc = main(["--config", str(cfg_path), "pipeline", "--out", str(out),
           "--eval-episodes", "5"])
print("exit code:", rc)

manifest = json.loads((out / "manifest.json").read_text())
print("\nstages:")
for stage, info in manifest["stages"].items():
    print(f"  {stage}: {info}")
print(f"\n{len(manifest['artifacts'])} artifacts under {out}")
report = json.loads((out / "eval_report.json").read_text())
print(f"evaluation: success {report['success_rate']:.2f}, "
      f"mean return {report['mean_return']:+.4f}, "
      f"sampling efficiency {report['sampling_efficiency']}")
