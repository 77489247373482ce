import json

import pytest

from socnav.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main


@pytest.fixture()
def tiny_config_file(tmp_path):
    cfg = {
        "sim": {"num_peds": 2},
        "net": {"hidden_dim": 16, "num_heads": 2, "ffn_dim": 16,
                "rtgp_window": 4, "policy_context": 4, "policy_blocks": 1,
                "head_hidden": 8},
        "train": {"pretrain_iters": 8, "policy_batch": 4, "rtgp_fast_batch": 4,
                  "sampled_trajs": 2, "offline_episodes": 4,
                  "finetune_episodes": 2},
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"gamma": 7}}')
        rc = run("--config", str(bad), "gen-data", "--episodes", "1",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG

    def test_unknown_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"simulation": {}}')
        rc = run("--config", str(bad), "gen-data", "--episodes", "1",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG

    def test_missing_input_is_3(self, tmp_path):
        rc = run("pretrain", "--data", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "c.ckpt"))
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("command", [
        ["finetune", "--ckpt", "c.ckpt", "--data", "d.jsonl", "--out", "f.ckpt"],
        ["eval", "--ckpt", "c.ckpt", "--report", "r.json"]],
        ids=["finetune", "eval"])
    def test_labels_rtg_mode_is_2(self, command):
        with pytest.raises(SystemExit) as exc:
            run(*command, "--rtg-mode", "labels")
        assert exc.value.code == EXIT_CONFIG

    def test_gen_data_ok(self, tiny_config_file, tmp_path):
        rc = run("--config", tiny_config_file, "gen-data", "--episodes", "2",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_OK
        assert (tmp_path / "d.jsonl").exists()
        assert (tmp_path / "d.jsonl.stats.json").exists()


class TestOverwriteGuard:
    def test_refuses_then_force(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "d.jsonl")
        assert run("--config", tiny_config_file, "gen-data", "--episodes", "2",
                   "--out", out) == EXIT_OK
        assert run("--config", tiny_config_file, "gen-data", "--episodes", "2",
                   "--out", out) == EXIT_CONFIG
        assert run("--config", tiny_config_file, "--force", "gen-data",
                   "--episodes", "2", "--out", out) == EXIT_OK


class TestStages:
    def test_full_stage_chain(self, tiny_config_file, tmp_path):
        data = str(tmp_path / "d.jsonl")
        ckpt = str(tmp_path / "pre.ckpt")
        ft = str(tmp_path / "ft.ckpt")
        report = str(tmp_path / "rep.json")
        poslog = str(tmp_path / "pos.jsonl")
        plots = str(tmp_path / "plots")

        assert run("--config", tiny_config_file, "gen-data", "--episodes", "4",
                   "--out", data) == EXIT_OK
        assert run("--config", tiny_config_file, "pretrain", "--data", data,
                   "--out", ckpt) == EXIT_OK
        assert run("--config", tiny_config_file, "finetune", "--ckpt", ckpt,
                   "--data", data, "--episodes", "2", "--out", ft) == EXIT_OK
        assert run("--config", tiny_config_file, "eval", "--ckpt", ft,
                   "--episodes", "2", "--report", report,
                   "--positions-log", poslog) == EXIT_OK
        assert run("plot", "--log", poslog, "--out", plots) == EXIT_OK

        rep = json.loads(open(report).read())
        assert rep["num_episodes"] == 2
        assert rep["train_transitions"] > 0
        assert rep["sampling_efficiency"] == pytest.approx(
            rep["mean_return"] / rep["train_transitions"], abs=1e-12)

    def test_chained_stages_match_pipeline_bytes(self, tiny_config_file, tmp_path):
        # the subcommands and `pipeline` run the same stage code
        pipe = tmp_path / "run"
        assert run("--config", tiny_config_file, "pipeline", "--out", str(pipe),
                   "--eval-episodes", "2") == EXIT_OK
        st = tmp_path / "stages"
        st.mkdir()
        chain = [
            ["gen-data", "--episodes", "4", "--out", f"{st}/dataset.jsonl"],
            ["pretrain", "--data", f"{st}/dataset.jsonl", "--out", f"{st}/pretrained.ckpt"],
            ["finetune", "--ckpt", f"{st}/pretrained.ckpt", "--data",
             f"{st}/dataset.jsonl", "--episodes", "2", "--out", f"{st}/finetuned.ckpt"],
            ["eval", "--ckpt", f"{st}/finetuned.ckpt", "--episodes", "2", "--report",
             f"{st}/eval_report.json", "--positions-log", f"{st}/eval_positions.jsonl"],
        ]
        for argv in chain:
            assert run("--config", tiny_config_file, *argv) == EXIT_OK
        names = sorted(p.name for p in st.iterdir())
        assert names == ["dataset.jsonl", "dataset.jsonl.stats.json", "eval_positions.jsonl",
                         "eval_report.json", "finetuned.ckpt", "pretrained.ckpt"]
        for name in names:
            assert (st / name).read_bytes() == (pipe / name).read_bytes(), name

    def test_stats_command(self, tiny_config_file, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        run("--config", tiny_config_file, "gen-data", "--episodes", "3",
            "--out", data)
        assert run("stats", "--data", data) == EXIT_OK
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert out["capacity"] == 3


class TestPipeline:
    def test_dry_run_writes_manifest_only(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "run")
        rc = run("--config", tiny_config_file, "pipeline", "--out", out,
                 "--dry-run")
        assert rc == EXIT_OK
        manifest = json.loads(open(f"{out}/manifest.json").read())
        assert manifest["dry_run"] is True
        assert manifest["artifacts"] == []
        import os
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_pipeline_produces_manifest_with_artifacts(self, tiny_config_file,
                                                       tmp_path):
        out = str(tmp_path / "run")
        rc = run("--config", tiny_config_file, "pipeline", "--out", out,
                 "--eval-episodes", "2")
        assert rc == EXIT_OK
        manifest = json.loads(open(f"{out}/manifest.json").read())
        assert manifest["dry_run"] is False
        for artifact in manifest["artifacts"]:
            import os
            assert os.path.exists(artifact), artifact
        assert manifest["stages"]["eval"]["success_rate"] >= 0.0

    def test_labels_config_is_2_before_any_work(self, tiny_config_file, tmp_path):
        cfg = json.loads(open(tiny_config_file).read())
        cfg["train"]["rtg_mode"] = "labels"
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run("--config", str(path), "pipeline", "--out", str(out)) == EXIT_CONFIG
        assert not (out / "dataset.jsonl").exists()
        assert not (out / "pretrained.ckpt").exists()

    def test_pipeline_artifacts_byte_identical(self, tiny_cfg, tmp_path):
        # every artifact except the wall-clock stamped manifest is a pure
        # function of (config, seed)
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(tiny_cfg.to_json() + "\n")
        files = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("--config", str(cfg_path), "pipeline", "--out", str(out),
                       "--eval-episodes", "4") == EXIT_OK
            files.append({p.relative_to(out): p.read_bytes()
                          for p in out.rglob("*")
                          if p.is_file() and p.name != "manifest.json"})
        assert len(files[0]) > 5
        assert files[0] == files[1]

    def test_pipeline_refuses_rerun_without_force(self, tiny_config_file,
                                                  tmp_path):
        out = str(tmp_path / "run")
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--eval-episodes", "2") == EXIT_OK
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--eval-episodes", "2") == EXIT_CONFIG
