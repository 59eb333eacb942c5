"""Configuration grammar and the command-line surface."""

import csv
import json
import shutil

import pytest

from peftseg.backbone import BackboneConfig
from peftseg import cli
from peftseg.cli import main
from peftseg.config import ProjectConfig
from peftseg.data import DatasetManifest
from peftseg.decoders import DecoderConfig
from peftseg.errors import ConfigError
from peftseg.model import build_model
from peftseg.peft import LoraConfig, VitAdapterConfig, VptConfig
from peftseg.synthetic import SyntheticConfig
from peftseg.training import RunConfig

CFG_TEXT = """\
# tiny run for tests
[backbone]
embed_dim = 32
depth = 4
heads = 4
patch_size = 8
bands = b0, b1, b2  # inline comment
image_size = 32x32

[peft]
method = lora
rank = 4

[decoder]
kind = linear

[train]
learning_rate = 3e-3
batch_size = 4
max_epochs = 2
seed = 1

[synth]
regions = u, v, w
samples_per_region = 8
ghos_samples = 4
bands = b0, b1, b2
extent = 32
seed = 2
"""


def write_cfg(tmp_path, text=CFG_TEXT, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_and_typed_views(tmp_path):
    cfg = ProjectConfig.load(write_cfg(tmp_path))
    backbone = cfg.backbone_config()
    assert backbone.embed_dim == 32
    assert backbone.band_ids == ("b0", "b1", "b2")
    assert backbone.image_size == (32, 32)
    method, lora, _, _ = cfg.peft_configs()
    assert method == "lora" and lora.rank == 4
    assert cfg.get("train", "seed") == 1


def test_unknown_key_reports_line(tmp_path):
    bad = CFG_TEXT.replace("rank = 4", "rank = 4\nfrobnify = yes")
    with pytest.raises(ConfigError) as err:
        ProjectConfig.load(write_cfg(tmp_path, bad))
    message = str(err.value)
    assert "frobnify" in message
    line_no = int(message.split(":")[1])
    assert bad.splitlines()[line_no - 1].startswith("frobnify")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        ProjectConfig.load(write_cfg(tmp_path, CFG_TEXT + "\n[wormhole]\nx = 1\n"))
    assert "wormhole" in str(err.value)


def test_bad_value_reports_line(tmp_path):
    bad = CFG_TEXT.replace("embed_dim = 32", "embed_dim = thirty-two")
    with pytest.raises(ConfigError) as err:
        ProjectConfig.load(write_cfg(tmp_path, bad))
    assert "embed_dim" in str(err.value)


def test_repeated_injection_layer_rejected(tmp_path):
    cfg = ProjectConfig.load(write_cfg(tmp_path, CFG_TEXT.replace(
        "rank = 4", "rank = 4\ninjection_layers = 2, 2")))
    with pytest.raises(ConfigError) as err:
        cfg.peft_configs()
    assert "injection layers [2]" in str(err.value)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        ProjectConfig.load(tmp_path / "absent.cfg")


def test_resolved_round_trip(tmp_path):
    cfg = ProjectConfig.load(write_cfg(tmp_path))
    resolved = cfg.resolved_text()
    reparsed = ProjectConfig.parse(resolved)
    assert reparsed.values == cfg.values


def test_defaults_fill_missing_sections():
    cfg = ProjectConfig.parse("[train]\nseed = 7\n")
    assert cfg.get("train", "seed") == 7
    assert cfg.get("train", "plateau_patience") == 4
    assert cfg.get("backbone", "embed_dim") == 64


def test_default_views_equal_dataclass_defaults():
    cfg = ProjectConfig()
    desk = BackboneConfig(embed_dim=64, depth=4, heads=4, patch_size=8,
                          band_ids=("blue", "green", "red", "nir", "swir1", "swir2"),
                          image_size=(64, 64))
    manifest = DatasetManifest(root=".", num_classes=3, class_names=["a", "b", "c"],
                               bands=desk.band_ids, band_stats={}, samples=[])
    assert cfg.backbone_config() == desk
    assert cfg.peft_configs() == ("full_finetune", LoraConfig(), VptConfig(), VitAdapterConfig())
    assert cfg.synthetic_config() == SyntheticConfig()
    assert cfg.run_config(manifest) == RunConfig(
        backbone=desk, decoder=DecoderConfig("linear", 3), manifest=manifest,
        lora=LoraConfig(), vpt=VptConfig(), adapter=VitAdapterConfig())


@pytest.mark.parametrize("section, line, view, expected", [
    ("backbone", "tap_layers = 1, 2, 3, 4", lambda c: c.backbone_config().tap_layers, (1, 2, 3, 4)),
    ("peft", "injection_layers = 2", lambda c: c.peft_configs()[3].injection_layers, (2,)),
    ("backbone", "metadata = yes", lambda c: c.backbone_config().metadata_enabled, True),
    ("backbone", "image_size = 32x32", lambda c: c.backbone_config().image_size, (32, 32)),
    ("decoder", "ppm_scales = 1, 2", lambda c: c.decoder_config(2).ppm_scales, (1, 2)),
    ("synth", "val_fraction = 0.3", lambda c: c.synthetic_config().val_fraction, 0.3),
])
def test_each_parser_kind_reaches_its_view(section, line, view, expected):
    value = view(ProjectConfig.parse(f"[{section}]\n{line}\n"))
    assert value == expected
    assert type(value) is type(expected)
    if isinstance(value, tuple):
        assert all(type(v) is type(e) for v, e in zip(value, expected))


# ---------------------------------------------------------------------------
# CLI end-to-end


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    text = CFG_TEXT + f"\n[data]\nmanifest = {root / 'ds' / 'dataset'}\n"
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["synth", "--config", str(cfg_path), "--out", str(root / "ds")]) == 0
    return root, cfg_path


def test_synth_writes_dataset_and_resolved_copy(cli_workspace):
    root, _ = cli_workspace
    assert (root / "ds" / "dataset" / "manifest.json").exists()
    assert (root / "ds" / "resolved.cfg").exists()


def test_train_twice_deterministic_history(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "t1"),
                 "--quiet", "--seed", "1"]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "t2"),
                 "--quiet", "--seed", "1"]) == 0

    def deterministic_columns(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        # wall-clock seconds is the single non-reproducible column
        return [row[:-1] for row in rows]

    assert deterministic_columns(root / "t1" / "history.csv") == \
        deterministic_columns(root / "t2" / "history.csv")
    assert json.loads((root / "t1" / "metrics.json").read_text())["splits"] == \
        json.loads((root / "t2" / "metrics.json").read_text())["splits"]


def test_eval_checkpoint(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["eval", "--config", str(cfg_path), "--out", str(root / "e"),
                 "--checkpoint", str(root / "t1" / "checkpoint"), "--split", "test"]) == 0
    payload = json.loads((root / "e" / "eval_test.json").read_text())
    assert 0 <= payload["miou"] <= 100


def test_embed_and_distances(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["embed", "--config", str(cfg_path), "--out", str(root / "emb"),
                 "--checkpoint", str(root / "t1" / "checkpoint"), "--split", "val"]) == 0
    emb_path = root / "emb" / "embeddings_val.csv"
    with open(emb_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows[0]) == 2 + 32

    assert main(["distances", "--config", str(cfg_path), "--out", str(root / "dist"),
                 "--checkpoint", str(root / "t1" / "checkpoint")]) == 0
    report = json.loads((root / "dist" / "distances.json").read_text())
    assert set(report) == {"val", "test", "ghos"}


def test_split_and_audit(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["split", "--config", str(cfg_path), "--out", str(root / "sp"),
                 "--builder", "buffered", "--buffer-km", "5"]) == 0
    report = json.loads((root / "sp" / "split_report.json").read_text())
    assert report["min_cross_split_km"] >= 5.0

    assert main(["audit-splits", "--config", str(cfg_path), "--out", str(root / "audit"),
                 "--buffer-km", "5"]) == 0
    audit = json.loads((root / "audit" / "audit.json").read_text())
    assert audit["buffer_respected"] is True
    assert audit["unassigned"] == []


def test_split_overrides_reach_resolved_copy(cli_workspace, tmp_path):
    root, _ = cli_workspace
    shutil.copytree(root / "ds" / "dataset", tmp_path / "dataset")
    cfg_path = write_cfg(tmp_path, CFG_TEXT + f"\n[data]\nmanifest = {tmp_path / 'dataset'}\n"
                         "\n[split]\ntrain_quota = 4\nval_quota = 2\ntest_quota = 2\nghos_quota = 2\n")
    assert main(["split", "--config", str(cfg_path), "--out", str(tmp_path / "sp"),
                 "--builder", "balanced"]) == 0
    resolved = ProjectConfig.load(tmp_path / "sp" / "resolved.cfg")
    assert resolved.get("split", "builder") == "balanced"
    assert main(["audit-splits", "--config", str(cfg_path), "--out", str(tmp_path / "audit"),
                 "--buffer-km", "40"]) == 0
    resolved = ProjectConfig.load(tmp_path / "audit" / "resolved.cfg")
    assert resolved.get("split", "buffer_km") == 40.0
    assert json.loads((tmp_path / "audit" / "audit.json").read_text())["buffer_km"] == 40.0


def test_report_counts(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["report", "--config", str(cfg_path), "--out", str(root / "rep"),
                 "--num-classes", "2", "--no-activations"]) == 0
    payload = json.loads((root / "rep" / "report.json").read_text())
    assert payload["configured_method"] == "lora"
    by_method = {row["method"]: row for row in payload["rows"]}
    assert by_method["linear_probe"]["optimizer_state_elements"] < \
        by_method["full_finetune"]["optimizer_state_elements"]


def test_sweep_command(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["sweep", "--config", str(cfg_path), "--out", str(root / "sw"),
                 "--trials", "2", "--budget-epochs", "1"]) == 0
    payload = json.loads((root / "sw" / "sweep.json").read_text())
    assert len(payload["trials"]) == 2


def test_replicate_command(cli_workspace):
    root, cfg_path = cli_workspace
    assert main(["replicate", "--config", str(cfg_path), "--out", str(root / "rp"),
                 "--seeds", "0,1"]) == 0
    payload = json.loads((root / "rp" / "replicates.json").read_text())
    assert payload["seeds"] == [0, 1]
    metrics = {row["metric"] for row in payload["rows"]}
    assert "val_miou" in metrics and "test_miou" in metrics


@pytest.mark.parametrize("seeds", ["0,x", "", "0,,1"])
def test_replicate_malformed_seeds_exit_2(cli_workspace, capsys, seeds):
    root, cfg_path = cli_workspace
    assert main(["replicate", "--config", str(cfg_path), "--out", str(root / "rp_bad"),
                 "--seeds", seeds]) == 2
    assert "config error: --seeds" in capsys.readouterr().err


def test_eval_batch_size_zero_exits_2(cli_workspace, capsys):
    root, cfg_path = cli_workspace
    cfg = ProjectConfig.load(cfg_path)
    manifest = cfg.load_manifest()
    method, lora, vpt, adapter = cfg.peft_configs()
    build_model(cfg.backbone_config(), cfg.decoder_config(manifest.num_classes), method,
                lora_cfg=lora, vpt_cfg=vpt, adapter_cfg=adapter).save(root / "fresh_ckpt")
    bad = write_cfg(root, cfg_path.read_text().replace("batch_size = 4", "batch_size = 0"),
                    name="bad_batch.cfg")
    assert main(["eval", "--config", str(bad), "--out", str(root / "e0"),
                 "--checkpoint", str(root / "fresh_ckpt"), "--split", "test"]) == 2
    assert "config error: batch size" in capsys.readouterr().err


def test_every_command_writes_resolved_copy(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path)
    expected = ProjectConfig.load(cfg_path).values
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda cfg, args, out: 0)
        extra = ["--checkpoint", "ckpt"] if name in ("eval", "embed", "distances") else []
        out = tmp_path / name
        assert main([name, "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        assert ProjectConfig.load(out / "resolved.cfg").values == expected


def test_invalid_config_exits_2(tmp_path):
    bad = write_cfg(tmp_path, CFG_TEXT.replace("[train]", "[tran]"))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_manifest_exits_nonzero(tmp_path):
    cfg_path = write_cfg(tmp_path, CFG_TEXT + f"\n[data]\nmanifest = {tmp_path / 'nope'}\n")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_vit_l_vpt_report_count(tmp_path):
    """Large-shape report reproduces the published prompt-parameter count."""
    text = """\
[backbone]
embed_dim = 1024
depth = 24
heads = 16
patch_size = 16
bands = b0, b1, b2, b3, b4, b5
image_size = 224x224

[peft]
method = vpt
"""
    cfg_path = write_cfg(tmp_path, text)
    assert main(["report", "--config", str(cfg_path), "--out", str(tmp_path / "rep"),
                 "--num-classes", "2", "--no-activations"]) == 0
    payload = json.loads((tmp_path / "rep" / "report.json").read_text())
    by_method = {row["method"]: row for row in payload["rows"]}
    assert by_method["vpt"]["peft_params"] == 2_457_600
