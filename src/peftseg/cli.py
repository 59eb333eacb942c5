"""Command-line entry point.

Every command takes ``--config``, ``--seed``, and ``--out``; artifacts land
under the output directory next to a fully resolved copy of the configuration
so the run can be reproduced from the copy alone. Config errors exit with
status 2 and a line-level diagnostic; missing files and runtime failures exit
with status 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import diagnostics
from .config import ProjectConfig
from .errors import ConfigError, EngineError
from .model import build_model
from .splits import audit_splits, build_buffered_spatial_splits, build_class_balanced_splits
from .synthetic import generate_synthetic
from .training import evaluate, lr_search, run_replicates, train, write_history_csv


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def _write_flat_csv(path: Path, payload: dict) -> None:
    """Flatten a report dict into (key, value) CSV rows."""
    path.parent.mkdir(parents=True, exist_ok=True)

    def rows(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                yield from rows(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, (list, tuple)):
            yield prefix, ";".join(str(v) for v in value)
        else:
            yield prefix, value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["field", "value"])
        for key, value in rows("", payload):
            writer.writerow([key, value])


def _load_config(args) -> ProjectConfig:
    cfg = ProjectConfig.load(args.config) if args.config else ProjectConfig()
    if args.seed is not None:
        cfg.set("train", "seed", args.seed)
        cfg.set("synth", "seed", args.seed)
        cfg.set("split", "seed", args.seed)
    return cfg


def _checkpoint_inputs(cfg: ProjectConfig, args):
    """(manifest, model loaded from ``--checkpoint``, configured bands or None)."""
    manifest = cfg.load_manifest()
    method, lora, vpt, adapter = cfg.peft_configs()
    model = build_model(cfg.backbone_config(), cfg.decoder_config(manifest.num_classes),
                        method, seed=cfg.get("train", "seed"),
                        lora_cfg=lora, vpt_cfg=vpt, adapter_cfg=adapter)
    model.load(args.checkpoint)
    return manifest, model, tuple(cfg.get("data", "bands")) or None


def cmd_synth(cfg: ProjectConfig, args, out: Path) -> int:
    manifest = generate_synthetic(cfg.synthetic_config(), out / "dataset")
    cfg.set("data", "manifest", str(out / "dataset"))
    sizes = {s: len(manifest.split_ids(s)) for s in ("train", "val", "test", "ghos")}
    print(f"dataset written to {out / 'dataset'}: {sizes}")
    return 0


def cmd_split(cfg: ProjectConfig, args, out: Path) -> int:
    manifest = cfg.load_manifest()
    if args.buffer_km is not None:
        cfg.set("split", "buffer_km", args.buffer_km)
    if args.builder is not None:
        cfg.set("split", "builder", args.builder)
    s = cfg.values["split"]
    builder = s["builder"]
    if builder == "buffered":
        ratios = dict(zip(("train", "val", "test"), s["ratios"]))
        result = build_buffered_spatial_splits(manifest.samples, buffer_km=s["buffer_km"],
                                               ratios=ratios, seed=s["seed"])
    elif builder == "balanced":
        quotas = {"train": s["train_quota"], "val": s["val_quota"], "test": s["test_quota"]}
        result = build_class_balanced_splits(manifest.samples, quotas=quotas,
                                             excluded_regions=tuple(s["excluded_regions"]),
                                             ghos_quota=s["ghos_quota"], seed=s["seed"])
    else:
        raise ConfigError(f"unknown split builder {builder!r} (balanced or buffered)")
    manifest.splits = result.assignment
    manifest.save()
    _write_json(out / "splits.json", result.assignment)
    _write_json(out / "split_report.json", result.report)
    print(f"split sizes: {result.report.get('sizes')}")
    return 0


def cmd_audit_splits(cfg: ProjectConfig, args, out: Path) -> int:
    manifest = cfg.load_manifest()
    if args.buffer_km is not None:
        cfg.set("split", "buffer_km", args.buffer_km)
    buffer_km = cfg.get("split", "buffer_km")
    quotas = {"train": cfg.get("split", "train_quota"), "val": cfg.get("split", "val_quota"),
              "test": cfg.get("split", "test_quota"), "ghos": cfg.get("split", "ghos_quota")}
    report = audit_splits(manifest.samples, manifest.splits, buffer_km=buffer_km, quotas=quotas)
    _write_json(out / "audit.json", report)
    _write_flat_csv(out / "audit.csv", report)
    min_km = report.get("min_cross_split_km")
    print(f"sizes {report['sizes']}  min cross-split distance "
          f"{min_km if min_km is not None else 'n/a'} km")
    return 0


def cmd_train(cfg: ProjectConfig, args, out: Path) -> int:
    run_cfg = cfg.run_config()
    result = train(run_cfg, verbose=not args.quiet)
    result.model.save(out / "checkpoint")
    write_history_csv(result.history, out / "history.csv")
    metrics = {split: {k: v for k, v in m.items() if k != "confusion"}
               for split, m in result.final_metrics.items()}
    _write_json(out / "metrics.json", {
        "best_epoch": result.best_epoch,
        "best_val_miou": result.best_val_miou,
        "wall_seconds": result.wall_seconds,
        "splits": metrics,
        "trainable_params": result.parameter_report.trainable,
        "total_params": result.parameter_report.total,
    })
    print(f"best epoch {result.best_epoch}  val mIoU {result.best_val_miou:.2f}  "
          f"artifacts in {out}")
    return 0


def cmd_eval(cfg: ProjectConfig, args, out: Path) -> int:
    manifest, model, bands = _checkpoint_inputs(cfg, args)
    metrics = evaluate(model, manifest, args.split,
                       batch_size=cfg.get("train", "batch_size"), bands=bands)
    payload = {k: v for k, v in metrics.items() if k != "confusion"}
    _write_json(out / f"eval_{args.split}.json", payload)
    print(f"{args.split}: mIoU {metrics['miou']:.2f}  pixel acc {metrics['pixel_accuracy']:.4f}")
    return 0


def cmd_sweep(cfg: ProjectConfig, args, out: Path) -> int:
    run_cfg = cfg.run_config()
    best_lr, table = lr_search(run_cfg, trials=args.trials,
                               lr_range=(args.lr_min, args.lr_max),
                               budget_epochs=args.budget_epochs,
                               seed=cfg.get("train", "seed"))
    _write_json(out / "sweep.json", {"best_lr": best_lr, "trials": table})
    print(f"best learning rate {best_lr:.3e} over {len(table)} trials")
    return 0


def cmd_replicate(cfg: ProjectConfig, args, out: Path) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    run_cfg = cfg.run_config()
    result = run_replicates(run_cfg, seeds=seeds)
    _write_json(out / "replicates.json", {
        "seeds": result.seeds,
        "rows": result.rows(),
    })
    for row in result.rows():
        print(f"{row['metric']}: {row['mean']:.2f} +/- {row['std']:.2f}")
    return 0


def cmd_embed(cfg: ProjectConfig, args, out: Path) -> int:
    manifest, model, bands = _checkpoint_inputs(cfg, args)
    path = out / f"embeddings_{args.split}.csv"
    rows = diagnostics.export_embeddings(model, manifest, args.split, out_path=path, bands=bands)
    print(f"wrote {len(rows)} embeddings to {path}")
    return 0


def cmd_distances(cfg: ProjectConfig, args, out: Path) -> int:
    manifest, model, bands = _checkpoint_inputs(cfg, args)
    report = diagnostics.distance_report(model, manifest, bands=bands)
    _write_json(out / "distances.json", report.as_dict())
    parts = [f"val {report.val:.4f}", f"test {report.test:.4f}"]
    if report.ghos is not None:
        parts.append(f"ghos {report.ghos:.4f}")
    print("mean min-distance to train: " + "  ".join(parts))
    return 0


def cmd_report(cfg: ProjectConfig, args, out: Path) -> int:
    backbone_cfg = cfg.backbone_config()
    num_classes = args.num_classes
    if num_classes is None:
        try:
            num_classes = cfg.load_manifest().num_classes
        except EngineError:
            num_classes = 2
    decoder_cfg = cfg.decoder_config(num_classes)
    method, lora, vpt, adapter = cfg.peft_configs()
    rows = diagnostics.parameter_memory_report(
        backbone_cfg, decoder_cfg, batch_size=cfg.get("train", "batch_size"),
        lora=lora, vpt=vpt, adapter=adapter,
        include_activations=not args.no_activations)
    _write_json(out / "report.json", {"configured_method": method, "rows": rows})
    encoder = rows[0]["encoder_params"]
    print(f"encoder {diagnostics.format_param_display(encoder)}")
    for row in rows:
        marker = "*" if row["method"] == method else " "
        line = (f"{marker} {row['method']:14s} "
                f"peft {diagnostics.format_param_display(row['peft_params']):>22s} "
                f"({row['peft_pct_of_encoder']:.2f}%)  "
                f"trainable {row['trainable_params']:>12,} ({row['trainable_pct']:.2f}%)  "
                f"opt-state {row['optimizer_state_elements']:>13,}")
        if "activation_elements_per_batch" in row:
            line += f"  activations/batch {row['activation_elements_per_batch']:,}"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peftseg",
                                     description="PEFT fine-tuning engine for dense "
                                                 "multispectral segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)

    p = sub.add_parser("split", help="rebuild dataset splits with one of the builders")
    common(p)
    p.add_argument("--builder", choices=("balanced", "buffered"))
    p.add_argument("--buffer-km", type=float, default=None)

    p = sub.add_parser("audit-splits", help="audit the manifest's split assignment")
    common(p)
    p.add_argument("--buffer-km", type=float, default=None)

    p = sub.add_parser("train", help="run the fine-tuning protocol")
    common(p)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")

    p = sub.add_parser("sweep", help="random log-uniform learning-rate search")
    common(p)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--lr-min", type=float, default=1e-5)
    p.add_argument("--lr-max", type=float, default=1e-2)
    p.add_argument("--budget-epochs", type=int, default=10)

    p = sub.add_parser("replicate", help="repeat a run over multiple seeds")
    common(p)
    p.add_argument("--seeds", default="0,1,2,3,4")

    p = sub.add_parser("embed", help="export per-sample image embeddings as CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")

    p = sub.add_parser("distances", help="embedding min-distance generalization report")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("report", help="parameter and memory accounting")
    common(p)
    p.add_argument("--num-classes", type=int, default=None)
    p.add_argument("--no-activations", action="store_true")

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "audit-splits": cmd_audit_splits,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "replicate": cmd_replicate,
    "embed": cmd_embed,
    "distances": cmd_distances,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out)
        code = _COMMANDS[args.command](cfg, args, out)
        cfg.write_resolved(out)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
