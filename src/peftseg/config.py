"""Declarative run configuration: flat key-value text with sections.

Grammar: INI-style sections (``[train]``), one ``key = value`` per line,
``#`` comments (full-line or inline). Lists are comma-separated, sizes use
``HxW``. Unknown sections or keys are rejected with the offending line
number; every command stores a fully resolved copy (defaults filled in)
beside its outputs so any run is reconstructible from that copy alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import BackboneConfig
from .data import DatasetManifest
from .decoders import DecoderConfig
from .errors import ConfigError
from .peft import LoraConfig, VitAdapterConfig, VptConfig, normalize_policy
from .synthetic import SyntheticConfig
from .training import RunConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_int_csv(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _parse_csv(text))


def _parse_float_csv(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in _parse_csv(text))


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().replace(" ", "").split("x")
    if len(parts) != 2:
        raise ValueError(f"expected HxW, got {text!r}")
    return int(parts[0]), int(parts[1])


def _fmt(value, key: str = "") -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if key == "image_size":
        return f"{value[0]}x{value[1]}"
    if isinstance(value, (tuple, list)):
        return ", ".join(str(v) for v in value)
    return str(value)


# section -> key -> (parser, default); None default means required-when-used
SCHEMA: dict[str, dict[str, tuple]] = {
    "backbone": {
        "embed_dim": (int, 64),
        "depth": (int, 4),
        "heads": (int, 4),
        "patch_size": (int, 8),
        "mlp_ratio": (float, 4.0),
        "bands": (_parse_csv, ("blue", "green", "red", "nir", "swir1", "swir2")),
        "image_size": (_parse_size, (64, 64)),
        "tap_layers": (_parse_int_csv, ()),
        "metadata": (_parse_bool, False),
    },
    "peft": {
        "method": (str, "full_finetune"),
        "rank": (int, 16),
        "targets": (_parse_csv, ("attention-query", "attention-value", "mlp-fc1", "mlp-fc2")),
        "scaling": (float, 1.0),
        "prompts_per_layer": (int, 100),
        "adapter_channels": (_parse_int_csv, (256, 256, 256)),
        "injection_layers": (_parse_int_csv, ()),
    },
    "decoder": {
        "kind": (str, "linear"),
        "fcn_hidden": (int, 128),
        "unet_widths": (_parse_int_csv, (256, 128, 64, 32)),
        "ppm_scales": (_parse_int_csv, (1, 2, 3, 6)),
        "upernet_channels": (int, 128),
    },
    "data": {
        "manifest": (str, ""),
        "bands": (_parse_csv, ()),
    },
    "train": {
        "learning_rate": (float, 1e-3),
        "batch_size": (int, 8),
        "max_epochs": (int, 100),
        "early_stop_patience": (int, 15),
        "plateau_patience": (int, 4),
        "plateau_factor": (float, 0.5),
        "weight_decay": (float, 0.05),
        "seed": (int, 0),
    },
    "synth": {
        "regions": (_parse_csv, ("alps", "plains", "coast")),
        "samples_per_region": (int, 30),
        "ghos_samples": (int, 10),
        "val_fraction": (float, 0.2),
        "test_fraction": (float, 0.2),
        "bands": (_parse_csv, ("blue", "green", "red", "nir", "swir1", "swir2")),
        "extent": (int, 64),
        "num_classes": (int, 2),
        "noise": (float, 0.15),
        "blobs_per_class": (int, 3),
        "polarity_amplitude": (float, 1.0),
        "linear_amplitude": (float, 0.2),
        "region_jitter": (float, 0.02),
        "ghos_offset": (float, 0.6),
        "test_shift": (float, 0.15),
        "informative_bands": (int, 0),
        "seed": (int, 0),
    },
    "split": {
        "builder": (str, "buffered"),
        "buffer_km": (float, 5.0),
        "ratios": (_parse_float_csv, (0.6, 0.2, 0.2)),
        "train_quota": (int, 250),
        "val_quota": (int, 50),
        "test_quota": (int, 50),
        "ghos_quota": (int, 50),
        "excluded_regions": (_parse_csv, ()),
        "seed": (int, 0),
    },
}


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if key is None and stripped[1:-1].strip() == section:
                return lineno
            in_section = stripped[1:-1].strip() == section
        elif key is not None and in_section and stripped.split("=", 1)[0].strip() == key:
            return lineno
    return None


@dataclass
class ProjectConfig:
    values: dict[str, dict] = field(default_factory=dict)
    source: str = "<defaults>"

    def __post_init__(self):
        for section, keys in SCHEMA.items():
            self.values.setdefault(section, {})
            for key, (_, default) in keys.items():
                self.values[section].setdefault(key, default)

    @classmethod
    def load(cls, path) -> "ProjectConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text(encoding="utf-8")
        return cls.parse(text, source=str(path))

    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "ProjectConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        try:
            parser.read_string(text, source=source)
        except configparser.Error as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        values: dict[str, dict] = {}
        for section in parser.sections():
            if section not in SCHEMA:
                line = _line_of(text, section)
                raise ConfigError(f"{source}:{line}: unknown section [{section}]")
            values[section] = {}
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    line = _line_of(text, section, key)
                    raise ConfigError(f"{source}:{line}: unknown key {key!r} in [{section}]")
                parse_fn = SCHEMA[section][key][0]
                try:
                    values[section][key] = parse_fn(raw)
                except (ValueError, ConfigError) as exc:
                    line = _line_of(text, section, key)
                    raise ConfigError(f"{source}:{line}: bad value for {key!r}: {exc}") from exc
        return cls(values=values, source=source)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def set(self, section: str, key: str, value) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        self.values[section][key] = value

    def resolved_text(self) -> str:
        lines = ["# resolved configuration (all defaults filled in)"]
        for section in SCHEMA:
            lines.append(f"[{section}]")
            for key in SCHEMA[section]:
                lines.append(f"{key} = {_fmt(self.values[section][key], key)}")
            lines.append("")
        return "\n".join(lines)

    def write_resolved(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "resolved.cfg"
        path.write_text(self.resolved_text(), encoding="utf-8")
        return path

    # -- typed views ---------------------------------------------------------

    def backbone_config(self) -> BackboneConfig:
        b = self.values["backbone"]
        return BackboneConfig(
            embed_dim=b["embed_dim"], depth=b["depth"], heads=b["heads"],
            patch_size=b["patch_size"], band_ids=tuple(b["bands"]),
            image_size=tuple(b["image_size"]), mlp_ratio=b["mlp_ratio"],
            tap_layers=tuple(b["tap_layers"]), metadata_enabled=b["metadata"],
        )

    def decoder_config(self, num_classes: int) -> DecoderConfig:
        d = self.values["decoder"]
        return DecoderConfig(kind=d["kind"], num_classes=num_classes,
                             fcn_hidden=d["fcn_hidden"], unet_widths=tuple(d["unet_widths"]),
                             ppm_scales=tuple(d["ppm_scales"]),
                             upernet_channels=d["upernet_channels"])

    def peft_configs(self) -> tuple[str, LoraConfig, VptConfig, VitAdapterConfig]:
        p = self.values["peft"]
        return (
            normalize_policy(p["method"]),
            LoraConfig(rank=p["rank"], targets=tuple(p["targets"]), scaling=p["scaling"]),
            VptConfig(prompts_per_layer=p["prompts_per_layer"]),
            VitAdapterConfig(channels=tuple(p["adapter_channels"]),
                             injection_layers=tuple(p["injection_layers"])),
        )

    def load_manifest(self) -> DatasetManifest:
        manifest_path = self.values["data"]["manifest"]
        if not manifest_path:
            raise ConfigError("[data] manifest is not set")
        return DatasetManifest.load(manifest_path)

    def run_config(self, manifest: DatasetManifest | None = None) -> RunConfig:
        manifest = manifest or self.load_manifest()
        t = self.values["train"]
        method, lora, vpt, adapter = self.peft_configs()
        bands = tuple(self.values["data"]["bands"]) or None
        return RunConfig(
            backbone=self.backbone_config(),
            decoder=self.decoder_config(manifest.num_classes),
            manifest=manifest,
            method=method,
            learning_rate=t["learning_rate"],
            batch_size=t["batch_size"],
            max_epochs=t["max_epochs"],
            early_stop_patience=t["early_stop_patience"],
            plateau_patience=t["plateau_patience"],
            plateau_factor=t["plateau_factor"],
            weight_decay=t["weight_decay"],
            seed=t["seed"],
            bands=bands,
            lora=lora,
            vpt=vpt,
            adapter=adapter,
        )

    def synthetic_config(self) -> SyntheticConfig:
        s = self.values["synth"]
        return SyntheticConfig(
            regions=tuple(s["regions"]), samples_per_region=s["samples_per_region"],
            ghos_samples=s["ghos_samples"], val_fraction=s["val_fraction"],
            test_fraction=s["test_fraction"], bands=tuple(s["bands"]), extent=s["extent"],
            num_classes=s["num_classes"], noise=s["noise"],
            blobs_per_class=s["blobs_per_class"],
            polarity_amplitude=s["polarity_amplitude"],
            linear_amplitude=s["linear_amplitude"], region_jitter=s["region_jitter"],
            ghos_offset=s["ghos_offset"], test_shift=s["test_shift"],
            informative_bands=s["informative_bands"], seed=s["seed"],
        )
