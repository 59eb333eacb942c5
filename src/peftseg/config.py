"""Declarative run configuration: flat key-value text with sections.

Grammar: INI-style sections (``[train]``), one ``key = value`` per line,
``#`` comments (full-line or inline). Lists are comma-separated, sizes use
``HxW``. Unknown sections or keys are rejected with the offending line
number; every command stores a fully resolved copy (defaults filled in)
beside its outputs so any run is reconstructible from that copy alone.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields
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


# Parser for each field annotation the file can set. Annotations are text
# here because the config modules use ``from __future__ import annotations``.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[str, ...]": _parse_csv,
    "tuple[int, ...]": _parse_int_csv,
    "tuple[int, int, int]": _parse_int_csv,
    "tuple[int, int, int, int]": _parse_int_csv,
    "tuple[int, int]": _parse_size,  # image_size, written HxW
}

# dataclass field -> config-file key, where the two names differ
_FILE_KEYS = {"band_ids": "bands", "metadata_enabled": "metadata", "channels": "adapter_channels"}


def _file_key(f) -> str:
    return _FILE_KEYS.get(f.name, f.name)


def _keys_of(*classes, skip=(), defaults=None) -> dict[str, tuple]:
    """``key: (parser, default)`` for every field of ``classes`` with a parsable
    annotation, except ``skip``; ``defaults`` covers fields that declare none."""
    keys = {}
    for cls in classes:
        for f in fields(cls):
            if f.name in skip or f.type not in _PARSERS:
                continue
            default = f.default if f.default is not MISSING else defaults[_file_key(f)]
            keys[_file_key(f)] = (_PARSERS[f.type], default)
    return keys


# section -> key -> (parser, default).
# Sections a dataclass fills take its fields' parsers and defaults.
SCHEMA: dict[str, dict[str, tuple]] = {
    "backbone": _keys_of(BackboneConfig, defaults={
        "embed_dim": 64, "depth": 4, "heads": 4, "patch_size": 8,
        "bands": ("blue", "green", "red", "nir", "swir1", "swir2"), "image_size": (64, 64),
    }),
    "peft": {
        "method": _keys_of(RunConfig)["method"],
        **_keys_of(LoraConfig, VptConfig, VitAdapterConfig),
    },
    "decoder": _keys_of(DecoderConfig, skip=("num_classes",), defaults={"kind": "linear"}),
    "data": {
        "manifest": (str, ""),
        "bands": (_parse_csv, ()),
    },
    "train": _keys_of(RunConfig, skip=("method",)),
    "synth": _keys_of(SyntheticConfig),
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

    def _fields(self, section: str, cls) -> dict:
        """The values of ``section`` that ``cls`` takes, by field name."""
        values = self.values[section]
        return {f.name: values[_file_key(f)] for f in fields(cls) if _file_key(f) in values}

    def backbone_config(self) -> BackboneConfig:
        return BackboneConfig(**self._fields("backbone", BackboneConfig))

    def decoder_config(self, num_classes: int) -> DecoderConfig:
        return DecoderConfig(num_classes=num_classes, **self._fields("decoder", DecoderConfig))

    def peft_configs(self) -> tuple[str, LoraConfig, VptConfig, VitAdapterConfig]:
        return (
            normalize_policy(self.values["peft"]["method"]),
            LoraConfig(**self._fields("peft", LoraConfig)),
            VptConfig(**self._fields("peft", VptConfig)),
            VitAdapterConfig(**self._fields("peft", VitAdapterConfig)),
        )

    def load_manifest(self) -> DatasetManifest:
        manifest_path = self.values["data"]["manifest"]
        if not manifest_path:
            raise ConfigError("[data] manifest is not set")
        return DatasetManifest.load(manifest_path)

    def run_config(self, manifest: DatasetManifest | None = None) -> RunConfig:
        manifest = manifest or self.load_manifest()
        method, lora, vpt, adapter = self.peft_configs()
        return RunConfig(
            backbone=self.backbone_config(),
            decoder=self.decoder_config(manifest.num_classes),
            manifest=manifest,
            method=method,
            bands=tuple(self.values["data"]["bands"]) or None,
            lora=lora,
            vpt=vpt,
            adapter=adapter,
            **self._fields("train", RunConfig),
        )

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(**self._fields("synth", SyntheticConfig))
