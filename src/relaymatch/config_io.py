"""Experiment config files: INI sections mirroring the parameter blocks.

Sections and keys come from the dataclasses in ``params``: ``[topology]``,
``[system]`` and ``[learning]`` hold the fields of the blocks nested in
``ExperimentConfig``, ``[experiment]`` its own fields, and a range field
``<stem>_range`` is the two keys ``<stem>_low`` and ``<stem>_high``. Every
key is optional (defaults are the reference-scenario values); unknown
sections or keys are hard errors so typos cannot silently change a run, and
a non-empty ``[DEFAULT]`` is an unknown section like any other. A
run's manifest (``write_manifest``) is such a file and loads back to the
same config.

Example::

    [topology]
    num_cus = 2
    num_d2d = 2

    [learning]
    horizon = 10000

    [experiment]
    policy = ebriq
    num_replications = 200
    seed = 42
    fixed_topology = true
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path
from typing import Optional

from .errors import ConfigurationError
from .params import ExperimentConfig

__all__ = ["load_config", "apply_overrides", "write_manifest"]

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _keys(block) -> dict:
    """Config key -> (field, index within a range field or None, value type)."""
    keys = {}
    for f in dataclasses.fields(block):
        default = f.default
        if dataclasses.is_dataclass(default):
            continue  # a nested block is a section of its own
        if isinstance(default, tuple):
            stem = f.name.removesuffix("_range")
            keys[f"{stem}_low"] = (f.name, 0, type(default[0]))
            keys[f"{stem}_high"] = (f.name, 1, type(default[1]))
        else:
            keys[f.name] = (f.name, None, type(default))
    return keys


# The nested blocks of ExperimentConfig are sections named after their
# fields; the run's own fields form [experiment].
_NESTED = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)
           if dataclasses.is_dataclass(f.default)}
_KEYS = {**{section: _keys(block) for section, block in _NESTED.items()},
         "experiment": _keys(ExperimentConfig)}


def _convert(raw: str, convert: type, context: str):
    if convert is bool:
        try:
            return _BOOL[raw.strip().lower()]
        except KeyError:
            raise ConfigurationError(f"{context}: expected a boolean, got {raw!r}") from None
    try:
        return convert(raw)
    except ValueError:
        raise ConfigurationError(
            f"{context}: expected {convert.__name__}, got {raw!r}"
        ) from None


def _section_values(parser, section: str, block) -> dict:
    """Arguments for the section's ``block``; absent keys keep the field defaults."""
    values = {}
    if not parser.has_section(section):
        return values
    keys = _KEYS[section]
    for key, raw in parser.items(section):
        if key not in keys:
            raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
        name, index, convert = keys[key]
        value = _convert(raw, convert, f"[{section}] {key}")
        if index is not None:
            pair = list(values.get(name, getattr(block, name)))
            pair[index] = value
            value = tuple(pair)
        values[name] = value
    return values


def load_config(path) -> ExperimentConfig:
    """Parse a config file into a fully validated ExperimentConfig."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc

    # configparser keeps [DEFAULT] out of sections() and merges its keys into
    # every section, so it would set a key of whichever block happens to have it.
    if parser.defaults():
        raise ConfigurationError(f"unknown section [{parser.default_section}] in {path}")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown section [{section}] in {path}")

    blocks = {section: block(**_section_values(parser, section, block))
              for section, block in _NESTED.items()}
    return ExperimentConfig(**blocks, **_section_values(parser, "experiment", ExperimentConfig))


def write_manifest(config: ExperimentConfig, path) -> None:
    """Write the fully resolved config as a config file that ``load_config`` reads back."""
    path = Path(path)
    lines = ["# Resolved configuration of this run; it loads back with --config."]
    for section, keys in _KEYS.items():
        block = config if section == "experiment" else getattr(config, section)
        lines += ["", f"[{section}]"]
        for key, (name, index, _) in keys.items():
            value = getattr(block, name) if index is None else getattr(block, name)[index]
            # str() of a float is its shortest repr, which reads back exactly.
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write manifest to {path}: {exc}") from exc


def apply_overrides(config: ExperimentConfig, policy: Optional[str] = None,
                    seed: Optional[int] = None, replications: Optional[int] = None,
                    periods: Optional[int] = None) -> ExperimentConfig:
    """Command-line overrides beat file values; None leaves a value alone."""
    updates = {}
    if policy is not None:
        updates["policy"] = policy
    if seed is not None:
        updates["seed"] = seed
    if replications is not None:
        updates["num_replications"] = replications
    if periods is not None:
        updates["learning"] = dataclasses.replace(config.learning, horizon=periods)
    return dataclasses.replace(config, **updates) if updates else config
