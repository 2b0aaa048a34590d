"""Run configuration: a dataclass mirrored by a strict JSON file format."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from donflow.lattice import SCHEMES


class ConfigError(ValueError):
    """Malformed or invalid configuration; the message names the key."""


@dataclass
class RunConfig:
    n: int = 8
    scheme: str = "spectral"
    T: float = 10.0
    tol_stationary: float = 1e-8
    seed: int = 0
    epsilon: float = 0.05
    kmax: int = 2
    out_every: int = 10
    out_dir: str = "donflow_out"
    # check / hessian subcommand fields
    check_suite: list = field(default_factory=lambda: ["appendixA", "theta"])
    samples: int = 20000
    report_path: str | None = None

    def validate(self):
        if self.n < 4 or self.n % 2:
            raise ConfigError(f"n: must be even and >= 4, got {self.n}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: {self.scheme!r} not in {SCHEMES}")
        for key in ("epsilon", "T", "tol_stationary"):
            value = getattr(self, key)
            if not value > 0:
                raise ConfigError(f"{key}: must be positive, got {value}")
            # JSON allows Infinity; T = inf runs until stationary
            if key != "T" and value == math.inf:
                raise ConfigError(f"{key}: must be finite, got {value}")
        for key in ("kmax", "out_every", "samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1, got {getattr(self, key)}")
        if self.kmax > self.n // 2:   # higher modes alias onto lower ones
            raise ConfigError(f"kmax: must be <= n/2 = {self.n // 2}, "
                              f"got {self.kmax}")
        if self.seed < 0:   # Philox takes no negative key
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        # a NUL or a character the OS cannot encode raises ValueError, a
        # path under an unsearchable directory OSError
        try:
            out = Path(self.out_dir).resolve()
            not_dir = out.exists() and not out.is_dir()
            writable = out.parent.is_dir() and os.access(out.parent, os.W_OK)
        except (OSError, ValueError) as err:
            raise ConfigError(f"out_dir: {err}") from err
        if not_dir:
            raise ConfigError(f"out_dir: {out} exists and is not a directory")
        if not writable:
            raise ConfigError(
                f"out_dir: parent {out.parent} is not a writable directory")
        if not isinstance(self.check_suite, list) or not all(
                isinstance(s, str) for s in self.check_suite):
            raise ConfigError("check_suite: must be a list of suite names")
        if not self.check_suite:
            raise ConfigError("check_suite: must name at least one suite")
        return self


# each field's annotation (a string) and the JSON values each one takes;
# bool is an int to Python but not to JSON, and no key takes one
_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "list": list,
               "str | None": (str, type(None))}


def from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown configuration key")
    for key, value in data.items():
        want = _JSON_TYPES[_FIELDS[key]]
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"{key}: expected {_FIELDS[key]}, "
                              f"got {type(value).__name__}")
    return RunConfig(**data).validate()


def load_config(path):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON in {path}: {err}") from err
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    return from_dict(data)


def template():
    """Default configuration as a plain dict, for ``init`` emission."""
    return dataclasses.asdict(RunConfig())


def save_template(path):
    Path(path).write_text(json.dumps(template(), indent=2, sort_keys=True) + "\n")
