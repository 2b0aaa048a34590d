"""Run configuration: a dataclass mirrored by a strict JSON file format."""

from __future__ import annotations

import dataclasses
import json
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
    dealias: bool = False
    sigma_cfl: float = 0.2
    dt_max: float | None = None          # None: flow.DT_ACCURACY
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

    @property
    def dt0(self):
        return self.sigma_cfl / self.n ** 2

    def validate(self):
        if self.n < 4 or self.n % 2:
            raise ConfigError(f"n: must be even and >= 4, got {self.n}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: {self.scheme!r} not in {SCHEMES}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon: must be positive, got {self.epsilon}")
        if not self.sigma_cfl > 0:
            raise ConfigError(f"sigma_cfl: must be positive, got {self.sigma_cfl}")
        if self.dt_max is not None and not self.dt_max > 0:
            raise ConfigError(f"dt_max: must be positive, got {self.dt_max}")
        if not self.T > 0:
            raise ConfigError(f"T: must be positive, got {self.T}")
        if not self.tol_stationary > 0:
            raise ConfigError(f"tol_stationary: must be positive")
        if self.kmax < 1:
            raise ConfigError(f"kmax: must be >= 1, got {self.kmax}")
        if self.out_every < 1:
            raise ConfigError(f"out_every: must be >= 1, got {self.out_every}")
        if self.samples < 1:
            raise ConfigError(f"samples: must be >= 1, got {self.samples}")
        parent = Path(self.out_dir).resolve().parent
        if not os.access(parent, os.W_OK):
            raise ConfigError(f"out_dir: parent {parent} is not writable")
        if not isinstance(self.check_suite, list) or not all(
                isinstance(s, str) for s in self.check_suite):
            raise ConfigError("check_suite: must be a list of suite names")
        return self


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = sorted(set(data) - _FIELDS)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown configuration key")
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
    cfg = RunConfig()
    out = dataclasses.asdict(cfg)
    return out


def save_template(path):
    Path(path).write_text(json.dumps(template(), indent=2, sort_keys=True) + "\n")
