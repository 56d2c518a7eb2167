"""Run reports: one JSON document per CLI run.

Schema (version 1):
    schema_version  int
    package_version str
    command         "train" | "eval" | "baseline"
    seed            int
    config          echo of the effective config (dict)
    epochs          per-epoch metric entries from the trainer (list, or null)
    final           final metrics: nmi/acc/ari when ground truth is present,
                    plus command-specific extras (dict)
    wall_clock_seconds  float (the only field allowed to differ between
                        identical seeded runs)
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .trainer import TrainConfig

SCHEMA_VERSION = 1


def write_report(
    path,
    command: str,
    config: TrainConfig,
    final: dict,
    wall_clock_seconds: float,
    epochs: list[dict] | None = None,
) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "seed": config.seed,
        "config": config.to_dict(),
        "epochs": epochs,
        "final": final,
        "wall_clock_seconds": wall_clock_seconds,
    }
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
