"""Structured command reports with per-check residuals.

Reports render either as human-readable text or as compact, single-line,
schema-stable JSON: the same command always emits the same fields, every
input names its file and the SHA-256 of its bytes, every numeric check
carries its residual and tolerance, and floats are serialized at full
precision.  An output is a JSON value or a ``HermitianMatrix``, written as its
[re, im] pairs; one written to a ``-o`` document is named by path and SHA-256.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channeldoc import _to_pairs
from .hermlinalg import HermitianMatrix


@dataclass
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float


@dataclass
class Report:
    command: str
    inputs: list[dict] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    def add_input(self, name: str, path: str, sha256: str):
        """Name an input read from the file at path, with the SHA-256 of the
        bytes that were parsed."""
        self.inputs.append({"name": name, "path": str(path), "sha256": sha256})

    def check(self, name: str, residual: float, tolerance: float) -> bool:
        """Record a check that passes iff ``residual <= tolerance``; return the verdict."""
        ok = bool(residual <= tolerance)
        self.record(name, ok, residual, tolerance)
        return ok

    def record(self, name: str, passed: bool, residual: float, tolerance: float):
        """Append a check as given; ``check`` is its one caller in the package."""
        self.checks.append(Check(name, bool(passed), float(residual), float(tolerance)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": _jsonable(self.outputs),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    def to_text(self) -> str:
        lines = [f"== {self.command} =="]
        for entry in self.inputs:
            lines.append(f"input: {entry['name']} ({entry['path']})")
        for key, value in self.outputs.items():
            lines.append(f"{key}: {_format_value(value)}")
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(
                f"[{mark}] {c.name}: residual {c.residual:.3e} (tol {c.tolerance:.3e})"
            )
        if self.checks:
            lines.append("all checks passed" if self.passed else "CHECKS FAILED")
        return "\n".join(lines)


def _jsonable(value):
    """value in JSON types; a HermitianMatrix becomes its [re, im] pairs."""
    if isinstance(value, HermitianMatrix):
        return _to_pairs(value.entries)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, HermitianMatrix):
        with np.printoptions(precision=6, suppress=True, linewidth=120):
            return "\n" + str(np.round(value.entries, 10))
    return str(value)
