"""Structured command reports with per-check residuals.

A report holds the JSON it writes: each input is ``{"name", "path",
"sha256"}``, naming its file and the SHA-256 of its bytes, and each check is
``{"name", "passed", "residual", "tolerance"}``, in that order, a non-finite
residual written as "infinite".  It renders either as human-readable text or
as compact, single-line strict JSON; the same command always emits the same
fields, and floats are serialized at full precision.  An output is a JSON
value, or at the top level a ``HermitianMatrix`` (``choi``, ``ac_choi``,
``sing_choi``), written as its [re, im] pairs; one written to a ``-o``
document is named by path and SHA-256.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channeldoc import _to_pairs
from .hermlinalg import HermitianMatrix


@dataclass
class Report:
    command: str
    inputs: list[dict] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)

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
        self.checks.append({"name": name, "passed": bool(passed),
                            "residual": float(residual), "tolerance": float(tolerance)})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_obj(self) -> dict:
        outputs = {key: _to_pairs(value.entries) if isinstance(value, HermitianMatrix)
                   else value for key, value in self.outputs.items()}
        checks = [c if math.isfinite(c["residual"]) else c | {"residual": "infinite"}
                  for c in self.checks]
        return {"command": self.command, "inputs": self.inputs, "outputs": outputs,
                "checks": checks, "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), allow_nan=False, check_circular=False)

    def to_text(self) -> str:
        lines = [f"== {self.command} =="]
        for entry in self.inputs:
            lines.append(f"input: {entry['name']} ({entry['path']})")
        for key, value in self.outputs.items():
            lines.append(f"{key}: {_format_value(value)}")
        for c in self.checks:
            mark = "ok " if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: residual {c['residual']:.3e} "
                         f"(tol {c['tolerance']:.3e})")
        if self.checks:
            lines.append("all checks passed" if self.passed else "CHECKS FAILED")
        return "\n".join(lines)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, HermitianMatrix):
        e = value.entries  # np.round(e, 10) scales by 1e10, which overflows above 1.8e298
        with np.printoptions(precision=6, suppress=True, linewidth=120):
            return "\n" + str(np.round(e, 10) if np.abs(e).max() < 1e298 else e)
    return str(value)
