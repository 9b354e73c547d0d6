"""Deterministic check reports with stable digests.

A report is a JSON document of named check verdicts.  The digest covers
everything except timings, so identical inputs and seed produce identical
digests across runs.
"""

from __future__ import annotations

import hashlib
import json
import time

from .record import Record


def format_number(x: float) -> str:
    """17 significant digits: lossless float round trip."""
    return f"{float(x):.17g}"


class Report(Record):
    _fields = ("command", "inputs", "seed", "checks", "sections", "timings")

    def __init__(self, command: str, inputs: dict, seed: int, checks: list | None = None,
                 sections: dict | None = None, timings: dict | None = None):
        super().__init__(command, inputs, seed, [] if checks is None else checks,
                         {} if sections is None else sections, {} if timings is None else timings)

    def add_check(self, name: str, passed: bool, **detail):
        entry = {"name": name, "ok": bool(passed)}
        detail.pop("ok", None)
        detail.pop("name", None)
        entry.update(detail)
        self.checks.append(entry)

    def add_section(self, name: str, payload):
        self.sections[name] = payload

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def body(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "ok": self.ok,
            "checks": self.checks,
            **self.sections,
        }

    def digest(self) -> str:
        blob = json.dumps(self.body(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self) -> dict:
        out = self.body()
        out["digest"] = self.digest()
        out["timings"] = {k: format_number(v) for k, v in self.timings.items()}
        return out

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


class Stopwatch:
    def __init__(self, report: Report, name: str):
        self.report = report
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.timings[self.name] = time.perf_counter() - self.t0
        return False
