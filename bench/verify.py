"""Correctness checks of benchmark reports against pinned reports.

A pin is the canonical report of one job at the default seed, as written by
``pin.py``. Exact values (strings, integers, booleans, structure) must match
byte for byte; floats may move by at most ``FLOAT_TOL`` relative to
max(1, |value|). At other seeds the fields that depend on the seed are
masked on both sides before comparing: the seed itself, the count of random
points the off-discriminant oracle check drew, and the grade and witness of
charts that the Groebner test did not certify, since those come from seeded
sampling, with the verdicts that follow from them. The exit code is still
checked (``run.Checker``).
"""

from __future__ import annotations

import json
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pins"
FLOAT_TOL = 1e-12
MASK = "<seed-dependent>"
ANALYZE_SECTIONS = ("config", "spectral")


def pin_path(job_name: str) -> Path:
    return PIN_DIR / f"{job_name}.json"


def load_pin(job_name: str) -> dict:
    with open(pin_path(job_name), encoding="utf-8") as fh:
        return json.load(fh)


def seed_free(report: dict) -> dict:
    """Copy of ``report`` with every seed-dependent field masked."""
    out = json.loads(json.dumps(report))
    out.get("config", {})["seed"] = MASK
    for item in out.get("invariants", []):
        if item.get("name") == "oracle_cluster_count_off_discriminant":
            item["count"] = MASK
    resolution = out.get("resolution") or {}
    if resolution.get("charts"):
        sampled = False
        stack = [resolution["charts"]]
        while stack:
            node = stack.pop()
            stack.extend(node["children"])
            if node["groebner"] != "yes":
                node["status"] = MASK
                node["witness"] = MASK
                sampled = True
        resolution["proposed_centers"] = MASK
        if sampled:  # the verdicts follow from the sampled grades
            resolution["verdict"] = MASK
            out["verdict"] = MASK
    return out


def differences(got, want, path: str = "") -> list[str]:
    """Every place where ``got`` departs from ``want``, as readable strings."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= FLOAT_TOL * max(1.0, abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        out = []
        for key in sorted(want):
            out.extend(differences(got[key], want[key], f"{path}/{key}"))
        return out
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for k, (a, b) in enumerate(zip(got, want)):
            out.extend(differences(a, b, f"{path}[{k}]"))
        return out
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def against_pin(text: str, pin: dict, default_seed: bool, partial: bool = False) -> list[str]:
    """Differences from the pin; ``partial`` compares only the sections an
    analyze-only run writes (its verdict is not the full job's)."""
    report = json.loads(text)
    if partial:
        report = {key: report.get(key) for key in ANALYZE_SECTIONS}
        pin = {key: pin.get(key) for key in ANALYZE_SECTIONS}
    if default_seed:
        return differences(report, pin)
    return differences(seed_free(report), seed_free(pin))
