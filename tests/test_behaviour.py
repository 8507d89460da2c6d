"""Every invocation of ``tools/behaviour.py`` gives the digests committed in
``BEHAVIOUR.json``: the same exit code, stdout, stderr and output files.

Some digests depend on the Python minor version (help layout), the numpy
version and the SIMD targets numpy dispatches to, so the comparison runs only
where all three equal the committed ``machine`` block, and skips elsewhere,
naming the fact that differs. The CPU count is not compared: the manifest does
not depend on it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("behaviour", ROOT / "tools" / "behaviour.py")
behaviour = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(behaviour)


def differing_fact(committed: dict, here: dict) -> str | None:
    """The first fact of ``here`` that the committed manifest depends on and
    that differs from ``committed``, or None."""
    facts = [
        ("Python minor version", lambda m: m["python"].rsplit(".", 1)[0]),
        ("numpy version", lambda m: m["numpy"]),
        ("simd_targets", lambda m: m["simd_targets"]),
    ]
    for name, fact in facts:
        if fact(here) != fact(committed):
            return f"{name} is {fact(here)!r} here and {fact(committed)!r} in BEHAVIOUR.json"
    return None


def test_every_invocation_matches_the_committed_manifest():
    committed = json.loads((ROOT / "BEHAVIOUR.json").read_text())
    differs = differing_fact(committed["machine"], behaviour.machine())
    if differs:
        pytest.skip(differs)
    runs = behaviour.manifest()["invocations"]
    expected = committed["invocations"]
    assert [(run["argv"], run["stdin"]) for run in runs] == [(run["argv"], run["stdin"]) for run in expected]
    changed = [
        f"{index}: {' '.join(run['argv'])}" + (f" < {run['stdin']}" if run["stdin"] else "")
        for index, (run, want) in enumerate(zip(runs, expected))
        if run != want
    ]
    assert not changed, "outputs differ from BEHAVIOUR.json:\n" + "\n".join(changed)


def test_a_differing_fact_is_named():
    machine = {"python": "3.11.7", "numpy": "2.4.6", "simd_targets": {"X86_V4": True}}
    assert differing_fact(machine, dict(machine, python="3.11.9")) is None
    assert differing_fact(machine, dict(machine, usable_cpus=64)) is None
    assert differing_fact(machine, dict(machine, python="3.12.1")).startswith("Python minor version is '3.12'")
    assert differing_fact(machine, dict(machine, numpy="2.3.0")).startswith("numpy version")
    assert differing_fact(machine, dict(machine, simd_targets={"X86_V4": False})).startswith("simd_targets")
