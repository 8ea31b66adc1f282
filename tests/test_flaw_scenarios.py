"""The headline numbers: `scripts/run_flaw_scenarios.py` prints exactly
the committed text in `flaw_scenarios.txt` and writes its artifacts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_flaw_scenarios.py"
EXPECTED = Path(__file__).with_name("flaw_scenarios.txt")

RUNS = {
    "throttling": ("reference_b=256", "reference_unbounded", "extended_must-defer"),
    "nested-loop": ("reference", "extended_scatter"),
    "starvation": ("reference", "extended_fair-yield"),
    "two-timestep": ("reference_throughput-wait", "extended_latency-wait"),
}


def test_flaw_scenarios_print_headline_numbers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout == EXPECTED.read_text()
    expected_files = set()
    for name, labels in RUNS.items():
        expected_files.add(f"{name}.graph.json")
        for label in labels:
            expected_files.update({f"{name}-{label}.trace.json", f"{name}-{label}.svg"})
    assert {p.name for p in tmp_path.iterdir()} == expected_files
