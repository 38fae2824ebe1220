"""The paper's shape claims, checked on every tier-1 run.

Each paper-artefact module under ``benchmarks/`` regenerates one table
or figure of Khatib & Abelmann (DATE 2011) and asserts the shape of the
paper's claims on it: who wins, where crossovers fall, where curves
saturate.  This test runs those modules with pytest-benchmark disabled,
so each artefact is computed once and every assertion still executes.
The platform throughput modules (``bench_batch``, ``bench_campaign``)
time the runner rather than check the paper, and stay out.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLATFORM_MODULES = {"bench_batch.py", "bench_campaign.py"}
#: Shape assertions across the paper-artefact modules today.
MIN_CLAIMS = 33


def test_paper_shape_claims_hold():
    modules = sorted(
        str(path.relative_to(ROOT))
        for path in (ROOT / "benchmarks").glob("bench_*.py")
        if path.name not in PLATFORM_MODULES
    )
    assert modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", *modules,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    summary = run.stdout.strip().splitlines()[-1] if run.stdout else ""
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    passed = re.search(r"(\d+) passed", summary)
    assert passed and int(passed.group(1)) >= MIN_CLAIMS, summary
    assert "skipped" not in summary, summary
