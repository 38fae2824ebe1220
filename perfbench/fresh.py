"""Fresh-interpreter probe: set-up time, then one pass's peak RSS.

    python3 perfbench/fresh.py <workload> <workdir>

Prints one JSON line: ``setup_s`` is the time from before ``import repro``
to the end of the workload's warm-up.  The probe then runs one untimed,
unchecked pass and reports ``peak_rss_mb``: the peak RSS of this process
plus that of its largest worker (or other child process).  The caller
sets up the environment, ``PYTHONPATH`` included.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import repro  # noqa: E402,F401
from workloads import WORKLOADS, Bench, warm_up  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("workdir")
    args = parser.parse_args()
    config = WORKLOADS[args.workload]
    warm_up(config, args.workdir)
    setup_s = time.perf_counter() - START
    bench = Bench(config, 0, args.workdir, check=False)
    bench.run_pass()
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": peak_kb / 1024,
                "ok": bench.tally.failed == 0,
            }
        )
    )


if __name__ == "__main__":
    main()
