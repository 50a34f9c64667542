"""Regenerate bench/reference/bounds_<link>.json from the current source.

Runs ``slpos bounds`` for every link through ``slpos.cli.main`` and stores
the sweep points at full float precision, so the benchmark can compare the
ten-digit CSV values to them.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile

import run
from workloads import BOUNDS_SWEEP_LINKS, REFERENCE_DIR


def main() -> int:
    run.use_checkout_source()
    from slpos import cli

    original = cli.run_bounds_sweep
    captured = []

    def capture(*args, **kwargs):
        captured[:] = original(*args, **kwargs)
        return captured

    cli.run_bounds_sweep = capture
    try:
        with tempfile.TemporaryDirectory(prefix="_work-", dir=run.BENCH_DIR) as workdir:
            for scenario, link in BOUNDS_SWEEP_LINKS:
                argv = ["bounds", "--scenario", str(scenario), "--link", link,
                        "--out", os.path.join(workdir, "out.csv")]
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"slpos {' '.join(argv)} failed")
                rows = [dataclasses.asdict(p) for p in captured]
                with open(os.path.join(REFERENCE_DIR, f"bounds_{link}.json"), "w",
                          encoding="ascii") as handle:
                    handle.write(f'{{"argv": {json.dumps(argv[:5])}, "rows": [\n')
                    handle.write(",\n".join(json.dumps(row) for row in rows))
                    handle.write("\n]}\n")
                print(f"{link}: {len(rows)} rows", file=sys.stderr)
    finally:
        cli.run_bounds_sweep = original
    return 0


if __name__ == "__main__":
    sys.exit(main())
