"""slpos benchmark: closed-loop passes of one workload through ``slpos.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload ranging-mc --seed 1 --seconds 50 --trace 0

One process, one thread, BLAS pinned to one thread.  After set-up the
workload runs back-to-back passes until ``--seconds`` have elapsed; every
pass is checked, and a pass that raises, exits non-zero or fails its check
counts as failed.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and the fixed-input
microbenchmarks.  The last line of standard output is one JSON object;
the exit code is non-zero when any pass failed.
"""

from __future__ import annotations

import os

# Pinned before NumPy can be imported, here and in the set-up subprocesses.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from workloads import WORKLOADS, CheckError, CommandOutput, Workload  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Set-up is timed this many times per run: once in this process and the
# rest in fresh interpreters, since an import is only cold once per process.
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Import slpos from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "slpos", "__init__.py")):
        raise SystemExit(f"bench: no slpos package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def setup(workload: Workload, workdir: str) -> None:
    """Import slpos, build the scenarios, pilots and window, and finish one
    warm-up call of the workload's commands at minimal size."""
    import slpos
    from slpos import cli

    if not os.path.abspath(slpos.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported slpos from {slpos.__file__}, not {SRC}")
    for scenario_id in (1, 2):
        slpos.build_scenario(scenario_id)
    ofdm = slpos.default_config()
    slpos.make_pilots(ofdm, "all_ones")
    slpos.hamming_window(ofdm.num_subcarriers)
    for argv in workload.warmup(workdir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"bench: warm-up slpos {' '.join(argv)} exited {code}")


def timed_setup(workload: Workload) -> float:
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
        start = time.perf_counter()
        setup(workload, workdir)
        return time.perf_counter() - start


def setup_in_fresh_process(workload: Workload) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


@dataclass
class PassResult:
    wall_s: float
    traced: bool
    ok: bool
    detail: str


@dataclass
class RunResult:
    passes: list[PassResult] = field(default_factory=list)
    items_per_pass: int = 0
    values: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(not p.ok for p in self.passes)

    def walls(self, traced: bool) -> list[float]:
        return [p.wall_s for p in self.passes if p.traced == traced]


def _call_cli(argv: list[str]) -> CommandOutput:
    from slpos import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            # Looked up at call time, so a Tracer's wrapper is the one called.
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a raising pass is counted, not fatal
        traceback.print_exc()
        code = -1
    return CommandOutput(argv=argv, code=code, stdout=buf.getvalue())


def _fingerprint(outputs: list[CommandOutput]) -> str:
    """Hash of everything a user sees: exit codes, stdout and output files."""
    digest = hashlib.sha256()
    for output in outputs:
        digest.update(f"{output.code}\0{output.stdout}\0".encode())
        if "--out" in output.argv:
            with open(output.argv[output.argv.index("--out") + 1], "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def measure(workload: Workload, seed: int, seconds: float, workdir: str,
            tracer=None) -> RunResult:
    """Closed loop of passes until ``seconds`` have elapsed.  With a
    ``tracer`` (a reusable context manager) every second pass is traced
    inside it, and at least one pass of each kind runs."""
    result = RunResult()
    first = None
    deadline = time.perf_counter() + seconds
    while (not result.passes or (tracer and len(result.passes) < 2)
           or time.perf_counter() < deadline):
        traced = tracer is not None and len(result.passes) % 2 == 1
        commands = workload.commands(seed, workdir)
        with tracer if traced else contextlib.nullcontext():
            start = time.perf_counter()
            outputs = [_call_cli(argv) for argv in commands]
            wall = time.perf_counter() - start
        try:
            for output in outputs:
                if output.code != 0:
                    raise CheckError(f"slpos {' '.join(output.argv)} exited {output.code}")
            report = workload.check(outputs)
            fingerprint = _fingerprint(outputs)
            if first is not None and fingerprint != first:
                raise CheckError("output differs from the first pass with the same seed")
            first = fingerprint
            result.items_per_pass = report.items
            result.values = report.values
            detail = " ".join(f"{k}={v:.6g}" for k, v in report.values.items())
            result.passes.append(PassResult(wall, traced, True, detail))
        except Exception as exc:  # noqa: BLE001 - any check error fails the pass
            result.passes.append(PassResult(wall, traced, False,
                                            f"FAILED: {type(exc).__name__}: {exc}"))
        p = result.passes[-1]
        print(f"pass {len(result.passes)} {'traced' if traced else 'untraced'} "
              f"{p.wall_s:.4f} s {'ok' if p.ok else ''} {p.detail}".rstrip(), flush=True)
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mean_pass_s(result: RunResult) -> float:
    """Wall time of one untraced pass, averaged over the run.  The mean, not
    the median: on a shared host (measured on a 2-vCPU KVM guest) the CPU
    speed moves between plateaus up to 1.7x apart for tens of seconds, and
    the median of a run that straddles two of them jumps between them."""
    walls = result.walls(traced=False)
    return sum(walls) / len(walls)


def end_to_end_metrics(result: RunResult, setup_samples: list[float]) -> dict[str, dict]:
    sweep_s = mean_pass_s(result)
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "sweep_s": _metric(sweep_s, "s"),
        "items_per_s": _metric(result.items_per_pass / sweep_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(result: RunResult, tracer) -> dict[str, dict]:
    from layers import layer_microbenchmarks
    from tracing import layer_metrics

    traced = result.walls(traced=True)
    untraced_median = statistics.median(result.walls(traced=False))
    traced_median = statistics.median(traced)
    metrics = {
        "trace.untraced_pass_s": (untraced_median, "s"),
        "trace.traced_pass_s": (traced_median, "s"),
        "trace.overhead_s": (traced_median - untraced_median, "s"),
    }
    metrics.update(layer_metrics(tracer, len(traced), sum(traced)))
    metrics.update(layer_microbenchmarks())
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def describe_run(workload: Workload, args: argparse.Namespace) -> None:
    import numpy

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads="
          + ",".join(f"{k}={os.environ[k]}" for k in BLAS_ENV))
    print(f"inputs: workload={workload.name} seed={args.seed} item={workload.item} "
          f"trials={workload.trials} seconds={args.seconds} trace={args.trace}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print it and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    use_checkout_source()

    if args.setup_only:
        print(timed_setup(workload))
        return 0

    setup_samples = [setup_in_fresh_process(workload) for _ in range(SETUP_RUNS - 1)]
    setup_samples.append(timed_setup(workload))
    describe_run(workload, args)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        for name in tracer.missing:
            print(f"not traced: {name} does not exist")
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
        result = measure(workload, args.seed, args.seconds, workdir, tracer)

    for name, value in result.values.items():
        print(f"{name} = {value:.6g}")
    walls = sorted(result.walls(traced=False))
    print(f"sweep_s: n={len(walls)} mean={mean_pass_s(result):.4f} s "
          f"median={statistics.median(walls):.4f} s max={walls[-1]:.4f} s")
    print(f"{workload.item}_per_s = {result.items_per_pass / mean_pass_s(result):.6g} 1/s")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup_samples)}")
    print(f"ops_attempted = {len(result.passes)} ops_failed = {result.failed}")

    if args.trace:
        metrics = per_layer_metrics(result, tracer)
    else:
        metrics = end_to_end_metrics(result, setup_samples)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result.failed == 0, "attempted": len(result.passes),
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
