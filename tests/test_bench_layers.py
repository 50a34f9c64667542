"""The benchmark's per-layer microbenchmarks, run on the package as it is.

``bench/layers.py`` times functions that the sweeps themselves no longer
call (``linear_init``, ``ml_position``, ``low_confidence``, ``synthesize_rx``
and ``trace_paths``' ``time`` argument), so nothing else in this suite
notices when one of them changes or goes away.
"""

import importlib
import math
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_every_layer_microbenchmark_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    # One batch of a single call per case: this checks that each case runs,
    # not how fast.
    monkeypatch.setattr(layers, "BATCHES", 1)
    monkeypatch.setattr(layers, "BATCH_S", 1e-4)
    metrics = layers.layer_microbenchmarks()
    assert len(metrics) == 12
    for name, (value, _) in metrics.items():
        assert math.isfinite(value) and value > 0, name
