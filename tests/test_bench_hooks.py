"""The benchmark's traced run wraps mgsched functions by name
(``bench/layers.py``); a per-layer metric whose function is gone is reported
absent, and the benchmark reads a traced result without it as malformed."""

import layers
from tracer import Tracer

from mgsched import cli, coordinator, dispatch, distributions, scenario, sequences

MODULES = (cli, coordinator, dispatch, distributions, scenario, sequences)


def test_every_wrapped_name_exists():
    before = [dict(vars(m)) for m in MODULES]
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert tracer.absent == {}
    finally:
        tracer.restore()
    assert all(vars(m) == b for m, b in zip(MODULES, before))
