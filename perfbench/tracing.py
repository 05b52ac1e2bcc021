"""Outside-in layer tracing for the benchmark's traced run.

The program is not edited: the benchmark wraps the public entry points
of each layer from outside for the duration of one transport call, and
charges every wrapped call's *self* time (its duration minus the time of
wrapped calls nested inside it) to that call's layer.  Self times of
different layers therefore never overlap, so

    traced wall = sum of layer self times + unattributed

holds by construction, and ``unattributed`` is exactly the time no
wrapped entry point accounts for (handler gathers/scatters, driver
scaffolding, arena bookkeeping).

Pool spans (``ensemble_run``, ``ensemble_dispatch``, ``ensemble_source``)
have no entry point a caller can wrap, so :class:`LayerRecorder` -- the
:class:`repro.obs.spans.Recorder` passed to the run -- opens a tracer
frame for each of them as the program opens the span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs.spans import Recorder

#: Program span name -> layer, for spans opened through LayerRecorder.
SPAN_LAYERS = {
    "ensemble_source": "ensemble.source",
    "ensemble_run": "pool.reduce",
    "ensemble_dispatch": "pool.dispatch",
}


class Tracer:
    """Stack of open frames; accumulates per-layer self time and
    per-entry-point call counts."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def frame(self, layer: str, key: str) -> "_Frame":
        """Charge the enclosed interval, minus nested frames, to ``layer``
        and count one call of ``key``."""
        return _Frame(self, layer, key)

    def wrap(self, layer: str, key: str, fn):
        """``fn`` with each call charged as a frame."""
        def traced(*args, **kwargs):
            with self.frame(layer, key):
                return fn(*args, **kwargs)

        return traced

    def wrap_cm(self, layer: str, key: str, fn):
        """``fn`` returns a context manager; charge its body as a frame."""
        @contextmanager
        def traced(*args, **kwargs):
            with self.frame(layer, key), fn(*args, **kwargs) as value:
                yield value

        return traced


class _Frame:
    """One open frame (a class, not a generator: it runs on every
    wrapped call)."""

    __slots__ = ("tracer", "layer", "key", "nested", "t0")

    def __init__(self, tracer: Tracer, layer: str, key: str) -> None:
        self.tracer = tracer
        self.layer = layer
        self.key = key

    def __enter__(self) -> None:
        self.nested = [0.0]
        self.tracer.stack.append(self.nested)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self.t0
        tracer = self.tracer
        tracer.stack.pop()
        tracer.self_s[self.layer] += dt - self.nested[0]
        tracer.calls[self.key] += 1
        if tracer.stack:
            tracer.stack[-1][0] += dt


class LayerRecorder(Recorder):
    """A span recorder that also opens a tracer frame for each pool span
    it records (see :data:`SPAN_LAYERS`)."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    @contextmanager
    def span(self, name: str, **attrs):
        layer = SPAN_LAYERS.get(name)
        with Recorder.span(self, name, **attrs) as sp:
            if layer is None:
                yield sp
            else:
                with self.tracer.frame(layer, name):
                    yield sp


def _entry_points(pooled: bool):
    """``(owner, attribute, layer, key, is_context_manager)`` for every
    entry point the traced run wraps.

    On the pooled workload the transport runs in worker processes, whose
    calls the parent cannot see; only the parent-side layers are wrapped
    there, so parent-side source draws stay inside ``ensemble.source``.
    """
    from repro.core import SimulationConfig
    from repro.core import stepper
    from repro.volume import Volume3DConfig

    points = [
        (SimulationConfig, "resolved_provider", "xs.build", "xs.build",
         False),
        (Volume3DConfig, "resolved_provider", "xs.build", "xs.build", False),
    ]
    if pooled:
        return points
    from repro.kernels import KernelDispatch
    from repro.mesh import EnergyDepositionTally
    from repro.rng import ParticleRNG, VectorParticleRNG
    from repro.volume import Tally3D
    from repro.xs.provider import (
        ContinuousEnergyProvider,
        MultigroupProvider,
        XsProvider,
    )

    points += [
        (stepper, "sample_source", "source", "source", False),
        (KernelDispatch, "run", "kernels", "kernels", False),
        (KernelDispatch, "timed", "kernels", "kernels", True),
        (EnergyDepositionTally, "flush_vec", "tally", "tally", False),
        (EnergyDepositionTally, "flush", "tally", "tally", False),
        (Tally3D, "flush_vec", "tally", "tally", False),
        (Tally3D, "flush", "tally", "tally", False),
        (MultigroupProvider, "lookup", "xs.lookup", "xs.lookup", False),
        (ContinuousEnergyProvider, "lookup", "xs.lookup", "xs.lookup",
         False),
        (XsProvider, "macroscopic_into", "xs.lookup", "xs.macroscopic",
         False),
        (VectorParticleRNG, "next_uniform", "rng", "rng", False),
        (ParticleRNG, "next_uniform", "rng", "rng", False),
    ]
    return points


@contextmanager
def installed(tracer: Tracer, pooled: bool):
    """Wrap the layer entry points for the duration of the block and
    restore the originals afterwards, however the block exits."""
    saved = []
    try:
        for owner, attr, layer, key, is_cm in _entry_points(pooled):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            wrap = tracer.wrap_cm if is_cm else tracer.wrap
            setattr(owner, attr, wrap(layer, key, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
