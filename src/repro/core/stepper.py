"""The unified census stepper — one census loop for every driver.

Source emission, the ``for step in range(ntimesteps)`` loop, the
census-boundary ``dt_to_census`` reset, fission-bank bookkeeping and the
final counter wiring live here once, for plain runs and fused ensembles
alike:

* :func:`drive_census_loop` — the census loop itself (run span →
  timestep spans).  Every driver routes through it; the
  ``repro.kernels`` audit rejects any new ``range(ntimesteps)`` loop
  outside this module.
* :class:`CensusStepper` / :func:`run_stepped` — the full 2-D transport
  driver.  Each census step's transport is delegated to a scheme
  strategy chosen per step by a *plan*, so the scheme becomes a
  per-census-step decision rather than a per-run constant.  Both
  strategies schedule the one event handler layer
  (:mod:`repro.core.handlers`): Over Events runs ``event_pass`` on the
  whole arena, Over Particles runs it on gathered lane blocks.
* :class:`StepDecision` / :class:`SwitchPlan` — declarative switch
  schedules.  ``SwitchPlan.fixed(scheme)`` is a single-scheme run;
  arbitrary schedules (including adversarial every-step switching)
  remain physics-bit-identical because every history owns a
  counter-based RNG stream and all census-boundary state lives in the
  arena.

Parity argument: at a census boundary the entire transport state of a
history is its arena row — position, direction, energy, weight, cached
bins, ``dt_to_census``, ``mfp_to_collision`` and the RNG counter.  Both
strategies read exactly that state at step entry and leave exactly that
state at step exit (OP synchronises RNG counters per block writeback,
the OE strategy at every step end), so *which* strategy advances a
given step cannot change any history's event sequence.  Only
instrumentation that prices traversal order (xs probe/bin-reuse
counters, workspace churn, kernel profile) may differ between
schedules; the physics counters, tallies and final population are
invariant, which :func:`repro.ensemble.engine.population_fingerprint`
makes checkable in one hash.

Switch-boundary population maintenance (``sort_by`` / ``compact``) is
also parity-safe: sorting permutes storage order only (the fingerprint
sorts by ``particle_id`` internally), and compaction parks dead
histories in a morgue that is re-appended before the result is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import Scheme, SimulationConfig
from repro.core.counters import Counters
from repro.core.handlers import BlockHandlers, PassHandlers, event_pass
from repro.kernels import KernelDispatch, Workspace
from repro.mesh.structured import StructuredMesh
from repro.mesh.tally import EnergyDepositionTally
from repro.obs.live import NULL_PROBE
from repro.obs.spans import NULL_RECORDER
from repro.particles.source import sample_source

__all__ = [
    "StepDecision",
    "SwitchPlan",
    "CensusStepper",
    "census_dt_reset",
    "drive_census_loop",
    "run_stepped",
    "validate_scheme_options",
]

_SORT_KEYS = (None, "energy", "cell", "particle_id")


def validate_scheme_options(config: SimulationConfig, scheme) -> None:
    """The one place scheme / block-size combinations are validated.

    ``Simulation.run``, :func:`run_stepped` and the worker pool all call
    this instead of re-validating per driver.  Accepts the two fixed
    schemes, ``Scheme.AUTO`` and explicit :class:`SwitchPlan` instances.
    """
    if isinstance(scheme, SwitchPlan):
        return
    if not isinstance(scheme, Scheme):
        valid = ", ".join(s.value for s in Scheme)
        raise ValueError(
            f"unknown scheme: {scheme!r} (valid schemes: {valid})"
        )
    if config.op_block_size < 1 and scheme is not Scheme.OVER_EVENTS:
        raise ValueError(
            f"op_block_size must be >= 1 for scheme {scheme.value!r}, "
            f"got {config.op_block_size}"
        )


@dataclass(frozen=True)
class StepDecision:
    """What one census step should do.

    ``scheme`` picks the strategy (a fixed scheme, never ``AUTO``);
    ``block_size`` overrides ``config.op_block_size`` for an OP step
    (block size is physics-invariant, so any value is parity-safe);
    ``sort_key`` / ``compact`` request population maintenance *before*
    the step runs (both physics-invariant, see module docstring);
    ``reason`` is free-form scheduler provenance for the switch trace.
    """

    scheme: Scheme
    block_size: int | None = None
    sort_key: str | None = None
    compact: bool = False
    reason: str = ""

    def __post_init__(self):
        if self.scheme not in (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS):
            raise ValueError(
                f"a StepDecision needs a concrete scheme "
                f"(over_particles or over_events), got {self.scheme!r}"
            )
        if self.block_size is not None:
            if self.scheme is not Scheme.OVER_PARTICLES:
                raise ValueError(
                    "block_size only applies to over_particles steps"
                )
            if self.block_size < 1:
                raise ValueError(
                    f"block_size must be >= 1, got {self.block_size}"
                )
        if self.sort_key not in _SORT_KEYS:
            raise ValueError(
                f"sort_key must be one of {_SORT_KEYS[1:]}, "
                f"got {self.sort_key!r}"
            )


@dataclass(frozen=True)
class SwitchPlan:
    """A declarative switch schedule: one decision per census step.

    Steps beyond the last decision repeat it, so a one-entry plan is a
    fixed-scheme run.  Frozen and built from frozen decisions, so a plan
    pickles cleanly into pool workers.
    """

    decisions: tuple[StepDecision, ...]

    def __post_init__(self):
        if not self.decisions:
            raise ValueError("a SwitchPlan needs at least one decision")

    @classmethod
    def fixed(cls, scheme: Scheme) -> "SwitchPlan":
        """The legacy single-scheme run, as a plan."""
        return cls((StepDecision(scheme=scheme),))

    @property
    def fixed_scheme(self) -> Scheme | None:
        """The single scheme this plan uses, or ``None`` if it switches
        schemes or performs boundary maintenance."""
        schemes = {d.scheme for d in self.decisions}
        boundary = any(d.sort_key or d.compact for d in self.decisions)
        if len(schemes) == 1 and not boundary:
            return next(iter(schemes))
        return None

    def decide(self, step: int, stepper) -> StepDecision:
        return self.decisions[min(step, len(self.decisions) - 1)]


def census_dt_reset(dt_to_census, alive, dt, lanes=None) -> None:
    """Re-arm the census clocks of surviving histories at a boundary.

    The census-boundary scaffolding formerly copy-pasted across both 2-D
    drivers and the 3-D driver; ``lanes`` switches to per-replica dt for
    fused ensemble runs.
    """
    if lanes is None:
        dt_to_census[alive] = dt
    else:
        dt_lane = lanes.dt[lanes.rep]
        dt_to_census[alive] = dt_lane[alive]


def drive_census_loop(recorder, ntimesteps, run_attrs, begin_step,
                      run_step) -> None:
    """THE census loop.  All transport drivers route through here.

    ``begin_step(step)`` runs census-boundary bookkeeping *outside* the
    timestep span (dt re-arm, scheme decisions, population maintenance);
    ``run_step(step)`` advances every live history to census *inside*
    it.  The kernels audit (``python -m repro.kernels --check``) rejects
    any census-loop reimplementation outside this module, so the loop
    structure — and the span tree shape telemetry consumers rely on —
    stays single-sourced.
    """
    rec = NULL_RECORDER if recorder is None else recorder
    with rec.span("run", **run_attrs):
        for step in range(ntimesteps):
            begin_step(step)
            with rec.span("timestep", step=step):
                run_step(step)


class _OPStrategy:
    """Blocked lock-step depth-first transport for one census step.

    Over Events restricted to a lane block: each block of alive
    histories is gathered into :class:`~repro.core.handlers.BlockHandlers`,
    passed until every lane is censused or dead, and written back.
    Offspring are banked as ``(parent, event, child, record)`` entries and
    join the arena at its end in that sorted order — the order a
    one-history-at-a-time traversal appends them — to be swept in turn.
    Under fused ensemble lanes blocks are clipped at replica boundaries
    and the arena is re-sorted stably by replica between steps, so each
    replica sees exactly its standalone block sequence.
    """

    scheme = Scheme.OVER_PARTICLES

    def __init__(self, stepper: "CensusStepper"):
        self.stepper = stepper
        self.bank: list = []

    def begin_step(self, step: int) -> None:
        stepper = self.stepper
        lanes = stepper.lanes
        if lanes is not None and step > 0:
            # Children were appended at the end: make each replica one
            # contiguous run again (stable, so within-replica order — the
            # standalone order — is preserved).
            order = stepper.arena.sort_by("replica_id")
            lanes.rep = lanes.rep[order]
            stepper.coll_pp = stepper.coll_pp[order]
            stepper.facet_pp = stepper.facet_pp[order]

    def _segments(self, lo: int) -> list[tuple[int, int]]:
        """``[lo, len(arena))`` as block-clipping runs: one run, or one per
        contiguous replica under fused lanes."""
        arena = self.stepper.arena
        n = len(arena)
        if self.stepper.lanes is None:
            return [(lo, n)] if lo < n else []
        return [
            (lo + a, lo + b) for _, a, b in arena.view(lo, n).replica_segments()
        ]

    def run_step(self, step: int, decision: StepDecision, rec) -> None:
        stepper = self.stepper
        arena = stepper.arena
        block_size = decision.block_size or stepper.run_config.op_block_size
        segments = self._segments(0)
        while segments:
            for lo, hi in segments:
                for cursor in range(lo, hi, block_size):
                    bhi = min(cursor + block_size, hi)
                    idx = cursor + np.nonzero(arena.alive[cursor:bhi])[0]
                    if idx.size == 0:
                        continue
                    with rec.span(
                        "census_wave", lo=cursor, hi=bhi, lanes=int(idx.size),
                    ):
                        block = BlockHandlers(stepper, arena, idx, self.bank)
                        block.run_to_census()
                        block.writeback(arena)
            segments = self._drain_bank()

    def _drain_bank(self) -> list[tuple[int, int]]:
        """Append the banked offspring in (parent, event, child) order;
        returns the new runs to sweep."""
        if not self.bank:
            return []
        stepper = self.stepper
        arena = stepper.arena
        self.bank.sort(key=lambda entry: entry[:3])
        n_old = len(arena)
        arena.append_records([entry[3] for entry in self.bank])
        grow = np.zeros(len(self.bank), dtype=np.int64)
        stepper.coll_pp = np.concatenate([stepper.coll_pp, grow])
        stepper.facet_pp = np.concatenate([stepper.facet_pp, grow])
        lanes = stepper.lanes
        if lanes is not None:
            # Each child inherits its parent's replica.
            parents = np.array([entry[0] for entry in self.bank], dtype=np.int64)
            child_rep = lanes.rep[parents]
            arena.replica_id[n_old:] = child_rep
            lanes.rep = np.concatenate([lanes.rep, child_rep])
        self.bank = []
        return self._segments(n_old)

    def end_step(self) -> None:
        # Block writeback already synchronised every RNG counter into the
        # arena; the Over Events caches are stale now.
        self.stepper.oe_dirty = True


class _OEStrategy:
    """Breadth-first event-pass transport for one census step.

    :func:`~repro.core.handlers.event_pass` over the whole arena until
    every history is censused or dead, absorbing offspring between
    passes.  The :class:`~repro.core.handlers.PassHandlers` persist
    across consecutive OE steps — preserving the cross-timestep bin-reuse
    cache a pure-OE run relies on — and are rebuilt whenever another
    strategy (or boundary maintenance) touched the population, because
    their positional caches (micro-XS arrays, material index, RNG
    gather) would be stale.
    """

    scheme = Scheme.OVER_EVENTS

    def __init__(self, stepper: "CensusStepper"):
        self.stepper = stepper
        self.handlers = None

    def begin_step(self, step: int) -> None:
        stepper = self.stepper
        if self.handlers is None or stepper.oe_dirty:
            self.handlers = PassHandlers(stepper)
            stepper.oe_dirty = False
        stepper.arena.censused[:] = ~stepper.arena.alive

    def run_step(self, step: int, decision: StepDecision, rec) -> None:
        h = self.handlers
        ws = self.stepper.ws
        arena = h.arena
        # Refresh the cached microscopic cross sections for every live
        # history (Over Particles does the same at each history start).
        h.refresh_micro(np.nonzero(arena.alive)[0])
        npass = 0
        while True:
            n = len(arena)
            active = ws.bool_("active", n)
            np.logical_not(arena.censused, out=active)
            np.logical_and(arena.alive, active, out=active)
            if not active.any():
                break
            with rec.span("event_pass", index=npass) as pass_span:
                masks = event_pass(h, active)
                h.record_pass(active, masks, pass_span)
                h.absorb_children()
            npass += 1

    def end_step(self) -> None:
        # In-place write — the arena's fields are views of one shared
        # buffer and must never be rebound.  Synchronising every step is
        # what makes an OE→OP hand-off read the right streams.
        self.handlers.arena.rng_counter[...] = self.handlers.rng.counters


class CensusStepper:
    """Owns the census loop, source emission, census-boundary
    bookkeeping and the shared result books; delegates each step's
    transport to a scheme strategy picked by the plan."""

    def __init__(self, config: SimulationConfig, *, arena=None, tally=None,
                 trace=None, recorder=None, lanes=None, provider=None,
                 probe=None):
        self.config = config
        self.rec = NULL_RECORDER if recorder is None else recorder
        #: Live-plane publisher (repro.obs.live); NULL_PROBE when off.
        self.probe = NULL_PROBE if probe is None else probe
        self.lanes = lanes
        self.trace = trace
        self.mesh = StructuredMesh(
            config.nx, config.ny, config.width, config.height, config.density
        )
        self.tally = tally if tally is not None else EnergyDepositionTally(
            config.nx, config.ny
        )
        #: The cross-section backend, built exactly once per run and
        #: threaded into every context (and the source sampler).
        self.provider = (
            provider if provider is not None else config.resolved_provider()
        )
        # Multigroup contexts see a config with the resolved material set
        # (legacy contract: tables are built once per run and travel with
        # the config to pool workers); other backends rebuild from the
        # config's own fields.
        from repro.xs.provider import XsMode

        if self.provider.mode is XsMode.MULTIGROUP:
            self.run_config = (
                config if config.materials is not None
                else config.with_(materials=self.provider.materials)
            )
        else:
            self.run_config = config
        self.material_map = self.run_config.resolved_material_map()
        if arena is None:
            arena = sample_source(
                self.mesh, config.source, config.nparticles, config.seed,
                config.dt,
                provider=self.provider,
            )
        self.arena = arena
        self.dispatch = KernelDispatch(
            recorder=self.rec if self.rec.enabled else None
        )
        self.ws = Workspace()
        self.counters = Counters(nparticles=len(arena))
        self.coll_pp = np.zeros(len(arena), dtype=np.int64)
        self.facet_pp = np.zeros(len(arena), dtype=np.int64)
        if lanes is None:
            self.counters.rng_draws += 4 * len(arena)  # birth draws
        else:
            birth = np.bincount(lanes.rep, minlength=lanes.nreplicas)
            for r in range(lanes.nreplicas):
                lanes.counters[r].rng_draws += 4 * int(birth[r])
        #: Dead histories parked by compact-at-switch, re-appended before
        #: the result is built so population accounting and fingerprints
        #: match an uncompacted run.
        self.morgue: list[tuple] = []
        #: True while the arena may disagree with the OE context's
        #: positional caches (set by OP steps and boundary maintenance).
        self.oe_dirty = True
        self._strategies: dict[Scheme, object] = {}
        self.result_scheme = Scheme.AUTO

    # ------------------------------------------------------------------
    def alive_count(self) -> int:
        return int(self.arena.alive.sum())

    def _probe_step(self, step: int) -> None:
        """Publish this shard's in-progress counter totals to the live
        plane (fused ensemble lanes keep per-replica counters, so sum
        them in)."""
        c = self.counters
        events = c.total_events
        xs = c.xs_lookups
        probes = c.xs_binary_probes + c.xs_linear_probes
        if self.lanes is not None:
            for rc in self.lanes.counters:
                events += rc.total_events
                xs += rc.xs_lookups
                probes += rc.xs_binary_probes + rc.xs_linear_probes
        self.probe.step_complete(
            step=step,
            alive=self.alive_count(),
            events=int(events),
            xs_lookups=int(xs),
            xs_probes=int(probes),
        )

    def _strategy(self, scheme: Scheme):
        strat = self._strategies.get(scheme)
        if strat is None:
            cls = (
                _OPStrategy if scheme is Scheme.OVER_PARTICLES
                else _OEStrategy
            )
            strat = cls(self)
            self._strategies[scheme] = strat
        return strat

    def _apply_boundary(self, decision: StepDecision) -> None:
        """Population maintenance at a switch boundary (physics-invariant:
        sorting permutes storage only; compaction parks dead histories in
        the morgue until finalisation)."""
        if decision.sort_key is None and not decision.compact:
            return
        if self.trace is not None:
            raise ValueError(
                "switch-boundary sort/compact is incompatible with event "
                "tracing (traces address histories by arena index)"
            )
        if self.lanes is not None:
            raise ValueError(
                "switch-boundary sort/compact is unsupported under fused "
                "ensemble lanes"
            )
        if decision.sort_key is not None:
            order = self.arena.sort_by(decision.sort_key)
            self.coll_pp = self.coll_pp[order]
            self.facet_pp = self.facet_pp[order]
            self.oe_dirty = True
        if decision.compact:
            dead = np.nonzero(~self.arena.alive)[0]
            if dead.size:
                self.morgue.append((
                    self.arena.subset(dead),
                    self.coll_pp[dead].copy(),
                    self.facet_pp[dead].copy(),
                ))
                alive = np.nonzero(self.arena.alive)[0]
                self.coll_pp = self.coll_pp[alive]
                self.facet_pp = self.facet_pp[alive]
                self.arena.compact()
                self.oe_dirty = True

    # ------------------------------------------------------------------
    def run(self, plan) -> None:
        config = self.config
        rec = self.rec
        fixed = getattr(plan, "fixed_scheme", None)
        self.result_scheme = fixed if fixed is not None else Scheme.AUTO
        announce = fixed is None
        state: dict = {}

        def begin_step(step: int) -> None:
            decision = plan.decide(step, self)
            prev = state.get("scheme")
            if announce and decision.scheme is not prev:
                if decision.scheme is Scheme.OVER_PARTICLES:
                    block = decision.block_size or config.op_block_size
                else:
                    block = 0
                rec.event(
                    "scheme_switch",
                    step=step,
                    scheme=decision.scheme.value,
                    prev=prev.value if prev is not None else "",
                    reason=decision.reason,
                    block_size=int(block),
                    alive=self.alive_count(),
                )
            state["scheme"] = decision.scheme
            state["decision"] = decision
            self._apply_boundary(decision)
            if step > 0:
                census_dt_reset(
                    self.arena.dt_to_census, self.arena.alive, config.dt,
                    self.lanes,
                )
            strategy = self._strategy(decision.scheme)
            strategy.begin_step(step)
            state["strategy"] = strategy

        def run_step(step: int) -> None:
            decision = state["decision"]
            strategy = state["strategy"]
            strategy.run_step(step, decision, rec)
            strategy.end_step()
            if self.probe.enabled:
                self._probe_step(step)

        label = fixed.value if fixed is not None else Scheme.AUTO.value
        drive_census_loop(
            rec, config.ntimesteps, {"scheme": label}, begin_step, run_step
        )
        self._finalize()

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        arena = self.arena
        counters = self.counters
        tally = self.tally
        # Dead histories parked by compact-at-switch rejoin the
        # population (storage order differs from an uncompacted run, but
        # fingerprints sort by particle_id, so parity is unaffected).
        for dead_arena, dead_coll, dead_facet in self.morgue:
            arena.extend(dead_arena)
            self.coll_pp = np.concatenate([self.coll_pp, dead_coll])
            self.facet_pp = np.concatenate([self.facet_pp, dead_facet])
        self.morgue = []
        lanes = self.lanes
        if lanes is not None:
            rep = lanes.rep
            for r in range(lanes.nreplicas):
                sel = rep == r
                rc = lanes.counters[r]
                rc.nparticles = int(sel.sum())
                rc.collisions_per_particle = self.coll_pp[sel]
                rc.facets_per_particle = self.facet_pp[sel]
                rc.tally_conflict_probability = (
                    lanes.tallies[r].conflict_probability()
                )
                # The fused run's tally is the exact sum of the
                # per-replica scatter-adds.
                tally.deposition += lanes.tallies[r].deposition
                tally.flush_counts += lanes.tallies[r].flush_counts
                tally.flushes += lanes.tallies[r].flushes
            for fname in Counters._SCALAR_FIELDS:
                if fname == "nparticles":
                    continue
                setattr(counters, fname, getattr(counters, fname) + sum(
                    getattr(lanes.counters[r], fname)
                    for r in range(lanes.nreplicas)
                ))
        counters.nparticles = len(arena)
        counters.collisions_per_particle = np.asarray(
            self.coll_pp, dtype=np.int64
        )
        counters.facets_per_particle = np.asarray(
            self.facet_pp, dtype=np.int64
        )
        counters.tally_conflict_probability = tally.conflict_probability()
        counters.kernel_profile = self.dispatch.profile()
        counters.workspace_allocations = self.ws.allocations
        counters.workspace_reuses = self.ws.reuses
        counters.arena_nbytes = arena.nbytes()


def _coerce_plan(config: SimulationConfig, plan):
    """Normalise the ``plan`` argument: a Scheme becomes a fixed plan
    (``AUTO`` becomes a live adaptive scheduler); plan objects pass
    through."""
    if plan is None:
        return SwitchPlan.fixed(Scheme.OVER_PARTICLES)
    if isinstance(plan, Scheme):
        if plan is Scheme.AUTO:
            from repro.adaptive import AdaptiveScheduler

            return AdaptiveScheduler(config)
        return SwitchPlan.fixed(plan)
    return plan


def run_stepped(config: SimulationConfig, plan=None, *, arena=None,
                tally=None, trace=None, recorder=None, lanes=None,
                provider=None, probe=None):
    """Run the unified census stepper.

    ``plan`` is a :class:`Scheme` (``AUTO`` builds a live
    :class:`repro.adaptive.AdaptiveScheduler`), a :class:`SwitchPlan`,
    or any object with ``decide(step, stepper) -> StepDecision``.

    ``lanes`` (a :class:`repro.ensemble.EnsembleLanes`, with a
    fixed-scheme plan) fuses N replicas into the one arena: per-lane RNG
    seeds/cutoffs/dt and per-replica counter/tally attribution, while
    every kernel dispatch stays one fused call.  ``trace`` receives the
    event trace ``(history_index, event_kind, flat_cell)`` — the input of
    the discrete-event replay in :mod:`repro.simexec`; each history's
    events appear in its execution order.
    """
    from repro.core.simulation import TransportResult

    t0 = time.perf_counter()
    if plan is None or isinstance(plan, (Scheme, SwitchPlan)):
        validate_scheme_options(
            config, plan if plan is not None else Scheme.OVER_PARTICLES
        )
    plan = _coerce_plan(config, plan)
    if lanes is not None and getattr(plan, "fixed_scheme", None) is None:
        raise ValueError(
            "fused ensemble lanes require a fixed-scheme plan "
            "(over_particles or over_events)"
        )
    stepper = CensusStepper(
        config, arena=arena, tally=tally, trace=trace, recorder=recorder,
        lanes=lanes, provider=provider, probe=probe,
    )
    stepper.run(plan)
    return TransportResult(
        config=config,
        scheme=stepper.result_scheme,
        tally=stepper.tally,
        counters=stepper.counters,
        arena=stepper.arena,
        wallclock_s=time.perf_counter() - t0,
    )
