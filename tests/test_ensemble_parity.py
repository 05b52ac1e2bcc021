"""Ensemble parity suite: N fused replicas == N standalone runs, bit for bit.

The mega-batch engine's contract is absolute: fusing N replica runs into
one :class:`EnsembleArena` — one kernel dispatch per event per census
step across ``replicas × histories`` lanes — must change *nothing* about
any individual replica's physics.  Every section here compares fused
per-replica books against looped ``Simulation.run`` baselines:

* per-replica counters (every scalar field), per-particle work arrays,
  tally deposition, and population fingerprints — across three problems,
  both schemes, serial and pooled (replica-block shards), including a
  pooled run with a deterministic worker kill injected (chaos-marked);
* invariance knobs: the Over Particles block size must not leak into
  results, and neither may the order members are listed in;
* the spec layer: sweep expansion, fusibility validation, and the fused
  totals equalling the per-replica sums.

This file is the CI ``ensemble-parity`` job; the fault-plan cases are
also ``chaos``-marked so the chaos job re-runs them.
"""

import numpy as np
import pytest

from repro.core import (
    Scheme,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.counters import Counters
from repro.ensemble import (
    EnsembleSpec,
    SweepSpec,
    population_fingerprint,
    run_ensemble,
    run_ensemble_looped,
    validate_members,
)
from repro.parallel import FaultPlan, KillWorker

PROBLEMS = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}
SCHEMES = (Scheme.OVER_PARTICLES, Scheme.OVER_EVENTS)

#: Small enough that 3 problems × 2 schemes × 3 execution modes stay in
#: CI budget, large enough that csp forks fission chains and variance
#: reduction splits/roulettes across replicas.
NX = 24
NPARTICLES = 60
NREPLICAS = 5
TIMESTEPS = 2


def _spec(problem: str) -> EnsembleSpec:
    base = PROBLEMS[problem](
        nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS
    )
    return EnsembleSpec(base, NREPLICAS, seed_stride=3)


def _assert_replica_parity(fused, looped):
    """Every replica of the fused run bit-identical to its looped twin."""
    assert len(fused.replicas) == len(looped.results)
    for rr, solo in zip(fused.replicas, looped.results):
        for fname in Counters._SCALAR_FIELDS:
            assert getattr(rr.counters, fname) == getattr(
                solo.counters, fname
            ), (rr.replica, fname)
        assert np.array_equal(
            rr.counters.collisions_per_particle,
            solo.counters.collisions_per_particle,
        ), (rr.replica, "collisions_per_particle")
        assert np.array_equal(
            rr.counters.facets_per_particle,
            solo.counters.facets_per_particle,
        ), (rr.replica, "facets_per_particle")
        assert np.array_equal(
            rr.tally.deposition, solo.tally.deposition
        ), (rr.replica, "tally")
        assert np.array_equal(
            rr.tally.flush_counts, solo.tally.flush_counts
        ), (rr.replica, "flush_counts")
        assert population_fingerprint(rr.arena) == population_fingerprint(
            solo.arena
        ), (rr.replica, "fingerprint")


# ---------------------------------------------------------------------------
# Serial fused vs looped — 3 problems × 2 schemes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_serial_fused_matches_looped(problem, scheme):
    spec = _spec(problem)
    fused = run_ensemble(spec, scheme)
    looped = run_ensemble_looped(spec, scheme)
    _assert_replica_parity(fused, looped)


# ---------------------------------------------------------------------------
# Pooled fused (replica-block shards) vs looped
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_pooled_fused_matches_looped(problem, scheme):
    spec = _spec(problem)
    fused = run_ensemble(spec, scheme, nworkers=3)
    looped = run_ensemble_looped(spec, scheme)
    _assert_replica_parity(fused, looped)


@pytest.mark.chaos
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_pooled_fused_survives_worker_kill(scheme):
    """A worker hard-killed mid-ensemble is retried bit-identically."""
    spec = _spec("csp")
    fused = run_ensemble(
        spec, scheme, nworkers=3,
        fault_plan=FaultPlan((KillWorker(worker=1, after_chunks=0),)),
    )
    looped = run_ensemble_looped(spec, scheme)
    _assert_replica_parity(fused, looped)


@pytest.mark.chaos
def test_pooled_kill_retry_matches_clean_pooled():
    """Chaos and clean pooled runs agree with each other, not just with
    the looped baseline (same shards, same bytes re-read on retry)."""
    spec = _spec("scatter")
    clean = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=2)
    chaoticed = run_ensemble(
        spec, Scheme.OVER_EVENTS, nworkers=2,
        fault_plan=FaultPlan((KillWorker(worker=0, after_chunks=0),)),
    )
    for a, b in zip(clean.replicas, chaoticed.replicas):
        assert population_fingerprint(a.arena) == population_fingerprint(
            b.arena
        )
        assert a.counters.collisions == b.counters.collisions


# ---------------------------------------------------------------------------
# Invariance knobs
# ---------------------------------------------------------------------------

def test_op_block_size_invariance():
    """The fused Over Particles segment scheduler must hide block
    boundaries exactly as the standalone driver does."""
    base = csp_problem(nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS)
    prints = []
    for block in (7, 32, 1024):
        spec = EnsembleSpec(
            base.with_(op_block_size=block), NREPLICAS, seed_stride=3
        )
        fused = run_ensemble(spec, Scheme.OVER_PARTICLES)
        prints.append([
            population_fingerprint(rr.arena) for rr in fused.replicas
        ])
    assert prints[0] == prints[1] == prints[2]


def test_replica_order_permutation_invariance():
    """Each member's result depends only on its own config, not on where
    it sits in the fused arena."""
    base = scatter_problem(nx=NX, nparticles=NPARTICLES)
    members = EnsembleSpec(base, 4, seed_stride=5).members()
    forward = run_ensemble(members, Scheme.OVER_EVENTS)
    perm = [2, 0, 3, 1]
    shuffled = run_ensemble(
        tuple(members[i] for i in perm), Scheme.OVER_EVENTS
    )
    for slot, orig in enumerate(perm):
        a = shuffled.replicas[slot]
        b = forward.replicas[orig]
        assert a.config.seed == b.config.seed
        assert population_fingerprint(a.arena) == population_fingerprint(
            b.arena
        )
        assert a.counters.collisions == b.counters.collisions
        assert np.array_equal(a.tally.deposition, b.tally.deposition)


def test_worker_count_invariance():
    """1, 2, and 5 workers produce identical per-replica results."""
    spec = _spec("csp")
    prints = []
    for nworkers in (1, 2, 5):
        fused = run_ensemble(spec, Scheme.OVER_EVENTS, nworkers=nworkers)
        prints.append([
            population_fingerprint(rr.arena) for rr in fused.replicas
        ])
    assert prints[0] == prints[1] == prints[2]


# ---------------------------------------------------------------------------
# Fused totals and the spec layer
# ---------------------------------------------------------------------------

def test_fused_totals_equal_replica_sums():
    spec = _spec("csp")
    fused = run_ensemble(spec, Scheme.OVER_EVENTS)
    for fname in ("collisions", "facets", "census_events", "rng_draws",
                  "terminations", "escapes", "nparticles"):
        assert getattr(fused.counters, fname) == sum(
            getattr(rr.counters, fname) for rr in fused.replicas
        ), fname
    summed = sum(rr.tally.deposition for rr in fused.replicas)
    np.testing.assert_allclose(fused.tally.deposition, summed, rtol=1e-12)


def test_sweep_expansion_assigns_cyclically():
    base = csp_problem(nx=NX, nparticles=NPARTICLES)
    spec = EnsembleSpec(
        base, 5, sweeps=(SweepSpec("weight_cutoff", 0.1, 0.3, 3),)
    )
    cuts = [m.weight_cutoff for m in spec.members()]
    assert cuts == [0.1, 0.2, 0.3, 0.1, 0.2]
    seeds = [m.seed for m in spec.members()]
    assert seeds == [base.seed + r for r in range(5)]


def test_sweep_source_param_touches_only_source():
    base = csp_problem(nx=NX, nparticles=NPARTICLES)
    spec = EnsembleSpec(
        base, 2, sweeps=(SweepSpec("source.energy_ev", 1e5, 2e5, 2),)
    )
    members = spec.members()
    assert members[0].source.energy_ev == 1e5
    assert members[1].source.energy_ev == 2e5
    assert members[0].weight_cutoff == members[1].weight_cutoff


def test_validate_members_rejects_non_fusible_mismatch():
    base = csp_problem(nx=NX, nparticles=NPARTICLES)
    other = csp_problem(nx=NX, nparticles=NPARTICLES + 1)
    with pytest.raises(ValueError, match="nparticles"):
        validate_members([base, other])


def test_run_ensemble_rejects_adaptive_scheme():
    with pytest.raises(ValueError, match="one fixed scheme"):
        run_ensemble(_spec("stream"), Scheme.AUTO)


def test_sweep_spec_parse_rejects_bad_forms():
    with pytest.raises(ValueError, match="expected param=lo:hi:steps"):
        SweepSpec.parse("weight_cutoff=0.1:0.3")
    with pytest.raises(ValueError, match="cannot sweep"):
        SweepSpec.parse("nparticles=10:20:2")


def test_replica_id_column_survives_the_run():
    """The fused arena keeps a coherent replica_id the whole way —
    children inherit their parent's replica."""
    spec = _spec("csp")
    fused = run_ensemble(spec, Scheme.OVER_EVENTS)
    rep = fused.arena.replica_id
    assert rep.min() >= 0 and rep.max() < NREPLICAS
    for rr in fused.replicas:
        assert len(rr.arena) == rr.counters.nparticles


# ---------------------------------------------------------------------------
# 3-D volume fusion (seed-only lanes)
# ---------------------------------------------------------------------------

def test_ensemble_3d_seed_fusion_matches_standalone():
    """Seed-only 3-D fusion: every replica's counters, tally, and
    population fingerprint bit-identical to its own standalone run, and
    the fused tally is exactly the replica sum."""
    from repro.ensemble.volume import (
        population_fingerprint_3d,
        run_ensemble_3d,
    )
    from repro.volume import csp3_problem, run_over_events_3d

    base = csp3_problem(n=8, nparticles=40, ntimesteps=2)
    members = [base.with_(seed=base.seed + 7 * r) for r in range(4)]
    ens = run_ensemble_3d(members)
    assert len(ens.replicas) == 4
    for rr, m in zip(ens.replicas, members):
        solo = run_over_events_3d(m)
        for fname in Counters._SCALAR_FIELDS:
            assert getattr(rr.counters, fname) == getattr(
                solo.counters, fname
            ), (rr.replica, fname)
        assert np.array_equal(rr.tally.deposition, solo.tally.deposition)
        assert rr.fingerprint() == population_fingerprint_3d(solo.arena)
    summed = sum(rr.tally.deposition for rr in ens.replicas)
    np.testing.assert_allclose(
        ens.fused.tally.deposition, summed, rtol=1e-12
    )


def test_validate_members_3d_is_seed_only():
    from repro.ensemble.volume import validate_members_3d
    from repro.volume import csp3_problem

    base = csp3_problem(n=8, nparticles=40)
    validate_members_3d([base, base.with_(seed=base.seed + 1)])
    with pytest.raises(ValueError, match="nparticles"):
        validate_members_3d([base, base.with_(nparticles=41)])
