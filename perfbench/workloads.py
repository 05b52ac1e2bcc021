"""The four benchmark workloads: how each is built from a seed, run,
checked and fingerprinted.

Each workload stresses a different layer of the transport stack (see
README.md for the reasoning).  Only the public ``repro`` API is used.
A workload is built in two phases so the runner can time them apart:
``build`` is set-up (config or ensemble members, cross-section backend)
and ``run`` is the one transport call whose wall-clock is measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from metrics import POOLED_GAPS, THREE_D_GAPS

#: Relative energy-ledger error a correct run stays under (the ledger is
#: exact to rounding; observed errors are ~1e-16).
ENERGY_TOL = 1e-9


def _tally_sha(deposition) -> str:
    import numpy as np

    return hashlib.sha256(
        np.ascontiguousarray(deposition).tobytes()
    ).hexdigest()


def _check_2d(result) -> list[str]:
    from repro.core.validation import (
        energy_balance_error,
        population_accounted,
    )

    problems = []
    err = energy_balance_error(result)
    if not err <= ENERGY_TOL:
        problems.append(f"energy ledger error {err:.3e} > {ENERGY_TOL:g}")
    if not population_accounted(result):
        problems.append("population not accounted (alive+terminated+escaped)")
    return problems


def _fingerprint_2d(result) -> str:
    from repro.ensemble import population_fingerprint

    return population_fingerprint(result.arena) + ":" + _tally_sha(
        result.tally.deposition
    )


# -- csp_oe -----------------------------------------------------------------

def _build_csp_oe(seed: int, tiny: bool):
    from repro.core import Simulation, csp_problem

    config = csp_problem(
        nx=32 if tiny else 128,
        nparticles=200 if tiny else 8000,
        ntimesteps=2,
        seed=seed,
    )
    config.resolved_provider()
    return Simulation(config)


def _run_csp_oe(sim, recorder):
    from repro.core import Scheme

    return sim.run(Scheme.OVER_EVENTS, recorder=recorder)


# -- scatter_op_ce ----------------------------------------------------------

def _build_scatter_op_ce(seed: int, tiny: bool):
    from repro.core import Simulation, scatter_problem

    config = scatter_problem(
        nx=32 if tiny else 128,
        nparticles=40 if tiny else 1500,
        xs_mode="ce",
        seed=seed,
    )
    config.resolved_provider()
    return Simulation(config)


def _run_scatter_op_ce(sim, recorder):
    from repro.core import Scheme

    return sim.run(Scheme.OVER_PARTICLES, recorder=recorder)


# -- csp_ensemble_pool ------------------------------------------------------

#: Replicas in the fused ensemble and the swept per-lane weight cutoff.
ENSEMBLE_REPLICAS = 32
ENSEMBLE_SWEEP = "weight_cutoff=0.05:0.3:8"
ENSEMBLE_WORKERS = 2


def _build_csp_ensemble_pool(seed: int, tiny: bool):
    from repro.core import csp_problem
    from repro.ensemble import EnsembleSpec, SweepSpec

    base = csp_problem(
        nx=32 if tiny else 128,
        nparticles=20 if tiny else 1000,
        seed=seed,
    )
    members = EnsembleSpec(
        base,
        4 if tiny else ENSEMBLE_REPLICAS,
        sweeps=(SweepSpec.parse(ENSEMBLE_SWEEP),),
    ).members()
    members[0].resolved_provider()
    return members


def _run_csp_ensemble_pool(members, recorder):
    from repro.core import Scheme
    from repro.ensemble import run_ensemble

    return run_ensemble(
        members, Scheme.OVER_EVENTS, nworkers=ENSEMBLE_WORKERS,
        recorder=recorder,
    )


def _check_ensemble(result) -> list[str]:
    from repro.core import TransportResult

    problems = []
    for rr in result.replicas:
        # A replica carries every field the 2-D ledger reads.
        problems += [
            f"replica {rr.replica}: {p}"
            for p in _check_2d(TransportResult(
                config=rr.config, scheme=result.scheme, tally=rr.tally,
                counters=rr.counters, arena=rr.arena, wallclock_s=0.0,
            ))
        ]
    expected = sum(m.nparticles for m in result.members)
    if result.total_histories() != expected:
        problems.append(
            f"{result.total_histories()} histories returned, "
            f"{expected} launched"
        )
    return problems


def _fingerprint_ensemble(result) -> str:
    h = hashlib.sha256()
    for rr in result.replicas:
        h.update(rr.fingerprint().encode())
        h.update(_tally_sha(rr.tally.deposition).encode())
    return h.hexdigest()


# -- csp3_op ----------------------------------------------------------------

def _build_csp3_op(seed: int, tiny: bool):
    from repro.volume import csp3_problem

    config = csp3_problem(
        n=12 if tiny else 48,
        nparticles=20 if tiny else 300,
        seed=seed,
    )
    config.resolved_provider()
    return config


def _run_csp3_op(config, recorder):
    from repro.volume import run_over_particles_3d

    return run_over_particles_3d(config, recorder=recorder)


def _check_3d(result) -> list[str]:
    from repro.volume import energy_balance_error_3d, population_accounted_3d

    problems = []
    err = energy_balance_error_3d(result)
    if not err <= ENERGY_TOL:
        problems.append(f"energy ledger error {err:.3e} > {ENERGY_TOL:g}")
    if not population_accounted_3d(result):
        problems.append("population not accounted (alive+terminated+escaped)")
    return problems


def _fingerprint_3d(result) -> str:
    from repro.ensemble.volume import population_fingerprint_3d

    return population_fingerprint_3d(result.arena) + ":" + _tally_sha(
        result.tally.deposition
    )


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``pooled`` marks the workload whose transport runs in pool workers,
    where the parent process cannot wrap the worker-side layers.
    ``gaps`` names the per-layer rows the workload exercises but the
    traced run cannot observe (reported as ``UNAVAILABLE``).
    """

    name: str
    build: Callable
    run: Callable
    check: Callable
    fingerprint: Callable
    histories: Callable
    pooled: bool = False
    gaps: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="csp_oe",
            build=_build_csp_oe,
            run=_run_csp_oe,
            check=_check_2d,
            fingerprint=_fingerprint_2d,
            histories=lambda r: r.config.nparticles,
        ),
        Workload(
            name="scatter_op_ce",
            build=_build_scatter_op_ce,
            run=_run_scatter_op_ce,
            check=_check_2d,
            fingerprint=_fingerprint_2d,
            histories=lambda r: r.config.nparticles,
        ),
        Workload(
            name="csp_ensemble_pool",
            build=_build_csp_ensemble_pool,
            run=_run_csp_ensemble_pool,
            check=_check_ensemble,
            fingerprint=_fingerprint_ensemble,
            histories=lambda r: r.total_histories(),
            pooled=True,
            gaps=POOLED_GAPS,
        ),
        Workload(
            name="csp3_op",
            build=_build_csp3_op,
            run=_run_csp3_op,
            check=_check_3d,
            fingerprint=_fingerprint_3d,
            histories=lambda r: r.config.nparticles,
            gaps=THREE_D_GAPS,
        ),
    )
}
