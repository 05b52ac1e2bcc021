"""Golden pins for the 2-D event pipeline: kernel work, counters, physics.

Every run below is pinned to values captured from the implementation
as it stood before the Over Particles and Over Events handler sets were
merged into one layer, so the merge (and any later rewrite of the
pipeline) must reproduce them exactly:

* per-kernel ``(calls, items)`` from ``counters.kernel_profile``;
* every scalar :class:`~repro.core.counters.Counters` field, including
  the cross-section search accounting (``xs_binary_probes``,
  ``xs_linear_probes``, ``xs_bin_reuses``) that the two traversal orders
  price differently;
* the population fingerprint, the tally deposition hash, the
  per-particle work arrays and the Over Events pass-occupancy record.

Cases cover stream/scatter/csp under Over Particles (block sizes 1 and
64) and Over Events with multigroup and continuous-energy cross
sections, a fissile multi-material run, an importance-map run with
vacuum boundaries and Russian roulette, a per-step scheme-switching
plan, a traced Over Particles run, and a 4-replica fused ensemble
(swept weight cutoffs) under both schemes.

Regenerate the golden file only when a physics or accounting change is
intended::

    PYTHONPATH=src python tests/test_event_pipeline_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    Scheme,
    csp_problem,
    scatter_problem,
    stream_problem,
)
from repro.core.counters import Counters
from repro.core.stepper import StepDecision, SwitchPlan, run_stepped
from repro.ensemble import (
    EnsembleSpec,
    SweepSpec,
    population_fingerprint,
    run_ensemble,
)
from repro.mesh.boundary import BoundaryCondition
from repro.xs.materials import fissile_fuel, hydrogenous_moderator

GOLDEN_PATH = Path(__file__).with_name("golden_event_pipeline.json")

NX = 16
NPARTICLES = 32
TIMESTEPS = 2
SEED = 5

FACTORIES = {
    "stream": stream_problem,
    "scatter": scatter_problem,
    "csp": csp_problem,
}

#: Scheme label → (scheme, OP block size or None).
SCHEMES = {
    "op1": (Scheme.OVER_PARTICLES, 1),
    "op64": (Scheme.OVER_PARTICLES, 64),
    "oe": (Scheme.OVER_EVENTS, None),
}


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _plain(v):
    return v.item() if hasattr(v, "item") else v


def _books(counters: Counters, tally, arena) -> dict:
    passes = [
        (p.n_active, p.n_collision, p.n_facet, p.n_census)
        for p in counters.oe_passes
    ]
    return {
        "counters": {
            f: _plain(getattr(counters, f)) for f in Counters._SCALAR_FIELDS
        },
        "fingerprint": population_fingerprint(arena),
        "tally": _sha(tally.deposition),
        "collisions_pp": _sha(
            np.asarray(counters.collisions_per_particle, dtype=np.int64)
        ),
        "facets_pp": _sha(
            np.asarray(counters.facets_per_particle, dtype=np.int64)
        ),
        "oe_passes": _sha(np.asarray(passes, dtype=np.int64)),
    }


def _kernels(counters: Counters) -> dict:
    return {
        name: [int(row[0]), int(row[1])]
        for name, row in sorted(counters.kernel_profile.items())
    }


def _signature(result) -> dict:
    sig = _books(result.counters, result.tally, result.arena)
    sig["kernels"] = _kernels(result.counters)
    return sig


def _config(problem: str, xs: str, block: int | None):
    kw = dict(nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS, seed=SEED)
    if xs == "ce":
        kw.update(xs_mode="ce", xs_nentries=600)
    cfg = FACTORIES[problem](**kw)
    return cfg if block is None else cfg.with_(op_block_size=block)


def _fissile_config():
    material_map = np.zeros((NX, NX), dtype=np.int64)
    material_map[:, NX // 2:] = 1
    return csp_problem(
        nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS, seed=SEED,
        materials=(hydrogenous_moderator(800, 1.0), fissile_fuel(800)),
        material_map=material_map,
    )


def _importance_config():
    imap = np.ones((NX, NX))
    imap[:, NX // 4:] = 2.0
    imap[:, NX // 2:] = 4.0
    imap[NX // 2:, :] *= 0.5
    return csp_problem(
        nx=NX, nparticles=NPARTICLES, ntimesteps=TIMESTEPS, seed=SEED,
        importance_map=imap,
        boundary=BoundaryCondition.VACUUM,
        use_russian_roulette=True,
        weight_cutoff=0.3,
    )


def _single_cases():
    cases = {}
    for xs in ("mg", "ce"):
        for problem in FACTORIES:
            for label, (scheme, block) in SCHEMES.items():
                cases[f"{problem}/{xs}/{label}"] = (
                    _config(problem, xs, block), scheme
                )
    for label, (scheme, block) in SCHEMES.items():
        fis = _fissile_config()
        imp = _importance_config()
        if block is not None:
            fis = fis.with_(op_block_size=block)
            imp = imp.with_(op_block_size=block)
        cases[f"fissile/mg/{label}"] = (fis, scheme)
        cases[f"importance/mg/{label}"] = (imp, scheme)
    return cases


SINGLE_CASES = _single_cases()

#: Every census step alternates traversal order (OP block 7 ↔ OE).
SWITCH_PLAN = SwitchPlan((
    StepDecision(Scheme.OVER_PARTICLES, block_size=7),
    StepDecision(Scheme.OVER_EVENTS),
    StepDecision(Scheme.OVER_PARTICLES, block_size=7),
))


def _run_single(name: str) -> dict:
    cfg, scheme = SINGLE_CASES[name]
    return _signature(run_stepped(cfg, scheme))


def _run_switching() -> dict:
    cfg = _fissile_config().with_(ntimesteps=3)
    return _signature(run_stepped(cfg, SWITCH_PLAN))


def _run_traced() -> dict:
    trace: list = []
    cfg = _config("csp", "mg", 64)
    sig = _signature(run_stepped(cfg, Scheme.OVER_PARTICLES, trace=trace))
    sig["trace"] = _sha(np.asarray(trace, dtype=np.int64))
    sig["trace_len"] = len(trace)
    return sig


def _ensemble_members():
    base = _fissile_config().with_(
        use_russian_roulette=True, op_block_size=5
    )
    return EnsembleSpec(
        base, 4, seed_stride=3,
        sweeps=(SweepSpec.parse("weight_cutoff=0.05:0.3:4"),),
    ).members()


def _run_ensemble(scheme: Scheme) -> dict:
    res = run_ensemble(_ensemble_members(), scheme)
    return {
        "fused": _signature(res),
        "replicas": [
            _books(rr.counters, rr.tally, rr.arena) for rr in res.replicas
        ],
    }


ENSEMBLE_SCHEMES = {"op": Scheme.OVER_PARTICLES, "oe": Scheme.OVER_EVENTS}


def collect() -> dict:
    out = {name: _run_single(name) for name in SINGLE_CASES}
    out["switching/fissile"] = _run_switching()
    out["traced/csp/op64"] = _run_traced()
    for label, scheme in ENSEMBLE_SCHEMES.items():
        out[f"ensemble/{label}"] = _run_ensemble(scheme)
    return out


def _normalise(sig):
    """JSON round-trip so tuples/lists and numpy scalars compare equal."""
    return json.loads(json.dumps(sig))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SINGLE_CASES))
def test_single_run_matches_golden(golden, name):
    assert _normalise(_run_single(name)) == golden[name]


def test_scheme_switching_matches_golden(golden):
    assert _normalise(_run_switching()) == golden["switching/fissile"]


def test_traced_op_matches_golden(golden):
    assert _normalise(_run_traced()) == golden["traced/csp/op64"]


@pytest.mark.parametrize("label", sorted(ENSEMBLE_SCHEMES))
def test_fused_ensemble_matches_golden(golden, label):
    got = _normalise(_run_ensemble(ENSEMBLE_SCHEMES[label]))
    assert got == golden[f"ensemble/{label}"]


def test_golden_cases_exercise_every_handler_path(golden):
    """Guard against goldens that silently stop covering a branch."""
    totals = {f: 0 for f in Counters._SCALAR_FIELDS}
    for name, sig in golden.items():
        books = sig["fused"] if name.startswith("ensemble/") else sig
        for f in totals:
            totals[f] += books["counters"][f]
    for f in ("collisions", "facets", "census_events", "escapes",
              "reflections", "roulette_kills", "roulette_survivals",
              "fissions", "secondaries_banked", "splits", "clones_banked",
              "xs_binary_probes", "xs_linear_probes", "xs_bin_reuses"):
        assert totals[f] > 0, f


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if "--regen" not in sys.argv[1:]:
        raise SystemExit("usage: test_event_pipeline_golden.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps(_normalise(collect()), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
