"""The 2-D event handler layer: the per-event physics, written once.

The paper's two traversal orders (§V, Listings 1–2) run the same
collision / facet / census physics; they differ only in the order
histories reach it.  This module holds that physics once:

* :class:`EventHandlers` — the handlers over one SoA population view,
  its per-lane cached state (microscopic cross sections, material index,
  RNG streams) and the attribution helpers (:meth:`~EventHandlers.cadd`,
  :meth:`~EventHandlers.csum`, :meth:`~EventHandlers.flush`) that charge
  the run's counters and tally — or, under fused ensemble lanes, each
  replica's own books, so every member stays bit-identical to its
  standalone run;
* :func:`event_pass` — one breadth-first pass: distances → event
  selection → per-kind masks → handler dispatch.

Over Events (:class:`PassHandlers`) calls :func:`event_pass` on the
whole arena until every history is censused or dead.  Blocked Over
Particles (:class:`BlockHandlers`) is Over Events restricted to a lane
block: the block is gathered with ``arena.subset(idx)``, passed until
done, and written back.  Exactly two behaviours differ between the
schemes, each one overridable hook:

``refresh_micro``
    Over Particles refreshes microscopic cross sections with exact
    per-lane search accounting (the cached-linear walk length or the
    bisection probe count, from the counting kernels in
    :mod:`repro.kernels.xs`) and never reuses bins.  Over Events hoists
    the search for lanes whose energy is bitwise-unchanged since their
    last search in the same material (``xs_bin_reuses``) and books
    ``binary_probe_estimate`` probes per fresh lane — the §VI-A search
    contrast.
``bank``
    Over Particles banks fission secondaries and VR clones as
    ``(parent, event, child, record)`` entries that the stepper sorts and
    drains at the arena end (the depth-first order); Over Events absorbs
    them into the population between passes.

No per-particle object is ever constructed: offspring are
:class:`~repro.particles.arena.ParticleRecord` field tuples appended to
the arena (the kernel audit enforces that).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.core.config import SearchStrategy
from repro.core.counters import EventPassStats
from repro.kernels import EVENT_KERNELS
from repro.kernels import xs as kernel_xs
from repro.kernels.batch import EventKind, split_counts
from repro.particles.arena import ParticleRecord
from repro.physics.fission import sample_secondary_energy, secondary_id
from repro.physics.importance import clone_id
from repro.rng.distributions import sample_isotropic_direction, sample_mean_free_paths
from repro.rng.stream import ParticleRNG, VectorParticleRNG

__all__ = ["EventHandlers", "BlockHandlers", "PassHandlers", "event_pass"]

#: Event kind → handler method, dispatched in :data:`EVENT_KERNELS` order.
HANDLERS = {
    EventKind.COLLISION: "handle_collisions",
    EventKind.FACET: "handle_facets",
    EventKind.CENSUS: "handle_census",
}


class EventHandlers:
    """Per-event physics over one SoA population view.

    ``run`` supplies the run-wide books (a
    :class:`~repro.core.stepper.CensusStepper`): config, mesh, tally,
    kernel dispatch, workspace, cross-section provider, material map,
    counters, ensemble lanes, per-history work arrays and the optional
    event trace.  ``arena`` is the population the handlers advance in
    place; ``gidx`` maps its lanes to run-wide history indices (``None``
    when the arena *is* the run's population).

    Subclasses supply the two scheme hooks, :meth:`refresh_micro` and
    :meth:`bank`.
    """

    def __init__(self, run, arena, gidx=None):
        self.run = run
        self.config = run.run_config
        self.provider = run.provider
        self.arena = arena
        self.gidx = gidx
        lanes = run.lanes
        #: Per-lane replica index under fused ensemble lanes, else None.
        self.rep = None
        if lanes is not None:
            self.rep = lanes.rep if gidx is None else lanes.rep[gidx]
        n = len(arena)
        self.micro_s = np.zeros(n)
        self.micro_c = np.zeros(n)
        self.micro_f = np.zeros(n)
        self.mat_idx = run.material_map[arena.celly, arena.cellx]
        self.rng = VectorParticleRNG(
            self.seeds(), arena.particle_id, arena.rng_counter
        )

    # ------------------------------------------------------------------
    # Scheme hooks
    def refresh_micro(self, idx: np.ndarray) -> None:
        """Refresh the cached microscopic cross sections of ``idx``."""
        raise NotImplementedError

    def bank(self, lane: int, ctr: int, k: int, record) -> None:
        """Take child ``k`` of ``lane``'s event at RNG counter ``ctr``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Attribution.  A plain run charges the single counters/tally pair; a
    # fused ensemble run charges each replica's own books.
    def seeds(self):
        """RNG key word 0: the run seed, or each lane's replica seed."""
        if self.rep is None:
            return self.config.seed
        return self.run.lanes.seeds[self.rep]

    def glob(self, idx: np.ndarray) -> np.ndarray:
        """Run-wide history indices of the given lanes."""
        return idx if self.gidx is None else self.gidx[idx]

    def cadd(self, name: str, idx: np.ndarray, per=1) -> None:
        """Add ``per`` per selected lane to an integer counter; ``per``
        is an int or an int array aligned with ``idx``."""
        scalar = np.ndim(per) == 0
        if self.rep is None:
            c = self.run.counters
            total = per * idx.size if scalar else per.sum()
            setattr(c, name, getattr(c, name) + int(total))
            return
        lanes = self.run.lanes
        counts = np.bincount(
            self.rep[idx], weights=None if scalar else per,
            minlength=lanes.nreplicas,
        )
        scale = per if scalar else 1
        for r in np.nonzero(counts)[0]:
            c = lanes.counters[r]
            setattr(c, name, getattr(c, name) + scale * int(counts[r]))

    def csum(self, name: str, idx: np.ndarray, values: np.ndarray) -> None:
        """Accumulate a float reduction over the selected lanes.

        Per-replica sums run over each replica's subsequence in storage
        order — the same operands in the same order as that replica's
        standalone run, hence bitwise-equal partial sums.
        """
        if self.rep is None:
            c = self.run.counters
            setattr(c, name, getattr(c, name) + float(values.sum()))
            return
        rep = self.rep[idx]
        for r in np.unique(rep):
            c = self.run.lanes.counters[r]
            setattr(c, name, getattr(c, name) + float(values[rep == r].sum()))

    def flush(self, idx: np.ndarray) -> None:
        """Batched tally flush (the §VI-G separate tally loop), split by
        replica when fused, then clear the lanes' deposit registers."""
        a = self.arena
        if self.rep is None:
            self.run.tally.flush_vec(
                a.cellx[idx], a.celly[idx], a.deposit_buffer[idx]
            )
            self.run.counters.tally_flushes += idx.size
        else:
            rep = self.rep[idx]
            for r in np.unique(rep):
                sel = idx[rep == r]
                self.run.lanes.tallies[r].flush_vec(
                    a.cellx[sel], a.celly[sel], a.deposit_buffer[sel]
                )
                self.run.lanes.counters[r].tally_flushes += sel.size
        a.deposit_buffer[idx] = 0.0

    def counters_for(self, lane):
        """The Counters a scalar event on ``lane`` charges."""
        if self.rep is None:
            return self.run.counters
        return self.run.lanes.counters[int(self.rep[lane])]

    def seed_for(self, lane) -> int:
        """The RNG key word 0 for ``lane`` (its replica's seed)."""
        if self.rep is None:
            return self.config.seed
        return int(self.run.lanes.seeds[int(self.rep[lane])])

    def ecut_at(self, idx: np.ndarray):
        """Energy cutoff, scalar or per-lane (kernels broadcast either)."""
        if self.rep is None:
            return self.config.energy_cutoff_ev
        return self.run.lanes.ecut[self.rep[idx]]

    def wcut_at(self, idx: np.ndarray):
        """Weight cutoff, scalar or per-lane."""
        if self.rep is None:
            return self.config.weight_cutoff
        return self.run.lanes.wcut[self.rep[idx]]

    def trace_events(self, idx, kind: EventKind, cellx, celly) -> None:
        """Append ``(history, kind, flat cell)`` to the run's event trace
        (consumed by :mod:`repro.simexec` for discrete-event replay)."""
        trace = self.run.trace
        if trace is None:
            return
        cells = celly * self.run.mesh.nx + cellx
        trace.extend(
            zip(self.glob(idx).tolist(), repeat(int(kind)), cells.tolist())
        )

    def kill(self, idx: np.ndarray) -> None:
        """Terminate the given lanes."""
        self.arena.alive[idx] = False
        self.cadd("terminations", idx)

    # ------------------------------------------------------------------
    def macroscopic(self):
        """(Σ_s, Σ_a, Σ_f, Σ_t) from the cached microscopic values, into
        workspace buffers, with the exact arithmetic chain of
        :func:`repro.xs.macroscopic.macroscopic_cross_section`."""
        m = self.provider.macroscopic_into(
            self.run.ws, len(self.arena), self.mat_idx,
            self.micro_s, self.micro_c, self.micro_f,
            self.arena.local_density,
        )
        return m.sigma_s, m.sigma_a, m.sigma_f, m.sigma_t

    # ------------------------------------------------------------------
    # Event handlers — one per entry in the shared EVENT_KERNELS mapping,
    # all with the same signature so event_pass can dispatch uniformly.

    def handle_collisions(self, cmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        """foreach(colliding_particle): handle_collision()"""
        a = self.arena
        run = self.run
        config = self.config
        prov = self.provider
        c = np.nonzero(cmask)[0]
        d = dist.d_collision[c]
        sp = dist.speed[c]
        a.x[c] = a.x[c] + a.omega_x[c] * d
        a.y[c] = a.y[c] + a.omega_y[c] * d
        a.dt_to_census[c] = np.maximum(0.0, a.dt_to_census[c] - d / sp)
        weight_before = a.weight[c].copy()
        counters_at_event = self.rng.counters[c].copy()
        u_angle = self.rng.next_uniform(cmask)
        u_sense = self.rng.next_uniform(cmask)
        u_mfp = self.rng.next_uniform(cmask)
        self.cadd("rng_draws", c, 3)
        (e_new, w_new, ox_new, oy_new, mfp_new, dep, term, below) = run.dispatch.run(
            "collide",
            c.size,
            a.energy[c],
            a.weight[c],
            a.omega_x[c],
            a.omega_y[c],
            sigma_a[c],
            sigma_t[c],
            prov.mat_a[self.mat_idx[c]],
            u_angle,
            u_sense,
            u_mfp,
            self.ecut_at(c),
            self.wcut_at(c),
            defer_weight_cutoff=config.use_russian_roulette,
        )
        a.energy[c] = e_new
        a.weight[c] = w_new
        a.omega_x[c] = ox_new
        a.omega_y[c] = oy_new
        a.mfp_to_collision[c] = mfp_new
        a.deposit_buffer[c] += dep
        self.cadd("collisions", c)
        run.coll_pp[self.glob(c)] += 1
        self.trace_events(c, EventKind.COLLISION, a.cellx[c], a.celly[c])

        # ---- fission banking (multiplying media extension) -------------
        fissile_here = prov.mat_fissile[self.mat_idx[c]] & (sigma_t[c] > 0.0)
        if fissile_here.any():
            sel = c[fissile_here]
            fis_mask = np.zeros(len(a), dtype=bool)
            fis_mask[sel] = True
            u_fission = self.rng.next_uniform(fis_mask)
            self.cadd("rng_draws", sel)
            counts = run.dispatch.run(
                "fission_bank",
                sel.size,
                weight_before[fissile_here],
                prov.mat_nu[self.mat_idx[sel]],
                sigma_f[sel],
                sigma_t[sel],
                u_fission,
            )
            self.bank_secondaries(sel, counts, counters_at_event[fissile_here])

        dead = c[term]
        if dead.size:
            self.flush(dead)
            self.kill(dead)

        # ---- Russian roulette (extension) ------------------------------
        if config.use_russian_roulette and below.any():
            sel = c[below]
            r_mask = np.zeros(len(a), dtype=bool)
            r_mask[sel] = True
            u_roulette = self.rng.next_uniform(r_mask)
            self.cadd("rng_draws", sel)
            survive, restored = run.dispatch.run(
                "roulette", sel.size, a.weight[sel], u_roulette,
                self.wcut_at(sel),
            )
            # With per-lane cutoffs ``restored`` is an array aligned with
            # ``sel``; slice it down to the survivor lanes.
            restored_s = restored[survive] if np.ndim(restored) else restored
            killed = sel[~survive]
            if killed.size:
                self.cadd("roulette_kills", killed)
                self.csum(
                    "roulette_loss_energy", killed,
                    a.weight[killed] * a.energy[killed],
                )
                a.weight[killed] = 0.0
                self.flush(killed)
                self.kill(killed)
            survivors = sel[survive]
            if survivors.size:
                self.cadd("roulette_survivals", survivors)
                self.csum(
                    "roulette_gain_energy", survivors,
                    (restored_s - a.weight[survivors]) * a.energy[survivors],
                )
                a.weight[survivors] = restored_s

        # The energy changed: refresh the cached microscopic values.
        surv = c[a.alive[c]]
        if surv.size:
            self.refresh_micro(surv)

    def bank_secondaries(self, parents, counts, counters_at_event) -> None:
        """Bank the fission secondaries of the given parent lanes.

        A child's identity derives from its parent's state (id and event
        counter), so both schemes bank bit-identical children.  Birth
        consumes three draws from the child's own stream: direction,
        energy, first optical distance.
        """
        a = self.arena
        prov = self.provider
        for j, lane in enumerate(parents):
            n_children = int(counts[j])
            if n_children <= 0:
                continue
            c = self.counters_for(lane)
            seed = self.seed_for(lane)
            ctr = int(counters_at_event[j])
            mi = int(self.mat_idx[lane])
            c.fissions += 1
            for k in range(n_children):
                cid = secondary_id(seed, int(a.particle_id[lane]), ctr, k)
                rng = ParticleRNG(seed, cid)
                u_dir = rng.next_uniform()
                u_energy = rng.next_uniform()
                u_mfp = rng.next_uniform()
                ox, oy = sample_isotropic_direction(u_dir)
                energy = sample_secondary_energy(
                    u_energy, float(prov.mat_fission_energy_ev[mi])
                )
                # Birth initialisation of the cached bins (like the source
                # sampler's) — the history's first counted lookup then
                # walks from the right line.
                child = ParticleRecord(
                    x=float(a.x[lane]),
                    y=float(a.y[lane]),
                    omega_x=ox,
                    omega_y=oy,
                    energy=energy,
                    weight=1.0,
                    cellx=int(a.cellx[lane]),
                    celly=int(a.celly[lane]),
                    particle_id=cid,
                    dt_to_census=float(a.dt_to_census[lane]),
                    mfp_to_collision=sample_mean_free_paths(u_mfp),
                    rng_counter=rng.counter,
                    local_density=float(a.local_density[lane]),
                    **prov.birth_bins(mi, energy),
                )
                c.fission_injected_energy += 1.0 * energy
                c.secondaries_banked += 1
                c.rng_draws += 3
                self.bank(lane, ctr, k, child)

    def handle_facets(self, fmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        """foreach(particle_encountering_facet): handle_facet()"""
        a = self.arena
        run = self.run
        config = self.config
        f = np.nonzero(fmask)[0]
        old_cx_f = a.cellx[f].copy()
        old_cy_f = a.celly[f].copy()
        d = dist.d_facet[f]
        sp = dist.speed[f]
        a.x[f] = a.x[f] + a.omega_x[f] * d
        a.y[f] = a.y[f] + a.omega_y[f] * d
        a.dt_to_census[f] = np.maximum(0.0, a.dt_to_census[f] - d / sp)
        a.mfp_to_collision[f] = np.maximum(
            0.0, a.mfp_to_collision[f] - d * sigma_t[f]
        )
        # Snap the hit coordinate exactly onto the facet plane so rounding
        # never strands a particle outside its cell.
        ax = dist.axis[f]
        hit_x = ax == 0
        fx = f[hit_x]
        a.x[fx] = np.where(a.omega_x[fx] > 0.0, dist.x_hi[fx], dist.x_lo[fx])
        fy = f[~hit_x]
        a.y[fy] = np.where(a.omega_y[fy] > 0.0, dist.y_hi[fy], dist.y_lo[fy])
        # Flush the deposition register onto the tally mesh — the atomic
        # read-modify-write of §VI-A, performed unconditionally.
        self.flush(f)
        new_cx, new_cy, new_ox, new_oy, reflected, escaped = run.dispatch.run(
            "cross_facet",
            f.size,
            a.cellx[f], a.celly[f],
            a.omega_x[f], a.omega_y[f], ax, run.mesh, config.boundary,
        )
        self.cadd("facets", f)
        run.facet_pp[self.glob(f)] += 1
        self.trace_events(f, EventKind.FACET, old_cx_f, old_cy_f)
        gone = f[escaped]
        if gone.size:
            self.cadd("escapes", gone)
            self.csum(
                "escaped_energy", gone, a.weight[gone] * a.energy[gone]
            )
            a.alive[gone] = False
        stay = ~escaped
        a.cellx[f[stay]] = new_cx[stay]
        a.celly[f[stay]] = new_cy[stay]
        a.omega_x[f[stay]] = new_ox[stay]
        a.omega_y[f[stay]] = new_oy[stay]
        cross_in_f = stay & ~reflected
        crossed = f[cross_in_f]
        # Load the destination cell's density — the random read.
        a.local_density[crossed] = run.mesh.density_at_vec(
            a.cellx[crossed], a.celly[crossed]
        )
        self.cadd("density_reads", crossed)
        self.cadd("reflections", f[reflected])
        if crossed.size:
            new_mat = run.material_map[a.celly[crossed], a.cellx[crossed]]
            changed = crossed[new_mat != self.mat_idx[crossed]]
            self.mat_idx[crossed] = new_mat
            if changed.size:
                # Entered a different material: the cached microscopic
                # values are stale (multi-material extension).
                self.refresh_micro(changed)

        # ---- importance splitting / roulette (VR extension) ------------
        imap = config.importance_map
        if imap is not None and crossed.size:
            ratios = (
                imap[a.celly[crossed], a.cellx[crossed]]
                / imap[old_cy_f[cross_in_f], old_cx_f[cross_in_f]]
            )
            changed_r = ratios != 1.0
            sel = crossed[changed_r]
            if sel.size:
                self.importance_events(sel, ratios[changed_r])

    def importance_events(self, sel: np.ndarray, r: np.ndarray) -> None:
        """Split (entering higher importance) or roulette (entering lower
        importance) the lanes ``sel`` with importance ratios ``r``."""
        a = self.arena
        counters_before = self.rng.counters[sel].copy()
        imp_mask = np.zeros(len(a), dtype=bool)
        imp_mask[sel] = True
        u_imp = self.rng.next_uniform(imp_mask)
        self.cadd("rng_draws", sel)

        up = r > 1.0
        if up.any():
            n_after = split_counts(r[up], u_imp[up])
            for lane, nsplit, ctr in zip(sel[up], n_after, counters_before[up]):
                if nsplit <= 1:
                    continue
                cc = self.counters_for(lane)
                cc.splits += 1
                w_each = float(a.weight[lane]) / int(nsplit)
                for k in range(int(nsplit) - 1):
                    cid = clone_id(
                        self.seed_for(lane), int(a.particle_id[lane]),
                        int(ctr), k,
                    )
                    clone = ParticleRecord(
                        x=float(a.x[lane]),
                        y=float(a.y[lane]),
                        omega_x=float(a.omega_x[lane]),
                        omega_y=float(a.omega_y[lane]),
                        energy=float(a.energy[lane]),
                        weight=w_each,
                        cellx=int(a.cellx[lane]),
                        celly=int(a.celly[lane]),
                        particle_id=cid,
                        dt_to_census=float(a.dt_to_census[lane]),
                        mfp_to_collision=float(a.mfp_to_collision[lane]),
                        rng_counter=0,
                        local_density=float(a.local_density[lane]),
                        scatter_bin=int(a.scatter_bin[lane]),
                        capture_bin=int(a.capture_bin[lane]),
                        fission_bin=int(a.fission_bin[lane]),
                    )
                    cc.clones_banked += 1
                    self.bank(lane, int(ctr), k, clone)
                a.weight[lane] = w_each

        down = ~up
        if down.any():
            dsel = sel[down]
            survive = u_imp[down] < r[down]
            surv = dsel[survive]
            if surv.size:
                self.cadd("roulette_survivals", surv)
                boosted = a.weight[surv] / r[down][survive]
                self.csum(
                    "roulette_gain_energy", surv,
                    (boosted - a.weight[surv]) * a.energy[surv],
                )
                a.weight[surv] = boosted
            dead = dsel[~survive]
            if dead.size:
                self.cadd("roulette_kills", dead)
                self.csum(
                    "roulette_loss_energy", dead,
                    a.weight[dead] * a.energy[dead],
                )
                a.weight[dead] = 0.0
                self.kill(dead)

    def handle_census(self, zmask, dist, sigma_a, sigma_f, sigma_t) -> None:
        """handle_census(): fly remaining lanes to the end of the timestep."""
        a = self.arena
        z = np.nonzero(zmask)[0]
        new_x, new_y, new_mfp = self.run.dispatch.run(
            "census",
            z.size,
            a.x[z], a.y[z],
            a.omega_x[z], a.omega_y[z],
            a.mfp_to_collision[z], sigma_t[z], dist.d_census[z],
        )
        a.x[z] = new_x
        a.y[z] = new_y
        a.mfp_to_collision[z] = new_mfp
        a.dt_to_census[z] = 0.0
        self.flush(z)
        a.censused[z] = True
        self.cadd("census_events", z)
        self.trace_events(z, EventKind.CENSUS, a.cellx[z], a.celly[z])


def event_pass(h: EventHandlers, active: np.ndarray) -> dict:
    """One breadth-first pass: advance every ``active`` lane of
    ``h.arena`` by exactly one event.  Returns the per-kind event masks
    (the pass occupancy)."""
    a = h.arena
    run = h.run
    ws = run.ws
    n = len(a)
    # foreach(particle): calculate_time_to_events()
    sigma_s, sigma_a, sigma_f, sigma_t = h.macroscopic()
    dist = run.dispatch.run(
        "distances",
        n,
        ws,
        a.energy,
        a.mfp_to_collision,
        sigma_t,
        a.x,
        a.y,
        a.omega_x,
        a.omega_y,
        a.cellx,
        a.celly,
        run.mesh.dx,
        run.mesh.dy,
        a.dt_to_census,
    )
    event = run.dispatch.run(
        "select_events",
        n,
        dist.d_collision,
        dist.d_facet,
        dist.d_census,
        out=ws.i64("event", n),
        scratch=ws.bool_("ev_scratch", n),
    )
    masks = {kind: (event == int(kind)) & active for kind in EVENT_KERNELS}
    for kind, mask in masks.items():
        if mask.any():
            getattr(h, HANDLERS[kind])(mask, dist, sigma_a, sigma_f, sigma_t)
    return masks


class BlockHandlers(EventHandlers):
    """Over Particles: the handlers over one gathered block of histories.

    Every lane draws from its own counter-based stream, so no history
    depends on which other histories share its block: final states are
    bit-identical for every block size.
    """

    def __init__(self, run, arena, idx: np.ndarray, bank: list):
        block = arena.subset(idx)
        block.censused[:] = False
        super().__init__(run, block, gidx=idx)
        self.entries = bank

    def refresh_micro(self, idx: np.ndarray) -> None:
        """Lookup with exact per-strategy search accounting."""
        a = self.arena
        prov = self.provider
        linear = self.config.search is SearchStrategy.CACHED_LINEAR
        for mi in range(prov.nmaterials):
            sel = idx[self.mat_idx[idx] == mi]
            if sel.size == 0:
                continue
            e = a.energy[sel]
            if not prov.mat_fissile[mi]:
                self.micro_f[sel] = 0.0
            lk = prov.lookup(mi, e, self.run.dispatch.run)
            for cache_field, grid, new_bins in lk.searches:
                bins = getattr(a, cache_field)
                if linear:
                    probes = kernel_xs.linear_walk_probes(
                        grid, e, bins[sel], new_bins
                    )
                    self.cadd("xs_linear_probes", sel, probes)
                else:
                    probes = kernel_xs.bisection_probes(grid, e)
                    self.cadd("xs_binary_probes", sel, probes)
                bins[sel] = new_bins
            self.micro_s[sel] = lk.micro_s
            self.micro_c[sel] = lk.micro_c
            if lk.micro_f is not None:
                self.micro_f[sel] = lk.micro_f
            self.cadd("xs_lookups", sel, len(lk.searches))

    def bank(self, lane, ctr, k, record) -> None:
        self.entries.append((int(self.gidx[lane]), ctr, k, record))

    def run_to_census(self) -> None:
        """Pass the block until every lane is censused or dead."""
        a = self.arena
        # History-start refresh of the cached microscopic values.
        self.refresh_micro(np.arange(len(a)))
        while True:
            active = a.alive & ~a.censused
            if not active.any():
                return
            event_pass(self, active)

    def writeback(self, arena) -> None:
        """Scatter the block's final state back into ``arena``."""
        self.arena.rng_counter[...] = self.rng.counters
        for name, _ in type(arena).FIELDS:
            getattr(arena, name)[self.gidx] = getattr(self.arena, name)


class PassHandlers(EventHandlers):
    """Over Events: the handlers over the whole population.

    Cached state (microscopic values, material index, RNG counters, the
    bin-reuse hoist) persists across passes and census steps until
    another strategy touches the population.
    """

    def __init__(self, run):
        super().__init__(run, run.arena)
        n = len(run.arena)
        # Bin-reuse hoist state: the energy (bitwise) and material at each
        # lane's last bin search.  NaN / -1 mean "never searched".
        self.last_e = np.full(n, np.nan)
        self.last_mat = np.full(n, -1, dtype=np.int64)
        self.pending: list = []
        self.pending_rep: list[int] = []

    def refresh_micro(self, idx: np.ndarray) -> None:
        """Lookup grouped by material (the vectorised bisection of §V-B).

        Lanes whose energy is bitwise-unchanged since their last search
        in the same material skip the search: the cached bins and values
        are still exact.  The lookup is still counted (the data was still
        needed); only the probes are saved.
        """
        if idx.size == 0:
            return
        a = self.arena
        prov = self.provider
        for mi in range(prov.nmaterials):
            sel = idx[self.mat_idx[idx] == mi]
            if sel.size == 0:
                continue
            k = prov.lookups_per_refresh(mi)
            e = a.energy[sel]
            reuse = (self.last_mat[sel] == mi) & (e == self.last_e[sel])
            fresh = sel[~reuse]
            if fresh.size:
                ef = a.energy[fresh]
                lk = prov.lookup(mi, ef, self.run.dispatch.run)
                self.micro_s[fresh] = lk.micro_s
                self.micro_c[fresh] = lk.micro_c
                if lk.micro_f is not None:
                    self.micro_f[fresh] = lk.micro_f
                for cache_field, _grid, bins in lk.searches:
                    getattr(a, cache_field)[fresh] = bins
                self.cadd(
                    "xs_binary_probes", fresh,
                    k * prov.binary_probe_estimate(mi),
                )
                self.last_e[fresh] = ef
                self.last_mat[fresh] = mi
            if not prov.mat_fissile[mi]:
                self.micro_f[sel] = 0.0
            self.cadd("xs_lookups", sel, k)
            self.cadd("xs_bin_reuses", sel[reuse], k)

    def bank(self, lane, ctr, k, record) -> None:
        self.pending.append(record)
        self.pending_rep.append(0 if self.rep is None else int(self.rep[lane]))

    def record_pass(self, active, masks, span=None) -> None:
        """Book the pass occupancy (``Counters.oe_passes``, per replica
        when fused) and, with telemetry on, onto the pass span."""
        n_event = {kind: int(m.sum()) for kind, m in masks.items()}
        stats = EventPassStats(
            n_active=int(active.sum()),
            n_collision=n_event[EventKind.COLLISION],
            n_facet=n_event[EventKind.FACET],
            n_census=n_event[EventKind.CENSUS],
        )
        self.run.counters.oe_passes.append(stats)
        if self.rep is not None:
            lanes = self.run.lanes
            per = [
                np.bincount(self.rep[m], minlength=lanes.nreplicas)
                for m in (active, *masks.values())
            ]
            # A replica with no active lanes this pass has already
            # finished: its standalone run would not see the pass at all.
            for r in np.nonzero(per[0])[0]:
                lanes.counters[r].oe_passes.append(EventPassStats(
                    *(int(p[r]) for p in per)
                ))
        if span is not None:
            span.attrs["active"] = stats.n_active
            span.attrs["collisions"] = stats.n_collision
            span.attrs["facets"] = stats.n_facet
            span.attrs["census"] = stats.n_census

    def absorb_children(self) -> None:
        """Append banked offspring to the population between passes."""
        if not self.pending:
            return
        a = self.arena
        run = self.run
        chunk = type(a).from_records(self.pending)
        n_old = len(a)
        n_new = len(chunk)
        a.extend(chunk)
        zeros = np.zeros(n_new)
        self.micro_s = np.concatenate([self.micro_s, zeros])
        self.micro_c = np.concatenate([self.micro_c, zeros])
        self.micro_f = np.concatenate([self.micro_f, zeros])
        self.mat_idx = np.concatenate(
            [self.mat_idx, run.material_map[chunk.celly, chunk.cellx]]
        )
        grow = np.zeros(n_new, dtype=np.int64)
        run.coll_pp = np.concatenate([run.coll_pp, grow])
        run.facet_pp = np.concatenate([run.facet_pp, grow])
        self.last_e = np.concatenate([self.last_e, np.full(n_new, np.nan)])
        self.last_mat = np.concatenate([self.last_mat, grow - 1])
        if self.rep is not None:
            rep_new = np.asarray(self.pending_rep, dtype=np.int64)
            self.rep = run.lanes.rep = np.concatenate([self.rep, rep_new])
            if hasattr(a, "replica_id"):
                a.replica_id[n_old:] = rep_new
        self.pending = []
        self.pending_rep = []
        # Extend the RNG with the live counters (the arena's counter field
        # is only synchronised at the end of each census step).
        self.rng = VectorParticleRNG(
            self.seeds(),
            np.concatenate([self.rng.particle_ids, chunk.particle_id]),
            np.concatenate([self.rng.counters, chunk.rng_counter]),
        )
        self.refresh_micro(np.arange(n_old, len(a)))
