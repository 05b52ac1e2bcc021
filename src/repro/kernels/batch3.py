"""Batch kernels for the 3-D volume extension.

The 3-D driver shares the event structure (and most physics) with the
2-D kernels in :mod:`repro.kernels.batch`; only the direction algebra and
the extra axis differ.  These are the batch implementations moved from
``volume/*`` — the volume modules keep only their scalar reference
forms.

``mesh`` arguments are duck-typed (``nx``/``ny``/``nz``) to keep this
module free of imports from :mod:`repro.volume` (which imports us).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batch import (
    HUGE_DISTANCE,
    PARALLEL_EPS,
    elastic_scatter_kinematics,
)
from repro.mesh.boundary import BoundaryCondition

__all__ = [
    "distance_to_facet_3d",
    "cross_facet_3d",
    "sample_isotropic_direction_3d",
    "rotate_direction",
    "collide3",
]

#: Below this pole margin the rotation uses the polar-axis special case.
_POLE_EPS = 1.0e-10


def distance_to_facet_3d(
    x, y, z, ox, oy, oz, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi
):
    """Distance to the nearest facet of each 3-D cell: ``(d, axis)`` with
    axis 0/1/2 for x/y/z, ties picking the lowest axis."""
    def axis_dist(p, o, lo, hi):
        d = np.full_like(p, HUGE_DISTANCE)
        pos = o > PARALLEL_EPS
        neg = o < -PARALLEL_EPS
        d[pos] = (hi[pos] - p[pos]) / o[pos]
        d[neg] = (lo[neg] - p[neg]) / o[neg]
        return d

    dist_x = axis_dist(x, ox, x_lo, x_hi)
    dist_y = axis_dist(y, oy, y_lo, y_hi)
    dist_z = axis_dist(z, oz, z_lo, z_hi)

    d = np.minimum(np.minimum(dist_x, dist_y), dist_z)
    axis = np.full(x.shape, 2, dtype=np.int64)
    axis[dist_y <= dist_z] = 1
    axis[(dist_x <= dist_y) & (dist_x <= dist_z)] = 0
    return d, axis


def cross_facet_3d(
    cx, cy, cz, ox, oy, oz, axis, mesh,
    bc: BoundaryCondition = BoundaryCondition.REFLECTIVE,
):
    """Resolve 3-D facet encounters; returns
    ``(cx, cy, cz, ox, oy, oz, reflected, escaped)`` arrays."""
    new_c = [cx.copy(), cy.copy(), cz.copy()]
    new_o = [ox.copy(), oy.copy(), oz.copy()]
    omegas = (ox, oy, oz)
    limits = (mesh.nx - 1, mesh.ny - 1, mesh.nz - 1)

    reflected = np.zeros(cx.shape, dtype=bool)
    escaped = np.zeros(cx.shape, dtype=bool)
    vacuum = bc is BoundaryCondition.VACUUM

    for ax in range(3):
        on_axis = axis == ax
        fwd = on_axis & (omegas[ax] > 0.0)
        bwd = on_axis & (omegas[ax] <= 0.0)
        bnd = (fwd & (new_c[ax] == limits[ax])) | (bwd & (new_c[ax] == 0))
        if vacuum:
            escaped |= bnd
        else:
            reflected |= bnd
            new_o[ax][bnd] = -new_o[ax][bnd]
        new_c[ax][fwd & ~bnd] += 1
        new_c[ax][bwd & ~bnd] -= 1

    return (*new_c, *new_o, reflected, escaped)


def sample_isotropic_direction_3d(u1, u2):
    """Two uniforms per lane → unit vectors uniform on the sphere."""
    w = 2.0 * u1 - 1.0
    s = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    phi = 2.0 * np.pi * u2
    return s * np.cos(phi), s * np.sin(phi), w


def rotate_direction(u, v, w, mu, phi):
    """Rotate unit vectors by deflection cosine ``mu`` about azimuth
    ``phi`` (standard MC scattering rotation, pole special-cased)."""
    s = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    cosp = np.cos(phi)
    sinp = np.sin(phi)
    denom_sq = 1.0 - w * w
    polar = denom_sq < _POLE_EPS
    denom = np.sqrt(np.where(polar, 1.0, denom_sq))
    nu = mu * u + s * (u * w * cosp - v * sinp) / denom
    nv = mu * v + s * (v * w * cosp + u * sinp) / denom
    nw = mu * w - s * denom * cosp
    sign = np.where(w > 0.0, 1.0, -1.0)
    nu = np.where(polar, s * cosp, nu)
    nv = np.where(polar, s * sinp, nv)
    nw = np.where(polar, mu * sign, nw)
    return nu, nv, nw


def collide3(
    energy,
    weight,
    ox,
    oy,
    oz,
    sigma_a,
    sigma_t,
    a_ratio: float,
    u_angle,
    u_azimuth,
    u_mfp,
    energy_cutoff_ev: float,
    weight_cutoff: float,
):
    """Apply one 3-D collision per lane; returns
    ``(energy, weight, ox, oy, oz, mfp, deposit, terminated)`` arrays."""
    p_absorb = np.where(
        sigma_t > 0.0, sigma_a / np.where(sigma_t > 0.0, sigma_t, 1.0), 0.0
    )
    deposit = weight * energy * p_absorb
    weight = weight * (1.0 - p_absorb)

    mu_cm = 2.0 * u_angle - 1.0
    e_frac, mu_lab, _ = elastic_scatter_kinematics(mu_cm, a_ratio)
    new_energy = energy * e_frac
    deposit = deposit + weight * (energy - new_energy)
    phi = 2.0 * np.pi * u_azimuth
    nox, noy, noz = rotate_direction(ox, oy, oz, mu_lab, phi)

    mfp = -np.log(1.0 - u_mfp)

    terminated = (new_energy < energy_cutoff_ev) | (weight < weight_cutoff)
    deposit = deposit + np.where(terminated, weight * new_energy, 0.0)
    weight = np.where(terminated, 0.0, weight)

    return new_energy, weight, nox, noy, noz, mfp, deposit, terminated
