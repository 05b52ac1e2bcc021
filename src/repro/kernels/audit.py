"""Self-audit: no duplicate ``*_vec`` physics implementations outside here.

``python -m repro.kernels --check`` scans ``repro/physics``, ``repro/xs``
and ``repro/rng`` for function definitions (module- or class-level) whose
name ends in ``_vec``.  Those used to be the hand-maintained vectorised
twins of the scalar physics; the batch kernels in this package replaced
them.  The audit fails CI if a real implementation creeps back.

Permitted:

* thin delegating wrappers whose body is a single ``return <call>`` (plus
  an optional docstring) — public-API shims that cannot drift;
* an explicit allowlist for genuine batch primitives that predate the
  kernel layer and live with their scalar reference for cipher-level
  test symmetry (``threefry2x64_vec``).

Alias bindings (``collide_vec = batch.collide``) are rejected everywhere
outside this package: callers import the canonical kernel name.

A second audit guards the storage layer: the hot driver packages
(``repro/core``, ``repro/parallel``, ``repro/volume``) must not construct
AoS particle records — ``Particle(...)``/``Particle3(...)`` calls are
rejected so the population stays in the SoA
:class:`~repro.particles.arena.ParticleArena` (secondaries are banked as
:class:`~repro.particles.arena.ParticleRecord` tuples instead).

A third audit keeps the 2-D event physics single-sourced: the
``handle_collisions``/``handle_facets``/``handle_census`` handlers may be
defined only in :data:`HANDLER_HOME`, once each.
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = [
    "audit_vec_definitions",
    "audit_event_handlers",
    "audit_particle_construction",
    "audit_census_loops",
    "audit_xs_table_access",
    "AUDITED_PACKAGES",
    "ALLOWED_VEC_DEFS",
    "ARENA_AUDITED_PACKAGES",
    "FORBIDDEN_PARTICLE_CTORS",
    "ALLOWED_PARTICLE_CTORS",
    "CENSUS_AUDITED_PACKAGES",
    "CENSUS_LOOP_HOME",
    "XS_SEAM_HOME",
    "FORBIDDEN_XS_NAMES",
    "XS_TABLE_ATTRS",
    "ALLOWED_XS_TABLE_FILES",
    "HANDLER_NAMES",
    "HANDLER_HOME",
    "ALLOWED_HANDLER_FILES",
]

#: Packages that must not define ``*_vec`` implementations.
AUDITED_PACKAGES = ("physics", "xs", "rng")

#: (relative path, function name) pairs exempt from the wrapper rule.
ALLOWED_VEC_DEFS = {
    ("rng/threefry.py", "threefry2x64_vec"),
}

#: Packages whose hot paths must not construct AoS particle records.
ARENA_AUDITED_PACKAGES = ("core", "parallel", "volume")

#: Callable names that count as AoS particle construction.
FORBIDDEN_PARTICLE_CTORS = ("Particle", "Particle3")

#: (relative path, line) pairs exempt from the construction rule — empty:
#: the refactor removed every hot-path constructor call, and this audit
#: keeps it that way.
ALLOWED_PARTICLE_CTORS: set[tuple[str, int]] = set()

#: Packages whose drivers must route their census loops through the
#: unified stepper instead of re-implementing ``for step in range(...)``.
CENSUS_AUDITED_PACKAGES = ("core", "volume", "ensemble")

#: The one module allowed to iterate over timesteps.
CENSUS_LOOP_HOME = "core/stepper.py"

#: The package that owns cross-section data representations.  Everything
#: outside it must consume cross sections through the
#: :class:`~repro.xs.provider.XsProvider` protocol.
XS_SEAM_HOME = "xs"

#: Multigroup data-model names no module outside ``repro/xs`` may
#: reference: the table class and its factory functions.
FORBIDDEN_XS_NAMES = (
    "CrossSectionTable",
    "make_scatter_table",
    "make_capture_table",
    "make_fission_table",
)

#: Raw per-reaction table attributes (``material.scatter`` et al.) that
#: constitute direct data-model access when read outside ``repro/xs``.
XS_TABLE_ATTRS = ("scatter", "capture", "fission")

#: Files exempt from the cross-section seam audit:
#: ``kernels/xs.py`` *is* the lookup kernel (it interpolates the raw
#: arrays by design); ``particles/source.py`` keeps deprecated
#: ``scatter_table``/``capture_table`` kwargs (type annotations only)
#: as the AoS parity-oracle surface.
ALLOWED_XS_TABLE_FILES = frozenset({
    "kernels/xs.py",
    "particles/source.py",
})


#: The event handler names that must exist exactly once.
HANDLER_NAMES = ("handle_collisions", "handle_facets", "handle_census")

#: The one module allowed to define them.
HANDLER_HOME = "core/handlers.py"

#: Files exempt from the handler rule: the 3-D driver keeps its own
#: handlers until it is ported onto the shared layer.
ALLOWED_HANDLER_FILES = frozenset({"volume/driver3.py"})


def _package_root(package_root) -> Path:
    if package_root is None:
        return Path(__file__).resolve().parent.parent
    return Path(package_root)


def _is_thin_wrapper(node: ast.FunctionDef) -> bool:
    """True when the body is (docstring +) a single ``return <call>``."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Call)
    )


def _vec_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_vec"):
                yield node


def _vec_aliases(tree: ast.Module):
    """Module- and class-level ``*_vec = <name or attribute>`` bindings."""
    scopes = [tree.body] + [
        node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    for body in scopes:
        for node in body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if not isinstance(node.value, (ast.Name, ast.Attribute)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_vec"):
                    yield node, target.id


def audit_vec_definitions(package_root: str | Path | None = None) -> list[str]:
    """Return violation messages (empty list means the audit passes)."""
    package_root = _package_root(package_root)
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel.startswith("kernels/"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, name in _vec_aliases(tree):
            violations.append(
                f"{rel}:{node.lineno}: {name} = ... — alias binding of a "
                "batch kernel; import the canonical repro.kernels name"
            )
    for pkg in AUDITED_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in _vec_defs(tree):
                if (rel, node.name) in ALLOWED_VEC_DEFS:
                    continue
                if _is_thin_wrapper(node):
                    continue
                violations.append(
                    f"{rel}:{node.lineno}: def {node.name} — vectorised "
                    "physics must live in repro/kernels (alias or thin "
                    "wrapper only)"
                )
    return violations


def _call_name(node: ast.Call) -> str | None:
    """The bare callable name of ``f(...)`` or ``mod.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def audit_particle_construction(
    package_root: str | Path | None = None,
) -> list[str]:
    """Reject AoS particle construction in the hot driver packages.

    Scans :data:`ARENA_AUDITED_PACKAGES` for calls to any name in
    :data:`FORBIDDEN_PARTICLE_CTORS`; returns violation messages (empty
    list means the audit passes).  New population entries must be banked
    as ``ParticleRecord`` tuples and appended to the arena.
    """
    package_root = _package_root(package_root)
    violations: list[str] = []
    for pkg in ARENA_AUDITED_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name not in FORBIDDEN_PARTICLE_CTORS:
                    continue
                if (rel, node.lineno) in ALLOWED_PARTICLE_CTORS:
                    continue
                violations.append(
                    f"{rel}:{node.lineno}: {name}(...) — hot paths must "
                    "not build AoS particle records; bank a "
                    "ParticleRecord and append it to the arena"
                )
    return violations


def _iterates_timesteps(node: ast.For) -> bool:
    """True for ``for ... in range(... <x>.ntimesteps ...)`` loops."""
    it = node.iter
    if not (isinstance(it, ast.Call) and _call_name(it) == "range"):
        return False
    for arg in it.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Attribute) and sub.attr == "ntimesteps":
                return True
    return False


def audit_xs_table_access(package_root: str | Path | None = None) -> list[str]:
    """Reject direct multigroup data-model access outside ``repro/xs``.

    The provider refactor made :class:`~repro.xs.provider.XsProvider` the
    single seam between cross-section data and the transport loop; this
    audit keeps consumers honest.  Every module outside ``repro/xs``
    (except :data:`ALLOWED_XS_TABLE_FILES`) is scanned for

    * references to :data:`FORBIDDEN_XS_NAMES` (imports included), and
    * attribute *reads* of the raw per-reaction tables
      (:data:`XS_TABLE_ATTRS`, e.g. ``material.scatter``).

    Returns violation messages; an empty list means the audit passes.
    """
    package_root = _package_root(package_root)
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel.startswith(f"{XS_SEAM_HOME}/") or rel in ALLOWED_XS_TABLE_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                hits = [n for n in names if n in FORBIDDEN_XS_NAMES]
                if (node.module or "").startswith("repro.xs.tables") or hits:
                    what = ", ".join(hits) or node.module
                    violations.append(
                        f"{rel}:{node.lineno}: import of {what} — consume "
                        "cross sections through repro.xs.provider.XsProvider"
                    )
            elif isinstance(node, ast.Name) and node.id in FORBIDDEN_XS_NAMES:
                violations.append(
                    f"{rel}:{node.lineno}: reference to {node.id} — consume "
                    "cross sections through repro.xs.provider.XsProvider"
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in XS_TABLE_ATTRS
                and isinstance(node.ctx, ast.Load)
            ):
                violations.append(
                    f"{rel}:{node.lineno}: raw table access "
                    f".{node.attr} — consume cross sections through "
                    "repro.xs.provider.XsProvider"
                )
    return violations


def audit_census_loops(package_root: str | Path | None = None) -> list[str]:
    """Reject census-loop reimplementations outside the unified stepper.

    The multi-scheme refactor concentrated the ``for step in
    range(config.ntimesteps)`` loop — with its source emission, census
    bookkeeping and tally-flush obligations — in
    :data:`CENSUS_LOOP_HOME` (``drive_census_loop``).  This audit scans
    :data:`CENSUS_AUDITED_PACKAGES` for ``For`` loops iterating
    ``range(... .ntimesteps ...)`` anywhere else; drivers must hand
    ``begin_step``/``run_step`` callbacks to the stepper instead, so
    scheme switching and step telemetry keep working everywhere.
    """
    package_root = _package_root(package_root)
    violations: list[str] = []
    for pkg in CENSUS_AUDITED_PACKAGES:
        for path in sorted((package_root / pkg).rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            if rel == CENSUS_LOOP_HOME:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.For) and _iterates_timesteps(node):
                    violations.append(
                        f"{rel}:{node.lineno}: census loop over "
                        "ntimesteps — drivers must route through "
                        "drive_census_loop in repro/core/stepper.py"
                    )
    return violations


def audit_event_handlers(package_root: str | Path | None = None) -> list[str]:
    """Keep the 2-D event handlers single-sourced.

    Rejects any :data:`HANDLER_NAMES` definition outside
    :data:`HANDLER_HOME` (except :data:`ALLOWED_HANDLER_FILES`), and any
    handler the home defines other than exactly once — Over Particles
    blocks, Over Events passes and fused ensembles all run the one
    :class:`repro.core.handlers.EventHandlers` set.  Returns violation
    messages; an empty list means the audit passes.
    """
    package_root = _package_root(package_root)
    violations: list[str] = []
    home_defs = {name: 0 for name in HANDLER_NAMES}
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel in ALLOWED_HANDLER_FILES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in HANDLER_NAMES:
                continue
            if rel == HANDLER_HOME:
                home_defs[node.name] += 1
            else:
                violations.append(
                    f"{rel}:{node.lineno}: def {node.name} — event handlers "
                    f"live once in {HANDLER_HOME}"
                )
    for name, count in home_defs.items():
        if count != 1:
            violations.append(
                f"{HANDLER_HOME}: {name} defined {count} times (expected 1)"
            )
    return violations
