"""The paper's benchmark applications.

Each application provides (a) a :class:`~repro.program.ProgramStructure`
describing its parallel sections, tiles, stages and variables — the
input MHETA and the emulator share — and (b) a real NumPy kernel in
:mod:`repro.apps.kernels` computing the actual numerics at example
scale, so the structural model's shape can be sanity-checked against
working code.

The four evaluation programs (Section 5):

* **Jacobi** — 2-D Jacobi iteration: one read-write grid, nearest-
  neighbour boundary exchange, global residual reduction; 100
  iterations.
* **CG** — NAS Conjugate Gradient: a large *sparse* read-only matrix
  (per-row non-zeros vary, defeating MHETA's row-count scaling),
  allgather for the mat-vec, two dot-product reductions; 10 iterations.
* **RNA** — pseudoknot-style dynamic-programming pipeline: many tiles
  per parallel section, per-tile messages flowing node 0 -> n-1; 10
  iterations.
* **Lanczos** — dense symmetric mat-vec plus orthogonalisation
  reductions; the one full-scale application; 5 iterations.

Plus **Multigrid** (named as in-progress future work in Section 6):
a V-cycle over level-halved grids, exercising many sections per
iteration.
"""

from repro.apps.base import AppConfig, Application
from repro.apps.jacobi import JacobiApp
from repro.apps.cg import ConjugateGradientApp
from repro.apps.rna import RnaPipelineApp
from repro.apps.lanczos import LanczosApp
from repro.apps.multigrid import MultigridApp

__all__ = [
    "AppConfig",
    "Application",
    "JacobiApp",
    "ConjugateGradientApp",
    "RnaPipelineApp",
    "LanczosApp",
    "MultigridApp",
    "APPLICATIONS",
    "paper_applications",
    "application_by_name",
]

#: Every application by its paper name, in the order the CLI and the
#: service list them.
APPLICATIONS = {
    "jacobi": JacobiApp,
    "cg": ConjugateGradientApp,
    "lanczos": LanczosApp,
    "rna": RnaPipelineApp,
    "multigrid": MultigridApp,
}


def paper_applications(scale: float = 1.0):
    """The four applications of the paper's evaluation, at ``scale``
    times the default problem size (1.0 reproduces the full-scale
    experiments; tests pass a small fraction)."""
    return [
        JacobiApp.paper(scale),
        ConjugateGradientApp.paper(scale),
        LanczosApp.paper(scale),
        RnaPipelineApp.paper(scale),
    ]


def application_by_name(name: str, scale: float = 1.0) -> Application:
    """Look up an application by its paper name (case-insensitive)."""
    try:
        return APPLICATIONS[name.lower()].paper(scale)
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; "
            f"choose from {sorted(APPLICATIONS)}"
        )
