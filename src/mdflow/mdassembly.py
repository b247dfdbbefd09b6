"""Global assembly and solution of the mixed-dimensional flow system.

Unknowns are ordered as all subdomain cell pressures ``p`` (subdomains in
mesh order) followed by all mortar fluxes ``lam`` (interfaces in mesh
order). The mortar unknown is the integrated flux through each mortar cell,
positive from the lower onto the higher subdomain.

The operators of :mod:`mdflow.discretize` are stacked over all subdomains
into block-diagonal matrices: the flux and trace maps ``Fp, Fg, Fx`` and
``Tp, Tg, Tx`` of pressures, face data ``g`` and vector source, and the
divergence ``D``; so is the gradient reconstruction ``R``, built on lower
grids only, as ``E`` has no other columns. Each interface map
spans all mortar cells: ``S`` to the higher face, ``C`` to the lower cell,
the measures ``W``, ``Mg`` to the imposed flux density on the higher face,
``X`` to the vector source in the lower cell, the tangential-gradient
coefficients ``E`` and the diagonal ``d`` of 1/kappa_perp. With the mortar
flux maps ``Qm = Fg Mg + Fx X`` and ``Tm = Tg Mg + Tx X`` the system is

    [ D Fp                   D Qm + C^T                ] [ p ]   [ V s - D Fg g        ]
    [ W S Tp - W C + E R Fp  d + W S Tm + E R Qm - E X ] [lam] = [ -(W S Tg + E R Fg) g ]

Cell balance rows couple a subdomain's pressures to the mortar fluxes it
exchanges: incoming flux on the lower side, an imposed boundary flux on the
higher side, and the vector source the eliminated normal fluxes induce
inside a fault. Mortar rows express the interface law with the higher-side
pressure trace, the lower-side cell pressure, and the lower-side tangential
gradient reconstructed from fluxes. Higher and lower cell pressures never
couple directly.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .discretize import (
    BC_DIRICHLET,
    BC_MORTAR,
    BC_NEUMANN,
    BoundaryCondition,
    _gradient_reconstruction,
    discretize,
)
from .mdmesh import CellGrid, MixedDimMesh, MortarInterface
from .semilocal import (
    EquiDimFaultPerm,
    InterfaceLawError,
    MixedDimLaw,
    assemble_interface_blocks,
    scale_to_mixed_dim,
    schur_effective_tensor,
)

logger = logging.getLogger(__name__)


class AssemblyError(Exception):
    """Structurally invalid problem (missing BCs, singular setup)."""


class SolverError(Exception):
    """Linear solver failure or non-convergence."""


@dataclass
class BcClause:
    """One boundary condition statement: applies to all faces lying on the
    given ambient box side (2*axis + 0/1 for the low/high side) whose global
    centroid falls inside ``box`` (whole side when ``box`` is None). A box
    must select at least one boundary face of the mesh."""

    side: int
    kind: str  # "dirichlet" | "neumann"
    value: float
    box: tuple = None  # ((lo...), (hi...))
    line: int = None  # the configuration line of the box, if read from a file


@dataclass
class MaterialSet:
    """Material data of a configuration, independent of mesh resolution.

    ``matrix_regions`` override the base tensor inside axis-aligned boxes,
    later entries taking precedence. ``fault_perms``, ``fault_apertures``
    and ``fault_names`` run parallel to the fault list used to build the
    mesh; without names, messages name a fault by its index.
    """

    matrix_base: np.ndarray
    fault_perms: list = field(default_factory=list)
    fault_apertures: list = field(default_factory=list)
    fault_names: list = field(default_factory=list)
    matrix_regions: list = field(default_factory=list)  # (lo, hi, tensor)

    def matrix_perm(self, grid: CellGrid) -> np.ndarray:
        """Per-cell tensors of the matrix grid: a region holds the cells
        whose centers lie in its box, and a box that holds none raises
        :class:`AssemblyError`."""
        base = np.atleast_2d(np.asarray(self.matrix_base, dtype=float))
        perm = np.tile(base, (grid.n_cells, 1, 1))
        centers = grid.cell_centers_global()
        for lo, hi, tensor in self.matrix_regions:
            inside = _in_box(grid, centers, lo, hi)
            if not inside.any():
                raise AssemblyError(f"region box {lo} {hi} holds no cell center")
            perm[inside] = np.atleast_2d(np.asarray(tensor, dtype=float))
        return perm


def _in_box(grid: CellGrid, points: np.ndarray, lo, hi) -> np.ndarray:
    """Mask of the global ``points`` of ``grid`` in the closed box [lo, hi],
    with a margin of 1e-6 of the grid's largest cell width."""
    tol = 1e-6 * max((w.max() for w in grid.widths), default=0.0)
    lo = np.asarray(lo, dtype=float) - tol
    hi = np.asarray(hi, dtype=float) + tol
    return np.all((points >= lo) & (points <= hi), axis=1)


@dataclass
class SubdomainProblem:
    grid: CellGrid
    perm: np.ndarray
    bc: BoundaryCondition
    source: np.ndarray  # volumetric injection rate density per cell


@dataclass
class InterfaceProblem:
    itf: MortarInterface
    law: MixedDimLaw


def boundary_condition_from_clauses(grid: CellGrid, clauses, mortar_mask: np.ndarray) -> tuple:
    """Per-face conditions on one grid: no-flow default, clauses in order
    (later ones override), mortar faces flagged last; and the number of
    faces each clause selects."""
    bc = BoundaryCondition.empty(grid)
    boundary = grid.is_boundary()
    bc.kind[boundary] = BC_NEUMANN
    counts = np.zeros(len(clauses), dtype=int)
    for k, cl in enumerate(clauses):
        faces = np.flatnonzero(boundary & (grid.face_bnd == cl.side) & ~mortar_mask)
        if cl.box is not None:
            gx = grid.frame_origin + grid.face_centers[faces] @ grid.frame_axes
            faces = faces[_in_box(grid, gx, *cl.box)]
        bc.kind[faces] = BC_DIRICHLET if cl.kind == "dirichlet" else BC_NEUMANN
        bc.value[faces] = cl.value
        counts[k] = faces.size
    bc.kind[mortar_mask] = BC_MORTAR
    bc.value[mortar_mask] = 0.0
    return bc, counts


def _inherited_scalar(perms, apertures, fault_ids, along=None):
    """Mean material values over the faults meeting at an intersection.
    ``along`` maps each fault to its in-plane index along an intersection
    line; without it the in-plane value is each tensor's mean diagonal."""
    kp = float(np.mean([np.mean(perms[f].k_perp) for f in fault_ids]))
    ap = float(np.mean([apertures[f] for f in fault_ids]))
    if along is None:
        kpar = float(
            np.mean([np.trace(perms[f].k_parallel) / len(perms[f].k_parallel) for f in fault_ids])
        )
    else:
        kpar = float(np.mean([perms[f].k_parallel[along[f], along[f]] for f in fault_ids]))
    return kp, ap, kpar


def build_problems(
    mesh: MixedDimMesh,
    materials: MaterialSet,
    bcs,
    sources=None,
):
    """Resolve materials and boundary data into per-entity problem records.

    Fault subdomains carry the Schur-eliminated effective tensor as their
    in-plane permeability; intersection subdomains inherit averaged values
    from the faults that meet there. Every interface's law is scaled to the
    codimension of its lower subdomain using the governing fault's data (the
    intersection's inherited data when several faults govern jointly).

    A fault must keep a positive definite effective tensor, which implies
    each side's well-posedness condition, or :class:`InterfaceLawError`
    names it. A boundary clause whose box selects no boundary face of any
    subdomain raises :class:`~mdflow.config.ConfigError` at the box's line.
    """
    perms = materials.fault_perms
    aps = materials.fault_apertures
    fault_laws, effective = {}, {}
    for f, (fp, a) in enumerate(zip(perms, aps)):
        name = repr(materials.fault_names[f]) if materials.fault_names else f
        law = scale_to_mixed_dim(fp, a, codim=1)
        eff = schur_effective_tensor(law)
        lowest = np.linalg.eigvalsh(eff.tensor).min()
        if lowest <= 0:
            shares = [kt @ kt / kp for kp, kt in zip(law.kappa_perp, law.kappa_t)]
            raise InterfaceLawError(
                f"fault {name}: the effective in-plane tensor is not positive definite "
                f"(smallest eigenvalue {lowest:.6g}; the sides' shares |k_t|^2/k_perp "
                f"are {shares[0]:.6g} and {shares[1]:.6g})"
            )
        fault_laws[f], effective[f] = law, eff

    fault_axes = {
        info.fault_ids[0]: grid.frame_axes
        for grid, info in zip(mesh.subdomains, mesh.info)
        if info.kind == "fault"
    }
    sub_problems = []
    selected = np.zeros(len(bcs), dtype=int)
    for i, grid in enumerate(mesh.subdomains):
        info = mesh.info[i]
        d = grid.dim
        if info.kind == "matrix":
            perm = materials.matrix_perm(grid)
        elif info.kind == "fault":
            perm = np.tile(effective[info.fault_ids[0]].tensor, (grid.n_cells, 1, 1))
        elif d > 0:  # intersection line
            # The line's index among each fault's own in-plane axes.
            along = {
                f: int(np.argmax(np.abs(fault_axes[f] @ grid.frame_axes[0])))
                for f in info.fault_ids
            }
            kp, ap, kpar = _inherited_scalar(perms, aps, info.fault_ids, along)
            codim = mesh.dim - d
            perm = np.full((grid.n_cells, 1, 1), ap**codim * kpar)
        else:  # point: no internal flow
            perm = np.zeros((grid.n_cells, 0, 0))
        bc, counts = boundary_condition_from_clauses(grid, bcs, mesh.mortar_face_mask(i))
        selected += counts
        src = np.zeros(grid.n_cells)
        if sources is not None and sources[i] is not None:
            src = np.asarray(sources[i], dtype=float)
        sub_problems.append(SubdomainProblem(grid, perm, bc, src))
    unused = next((cl for cl, count in zip(bcs, selected) if count == 0), None)
    if unused is not None:
        from .config import SIDE_NAMES, ConfigError  # config imports this module

        raise ConfigError(
            (f"line {unused.line}: " if unused.line else "")
            + f"[bc] box {unused.box} selects no boundary face on side {SIDE_NAMES[unused.side]}"
        )

    itf_problems = []
    for itf in mesh.interfaces:
        lower, higher = mesh.info[itf.lower], mesh.info[itf.higher]
        if higher.kind == "matrix":  # the lower fault's own law
            law = fault_laws[lower.fault_ids[0]]
        else:  # inherited from the higher fault, or from the lower intersection's faults
            fids = higher.fault_ids if higher.kind == "fault" else lower.fault_ids
            kp, ap, kpar = _inherited_scalar(perms, aps, fids)
            t = mesh.subdomains[itf.lower].dim
            synthetic = EquiDimFaultPerm(
                k_parallel=kpar * np.eye(t),
                k_perp=(kp, kp),
                k_t=(np.zeros(t), np.zeros(t)),
            )
            law = scale_to_mixed_dim(synthetic, ap, codim=mesh.dim - t)
        itf_problems.append(InterfaceProblem(itf, law))
    return sub_problems, itf_problems


@dataclass
class GlobalSystem:
    """Assembled sparse system plus the maps that turn its solution into
    face fluxes and cell balances.

    The offsets hold the first pressure, mortar flux and face of each
    subdomain or interface, then the total.
    """

    matrix: sps.csr_matrix
    rhs: np.ndarray
    mesh: MixedDimMesh
    problems: list
    iproblems: list
    p_offsets: np.ndarray
    lam_offsets: np.ndarray
    face_offsets: np.ndarray
    flux: sps.csr_matrix  # [Fp | Qm]: unknowns -> face fluxes
    flux_bc: np.ndarray  # Fg g: face fluxes of the boundary data
    div: sps.csr_matrix  # face fluxes -> cell outflow
    lam_cells: sps.csr_matrix  # C^T: mortar fluxes -> lower cell inflow

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_pressure(self) -> int:
        return int(self.p_offsets[-1])


@dataclass
class MdSolution:
    """Solved fields per subdomain and interface: pressures, mortar fluxes
    and the reconstructed face fluxes."""

    system: GlobalSystem
    pressures: list
    lambdas: list
    fluxes: list
    residual: float


def _divergence(grid: CellGrid) -> sps.csr_matrix:
    nf, nc = grid.n_faces, grid.n_cells
    c1 = grid.face_cells[:, 1]
    inner = c1 >= 0
    rows = np.concatenate([grid.face_cells[:, 0], c1[inner]])
    cols = np.concatenate([np.arange(nf), np.where(inner)[0]])
    dat = np.concatenate([np.ones(nf), -np.ones(int(inner.sum()))])
    return sps.csr_matrix((dat, (rows, cols)), shape=(nc, nf))


def _offsets(sizes) -> np.ndarray:
    """Start of each block of ``sizes`` in their concatenation, then the total."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _cat(arrays, dtype=float) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype)


def _stack(blocks) -> sps.csr_matrix:
    """Block-diagonal matrix of CSR ``blocks``.

    Concatenating the CSR arrays keeps every row's entries in their order,
    so products with the stacked matrix round exactly as with each block.
    """
    cols = _offsets([b.shape[1] for b in blocks])
    nnz = _offsets([b.nnz for b in blocks])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + n for b, n in zip(blocks, nnz)])
    indices = np.concatenate([b.indices + c for b, c in zip(blocks, cols)])
    data = np.concatenate([b.data for b in blocks])
    n_rows = sum(b.shape[0] for b in blocks)
    return sps.csr_matrix((data, indices, indptr), shape=(n_rows, cols[-1]))


def assemble_global(
    mesh: MixedDimMesh,
    materials: MaterialSet,
    bcs,
    sources=None,
) -> GlobalSystem:
    """Assemble the monolithic system over subdomain pressures and mortar
    fluxes. ``bcs`` is a list of :class:`BcClause`; ``sources`` an optional
    per-subdomain list of injection rate densities."""
    problems, iproblems = build_problems(mesh, materials, bcs, sources)
    return assemble_from_problems(mesh, problems, iproblems)


def assemble_from_problems(mesh, problems, iproblems) -> GlobalSystem:
    """Discretize every subdomain and assemble the block system of the
    module docstring from the stacked operators and interface maps."""
    if not any(np.any(pr.bc.kind == BC_DIRICHLET) for pr in problems):
        raise AssemblyError(
            "system has no Dirichlet faces; pressure is determined only up "
            "to a constant"
        )
    grids = [pr.grid for pr in problems]
    itfs = [ip.itf for ip in iproblems]
    p_off = _offsets([g.n_cells for g in grids])
    f_off = _offsets([g.n_faces for g in grids])
    x_off = _offsets([g.n_cells * g.dim for g in grids])
    lam_off = _offsets([itf.n_mortar for itf in itfs])
    n_p, n_f, n_x, n_lam = p_off[-1], f_off[-1], x_off[-1], lam_off[-1]

    ops = [discretize(pr.grid, pr.perm, pr.bc) for pr in problems]
    Fp, Fg, Fx, Tp, Tg, Tx = (
        _stack([getattr(op, name) for op in ops])
        for name in ("flux_p", "flux_g", "flux_chi", "trace_p", "trace_g", "trace_chi")
    )
    lower = {itf.lower for itf in itfs}
    R = _stack([
        _gradient_reconstruction(g, pr.perm) if i in lower
        else sps.csr_matrix((g.n_cells * g.dim, g.n_faces))
        for i, (g, pr) in enumerate(zip(grids, problems))
    ])
    D = _stack([_divergence(g) for g in grids])
    n_mpfa = sum(op.scheme == "MPFA" for op in ops)
    n_multipoint = sum(op.multipoint_faces for op in ops)
    del ops  # the stacked copies replace them

    laws = [assemble_interface_blocks(itf, ip.law) for itf, ip in zip(itfs, iproblems)]
    # Mortar cell m of an interface is cell m of its lower grid, whose volume
    # |m| is also the area of its higher face. E and X share their entries:
    # mortar cell m against component k of the vector source in that cell.
    e_rows, e_cols, e_dat, x_dat, d_dat = [], [], [], [], []
    for itf, (r, c), off in zip(itfs, laws, lam_off):
        m, t = grids[itf.lower].cell_volumes, grids[itf.lower].dim
        d_dat.append(np.full(itf.n_mortar, r))
        e_rows.append(np.repeat(off + np.arange(itf.n_mortar), t))
        e_cols.append(x_off[itf.lower] + np.arange(itf.n_mortar * t))
        e_dat.append(-np.outer(m, c).ravel())
        eff_inv = np.linalg.inv(problems[itf.lower].perm)
        x_dat.append(np.einsum("mij,mj->mi", eff_inv, np.outer(1.0 / m, c)).ravel())
    e_rows, e_cols = _cat(e_rows, int), _cat(e_cols, int)
    lam = np.arange(n_lam)
    face = _cat([f_off[itf.higher] + itf.higher_faces for itf in itfs], int)
    cell = _cat([p_off[itf.lower] + np.arange(itf.n_mortar) for itf in itfs], int)
    measures = _cat([grids[itf.lower].cell_volumes for itf in itfs])
    ones = np.ones(n_lam)
    S = sps.csr_matrix((ones, (lam, face)), shape=(n_lam, n_f))
    C = sps.csr_matrix((ones, (lam, cell)), shape=(n_lam, n_p))
    W = sps.diags(measures, format="csr")
    Mg = sps.csr_matrix((-1.0 / measures, (face, lam)), shape=(n_f, n_lam))
    X = sps.csr_matrix((_cat(x_dat), (e_cols, e_rows)), shape=(n_x, n_lam))
    E = sps.csr_matrix((_cat(e_dat), (e_rows, e_cols)), shape=(n_lam, n_x))
    d_inv = sps.diags(_cat(d_dat), format="csr")

    # Qm and Tm enter expanded, one product per term. Regrouped sums keep
    # every sparsity pattern and the LU fill but round semi-local entries
    # otherwise: cube3d's pressures then move 7.1e-10 under a change of units
    # (s = 1e6), past the 1e-10 that test_pressures_do_not_depend_on_units_or_origin allows.
    FgMg, FxX = Fg @ Mg, Fx @ X
    WS = W @ S
    ER = E @ R
    lam_cells = C.T.tocsr()
    A = sps.bmat(
        [
            [D @ Fp, D @ FgMg + lam_cells + D @ FxX],
            [
                WS @ Tp - W @ C + ER @ Fp,
                d_inv + WS @ (Tg @ Mg) + WS @ (Tx @ X) + ER @ FgMg + (ER @ Fx - E) @ X,
            ],
        ],
        format="csr",
    )
    A.sort_indices()  # products leave their columns unsorted
    g = np.concatenate([pr.bc.value for pr in problems])
    flux_bc = Fg @ g
    injected = np.concatenate([pr.grid.cell_volumes * pr.source for pr in problems])
    rhs = np.concatenate([injected - D @ flux_bc, np.zeros(n_lam)])
    rhs[n_p:] -= WS @ (Tg @ g)
    rhs[n_p:] -= ER @ flux_bc

    logger.info(
        "assembled system: %d pressures, %d mortar fluxes, %d nonzeros; "
        "schemes: %d TPFA, %d MPFA (%d of %d faces multi-point)",
        n_p,
        n_lam,
        A.nnz,
        len(grids) - n_mpfa,
        n_mpfa,
        n_multipoint,
        n_f,
    )
    return GlobalSystem(
        matrix=A,
        rhs=rhs,
        mesh=mesh,
        problems=problems,
        iproblems=iproblems,
        p_offsets=p_off,
        lam_offsets=lam_off,
        face_offsets=f_off,
        flux=sps.hstack([Fp, FgMg + FxX], format="csr"),
        flux_bc=flux_bc,
        div=D,
        lam_cells=lam_cells,
    )


#: Size at or below which the AMG hierarchy stops coarsening and factors
#: its last level: cube3d at 24^3 coarsens to 27 unknowns.
_COARSEST = 100
#: Most cells per axis of an AMG aggregate on the first coarsening, and
#: after it. With 2 throughout, cube3d at 24^3 kept a level of 164 entries
#: per row; 3 throughout took 21 GMRES iterations instead of 15, 4 after it
#: 17. With its faults at k = 1e-6, cube3d at 32^3 takes 19 (runs of 8 cut
#: into 3 + 3 + 2), near the tests' bound of 20.
_FIRST_BLOCK, _BLOCK = 2, 3
#: Power-iteration steps of the spectral-radius estimate, and GMRES
#: iterations (without restart) before the solve counts as stalled.
_POWER_STEPS = 15
_MAX_ITERATIONS = 50
#: Smallest pivot, relative to the largest entry left in its column, that
#: the float32 2D LU keeps on the diagonal. Elimination leaves a cancelled
#: pivot at a float32 unit of the sums it came from, 1.8e-7 of its column
#: on an 8x8 box with faults at x = 2, x = 4 and y = 6, which 1e-8 kept and
#: refinement could not cure. Pivots that are not cancelled fall to 1e-5 of
#: their column when the units change by 1e-9 (network2d), so the threshold
#: cannot go higher. Then the most unknowns of an undivided dissection
#: block.
_PIVOT_THRESHOLD = 1e-6
_ND_LEAF = 8
#: Most refinement steps of a 2D solve: refinement that halves the residual
#: each step takes 29 steps from float32 to float64 accuracy. A cancelled
#: pivot kept at 1.9e-6 of its column (8x8 boxes with faults at x = 4,
#: x = 6 and y = 4) slows it to 18-22 steps.
_REFINEMENT_STEPS = 30
#: Relative residual that the fast solvers must reach before the COLAMD LU
#: takes over.
_RESIDUAL_TOL = 1e-10


def _relative_residual(A, b, x) -> float:
    """‖b − A x‖ / ‖b‖, or ‖b − A x‖ where b = 0."""
    norm = float(np.linalg.norm(b))
    return float(np.linalg.norm(b - A @ x)) / (norm if norm > 0 else 1.0)


def _scrambled(n: int) -> np.ndarray:
    """Distinct, well-spread integers for 0..n-1 (multiplicative hashing):
    the deterministic start vector of the power iteration."""
    return np.arange(n, dtype=np.int64) * 2654435761 % 2**32


def _runs(grid: CellGrid) -> tuple:
    """Per local axis, the lengths of the runs of cells between the lattice
    planes that hold the grid's slit faces."""
    slit, runs = grid.face_cut >= 0, []
    for a, n in enumerate(grid.shape):
        ends = np.zeros(n + 1, dtype=bool)
        ends[[0, n]] = ends[grid.face_index[slit & (grid.face_axis == a), a] // 2] = True
        runs.append(tuple(np.diff(np.flatnonzero(ends)).tolist()))
    return tuple(runs)


def _blocks(boxes, b: int) -> tuple:
    """Aggregates of at most ``b`` cells per axis in each run of each box,
    whose cells are numbered x-fastest, box after box; a run's blocks differ
    in width by one at most. Returns each cell's aggregate and the coarse
    boxes, which keep one run of ceil(len / b) per fine run."""
    coarse = [tuple(tuple(-(-k // b) for k in runs) for runs in box) for box in boxes]
    shapes = [tuple(sum(runs) for runs in box) for box in coarse]
    starts = _offsets([math.prod(shape) for shape in shapes])
    agg = []
    for box, cbox, shape, start in zip(boxes, coarse, shapes, starts):
        # Along each axis, cell i of a run of k cells joins block i * m // k
        # of the run's m coarse cells.
        axes = [
            np.concatenate([c + np.arange(k) * m // k for k, m, c in zip(runs, cruns, _offsets(cruns))])
            for runs, cruns in zip(box, cbox)
        ]
        cells = np.arange(math.prod(shape)).reshape(shape, order="F")[np.ix_(*axes)]
        agg.append(start + np.ravel(cells, order="F"))
    return np.concatenate(agg), coarse


def _amg_hierarchy(A: sps.csr_matrix, boxes):
    """Smoothed-aggregation hierarchy of ``A``, whose unknowns are the cells
    of lattice boxes given as runs per axis (:func:`_runs`; x-fastest, box
    after box): per level the matrix, the prolongator, the restriction and
    the damped Jacobi weights, then the LU of the coarsest matrix.

    An aggregate is a block of one run per axis, at most :data:`_FIRST_BLOCK`
    cells wide on the first coarsening and :data:`_BLOCK` after it, so none
    crosses a fault, and each coarser level is again a list of boxes whose
    runs follow the faults down. Each prolongator is that piecewise-constant
    one smoothed by one Jacobi step of weight 4/(3 rho), rho the spectral
    radius of D^-1 A estimated by power iteration; the smoother uses that
    weight.
    """
    levels = []
    while A.shape[0] > _COARSEST:
        n = A.shape[0]
        agg, coarse = _blocks(boxes, _BLOCK if levels else _FIRST_BLOCK)
        n_agg = int(agg.max()) + 1
        if 2 * n_agg > n:  # mostly one-cell boxes, which no longer shrink
            break
        d_inv = 1.0 / A.diagonal()
        v = _scrambled(n) - 2.0**31
        for _ in range(_POWER_STEPS):
            v = d_inv * (A @ (v / np.linalg.norm(v)))
        weight = 4.0 / (3.0 * np.linalg.norm(v)) * d_inv
        T = sps.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, n_agg))
        P = (T - sps.diags(weight) @ (A @ T)).tocsr()
        R = P.T.tocsr()
        levels.append((A, P, R, weight))
        A, boxes = (R @ A @ P).tocsr(), coarse
    return levels, spla.splu(A.tocsc())


def _v_cycle(levels, coarse, b: np.ndarray, k: int = 0) -> np.ndarray:
    """One V(1,2) cycle from zero on level ``k`` of the hierarchy."""
    if k == len(levels):
        return coarse.solve(b)
    A, P, R, weight = levels[k]
    x = weight * b
    x += P @ _v_cycle(levels, coarse, R @ (b - A @ x), k + 1)
    for _ in range(2):
        x += weight * (b - A @ x)
    return x


def _krylov_solve(system: GlobalSystem):
    """GMRES on the full system; returns the solution, its relative residual
    and the reason to fall back, None if it met :data:`_RESIDUAL_TOL`.

    The mortar fluxes are eliminated with the diagonal of their block,
    ``S = App - Apl diag(All)^-1 Alp``, and the block-lower-triangular
    preconditioner solves the pressures by one AMG V-cycle on ``S``, then
    the mortar fluxes by that diagonal. The hierarchy's aggregates are
    blocks of each subdomain's cells that stop at the planes of its slit
    faces (:func:`_amg_hierarchy`). The preconditioner acts from the
    right, so GMRES minimizes the true residual. GMRES runs to
    1/100 of that tolerance times max(‖b‖, 1): the pressure rows are the
    cell balances, and stopping at a tenth of it left the worst cell of a
    40^3 cube3d at 1.1e-10 of the flux scale. Without the floor at 1, seeds
    of the 24^3 cube3d benchmark, whose ‖b‖ is about 0.05, stall at 19-20
    iterations into the fallback; a system with ‖b‖ far below 1 misses the
    tolerance here and the fallback solves it.

    The answer is judged by its true residual, whatever GMRES's ``info``:
    GMRES reports no convergence where its own residual estimate and the
    true residual disagree, and the true one may still meet the tolerance.
    """
    A, b = system.matrix, system.rhs
    n_p = system.n_pressure
    t0 = time.perf_counter()
    A_lp = A[n_p:, :n_p]
    dl_inv = 1.0 / A.diagonal()[n_p:]
    S = (A[:n_p, :n_p] - A[:n_p, n_p:] @ sps.diags(dl_inv) @ A_lp).tocsr()
    levels, coarse = _amg_hierarchy(S, [_runs(g) for g in system.mesh.subdomains])

    def precondition(r):
        p = _v_cycle(levels, coarse, r[:n_p])
        return np.concatenate([p, dl_inv * (r[n_p:] - A_lp @ p)])

    t1 = time.perf_counter()
    its = []
    y, info = spla.gmres(
        spla.LinearOperator(A.shape, lambda v: A @ precondition(v), dtype=A.dtype), b,
        rtol=0.0, atol=0.01 * _RESIDUAL_TOL * max(float(np.linalg.norm(b)), 1.0),
        restart=_MAX_ITERATIONS, maxiter=1, callback=its.append, callback_type="pr_norm",
    )
    x = precondition(y)
    residual = _relative_residual(A, b, x)
    sizes = [lv[0].shape[0] for lv in levels] + [coarse.shape[0]]
    logger.info(
        "krylov solve: AMG levels %s, %d GMRES iterations, residual %.3e, "
        "setup %.3f s, solve %.3f s",
        "/".join(map(str, sizes)),
        len(its), residual, t1 - t0, time.perf_counter() - t1,
    )
    if residual <= _RESIDUAL_TOL:
        return x, residual, None
    if info != 0:
        return x, residual, f"no convergence in {len(its)} GMRES iterations"
    return x, residual, f"residual {residual:.1e}"


def _nested_dissection(system: GlobalSystem, zero: np.ndarray) -> tuple:
    """The unknowns in nested-dissection order (George 1973) of their cells'
    lattice points (a mortar flux takes its lower cell's), given those with
    a zero diagonal; then the unknowns by code, their codes, and the shifts
    that cut each code to the block of its leaf or separator. Splits halve
    the longest axis's intervals; a block orders its left part, its right
    part, then its separator: the left unknowns with a neighbour on the
    right, read from their rows as A's pattern is symmetric. Blocks of at
    most :data:`_ND_LEAF` unknowns are leaves. Mortar fluxes lead each leaf
    or separator; a zero-diagonal unknown follows all it couples to."""
    A, grids, n = system.matrix, system.mesh.subdomains, system.n_unknowns
    nearest = [(x[1:] + x[:-1]) / 2 for x in grids[0].lattice]
    bits = [m.size.bit_length() for m in nearest]
    paths = [(np.arange(m.size + 1) << b) // (m.size + 1) for m, b in zip(nearest, bits)]
    splits = sorted((-p.size / 2**k, a, k) for a, p in enumerate(paths) for k in range(bits[a]))
    depth = len(splits)
    tables = [np.zeros(p.size, np.int32 if depth < 31 else np.int64) for p in paths]
    for level, (_, a, k) in enumerate(splits):
        tables[a] |= (paths[a] >> (bits[a] - 1 - k) & 1) << (depth - 1 - level)
    code = []
    for grid in grids:
        at = [t[np.searchsorted(m, x)] for t, m, x in zip(tables, nearest, grid.frame_origin)]
        for x, g in zip(grid.lattice, grid.frame_axes.argmax(axis=1)):
            at[g] = tables[g][np.searchsorted(nearest[g], x[1::2])]
        code.append(np.ravel(reduce(np.bitwise_or.outer, at[::-1])))
    code = np.concatenate(code + [code[itf.lower] for itf in system.mesh.interfaces])
    # A code holds the sides, first split highest. An unknown separates where its largest-coded
    # neighbour goes right; its leaf is below the deepest block of _ND_LEAF + 1 codes around it.
    far = np.maximum.reduceat(code[A.indices], A.indptr[:-1])
    split = depth - np.frexp(np.where(far > code, far ^ code, 0))[1]
    by_code = np.argsort(code)
    code, split = code[by_code], split[by_code]
    full = np.pad(depth - np.frexp(code[_ND_LEAF:] ^ code[:-_ND_LEAF])[1], _ND_LEAF, constant_values=-1)
    leaf = np.minimum(np.lib.stride_tricks.sliding_window_view(full, n).max(axis=0) + 1, depth)
    # Post order: by the end of the unknown's block, leaves first, then
    # separators from the deepest out; mortar fluxes first within each.
    shift = depth - np.minimum(split, leaf)
    key = np.empty(n, np.int64)
    key[by_code] = (((code >> shift) + 1).astype(np.int64) << shift) * (depth + 2)
    key[by_code] += np.where(split < leaf, depth + 1 - split, 0)
    key = ((2 * key + (np.arange(n) < system.n_pressure)) * n + np.arange(n)) * 2
    for z in zero:  # eliminating what z couples to fills its pivot
        key[z] = key[np.setdiff1d(A.indices[A.indptr[z]:A.indptr[z + 1]], z)].max() + 1
    return np.argsort(key), by_code, code, shift


def _static_pivot_solve(system: GlobalSystem):
    """Sparse LU in nested-dissection order with pivots kept on the
    diagonal, factored in single precision and refined in double; returns
    the solution, its relative residual and the reason to fall back, None if
    it met :data:`_RESIDUAL_TOL`.

    The 2D system is close to symmetric quasi-definite: a symmetric pressure
    block, mortar rows that are negative multiples of their pressure
    columns, and a positive mortar diagonal. Such matrices factor stably in
    any symmetric order (Vanderbei 1995), so the pivots stay where the
    ordering puts them and the residual check stands in for pivoting, as in
    SuperLU_DIST (Li & Demmel 1998). SuperLU factors the transpose (its CSC
    arrays are A's permuted rows) with row i scaled by a power of two near
    1/sqrt|a_ii| (max |a_ij| if a_ii = 0): its pivot test compares entries of
    a column, which are then a_ij / sqrt|a_ii a_jj| as under two-sided
    scaling. Those of the pressure block do not depend on units; those that
    couple pressures and mortar fluxes do, as the two kinds of rows scale
    with different powers of the units.

    The factor is float32, which nearly halves its memory. Iterative
    refinement (Buttari et al. 2008) gives back double accuracy:
    x += LU^-1 (b - A x), with the residual in float64, for as long as a
    step at least halves it and at most :data:`_REFINEMENT_STEPS` times,
    keeping the best iterate.
    Each right-hand side is divided by a power of two near its largest entry
    before it is rounded to float32, and each correction is widened to
    float64 before it is scaled back, so the solve does not depend on units.
    """
    A, b = system.matrix, system.rhs
    t0 = time.perf_counter()
    size = np.abs(A.diagonal())
    zero = np.flatnonzero(size == 0)
    size[zero] = [np.abs(A.data[A.indptr[z]:A.indptr[z + 1]]).max() for z in zero]
    perm = _nested_dissection(system, zero)[0]
    scale = -(np.frexp(size[perm])[1] >> 1)  # |a_ii| 4^scale lies in [1/2, 2)
    B, inv = A[perm], np.empty(perm.size, A.indices.dtype)
    inv[perm] = np.arange(perm.size)
    rows = inv[B.indices]
    M = sps.csc_matrix(
        (np.ldexp(B.data, scale[rows]).astype(np.float32), rows, B.indptr), shape=B.shape
    )
    del B
    M.sort_indices()
    t1 = time.perf_counter()
    lu = spla.splu(
        M, permc_spec="NATURAL", diag_pivot_thresh=_PIVOT_THRESHOLD,
        options=dict(SymmetricMode=True),
    )
    t2 = time.perf_counter()

    def lu_solve(r):
        top = np.frexp(np.abs(r).max(initial=0.0))[1]
        y = lu.solve(np.ldexp(r[perm], -top).astype(np.float32), trans="T")
        return np.ldexp(y.astype(np.float64), scale + top)[inv]

    x = lu_solve(b)
    r = b - A @ x
    norm = float(np.linalg.norm(r))
    steps = 0
    while steps < _REFINEMENT_STEPS and norm > 0:
        steps += 1
        y = x + lu_solve(r)
        s = b - A @ y
        new = float(np.linalg.norm(s))
        if new < norm:
            x, r = y, s
        if not new <= norm / 2:
            break
        norm = new
    residual = _relative_residual(A, b, x)
    logger.info(
        "direct solve: ordering nested-dissection, static pivots, %d off-diagonal, "
        "float32 factor, order %.3f s, factor %.3f s, LU nnz %d, "
        "%d refinement steps to residual %.3e in %.3f s",
        int((lu.perm_r != lu.perm_c).sum()), t1 - t0, t2 - t1, lu.nnz,
        steps, residual, time.perf_counter() - t2,
    )
    return x, residual, None if residual <= _RESIDUAL_TOL else f"residual {residual:.1e}"


def _solve_linear(system: GlobalSystem):
    """AMG-preconditioned GMRES in 3D and the static-pivot LU in 2D; sparse
    LU with SuperLU's COLAMD ordering and partial pivoting whenever either
    fails or misses :data:`_RESIDUAL_TOL`, keeping whichever of the two
    answers has the smaller relative residual. Returns the solution and its
    relative residual."""
    A, b = system.matrix, system.rhs
    if system.mesh.dim == 3:
        method, fast = "krylov solve", lambda: _krylov_solve(system)
    else:
        method, fast = "static-pivot LU", lambda: _static_pivot_solve(system)
    try:
        x, residual, fallback = fast()
    except RuntimeError as exc:
        x, residual, fallback = None, np.inf, f"{method} failed: {exc}"
    if fallback is None:
        return x, residual
    t0 = time.perf_counter()
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    y = lu.solve(b)
    lu_residual = _relative_residual(A, b, y)
    keep = residual < lu_residual
    logger.info(
        "direct solve: ordering colamd (fallback: %s), factor %.3f s, LU nnz %d, "
        "residual %.3e against %.3e of the %s; keeping the %s answer",
        fallback, time.perf_counter() - t0, lu.nnz, lu_residual, residual, method,
        method if keep else "colamd",
    )
    return (x, residual) if keep else (y, lu_residual)


def solve(system: GlobalSystem) -> MdSolution:
    """Solve the assembled system and reconstruct conservative fluxes.

    3D systems are solved by GMRES, preconditioned by smoothed-aggregation
    AMG on the pressures once the mortar fluxes are eliminated. 2D systems
    are factored by sparse LU in a nested-dissection order of the mesh
    lattice with static diagonal pivots, in float32, and refined in float64
    to double accuracy. Where either fails or its relative
    residual exceeds :data:`_RESIDUAL_TOL`, a partially pivoted LU with
    SuperLU's COLAMD ordering solves as well, and the answer with the
    smaller residual is kept. A final residual above 1e-6 raises
    :class:`SolverError`.
    """
    x, residual = _solve_linear(system)
    if not residual <= 1e-6:
        raise SolverError(f"solution residual too large: {residual:.3e}")

    n_p = system.n_pressure
    pressures = np.split(x[:n_p], system.p_offsets[1:-1])
    lambdas = np.split(x[n_p:], system.lam_offsets[1:-1])
    fluxes = np.split(system.flux @ x + system.flux_bc, system.face_offsets[1:-1])

    # Structural identity: the higher-side face flux carries exactly -lambda
    # (outward), since mortar faces are imposed-flux faces.
    for j, ip in enumerate(system.iproblems):
        qh = fluxes[ip.itf.higher][ip.itf.higher_faces]
        gap = np.abs(qh + lambdas[j])
        ref = 1.0 + np.abs(lambdas[j]).max() if lambdas[j].size else 1.0
        if gap.size and gap.max() > 1e-9 * ref:
            raise SolverError(
                f"mortar flux mismatch on interface {j}: {gap.max():.3e}"
            )

    logger.info("solved %d unknowns, residual %.3e", system.n_unknowns, residual)
    return MdSolution(
        system=system,
        pressures=pressures,
        lambdas=lambdas,
        fluxes=fluxes,
        residual=residual,
    )


def mass_balance_report(sol: MdSolution) -> dict:
    """Discrete conservation residuals of a solved system.

    Per subdomain, the residual of every cell's balance including mortar
    exchange; globally, net boundary outflow minus total injection. All
    values are absolute; ``scale`` gives the flux magnitude for relative
    interpretation.
    """
    sys_ = sol.system
    q = np.concatenate(sol.fluxes)
    injected = [pr.grid.cell_volumes * pr.source for pr in sys_.problems]
    resid = sys_.div @ q + sys_.lam_cells @ _cat(sol.lambdas) - np.concatenate(injected)
    worst = [float(r.max()) for r in np.split(np.abs(resid), sys_.p_offsets[1:-1])]
    total_boundary = 0.0
    for i, (pr, qi) in enumerate(zip(sys_.problems, sol.fluxes)):
        ext = pr.grid.is_boundary() & ~sys_.mesh.mortar_face_mask(i)
        total_boundary += float(qi[ext].sum())
    total_source = sum(float(v.sum()) for v in injected)
    scale = float(np.abs(q).max()) if q.size else 0.0
    return {
        "subdomains": [{"id": i, "max_residual": w} for i, w in enumerate(worst)],
        "scale": scale if scale > 0 else 1.0,
        "global_residual": abs(total_boundary - total_source),
        "boundary_outflow": total_boundary,
        "total_source": total_source,
        "max_cell_residual": max(worst),
    }
