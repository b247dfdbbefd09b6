"""Global assembly and solution of the mixed-dimensional flow system.

Unknowns are ordered as all subdomain cell pressures (subdomains in mesh
order) followed by all mortar fluxes (interfaces in mesh order). The mortar
unknown is the integrated flux through each mortar cell, positive from the
lower onto the higher subdomain.

Block structure: cell balance rows couple a subdomain's pressures to the
mortar fluxes it exchanges (incoming flux on the lower side, an imposed
boundary flux on the higher side, and the vector source the eliminated
normal fluxes induce inside a fault). Mortar rows express the interface law
with the higher-side pressure trace, the lower-side cell pressure, and the
lower-side tangential gradient reconstructed from fluxes. Higher and lower
cell pressures never couple directly.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .discretize import (
    BC_DIRICHLET,
    BC_MORTAR,
    BC_NEUMANN,
    BoundaryCondition,
    DiscreteOperator,
    discretize,
)
from .mdmesh import CellGrid, MixedDimMesh, MortarInterface
from .semilocal import (
    EquiDimFaultPerm,
    InterfaceLawError,
    MixedDimLaw,
    assemble_interface_blocks,
    check_wellposed,
    scale_to_mixed_dim,
    schur_effective_tensor,
    vector_source_from_mortar,
)

logger = logging.getLogger(__name__)

_TOL = 1e-9


class AssemblyError(Exception):
    """Structurally invalid problem (missing BCs, singular setup)."""


class SolverError(Exception):
    """Linear solver failure or non-convergence."""


@dataclass
class BcClause:
    """One boundary condition statement: applies to all faces lying on the
    given ambient box side (2*axis + 0/1 for the low/high side) whose global
    centroid falls inside ``box`` (whole side when ``box`` is None)."""

    side: int
    kind: str  # "dirichlet" | "neumann"
    value: float
    box: tuple = None  # ((lo...), (hi...))


@dataclass
class MaterialSet:
    """Material data of a configuration, independent of mesh resolution.

    ``matrix_regions`` override the base tensor inside axis-aligned boxes,
    later entries taking precedence. ``fault_perms`` and ``fault_apertures``
    run parallel to the fault list used to build the mesh.
    """

    matrix_base: np.ndarray
    fault_perms: list = field(default_factory=list)
    fault_apertures: list = field(default_factory=list)
    matrix_regions: list = field(default_factory=list)  # (lo, hi, tensor)

    def matrix_perm(self, centers: np.ndarray) -> np.ndarray:
        d = centers.shape[1]
        base = np.atleast_2d(np.asarray(self.matrix_base, dtype=float))
        perm = np.tile(base, (centers.shape[0], 1, 1))
        for lo, hi, tensor in self.matrix_regions:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            inside = np.all(
                (centers >= lo - _TOL) & (centers <= hi + _TOL), axis=1
            )
            perm[inside] = np.atleast_2d(np.asarray(tensor, dtype=float))
        return perm


@dataclass
class SubdomainProblem:
    grid: CellGrid
    perm: np.ndarray
    bc: BoundaryCondition
    source: np.ndarray  # volumetric injection rate density per cell
    method: str = "auto"


@dataclass
class InterfaceProblem:
    itf: MortarInterface
    law: MixedDimLaw


def boundary_condition_from_clauses(
    grid: CellGrid, clauses, mortar_mask: np.ndarray
) -> BoundaryCondition:
    """Per-face conditions on one grid: no-flow default, clauses in order
    (later ones override), mortar faces flagged last."""
    bc = BoundaryCondition.empty(grid)
    boundary = grid.is_boundary()
    bc.kind[boundary] = BC_NEUMANN
    if grid.n_faces:
        gx = grid.face_centers_global()
        for cl in clauses:
            mask = boundary & (grid.face_bnd == cl.side) & ~mortar_mask
            if cl.box is not None:
                lo = np.asarray(cl.box[0], dtype=float)
                hi = np.asarray(cl.box[1], dtype=float)
                mask &= np.all((gx >= lo - _TOL) & (gx <= hi + _TOL), axis=1)
            kind = BC_DIRICHLET if cl.kind == "dirichlet" else BC_NEUMANN
            bc.kind[mask] = kind
            bc.value[mask] = cl.value
    bc.kind[mortar_mask] = BC_MORTAR
    bc.value[mortar_mask] = 0.0
    return bc


def _inherited_scalar(perms, apertures, fault_ids, component=None):
    """Mean material values over the faults meeting at an intersection."""
    kp = float(np.mean([np.mean(perms[f].k_perp) for f in fault_ids]))
    ap = float(np.mean([apertures[f] for f in fault_ids]))
    if component is None:
        kpar = float(
            np.mean([np.trace(perms[f].k_parallel) / perms[f].k_parallel.shape[0] for f in fault_ids])
        )
    else:
        kpar = float(np.mean([perms[f].k_parallel[component, component] for f in fault_ids]))
    return kp, ap, kpar


def build_problems(
    mesh: MixedDimMesh,
    materials: MaterialSet,
    bcs,
    sources=None,
    method: str = "auto",
):
    """Resolve materials and boundary data into per-entity problem records.

    Fault subdomains carry the Schur-eliminated effective tensor as their
    in-plane permeability; intersection subdomains inherit averaged values
    from the faults that meet there. Every interface's law is scaled to the
    codimension of its lower subdomain using the governing fault's data (the
    intersection's inherited data when several faults govern jointly).
    """
    perms = materials.fault_perms
    aps = materials.fault_apertures
    fault_laws = {}
    for f, (fp, a) in enumerate(zip(perms, aps)):
        law = scale_to_mixed_dim(fp, a, codim=1)
        ok, margin = check_wellposed(law)
        if not ok:
            raise InterfaceLawError(
                f"fault {f} violates the well-posedness condition (margin {margin:.6g})"
            )
        fault_laws[f] = law

    sub_problems = []
    for i, grid in enumerate(mesh.subdomains):
        info = mesh.info[i]
        d = grid.dim
        if info.kind == "matrix":
            perm = materials.matrix_perm(grid.cell_centers_global())
        elif info.kind == "fault":
            law = fault_laws[info.fault_ids[0]]
            eff = schur_effective_tensor(law)
            perm = np.tile(eff.tensor, (grid.n_cells, 1, 1))
        elif d > 0:  # intersection line
            along = int(np.argmax(np.abs(grid.frame_axes[0])))
            comp = _line_component(mesh, info.fault_ids, along)
            kp, ap, kpar = _inherited_scalar(perms, aps, info.fault_ids, comp)
            codim = mesh.dim - d
            perm = np.full((grid.n_cells, 1, 1), ap**codim * kpar)
        else:  # point: no internal flow
            perm = np.zeros((grid.n_cells, 0, 0))
        bc = boundary_condition_from_clauses(grid, bcs, mesh.mortar_face_mask(i))
        src = np.zeros(grid.n_cells)
        if sources is not None and sources[i] is not None:
            src = np.asarray(sources[i], dtype=float)
        sub_problems.append(SubdomainProblem(grid, perm, bc, src, method))

    itf_problems = []
    for itf in mesh.interfaces:
        lower = mesh.subdomains[itf.lower]
        codim = mesh.dim - lower.dim
        if itf.kind == "fault":
            law = fault_laws[itf.fault_id]
        else:
            fids = (
                (itf.fault_id,)
                if itf.fault_id >= 0
                else mesh.info[itf.lower].fault_ids
            )
            kp, ap, kpar = _inherited_scalar(perms, aps, fids)
            t = max(lower.dim, 1)
            synthetic = EquiDimFaultPerm(
                k_parallel=kpar * np.eye(t),
                k_perp=(kp, kp),
                k_t=(np.zeros(t), np.zeros(t)),
            )
            law = scale_to_mixed_dim(synthetic, ap, codim=codim)
            # Degenerate lower dimension: the law's tangential size must
            # match the lower grid (0 for points).
            if lower.dim == 0:
                law = MixedDimLaw(
                    kappa_parallel=np.zeros((0, 0)),
                    kappa_perp=law.kappa_perp,
                    kappa_t=(np.zeros(0), np.zeros(0)),
                    codim=codim,
                    aperture=ap,
                )
            ok, margin = check_wellposed(law)
            if not ok:
                raise InterfaceLawError(
                    f"intersection law violates well-posedness (margin {margin:.6g})"
                )
        itf_problems.append(InterfaceProblem(itf, law))
    return sub_problems, itf_problems


def _line_component(mesh: MixedDimMesh, fault_ids, along_axis: int) -> int:
    """Local in-plane index of the ambient axis a line runs along, within
    the first adjoining fault's frame (used to pick the tangential entry)."""
    # All fault frames use ambient axes in increasing order, so the local
    # index is the rank of the line axis among the fault's in-plane axes.
    for i, info in enumerate(mesh.info):
        if info.kind == "fault" and info.fault_ids[0] in fault_ids:
            axes = mesh.subdomains[i].frame_axes
            for k in range(axes.shape[0]):
                if abs(axes[k, along_axis]) > 0.5:
                    return k
    return 0


@dataclass
class GlobalSystem:
    """Assembled sparse system plus the maps needed for post-processing."""

    matrix: sps.csr_matrix
    rhs: np.ndarray
    mesh: MixedDimMesh
    problems: list
    iproblems: list
    ops: list
    p_offsets: np.ndarray
    lam_offsets: np.ndarray
    n_pressure: int
    g_bc: list  # per subdomain boundary-data vectors
    mortar_g: list  # per subdomain sparse map lambda -> imposed densities
    chi_map: list  # per subdomain sparse map lambda -> vector source
    div: list  # per subdomain divergence operators
    lam_cells: list  # per subdomain sparse map lambda -> cell inflow

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    def describe(self, k: int):
        """Map a global unknown index to its entity."""
        if k < 0 or k >= self.n_unknowns:
            raise IndexError(k)
        if k < self.n_pressure:
            i = int(np.searchsorted(self.p_offsets, k, side="right") - 1)
            return ("subdomain", i, k - int(self.p_offsets[i]))
        j = int(np.searchsorted(self.lam_offsets, k, side="right") - 1)
        return ("interface", j, k - int(self.lam_offsets[j]))


@dataclass
class MdSolution:
    """Solved fields: pressures and mortar fluxes, with reconstructed face
    fluxes, the effective boundary data, and the induced vector sources."""

    system: GlobalSystem
    pressures: list
    lambdas: list
    fluxes: list
    g_total: list
    chi: list
    residual: float


def _divergence(grid: CellGrid) -> sps.csr_matrix:
    nf, nc = grid.n_faces, grid.n_cells
    c1 = grid.face_cells[:, 1]
    inner = c1 >= 0
    rows = np.concatenate([grid.face_cells[:, 0], c1[inner]])
    cols = np.concatenate([np.arange(nf), np.where(inner)[0]])
    dat = np.concatenate([np.ones(nf), -np.ones(int(inner.sum()))])
    return sps.csr_matrix((dat, (rows, cols)), shape=(nc, nf))


def assemble_global(
    mesh: MixedDimMesh,
    materials: MaterialSet,
    bcs,
    sources=None,
    method: str = "auto",
) -> GlobalSystem:
    """Assemble the monolithic system over subdomain pressures and mortar
    fluxes. ``bcs`` is a list of :class:`BcClause`; ``sources`` an optional
    per-subdomain list of injection rate densities."""
    problems, iproblems = build_problems(mesh, materials, bcs, sources, method)
    return assemble_from_problems(mesh, problems, iproblems)


def assemble_from_problems(mesh, problems, iproblems) -> GlobalSystem:
    n_sub = len(problems)
    n_itf = len(iproblems)
    p_off = np.zeros(n_sub, dtype=int)
    acc = 0
    for i, pr in enumerate(problems):
        p_off[i] = acc
        acc += pr.grid.n_cells
    n_p = acc
    lam_off = np.zeros(n_itf, dtype=int)
    for j, ip in enumerate(iproblems):
        lam_off[j] = acc
        acc += ip.itf.n_mortar
    n_tot = acc
    n_lam = n_tot - n_p

    if not any(np.any(pr.bc.kind == BC_DIRICHLET) for pr in problems):
        raise AssemblyError(
            "system has no Dirichlet faces; pressure is determined only up "
            "to a constant"
        )

    ops = [discretize(pr.grid, pr.perm, pr.bc, pr.method) for pr in problems]
    div = [_divergence(pr.grid) for pr in problems]
    blocks = [assemble_interface_blocks(ip.itf, ip.law, problems[ip.itf.higher].grid) for ip in iproblems]

    # lambda-column maps per subdomain (global lambda columns 0..n_lam).
    mortar_g = []
    chi_map = []
    lam_cells = []
    for i, pr in enumerate(problems):
        grid = pr.grid
        rows_g, cols_g, dat_g = [], [], []
        rows_L, cols_L, dat_L = [], [], []
        contributions = []
        for j, ip in enumerate(iproblems):
            itf = ip.itf
            off = lam_off[j] - n_p
            if itf.higher == i:
                rows_g.append(itf.higher_faces)
                cols_g.append(off + np.arange(itf.n_mortar))
                dat_g.append(blocks[j].mg_coeff)
            if itf.lower == i:
                rows_L.append(itf.lower_cells)
                cols_L.append(off + np.arange(itf.n_mortar))
                dat_L.append(np.ones(itf.n_mortar))
                contributions.append(
                    (itf.lower_cells, blocks[j].chi_coeff, off)
                )
        def cat(rows, cols, dat, shape):
            if not rows:
                return sps.csr_matrix(shape)
            return sps.csr_matrix(
                (np.concatenate(dat), (np.concatenate(rows), np.concatenate(cols))),
                shape=shape,
            )
        mortar_g.append(cat(rows_g, cols_g, dat_g, (grid.n_faces, n_lam)))
        lam_cells.append(cat(rows_L, cols_L, dat_L, (grid.n_cells, n_lam)))
        if grid.dim > 0 and contributions:
            eff_inv = np.linalg.inv(pr.perm)
            chi_map.append(
                vector_source_from_mortar(grid, eff_inv, contributions, n_lam)
            )
        else:
            chi_map.append(sps.csr_matrix((grid.n_cells * grid.dim, n_lam)))

    A_parts = []
    rhs = np.zeros(n_tot)
    g_bc = [pr.bc.value.copy() for pr in problems]

    def place(block, r0, c0):
        coo = sps.coo_matrix(block)
        if coo.nnz:
            A_parts.append((coo.row + r0, coo.col + c0, coo.data))

    # Cell balance rows.
    for i, pr in enumerate(problems):
        op = ops[i]
        Dv = div[i]
        place(Dv @ op.flux_p, p_off[i], p_off[i])
        lam_block = Dv @ (op.flux_g @ mortar_g[i]) + lam_cells[i]
        if chi_map[i].nnz:
            lam_block = lam_block + Dv @ (op.flux_chi @ chi_map[i])
        place(lam_block, p_off[i], n_p)
        rhs[p_off[i] : p_off[i] + pr.grid.n_cells] = (
            pr.grid.cell_volumes * pr.source - Dv @ (op.flux_g @ g_bc[i])
        )

    # Mortar rows.
    for j, ip in enumerate(iproblems):
        itf = ip.itf
        nm = itf.n_mortar
        h, l = itf.higher, itf.lower
        oph, opl = ops[h], ops[l]
        t = problems[l].grid.dim
        DM = sps.diags(itf.measures)
        S = sps.csr_matrix(
            (np.ones(nm), (np.arange(nm), itf.higher_faces)),
            shape=(nm, problems[h].grid.n_faces),
        )
        C = sps.csr_matrix(
            (np.ones(nm), (np.arange(nm), itf.lower_cells)),
            shape=(nm, problems[l].grid.n_cells),
        )
        r0 = lam_off[j]

        # Higher-side trace terms.
        DMS = DM @ S
        place(DMS @ oph.trace_p, r0, p_off[h])
        lam_block = sps.csr_matrix(
            (blocks[j].d_inv, (np.arange(nm), (r0 - n_p) + np.arange(nm))),
            shape=(nm, n_lam),
        )
        lam_block = lam_block + DMS @ (oph.trace_g @ mortar_g[h])
        if chi_map[h].nnz:
            lam_block = lam_block + DMS @ (oph.trace_chi @ chi_map[h])
        rhs[r0 : r0 + nm] -= DMS @ (oph.trace_g @ g_bc[h])

        # Lower-side pressure and tangential-gradient terms.
        p_l_block = -DM @ C
        if t > 0 and np.any(blocks[j].grad_coeff):
            rows = np.repeat(np.arange(nm), t)
            cols = (itf.lower_cells[:, None] * t + np.arange(t)[None, :]).ravel()
            E = sps.csr_matrix(
                (blocks[j].grad_coeff.ravel(), (rows, cols)),
                shape=(nm, problems[l].grid.n_cells * t),
            )
            ERl = E @ opl.grad_rec
            p_l_block = p_l_block + ERl @ opl.flux_p
            lam_block = lam_block + ERl @ (opl.flux_g @ mortar_g[l])
            gradchi = ERl @ opl.flux_chi - E
            if chi_map[l].nnz:
                lam_block = lam_block + gradchi @ chi_map[l]
            rhs[r0 : r0 + nm] -= ERl @ (opl.flux_g @ g_bc[l])
        place(p_l_block, r0, p_off[l])
        place(lam_block, r0, n_p)

    rows = np.concatenate([p[0] for p in A_parts])
    cols = np.concatenate([p[1] for p in A_parts])
    dat = np.concatenate([p[2] for p in A_parts])
    A = sps.csr_matrix((dat, (rows, cols)), shape=(n_tot, n_tot))

    logger.info(
        "assembled system: %d pressures, %d mortar fluxes, %d nonzeros",
        n_p,
        n_lam,
        A.nnz,
    )
    return GlobalSystem(
        matrix=A,
        rhs=rhs,
        mesh=mesh,
        problems=problems,
        iproblems=iproblems,
        ops=ops,
        p_offsets=p_off,
        lam_offsets=lam_off,
        n_pressure=n_p,
        g_bc=g_bc,
        mortar_g=mortar_g,
        chi_map=chi_map,
        div=div,
        lam_cells=lam_cells,
    )


#: Largest group of unknowns the nested-dissection bisection leaves unsplit.
_ND_LEAF = 64


def _unknown_coordinates(system: GlobalSystem) -> np.ndarray:
    """Ambient position of every unknown, in global order: a pressure sits
    at its cell center, a mortar flux at its lower cell's center."""
    centers = [pr.grid.cell_centers_global() for pr in system.problems]
    mortars = [centers[ip.itf.lower][ip.itf.lower_cells] for ip in system.iproblems]
    return np.vstack(centers + mortars)


def _bisection_paths(
    xyz: np.ndarray, A: sps.spmatrix, leaf_size: int = _ND_LEAF
) -> np.ndarray:
    """Recursive coordinate bisection of the unknowns at ``xyz``, coupled
    where |A| + |A|^T has an entry.

    Returns one row per bisection level and one column per unknown. A digit
    is 0 or 1 while the unknown lies in the left or right part of its group,
    2 at the level where it joins its group's separator, and -1 once it rests
    in a separator or in a leaf of at most ``leaf_size`` unknowns.

    All groups of one level split at once, each at the median coordinate of
    its longest axis. Unknowns with equal coordinates stay on one side, so
    whole grid planes do. The separator is the set of left unknowns coupled
    to a right one, so the two remaining parts share no edge.
    """
    n, dim = xyz.shape
    group = np.zeros(n, dtype=np.int64)  # -1 once placed
    coo = A.tocoo()
    off = coo.row != coo.col
    rows = np.concatenate([coo.row[off], coo.col[off]])
    cols = np.concatenate([coo.col[off], coo.row[off]])
    levels = []
    while True:
        active = np.flatnonzero(group >= 0)
        if active.size == 0:
            break
        inner = (group[rows] >= 0) & (group[rows] == group[cols])
        rows, cols = rows[inner], cols[inner]
        g = group[active]
        n_groups = int(g.max()) + 1
        size = np.bincount(g, minlength=n_groups)
        lo = np.full((n_groups, dim), np.inf)
        hi = np.full((n_groups, dim), -np.inf)
        np.minimum.at(lo, g, xyz[active])
        np.maximum.at(hi, g, xyz[active])
        extent = hi - lo
        axis = extent.argmax(axis=1)
        split = (size > leaf_size) & (extent.max(axis=1) > 0)

        c = xyz[active, axis[g]]
        order = np.lexsort((c, g))
        start = np.cumsum(size) - size
        first = c[order[start]][g]
        median = c[order[start + size // 2]][g]
        # Below the median, unless more than half the group lies on its
        # lowest plane; then that plane alone.
        right = np.where(median > first, c >= median, c > median)

        splitting = np.zeros(n, dtype=bool)
        splitting[active] = split[g]
        is_right = np.zeros(n, dtype=bool)
        is_right[active] = right
        cut = splitting[rows] & ~is_right[rows] & is_right[cols]
        separator = np.zeros(n, dtype=bool)
        separator[rows[cut]] = True

        digit = np.full(n, -1, dtype=np.int8)
        digit[splitting] = is_right[splitting]
        digit[separator] = 2
        levels.append(digit)

        child = np.where(splitting & ~separator, 2 * group + is_right, -1)
        live = child >= 0
        group = np.full(n, -1, dtype=np.int64)
        group[live] = np.unique(child[live], return_inverse=True)[1]
    return np.array(levels, dtype=np.int8)


def _nested_dissection(system: GlobalSystem, leaf_size: int = _ND_LEAF) -> np.ndarray:
    """Nested-dissection order of the system's unknowns: the post-order
    (left, right, separator) of the tree of :func:`_bisection_paths`."""
    paths = _bisection_paths(_unknown_coordinates(system), system.matrix, leaf_size)
    return np.lexsort(paths[::-1])


def _relative_residual(A, b, x) -> float:
    return float(np.linalg.norm(b - A @ x)) / max(float(np.linalg.norm(b)), 1.0)


def _lu_solve(A, b, perm=None):
    """Sparse LU solve; returns the solution, the stored factor entries and
    the factorization time.

    Without ``perm`` SuperLU orders the columns by COLAMD with its default
    partial pivoting. With ``perm`` it factors ``A[perm][:, perm]`` in that
    order, preferring diagonal pivots but taking an off-diagonal one when the
    diagonal entry falls below 0.01 of its column's largest.
    """
    t0 = time.perf_counter()
    if perm is None:
        lu = spla.splu(A.tocsc())
        t = time.perf_counter() - t0
        return lu.solve(b), lu.nnz, t
    lu = spla.splu(
        A[perm][:, perm].tocsc(),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.01,
        options=dict(SymmetricMode=True),
    )
    t = time.perf_counter() - t0
    x = np.empty_like(b)
    x[perm] = lu.solve(b[perm])
    return x, lu.nnz, t


def _log_factor(ordering: str, seconds: float, lu_nnz: int) -> None:
    logger.info(
        "direct solve: ordering %s, factor %.3f s, LU nnz %d", ordering, seconds, lu_nnz
    )


def _solve_direct(system: GlobalSystem, tol: float) -> np.ndarray:
    """Sparse LU, nested-dissection ordered in 3D; COLAMD in 2D and
    whenever the ordered factorization fails or misses ``tol``."""
    A, b = system.matrix, system.rhs
    fallback = None
    if system.mesh.dim == 3:
        perm = _nested_dissection(system)
        try:
            x, lu_nnz, t = _lu_solve(A, b, perm)
        except RuntimeError as exc:
            fallback = f"factorization failed: {exc}"
        else:
            residual = _relative_residual(A, b, x)
            if residual <= tol:
                _log_factor("nested-dissection", t, lu_nnz)
                return x
            fallback = f"residual {residual:.1e}"
    try:
        x, lu_nnz, t = _lu_solve(A, b)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    ordering = "colamd" if fallback is None else f"colamd (fallback: {fallback})"
    _log_factor(ordering, t, lu_nnz)
    return x


def solve(system: GlobalSystem, tol: float = 1e-10) -> MdSolution:
    """Solve the assembled system by sparse LU and reconstruct conservative
    fluxes.

    3D systems are ordered by geometric nested dissection and factored with
    threshold pivoting. If that factorization fails, or its relative
    residual exceeds ``tol``, the solver refactors with SuperLU's COLAMD
    ordering, which 2D systems use from the start. A final residual above
    1e-6 raises :class:`SolverError`.
    """
    A = system.matrix
    b = system.rhs
    x = _solve_direct(system, tol)
    residual = _relative_residual(A, b, x)
    if residual > 1e-6:
        raise SolverError(f"solution residual too large: {residual:.3e}")

    n_p = system.n_pressure
    lam = x[n_p:]
    pressures, fluxes, g_total, chi, lambdas = [], [], [], [], []
    for i, pr in enumerate(system.problems):
        p = x[system.p_offsets[i] : system.p_offsets[i] + pr.grid.n_cells]
        g = system.g_bc[i] + system.mortar_g[i] @ lam
        ch = system.chi_map[i] @ lam
        op = system.ops[i]
        q = op.flux_p @ p + op.flux_g @ g
        if ch.size:
            q = q + op.flux_chi @ ch
        pressures.append(p)
        fluxes.append(q)
        g_total.append(g)
        chi.append(ch)
    for j, ip in enumerate(system.iproblems):
        lambdas.append(
            x[system.lam_offsets[j] : system.lam_offsets[j] + ip.itf.n_mortar]
        )

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
        g_total=g_total,
        chi=chi,
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
    n_lam = sys_.matrix.shape[0] - sys_.n_pressure
    lam_all = np.concatenate(sol.lambdas) if sol.lambdas else np.zeros(n_lam)
    report = {"subdomains": [], "scale": 0.0}
    total_boundary = 0.0
    total_source = 0.0
    scale = 0.0
    for i, pr in enumerate(sys_.problems):
        Dv = sys_.div[i]
        resid = Dv @ sol.fluxes[i] + sys_.lam_cells[i] @ lam_all - pr.grid.cell_volumes * pr.source
        worst = float(np.abs(resid).max()) if resid.size else 0.0
        report["subdomains"].append({"id": i, "max_residual": worst})
        scale = max(scale, float(np.abs(sol.fluxes[i]).max()) if sol.fluxes[i].size else 0.0)
        ext = pr.grid.is_boundary() & ~_mortar_mask(sys_, i)
        total_boundary += float(sol.fluxes[i][ext].sum())
        total_source += float((pr.grid.cell_volumes * pr.source).sum())
    report["scale"] = scale if scale > 0 else 1.0
    report["global_residual"] = abs(total_boundary - total_source)
    report["boundary_outflow"] = total_boundary
    report["total_source"] = total_source
    report["max_cell_residual"] = max(
        s["max_residual"] for s in report["subdomains"]
    )
    return report


def _mortar_mask(system: GlobalSystem, i: int) -> np.ndarray:
    mask = np.zeros(system.problems[i].grid.n_faces, dtype=bool)
    for ip in system.iproblems:
        if ip.itf.higher == i:
            mask[ip.itf.higher_faces] = True
    return mask
