"""Finite volume discretization of Darcy flow on Cartesian cell grids.

Each subdomain grid is discretized independently into sparse operators that
map cell pressures ``p``, per-face boundary data ``g``, and a cell-wise
vector source ``chi`` to face fluxes and face pressure traces:

    flux  = flux_p  @ p + flux_g  @ g + flux_chi  @ chi
    trace = trace_p @ p + trace_g @ g + trace_chi @ chi

``g`` holds one slot per face: the pressure value at Dirichlet faces and the
imposed outward flux density at Neumann and internal (mortar) faces; unused
slots are ignored. ``chi`` is the flattened (n_cells * dim) vector source
entering the Darcy law as q = -K (grad p + chi).

:func:`discretize` picks the scheme from the tensors. Two-point flux (TPFA)
is consistent only for grid-aligned (diagonal) tensors and rejects any
other; on such tensors and Cartesian cells the multi-point O-scheme (MPFA)
reduces to it, sub-face by sub-face. Every grid therefore gets the
two-point operator, point grids included (they have no faces, so every
operator is empty). On a 2d grid with a full tensor, where MPFA recovers
convergence, the O-scheme's rows replace the two-point rows of the faces of
a cell whose tensor is full, except the rows that read no tensor: the flux
of an imposed-flux face and the trace of a Dirichlet face. A full tensor on
a 3d grid is an error. Both schemes produce the same operator shapes and
are interchangeable downstream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

from .mdmesh import CellGrid

logger = logging.getLogger(__name__)

#: Boundary condition kinds, one per face. Interior faces keep NONE.
BC_NONE, BC_DIRICHLET, BC_NEUMANN, BC_MORTAR = 0, 1, 2, 3


class DiscretizationError(Exception):
    """Invalid permeability data or unsupported grid structure."""


@dataclass
class BoundaryCondition:
    """Per-face condition kinds and data values for one grid."""

    kind: np.ndarray
    value: np.ndarray

    @classmethod
    def empty(cls, grid: CellGrid) -> "BoundaryCondition":
        return cls(
            kind=np.zeros(grid.n_faces, dtype=np.int8),
            value=np.zeros(grid.n_faces),
        )

    def imposed_flux(self) -> np.ndarray:
        """Mask of faces whose flux is prescribed (Neumann or mortar)."""
        return (self.kind == BC_NEUMANN) | (self.kind == BC_MORTAR)


@dataclass
class DiscreteOperator:
    """Assembled flux and trace operators for one grid."""

    flux_p: sps.csr_matrix
    flux_g: sps.csr_matrix
    flux_chi: sps.csr_matrix
    trace_p: sps.csr_matrix
    trace_g: sps.csr_matrix
    trace_chi: sps.csr_matrix
    #: number of faces whose rows come from the multi-point O-scheme
    multipoint_faces: int

    @property
    def scheme(self) -> str:
        """"MPFA" if any face takes multi-point rows, else "TPFA"."""
        return "MPFA" if self.multipoint_faces else "TPFA"


def _check_perm(grid: CellGrid, perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm, dtype=float)
    d = grid.dim
    if perm.shape != (grid.n_cells, d, d):
        raise DiscretizationError(
            f"permeability must have shape ({grid.n_cells}, {d}, {d}), got {perm.shape}"
        )
    return perm


def _check_bc(grid: CellGrid, bc: BoundaryCondition) -> None:
    if bc.kind.shape != (grid.n_faces,) or bc.value.shape != (grid.n_faces,):
        raise DiscretizationError(
            f"boundary condition arrays must have length {grid.n_faces}"
        )
    unknown = ~np.isin(bc.kind, (BC_NONE, BC_DIRICHLET, BC_NEUMANN, BC_MORTAR))
    if np.any(unknown):
        raise DiscretizationError(
            f"unknown boundary condition kind {int(bc.kind[unknown][0])} "
            f"on {int(unknown.sum())} faces"
        )
    boundary = grid.is_boundary()
    unset = boundary & (bc.kind == BC_NONE)
    if np.any(unset):
        raise DiscretizationError(
            f"{int(unset.sum())} boundary faces have no boundary condition"
        )
    misplaced = ~boundary & (bc.kind != BC_NONE)
    if np.any(misplaced):
        raise DiscretizationError("boundary condition set on an interior face")


# ---------------------------------------------------------------------------
# TPFA
# ---------------------------------------------------------------------------


def tpfa_discretize(grid: CellGrid, perm: np.ndarray, bc: BoundaryCondition) -> DiscreteOperator:
    """Two-point flux operators with half-cell harmonic transmissibilities.

    The flux through an interior face with neighbors 0, 1 along the face
    normal is ``T (p0 - p1) - A (a1 w0 + a0 w1) / (a0 + a1)`` where
    ``a_i = (n K_i n) / d_i`` are half transmissibility densities,
    ``w_i = n . K_i chi_i``, and ``T = A a0 a1 / (a0 + a1)``.

    The two-point flux misses the cross terms of a full tensor, so a cell
    whose off-diagonal entries exceed 1e-12 of its largest diagonal entry
    raises :class:`DiscretizationError`. With grid-aligned tensors ``w_i``
    takes only the component of ``chi_i`` on the face's axis, so every
    operator row has at most two entries and none is a stored zero.
    """
    perm = _check_perm(grid, perm)
    skew = _skewed_cells(perm)
    if skew.size:
        raise DiscretizationError(
            f"TPFA needs grid-aligned (diagonal) permeability tensors; {skew.size} cells "
            f"have off-diagonal entries, the first is cell {skew[0]}"
        )
    _check_bc(grid, bc)
    return _tpfa(grid, perm, bc, np.zeros(grid.n_faces, dtype=bool))


def _tpfa(grid: CellGrid, perm: np.ndarray, bc: BoundaryCondition, near) -> DiscreteOperator:
    """:func:`tpfa_discretize` on checked data; reads only the tensors'
    diagonals. On the faces ``near`` it keeps only the rows that read no
    tensor: the flux ``g * area`` of an imposed-flux face and the trace
    ``g`` of a Dirichlet face."""
    nf, nc, d = grid.n_faces, grid.n_cells, grid.dim
    faces = np.arange(nf)
    axis = grid.face_axis
    at = faces * d + axis  # flat index of each face's axis entry in (n_faces, d) arrays
    n = grid.face_sign[:, None]
    # (n_faces, 2) arrays over a face's first and second cell; -1 marks a
    # missing second cell, and its entries are never kept. The chi column
    # of a cell's face-axis component is its flat index in (n_cells, d) arrays.
    cells = grid.face_cells
    has = cells >= 0
    chi = np.where(has, cells * d + axis[:, None], -1)
    kn = n * np.diagonal(perm, axis1=1, axis2=2).ravel()[chi]  # n^T K_c, on the face axis only
    k = kn * n
    dist = np.abs(grid.face_centers.ravel()[at][:, None] - grid.cell_centers.ravel()[chi])
    if np.any(has & ((k <= 0) | (dist <= 0))):
        raise DiscretizationError("nonpositive normal permeability or distance")
    a0, a1 = np.where(has, k / np.where(has, dist, 1.0), 0.0).T
    kn0, kn1 = kn.T
    face_col = np.stack([faces, np.full(nf, -1)], axis=1)

    area = grid.face_areas
    inner = has[:, 1]
    dirichlet = bc.kind == BC_DIRICHLET
    imposed = bc.imposed_flux()
    s = a0 + a1
    T = area * a0 * a1 / s
    far, none = ~near, np.zeros(nf, dtype=bool)
    flux_keep = np.stack([(inner | dirichlet) & far, inner & far], axis=1)
    trace_keep = np.stack([(inner | imposed) & far, inner & far], axis=1)
    flux_g_keep = np.stack([dirichlet & far | imposed, none], axis=1)
    trace_g_keep = np.stack([dirichlet | imposed & far, none], axis=1)
    # Traces pi = (a0 p0 + a1 p1 + w1 - w0) / (a0 + a1) inside, g at
    # Dirichlet faces and p0 - (g + w0) / a0 at imposed-flux faces.
    return DiscreteOperator(
        flux_p=_face_rows(cells, np.where(inner, T, area * a0), -T, flux_keep, nc),
        flux_g=_face_rows(
            face_col, np.where(dirichlet, -(area * a0), area), 0.0, flux_g_keep, nf
        ),
        flux_chi=_face_rows(
            chi, np.where(inner, -(area * a1 / s) * kn0, -area * kn0),
            -(area * a0 / s) * kn1, flux_keep, nc * d,
        ),
        trace_p=_face_rows(cells, np.where(inner, a0 / s, 1.0), a1 / s, trace_keep, nc),
        trace_g=_face_rows(face_col, np.where(dirichlet, 1.0, -1.0 / a0), 0.0, trace_g_keep, nf),
        trace_chi=_face_rows(
            chi, np.where(inner, -kn0 / s, -kn0 / a0), kn1 / s, trace_keep, nc * d
        ),
        multipoint_faces=0,
    )


def _face_rows(cols, v0, v1, keep, n_cols) -> sps.csr_matrix:
    """CSR matrix whose row f holds the entries ``keep[f]`` of the (n, 2)
    columns ``cols`` with values ``(v0[f], v1[f])``, in column order."""
    flags = keep.view(np.uint8)
    count = flags[:, 0] + flags[:, 1]
    indptr = np.concatenate([[0], np.cumsum(count, dtype=np.int64)])
    vals = np.empty(keep.shape)
    vals[:, 0], vals[:, 1] = v0, v1
    indices, data = cols[keep], vals[keep]
    # Rows that keep both entries with the larger column first swap them.
    at = indptr[np.flatnonzero((count == 2) & (cols[:, 0] > cols[:, 1]))]
    indices[at], indices[at + 1] = indices[at + 1], indices[at]
    data[at], data[at + 1] = data[at + 1], data[at]
    return sps.csr_matrix((data, indices, indptr), shape=(keep.shape[0], n_cols))


def _gradient_reconstruction(grid: CellGrid, perm: np.ndarray) -> sps.csr_matrix:
    """Least-squares map from face fluxes to per-cell (grad p + chi).

    Minimizes over u the misfit between -n.K_c u and the outward flux
    densities q_f / A_f of the cell's faces; exact whenever the fluxes
    derive from a cell-constant u. A Cartesian cell has one face on each
    side of every axis, so the normal equations solve to
    ``u = -K_c^{-1} (1/2) sum_f n_f q_f / A_f``.
    """
    d = grid.dim
    fc = grid.face_cells
    inner = np.flatnonzero(fc[:, 1] >= 0)
    face = np.concatenate([np.arange(grid.n_faces), inner])
    cell = np.concatenate([fc[:, 0], fc[inner, 1]])
    axis = grid.face_axis[face]
    coeff = (-0.5 * grid.face_sign[face] / grid.face_areas[face])[:, None] * (
        np.linalg.inv(perm)[cell, :, axis]
    )
    keep = coeff != 0.0
    rows = cell[:, None] * d + np.arange(d)
    return sps.csr_matrix(
        (coeff[keep], (rows[keep], np.broadcast_to(face[:, None], keep.shape)[keep])),
        shape=(grid.n_cells * d, grid.n_faces),
    )


def _skewed_cells(perm: np.ndarray) -> np.ndarray:
    """Cells whose off-diagonal entries exceed 1e-12 of their largest
    diagonal entry, i.e. whose tensor is not grid-aligned."""
    n, d = perm.shape[:2]
    entries = np.abs(perm.reshape(n, d * d))
    diag = np.eye(d, dtype=bool).ravel()
    off = entries[:, ~diag].max(axis=1, initial=0.0)
    return np.flatnonzero(off > 1e-12 * entries[:, diag].max(axis=1, initial=0.0))


def discretize(grid, perm, bc) -> DiscreteOperator:
    """MPFA on the faces of a 2d grid's cells whose tensor is not
    grid-aligned, TPFA everywhere else.

    Both cells of every other face are grid-aligned, so each cell's normal
    flux there reads only the gradient along the face's axis. The flux
    continuity of each of its sub-faces is then two-point, whatever the
    other cells of the interaction region, and :func:`mpfa_discretize`
    gives the same operators up to roundoff.
    """
    if grid.dim == 2:
        perm = _check_perm(grid, perm)
        skew = _skewed_cells(perm)
        if skew.size:
            return _mpfa(grid, perm, bc, skew)
    return tpfa_discretize(grid, perm, bc)


# ---------------------------------------------------------------------------
# MPFA (O-scheme, 2d grids)
# ---------------------------------------------------------------------------


def mpfa_discretize(grid: CellGrid, perm: np.ndarray, bc: BoundaryCondition) -> DiscreteOperator:
    """Multi-point flux operators on a 2d Cartesian grid with slits, with
    the O-scheme on every face.

    A corner is a (node, cell) pair; it meets exactly two of the cell's faces
    at the node (sub-faces). Corners joined through interior sub-faces form an
    interaction region, so slit faces split a node's star into independent
    regions (one per side of a fault, one per quadrant at a crossing) and a
    fault tip leaves one region of four cells and five sub-faces.
    Sub-face continuity pressures are the local unknowns; cell-wise gradients
    are expressed through them, flux continuity and boundary conditions close
    the local system, and its solution yields each sub-face's flux and trace
    contribution. Continuity points sit at face centers, which reproduces
    face-constant Dirichlet data pointwise and makes the stencil collapse to
    the two-point one for isotropic permeability on Cartesian grids.

    Every node goes through the same region kernel, which solves each
    region's own local system, batched by size, and the operators store
    only nonzero coefficients. :func:`discretize` runs the kernel only on
    the faces of full-tensor cells; this function is its reference.
    """
    return _mpfa(grid, perm, bc, np.arange(grid.n_cells))


def _mpfa(grid, perm, bc, cells) -> DiscreteOperator:
    """O-scheme rows on the faces of ``cells`` where they read the tensors,
    two-point rows from the tensors' diagonals everywhere else."""
    if grid.dim != 2:
        raise DiscretizationError("the MPFA implementation covers 2d grids only")
    perm = _check_perm(grid, perm)
    _check_bc(grid, bc)

    # Near faces: those of one of the cells. A -1 second cell reads the
    # extra False slot.
    mark = np.zeros(grid.n_cells + 1, dtype=bool)
    mark[cells] = True
    near = mark[grid.face_cells].any(axis=1)

    # The two operators share no row, so each sum copies its entries; it
    # drops the zeros where the two sub-faces of a face cancel.
    two_point = _tpfa(grid, perm, bc, near)
    ops = {
        name: getattr(two_point, name)
        + sps.csr_matrix((val, rows_cols), shape=getattr(two_point, name).shape)
        for name, (val, rows_cols) in _mpfa_regions(grid, perm, bc, near).items()
    }
    return DiscreteOperator(multipoint_faces=int(near.sum()), **ops)


def _ragged(counts):
    """Owner and within-owner position of every slot of ragged rows."""
    owner = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


def _mpfa_regions(grid, perm, bc, near):
    """O-scheme flux and trace entries of the faces ``near``, from the
    interaction regions at their nodes; each region is whole, since it never
    leaves its node.

    A region's local system has one row and one unknown (continuity
    pressure) per sub-face, numbered by face id, and right-hand-side columns
    for its cells' pressures (cells numbered by id), its faces' boundary
    data and its cells' vector sources, in that order. Regions are sorted by
    their (sub-face, cell) counts, so each group of equal counts is a
    contiguous batch with one solve.

    Returns per operator the nonzero entries of the near faces' sub-faces
    as (values, (faces, global columns)); the two sub-faces of a face
    repeat its row. Arrays prefixed ``s_`` hold one entry per sub-face (a
    (node, face) pair of the grid's ``face_nodes``), ``i_`` per
    sub-face/corner incidence and ``k_`` per corner.
    """
    nc = grid.n_cells
    fcells = grid.face_cells
    at_node = np.zeros(grid.face_nodes.max() + 1, dtype=bool)
    at_node[grid.face_nodes[near]] = True
    sub = np.flatnonzero(at_node[grid.face_nodes.ravel()])
    s_node = grid.face_nodes.ravel()[sub]
    ns = sub.size
    s_face = sub // 2  # face_nodes holds two nodes per face
    inner = fcells[s_face, 1] >= 0
    s_dir = bc.kind[s_face] == BC_DIRICHLET
    s_imp = bc.imposed_flux()[s_face]
    s_half = grid.face_areas[s_face] / 2.0

    # Corners: a sub-face meets the corner of its face's first cell and, if
    # interior, of its second. A grid's cells are closed on its lattice, so
    # every corner meets exactly two sub-faces.
    i_sub = np.concatenate([np.arange(ns), np.flatnonzero(inner)])
    i_cell = np.concatenate([fcells[s_face, 0], fcells[s_face[inner], 1]])
    key, i_corner = np.unique(
        s_node[i_sub].astype(np.int64) * nc + i_cell, return_inverse=True
    )
    n_corner = key.size
    k_cell = key % nc
    k_sub = i_sub[np.lexsort((s_face[i_sub], i_corner))].reshape(n_corner, 2)
    first, second = i_corner[:ns], i_corner[ns:]

    # Regions are the components of corners joined by interior sub-faces;
    # relabel them in (sub-face count, cell count) order.
    graph = sps.csr_matrix(
        (np.ones(second.size), (first[inner], second)), shape=(n_corner, n_corner)
    )
    n_reg, k_reg = connected_components(graph, directed=False)
    n_u = np.bincount(k_reg[first], minlength=n_reg)
    n_c = np.bincount(k_reg, minlength=n_reg)
    rank = np.lexsort((n_c, n_u))
    relabel = np.empty(n_reg, dtype=int)
    relabel[rank] = np.arange(n_reg)
    k_reg, n_u, n_c = relabel[k_reg], n_u[rank], n_c[rank]
    s_reg = k_reg[first]

    def local(reg, ids, sizes):
        order = np.lexsort((ids, reg))
        loc = np.empty(reg.size, dtype=int)
        loc[order] = np.arange(reg.size) - (np.cumsum(sizes) - sizes)[reg[order]]
        return loc

    s_loc = local(s_reg, s_face, n_u)
    k_loc = local(k_reg, k_cell, n_c)

    # Faces are normal to a grid axis. A normal points away from the face's
    # first cell, so a face lies on the high side of that cell iff its
    # normal points up the axis, and on the low side of the second cell.
    # A corner's gradient basis M has the offsets +-w/2 from its cell center
    # to its two sub-faces' face centers as rows. The two sub-faces lie on
    # different axes, so M inverts entry by entry into its transpose.
    s_axis = grid.face_axis[s_face]
    s_up = grid.face_sign[s_face] > 0
    high = (first[k_sub] == np.arange(n_corner)[:, None]) == s_up[k_sub]
    ax, n = s_axis[k_sub], np.arange(n_corner)[:, None]
    Minv = np.zeros((n_corner, 2, 2))
    Minv[n, ax, [0, 1]] = 1.0 / (np.where(high, 0.5, -0.5) * grid.cell_widths[k_cell][n, ax])

    def normal_flux(s, cells):
        """Rows n^T K of the cells for the stored normals of the sub-faces."""
        return np.where(s_up[s], 1.0, -1.0)[:, None] * perm[cells, s_axis[s]]

    w = 3 * n_c + n_u  # right-hand-side columns: cells, faces, chi pairs
    off_a = np.cumsum(n_u * n_u) - n_u * n_u
    off_r = np.cumsum(n_u * w) - n_u * w

    # Flux-continuity terms sign * n^T K_c (Minv (pi - p_c) + chi_c), one per
    # corner of an interior sub-face, and -(A_f/2) n^T K_c (...) at
    # imposed-flux sub-faces; Dirichlet sub-faces pin their unknown.
    fac = np.concatenate(
        [np.where(inner, 1.0, np.where(s_imp, -s_half, 0.0)), np.full(second.size, -1.0)]
    )
    t = np.flatnonzero(fac != 0.0)
    ts, tk = i_sub[t], i_corner[t]
    r = fac[t, None] * normal_flux(ts, k_cell[tk])
    rM = np.einsum("tj,tjk->tk", r, Minv[tk])
    g = s_reg[ts]
    row_a = off_a[g] + s_loc[ts] * n_u[g]
    row_r = off_r[g] + s_loc[ts] * w[g]
    xc = row_r + n_c[g] + n_u[g] + 2 * k_loc[tk]
    pin = np.flatnonzero(s_dir)
    data = np.flatnonzero(s_dir | s_imp)
    A = np.bincount(
        np.concatenate(
            [row_a + s_loc[k_sub[tk, 0]], row_a + s_loc[k_sub[tk, 1]],
             off_a[s_reg[pin]] + s_loc[pin] * (n_u[s_reg[pin]] + 1)]
        ),
        np.concatenate([rM[:, 0], rM[:, 1], np.ones(pin.size)]),
        minlength=int(n_u @ n_u),
    )
    g = s_reg[data]
    R = np.bincount(
        np.concatenate(
            [row_r + k_loc[tk], xc, xc + 1,
             off_r[g] + s_loc[data] * w[g] + n_c[g] + s_loc[data]]
        ),
        np.concatenate(
            [rM.sum(axis=1), -r[:, 0], -r[:, 1], np.where(s_dir, 1.0, s_half)[data]]
        ),
        minlength=int(w @ n_u),
    )

    # One batched solve per group of equal counts; S = A^{-1} R in R's layout.
    S = np.empty_like(R)
    cuts = np.flatnonzero(np.diff(n_u) | np.diff(n_c)) + 1
    for r0, r1 in zip(np.r_[0, cuts], np.r_[cuts, n_reg]):
        u, wr, G = n_u[r0], w[r0], r1 - r0
        a = A[off_a[r0] : off_a[r0] + G * u * u].reshape(G, u, u)
        b = slice(off_r[r0], off_r[r0] + G * u * wr)
        S[b] = np.linalg.solve(a, R[b].reshape(G, u, wr)).ravel()

    # Each right-hand-side column's global column and operator: a cell, a
    # face, or a cell's chi component.
    off_w = np.cumsum(w) - w
    col = np.empty(int(w.sum()), dtype=int)
    kind = np.empty_like(col)
    at = off_w[k_reg] + k_loc
    col[at], kind[at] = k_cell, 0
    at = off_w[s_reg] + n_c[s_reg] + s_loc
    col[at], kind[at] = s_face, 1
    at = off_w[k_reg] + n_c[k_reg] + n_u[k_reg] + 2 * k_loc
    col[at], col[at + 1] = 2 * k_cell, 2 * k_cell + 1
    kind[at] = kind[at + 1] = 2

    entries = {}

    def slots(sel):
        """Index into ``sel``, region and local column of every
        right-hand-side slot of the sub-faces ``sel``; each one's first slot."""
        width = w[s_reg[sel]]
        o, c = _ragged(width)
        return o, s_reg[sel][o], c, np.cumsum(width) - width

    def keep(sel, o, g, c, values, names):
        """Keep the nonzero slot values as entries of the sub-faces' face
        rows in the cell, face and chi operators."""
        at = off_w[g] + c
        nonzero, slot_kind = values != 0.0, kind[at]
        for k, name in enumerate(names):
            m = nonzero & (slot_kind == k)
            entries[name] = (values[m], (s_face[sel[o[m]]], col[at[m]]))

    # Traces: each face trace is the mean of its two sub-face pressures;
    # Dirichlet faces keep their two-point trace g.
    on = near[s_face]
    sel = np.flatnonzero(on & ~s_dir)
    o, g, c, _ = slots(sel)
    keep(sel, o, g, c, 0.5 * S[off_r[g] + s_loc[sel][o] * w[g] + c],
         ("trace_p", "trace_g", "trace_chi"))

    # Fluxes, evaluated from the first cell with the stored face normal:
    # -(A_f/2) n^T K_c0 (Minv (pi - p_c0) + chi_c0). Imposed-flux faces
    # keep their two-point flux g * area.
    sel = np.flatnonzero(on & ~s_imp)
    k0 = first[sel]
    r = normal_flux(sel, k_cell[k0])
    rM = np.einsum("tj,tjk->tk", r, Minv[k0])
    o, g, c, start = slots(sel)
    vals = sum(
        rM[o, m] * S[off_r[g] + s_loc[k_sub[k0, m]][o] * w[g] + c] for m in range(2)
    )
    vals[start + k_loc[k0]] -= rM.sum(axis=1)
    xc = start + n_c[s_reg[sel]] + n_u[s_reg[sel]] + 2 * k_loc[k0]
    vals[xc] += r[:, 0]
    vals[xc + 1] += r[:, 1]
    keep(sel, o, g, c, -s_half[sel][o] * vals, ("flux_p", "flux_g", "flux_chi"))
    return entries
