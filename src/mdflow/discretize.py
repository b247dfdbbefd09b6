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

Two-point flux (TPFA) is used on 1d and 3d grids. It is consistent only
for grid-aligned (diagonal) tensors and rejects any other; the multi-point
O-scheme (MPFA) on 2d grids recovers convergence for full permeability
tensors. Both produce the same operator shapes and are interchangeable
downstream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

from .mdmesh import CellGrid, MeshError

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

    grid: CellGrid
    flux_p: sps.csr_matrix
    flux_g: sps.csr_matrix
    flux_chi: sps.csr_matrix
    trace_p: sps.csr_matrix
    trace_g: sps.csr_matrix
    trace_chi: sps.csr_matrix
    grad_rec: sps.csr_matrix


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


def isotropic_perm(grid: CellGrid, value) -> np.ndarray:
    """Per-cell isotropic tensor field from a scalar or per-cell array."""
    v = np.broadcast_to(np.asarray(value, dtype=float), (grid.n_cells,))
    return v[:, None, None] * np.eye(grid.dim)[None, :, :]


def _empty_operator(grid: CellGrid) -> DiscreteOperator:
    nf, nc, d = grid.n_faces, grid.n_cells, grid.dim
    z = lambda shape: sps.csr_matrix(shape)
    return DiscreteOperator(
        grid=grid,
        flux_p=z((nf, nc)),
        flux_g=z((nf, nf)),
        flux_chi=z((nf, nc * d)),
        trace_p=z((nf, nc)),
        trace_g=z((nf, nf)),
        trace_chi=z((nf, nc * d)),
        grad_rec=z((nc * d, nf)),
    )


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
    raises :class:`DiscretizationError`.
    """
    if grid.dim == 0:
        return _empty_operator(grid)
    perm = _check_perm(grid, perm)
    d = grid.dim
    diag = np.abs(np.diagonal(perm, axis1=1, axis2=2)).max(axis=1)
    skew = np.flatnonzero(np.abs(perm * (1.0 - np.eye(d))).max(axis=(1, 2)) > 1e-12 * diag)
    if skew.size:
        raise DiscretizationError(
            f"TPFA needs grid-aligned (diagonal) permeability tensors; {skew.size} cells "
            f"have off-diagonal entries, the first is cell {skew[0]}"
        )
    _check_bc(grid, bc)
    nf, nc = grid.n_faces, grid.n_cells
    n = grid.face_normals
    c0 = grid.face_cells[:, 0]
    c1 = grid.face_cells[:, 1]
    interior = c1 >= 0
    area = grid.face_areas
    xc = grid.cell_centers
    xf = grid.face_centers

    Kn0 = np.einsum("fij,fi->fj", perm[c0], n)  # rows n^T K_c0
    k0 = np.einsum("fj,fj->f", Kn0, n)
    d0 = np.abs(np.einsum("fj,fj->f", xf - xc[c0], n))
    if np.any(k0 <= 0) or np.any(d0 <= 0):
        raise DiscretizationError("nonpositive normal permeability or distance")
    a0 = k0 / d0

    rows_F, cols_F, dat_F = [], [], []
    rows_B, cols_B, dat_B = [], [], []
    rows_J, cols_J, dat_J = [], [], []
    rows_Tp, cols_Tp, dat_Tp = [], [], []
    rows_Tg, cols_Tg, dat_Tg = [], [], []
    rows_Tx, cols_Tx, dat_Tx = [], [], []

    def chi_cols(cells):
        return (cells[:, None] * d + np.arange(d)[None, :]).ravel()

    fi = np.where(interior)[0]
    if fi.size:
        Kn1 = np.einsum("fij,fi->fj", perm[c1[fi]], n[fi])
        k1 = np.einsum("fj,fj->f", Kn1, n[fi])
        d1 = np.abs(np.einsum("fj,fj->f", xc[c1[fi]] - xf[fi], n[fi]))
        if np.any(k1 <= 0) or np.any(d1 <= 0):
            raise DiscretizationError("nonpositive normal permeability or distance")
        a1 = k1 / d1
        s = a0[fi] + a1
        T = area[fi] * a0[fi] * a1 / s
        rows_F += [fi, fi]
        cols_F += [c0[fi], c1[fi]]
        dat_F += [T, -T]
        # chi contribution: -A (a1 w0 + a0 w1) / (a0 + a1)
        co0 = -(area[fi] * a1 / s)[:, None] * Kn0[fi]
        co1 = -(area[fi] * a0[fi] / s)[:, None] * Kn1
        rows_J += [np.repeat(fi, d), np.repeat(fi, d)]
        cols_J += [chi_cols(c0[fi]), chi_cols(c1[fi])]
        dat_J += [co0.ravel(), co1.ravel()]
        # trace pi = (a0 p0 + a1 p1 + w1 - w0) / (a0 + a1)
        rows_Tp += [fi, fi]
        cols_Tp += [c0[fi], c1[fi]]
        dat_Tp += [a0[fi] / s, a1 / s]
        rows_Tx += [np.repeat(fi, d), np.repeat(fi, d)]
        cols_Tx += [chi_cols(c0[fi]), chi_cols(c1[fi])]
        dat_Tx += [(-Kn0[fi] / s[:, None]).ravel(), (Kn1 / s[:, None]).ravel()]

    fd = np.where(bc.kind == BC_DIRICHLET)[0]
    if fd.size:
        t = area[fd] * a0[fd]
        rows_F += [fd]
        cols_F += [c0[fd]]
        dat_F += [t]
        rows_B += [fd]
        cols_B += [fd]
        dat_B += [-t]
        rows_J += [np.repeat(fd, d)]
        cols_J += [chi_cols(c0[fd])]
        dat_J += [(-area[fd][:, None] * Kn0[fd]).ravel()]
        rows_Tg += [fd]
        cols_Tg += [fd]
        dat_Tg += [np.ones(fd.size)]

    fn = np.where(bc.imposed_flux())[0]
    if fn.size:
        rows_B += [fn]
        cols_B += [fn]
        dat_B += [area[fn]]
        # trace pi = p_c - g/a0 - w0/a0
        rows_Tp += [fn]
        cols_Tp += [c0[fn]]
        dat_Tp += [np.ones(fn.size)]
        rows_Tg += [fn]
        cols_Tg += [fn]
        dat_Tg += [-1.0 / a0[fn]]
        rows_Tx += [np.repeat(fn, d)]
        cols_Tx += [chi_cols(c0[fn])]
        dat_Tx += [(-Kn0[fn] / a0[fn, None]).ravel()]

    def build(rows, cols, dat, shape):
        if rows:
            return sps.csr_matrix(
                (np.concatenate(dat), (np.concatenate(rows), np.concatenate(cols))),
                shape=shape,
            )
        return sps.csr_matrix(shape)

    return DiscreteOperator(
        grid=grid,
        flux_p=build(rows_F, cols_F, dat_F, (nf, nc)),
        flux_g=build(rows_B, cols_B, dat_B, (nf, nf)),
        flux_chi=build(rows_J, cols_J, dat_J, (nf, nc * d)),
        trace_p=build(rows_Tp, cols_Tp, dat_Tp, (nf, nc)),
        trace_g=build(rows_Tg, cols_Tg, dat_Tg, (nf, nf)),
        trace_chi=build(rows_Tx, cols_Tx, dat_Tx, (nf, nc * d)),
        grad_rec=_gradient_reconstruction(grid, perm),
    )


def _cell_face_table(grid: CellGrid) -> np.ndarray:
    """(n_cells, 2*dim) table of face ids per cell, with outward signs.

    Returns an integer array ``tab`` where ``tab[c]`` lists the faces of cell
    ``c``; the parallel sign array is recomputed where needed from
    ``face_cells``. Cartesian cells always have exactly 2*dim faces.
    """
    d = grid.dim
    owner = np.concatenate([grid.face_cells[:, 0], grid.face_cells[grid.face_cells[:, 1] >= 0, 1]])
    face = np.concatenate(
        [np.arange(grid.n_faces), np.where(grid.face_cells[:, 1] >= 0)[0]]
    )
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=grid.n_cells)
    if not np.all(counts == 2 * d):
        raise MeshError("expected Cartesian cells with exactly 2*dim faces")
    return face[order].reshape(grid.n_cells, 2 * d)


def _gradient_reconstruction(grid: CellGrid, perm: np.ndarray) -> sps.csr_matrix:
    """Least-squares map from face fluxes to per-cell (grad p + chi).

    Minimizes over u the misfit between -n.K_c u and the outward flux
    densities of the cell's faces; exact whenever the fluxes derive from a
    cell-constant u, which requires the face normals to span the grid
    dimension.
    """
    d = grid.dim
    if d == 0:
        return sps.csr_matrix((0, grid.n_faces))
    tab = _cell_face_table(grid)
    cells = np.arange(grid.n_cells)
    sign = np.where(grid.face_cells[tab, 0] == cells[:, None], 1.0, -1.0)
    n_out = grid.face_normals[tab] * sign[:, :, None]
    rank = np.linalg.matrix_rank(n_out[0]) if grid.n_cells else d
    if rank < d:
        raise DiscretizationError("face normals do not span the grid dimension")
    N = np.einsum("cfi,cij->cfj", n_out, perm[cells])  # (nc, 2d, d)
    NtN = np.einsum("cfi,cfj->cij", N, N)
    pseudo = np.linalg.solve(NtN, np.transpose(N, (0, 2, 1)))  # (nc, d, 2d)
    coeff = -pseudo * sign[:, None, :] / grid.face_areas[tab][:, None, :]
    rows = (cells[:, None, None] * d + np.arange(d)[None, :, None]).repeat(2 * d, axis=2)
    cols = np.broadcast_to(tab[:, None, :], coeff.shape)
    return sps.csr_matrix(
        (coeff.ravel(), (rows.ravel(), cols.ravel())),
        shape=(grid.n_cells * d, grid.n_faces),
    )


def discretize(grid, perm, bc, method: str = "auto") -> DiscreteOperator:
    """Dispatch to MPFA on 2d grids and TPFA elsewhere (``auto``)."""
    if method == "auto":
        method = "mpfa" if grid.dim == 2 else "tpfa"
    if method == "tpfa":
        return tpfa_discretize(grid, perm, bc)
    if method == "mpfa":
        return mpfa_discretize(grid, perm, bc)
    raise DiscretizationError(f"unknown discretization method {method!r}")


# ---------------------------------------------------------------------------
# MPFA (O-scheme, 2d grids)
# ---------------------------------------------------------------------------


class _Coo:
    """Accumulator for COO triplets built from many small batches."""

    def __init__(self):
        self.rows, self.cols, self.dat = [], [], []

    def add(self, r, c, v):
        self.rows.append(np.asarray(r, dtype=int).ravel())
        self.cols.append(np.asarray(c, dtype=int).ravel())
        self.dat.append(np.asarray(v, dtype=float).ravel())

    def build(self, shape):
        if not self.rows:
            return sps.csr_matrix(shape)
        return sps.csr_matrix(
            (
                np.concatenate(self.dat),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=shape,
        )


def mpfa_discretize(grid: CellGrid, perm: np.ndarray, bc: BoundaryCondition) -> DiscreteOperator:
    """Multi-point flux operators on a 2d Cartesian grid with slits.

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

    Interior nodes with four regular faces (the bulk of the grid) go through
    a fixed-layout kernel; the regions of all other nodes are grouped by
    their (sub-face, cell) counts and each group is solved in one batch.
    """
    if grid.dim != 2:
        raise DiscretizationError("the MPFA implementation covers 2d grids only")
    if grid.face_nodes is None:
        raise DiscretizationError("grid lacks node incidence data")
    perm = _check_perm(grid, perm)
    _check_bc(grid, bc)
    nf, nc = grid.n_faces, grid.n_cells
    d = 2

    F, B, J = _Coo(), _Coo(), _Coo()
    Tp, Tg, Tx = _Coo(), _Coo(), _Coo()

    # Imposed-flux faces bypass the local systems entirely.
    imposed = bc.imposed_flux()
    fn = np.where(imposed)[0]
    if fn.size:
        B.add(fn, fn, grid.face_areas[fn])
    dirich = np.where(bc.kind == BC_DIRICHLET)[0]
    if dirich.size:
        Tg.add(dirich, dirich, np.ones(dirich.size))

    reg_nodes, reg_faces, other_nodes = _classify_nodes(grid)
    if reg_nodes.size:
        _mpfa_regular(grid, perm, reg_nodes, reg_faces, F, J, Tp, Tx)
    if other_nodes.size:
        _mpfa_regions(grid, perm, bc, imposed, other_nodes, F, B, J, Tp, Tg, Tx)

    return DiscreteOperator(
        grid=grid,
        flux_p=F.build((nf, nc)),
        flux_g=B.build((nf, nf)),
        flux_chi=J.build((nf, nc * d)),
        trace_p=Tp.build((nf, nc)),
        trace_g=Tg.build((nf, nf)),
        trace_chi=Tx.build((nf, nc * d)),
        grad_rec=_gradient_reconstruction(grid, perm),
    )


def _classify_nodes(grid):
    """Split the grid nodes met by faces into regular and other nodes.

    A regular node has four incident faces, all interior. Returns the regular
    node ids, their (n, 4) face ids, and the ids of all other nodes that at
    least one face meets (boundary, slit, tip and intersection nodes).
    """
    n_nodes = grid.node_coords.shape[0]
    pair_nodes = grid.face_nodes.ravel()
    order = np.argsort(pair_nodes, kind="stable")
    sorted_faces = order // 2
    counts = np.bincount(pair_nodes, minlength=n_nodes)
    starts = np.cumsum(counts) - counts
    idx4 = np.flatnonzero(counts == 4)
    f4 = sorted_faces[starts[idx4, None] + np.arange(4)]
    regular = np.zeros(n_nodes, dtype=bool)
    regular[idx4] = (grid.face_cells[f4, 1] >= 0).all(axis=1)
    return (
        np.flatnonzero(regular),
        f4[regular[idx4]],
        np.flatnonzero(~regular & (counts > 0)),
    )


def _ragged(counts):
    """Owner and within-owner position of every slot of ragged rows."""
    owner = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


def _mpfa_regular(grid, perm, nodes, nfaces, F, J, Tp, Tx):
    """Batched interaction-region solves for interior nodes with four
    regular faces (the bulk of a Cartesian grid)."""
    nv = grid.node_coords[nodes]
    fc = grid.face_centers[nfaces]  # (nr, 4, 2)
    fn = grid.face_normals[nfaces]
    vertical = np.abs(fn[:, :, 0]) > 0.5  # normals are +-e_x / +-e_y
    # slot: 0 = south vertical, 1 = north vertical, 2 = west horizontal,
    # 3 = east horizontal
    above = np.where(
        vertical, fc[:, :, 1] > nv[:, None, 1], fc[:, :, 0] > nv[:, None, 0]
    )
    slot = np.where(vertical, 0, 2) + above.astype(int)
    if not np.array_equal(np.sort(slot, axis=1), np.broadcast_to(np.arange(4), slot.shape)):
        raise MeshError("irregular face pattern at an interior node")
    faces = np.take_along_axis(nfaces, np.argsort(slot, axis=1), axis=1)

    vS, vN, hW, hE = faces[:, 0], faces[:, 1], faces[:, 2], faces[:, 3]
    c00 = grid.face_cells[vS, 0]
    c10 = grid.face_cells[vS, 1]
    c01 = grid.face_cells[vN, 0]
    c11 = grid.face_cells[vN, 1]
    if not (
        np.array_equal(grid.face_cells[hW], np.stack([c00, c01], 1))
        and np.array_equal(grid.face_cells[hE], np.stack([c10, c11], 1))
    ):
        raise MeshError("inconsistent cell pattern at an interior node")
    cells = np.stack([c00, c10, c01, c11], axis=1)  # slots SW, SE, NW, NE

    hx, hy = grid.cell_widths[0]
    # Continuity-point offsets from each corner cell's center to its two
    # face centers, rows in unknown order [pi_S, pi_N, pi_W, pi_E].
    M = {
        0: np.array([[hx / 2, 0.0], [0.0, hy / 2]]),  # SW: (S, W)
        1: np.array([[-hx / 2, 0.0], [0.0, hy / 2]]),  # SE: (S, E)
        2: np.array([[hx / 2, 0.0], [0.0, -hy / 2]]),  # NW: (N, W)
        3: np.array([[-hx / 2, 0.0], [0.0, -hy / 2]]),  # NE: (N, E)
    }
    Minv = {s: np.linalg.inv(M[s]) for s in M}
    sel = {0: (0, 2), 1: (0, 3), 2: (1, 2), 3: (1, 3)}

    K = perm[cells]  # (nr, 4, 2, 2)
    nr = nodes.shape[0]

    # Equations: sub-face flux continuity, unknown order [S, N, W, E].
    # Each term: sign * n^T K_slot (Minv_slot (pi_sel - p_slot) + chi_slot).
    eqs = [
        (0, (0, +1, 0), (1, -1, 0)),  # S, normal e_x
        (1, (2, +1, 0), (3, -1, 0)),  # N
        (2, (0, +1, 1), (2, -1, 1)),  # W, normal e_y
        (3, (1, +1, 1), (3, -1, 1)),  # E
    ]
    A = np.zeros((nr, 4, 4))
    Rp = np.zeros((nr, 4, 4))
    Rx = np.zeros((nr, 4, 8))
    for e, *terms in eqs:
        for s_slot, sign, nd in terms:
            r = sign * K[:, s_slot, nd, :]  # (nr, 2) row n^T K
            rM = r @ Minv[s_slot]  # (nr, 2)
            A[:, e, sel[s_slot][0]] += rM[:, 0]
            A[:, e, sel[s_slot][1]] += rM[:, 1]
            Rp[:, e, s_slot] += rM.sum(axis=1)
            Rx[:, e, 2 * s_slot : 2 * s_slot + 2] += -r
    rhs = np.concatenate([Rp, Rx], axis=2)
    sol = np.linalg.solve(A, rhs)  # pi = Pp p + Px chi
    Pp, Px = sol[:, :, :4], sol[:, :, 4:]

    # Sub-face fluxes, evaluated from the first-cell side with the stored
    # global normal: slot/normal per unknown.
    flux_src = {0: (0, 0), 1: (2, 0), 2: (0, 1), 3: (1, 1)}  # unknown -> (slot, nd)
    half = {0: hy / 2, 1: hy / 2, 2: hx / 2, 3: hx / 2}
    cols_p = cells  # (nr, 4) global cell ids per slot
    cols_x = np.stack(
        [cells * 2, cells * 2 + 1], axis=2
    ).reshape(nr, 8)  # chi columns per slot pair
    for u in range(4):
        s_slot, nd = flux_src[u]
        r = K[:, s_slot, nd, :]
        rM = r @ Minv[s_slot]
        # phi = -(A/2) [ rM (pi_sel - p_slot 1) + r chi_slot ]
        cp = np.zeros((nr, 4))
        cx = np.zeros((nr, 8))
        for j, uu in enumerate(sel[s_slot]):
            cp += rM[:, j, None] * Pp[:, uu, :]
            cx += rM[:, j, None] * Px[:, uu, :]
        cp[:, s_slot] -= rM.sum(axis=1)
        cx[:, 2 * s_slot : 2 * s_slot + 2] += r
        cp *= -half[u]
        cx *= -half[u]
        frow = faces[:, u]
        F.add(np.repeat(frow, 4), cols_p, cp)
        J.add(np.repeat(frow, 8), cols_x, cx)
        # Trace: face trace gets pi/2 from each of its two node sub-faces.
        Tp.add(np.repeat(frow, 4), cols_p, 0.5 * Pp[:, u, :])
        Tx.add(np.repeat(frow, 8), cols_x, 0.5 * Px[:, u, :])


def _mpfa_regions(grid, perm, bc, imposed, nodes, F, B, J, Tp, Tg, Tx):
    """Batched interaction-region solves for every sub-face at ``nodes``.

    A region's local system has one row and one unknown (continuity
    pressure) per sub-face, and right-hand-side columns for its cells'
    pressures, its faces' boundary data and its cells' vector sources, in
    that order. Regions are sorted by their (sub-face, cell) counts, so each
    group of equal counts is a contiguous batch for one solve.

    Arrays prefixed ``s_`` hold one entry per sub-face (a (node, face)
    pair), ``i_`` per sub-face/corner incidence and ``k_`` per corner.
    """
    nc = grid.n_cells
    fcells = grid.face_cells
    at = np.zeros(grid.node_coords.shape[0], dtype=bool)
    at[nodes] = True
    keep = np.flatnonzero(at[grid.face_nodes.ravel()])
    s_node = grid.face_nodes.ravel()[keep]
    s_face = keep // 2
    ns = s_face.size
    inner = fcells[s_face, 1] >= 0
    s_dir = bc.kind[s_face] == BC_DIRICHLET
    s_imp = imposed[s_face]
    half = grid.face_areas[s_face] / 2.0

    # Corners: a sub-face meets the corner of its face's first cell and, if
    # interior, of its second; every corner must meet exactly two sub-faces.
    i_sub = np.concatenate([np.arange(ns), np.flatnonzero(inner)])
    i_cell = np.concatenate([fcells[s_face, 0], fcells[s_face[inner], 1]])
    key, i_corner, count = np.unique(
        s_node[i_sub].astype(np.int64) * nc + i_cell,
        return_inverse=True,
        return_counts=True,
    )
    bad = np.flatnonzero(count != 2)
    if bad.size:
        v, c = divmod(int(key[bad[0]]), nc)
        raise MeshError(f"cell {c} meets node {v} with {int(count[bad[0]])} faces")
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
    w = 3 * n_c + n_u  # right-hand-side columns: cells, faces, chi pairs

    def local(reg, ids, sizes):
        order = np.lexsort((ids, reg))
        loc = np.empty(reg.size, dtype=int)
        loc[order] = np.arange(reg.size) - (np.cumsum(sizes) - sizes)[reg[order]]
        return loc

    s_loc = local(s_reg, s_face, n_u)
    k_loc = local(k_reg, k_cell, n_c)
    off_a = np.cumsum(n_u * n_u) - n_u * n_u
    off_r = np.cumsum(n_u * w) - n_u * w
    off_w = np.cumsum(w) - w

    # Global column of every local right-hand-side column of every region.
    col_id = np.empty(w.sum(), dtype=int)
    col_id[off_w[k_reg] + k_loc] = k_cell
    col_id[off_w[s_reg] + n_c[s_reg] + s_loc] = s_face
    pos = off_w[k_reg] + n_c[k_reg] + n_u[k_reg] + 2 * k_loc
    col_id[pos], col_id[pos + 1] = 2 * k_cell, 2 * k_cell + 1

    # Gradient basis per corner: rows are continuity-point offsets.
    Minv = np.linalg.inv(
        grid.face_centers[s_face[k_sub]] - grid.cell_centers[k_cell][:, None, :]
    )

    # Flux-continuity terms sign * n^T K_c (Minv (pi - p_c) + chi_c), one per
    # corner of an interior sub-face, and -(A_f/2) n^T K_c (...) at
    # imposed-flux sub-faces; Dirichlet sub-faces pin their unknown.
    fac = np.concatenate(
        [np.where(inner, 1.0, np.where(s_imp, -half, 0.0)), np.full(second.size, -1.0)]
    )
    t = np.flatnonzero(fac != 0.0)
    ts, tk = i_sub[t], i_corner[t]
    r = fac[t, None] * np.einsum(
        "ti,tij->tj", grid.face_normals[s_face[ts]], perm[k_cell[tk]]
    )
    rM = np.einsum("tj,tjk->tk", r, Minv[tk])
    g = s_reg[ts]
    row_a = off_a[g] + s_loc[ts] * n_u[g]
    row_r = off_r[g] + s_loc[ts] * w[g]
    xc = row_r + n_c[g] + n_u[g] + 2 * k_loc[tk]
    pin = np.flatnonzero(s_dir)
    gp = s_reg[pin]
    data = np.flatnonzero(s_dir | s_imp)
    gd = s_reg[data]
    A = np.bincount(
        np.concatenate(
            [row_a + s_loc[k_sub[tk, 0]], row_a + s_loc[k_sub[tk, 1]],
             off_a[gp] + s_loc[pin] * (n_u[gp] + 1)]
        ),
        np.concatenate([rM[:, 0], rM[:, 1], np.ones(pin.size)]),
        minlength=int(n_u @ n_u),
    )
    R = np.bincount(
        np.concatenate(
            [row_r + k_loc[tk], xc, xc + 1,
             off_r[gd] + s_loc[data] * w[gd] + n_c[gd] + s_loc[data]]
        ),
        np.concatenate(
            [rM.sum(axis=1), -r[:, 0], -r[:, 1], np.where(s_dir, 1.0, half)[data]]
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

    def slots(sel):
        """Index into ``sel``, region and local column of every
        right-hand-side slot of the sub-faces ``sel``; each one's first slot."""
        width = w[s_reg[sel]]
        owner, col = _ragged(width)
        return owner, s_reg[sel][owner], col, np.cumsum(width) - width

    def emit(s, g, col, values, Mp, Mg, Mx):
        """Add slot values to the cell, face and chi operators in s's rows."""
        cols = col_id[off_w[g] + col]
        kind = (col >= n_c[g]).astype(int) + (col >= n_c[g] + n_u[g])
        for k, M in enumerate((Mp, Mg, Mx)):
            m = kind == k
            M.add(s_face[s[m]], cols[m], values[m])

    # Traces: each face trace is the mean of its two sub-face pressures;
    # Dirichlet faces already carry the identity.
    sel = np.flatnonzero(~s_dir)
    o, g, col, _ = slots(sel)
    emit(sel[o], g, col, 0.5 * S[off_r[g] + s_loc[sel][o] * w[g] + col], Tp, Tg, Tx)

    # Fluxes, evaluated from the first cell with the stored face normal:
    # -(A_f/2) n^T K_c0 (Minv (pi - p_c0) + chi_c0). Imposed-flux faces
    # are handled globally as g * area.
    sel = np.flatnonzero(~s_imp)
    k0 = first[sel]
    r = np.einsum("ti,tij->tj", grid.face_normals[s_face[sel]], perm[k_cell[k0]])
    rM = np.einsum("tj,tjk->tk", r, Minv[k0])
    o, g, col, start = slots(sel)
    vals = sum(
        rM[o, m] * S[off_r[g] + s_loc[k_sub[k0, m]][o] * w[g] + col] for m in range(2)
    )
    vals[start + k_loc[k0]] -= rM.sum(axis=1)
    xc = start + n_c[s_reg[sel]] + n_u[s_reg[sel]] + 2 * k_loc[k0]
    vals[xc] += r[:, 0]
    vals[xc + 1] += r[:, 1]
    emit(sel[o], g, col, -half[sel][o] * vals, F, B, J)
