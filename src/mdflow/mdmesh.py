"""Mixed-dimensional Cartesian meshes for domains with thin inclusions.

The ambient porous medium is kept as a single Cartesian grid in which every
face lying on a fault surface is duplicated (a "slit"): the two copies become
internal boundary faces, one attached to either side. Each fault surface is
meshed as a grid one dimension lower whose cells coincide with the slit
faces; fault-fault intersections become grids two dimensions lower, down to
0d points. Subdomains of adjacent dimension are linked by mortar interfaces
whose cells are copies of the lower-dimensional cells (matching grids).

All geometry is axis aligned. Faults must lie on grid planes and their
extents must terminate on grid nodes at the requested resolution. Each
fault corner is snapped once to a node index of the ambient lattice, within
1e-6 of a cell width; that is the builder's only tolerance. Every later
decision (overlaps, intersections, slits, interface pairs, ambient-boundary
tags) compares node indices, and every stored coordinate is ``x0 + h (k /
2)`` for a doubled node index ``k``, so the mesh does not depend on the
units or the origin.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class MeshError(Exception):
    """Invalid mesh topology, geometry, or non-representable input."""


@dataclass
class CellGrid:
    """A fixed-dimension cell grid, possibly embedded in a higher ambient space.

    Cell centers, face centers, and face normals are stored in the grid's own
    local coordinates (``dim`` components). The affine frame
    ``x_global = frame_origin + local @ frame_axes`` embeds local coordinates
    into the ambient space.

    Interior faces list two distinct cell neighbors and their normal points
    from ``face_cells[f, 0]`` to ``face_cells[f, 1]``. Boundary faces list one
    neighbor (second entry −1) and an outward normal.
    """

    dim: int
    cell_volumes: np.ndarray
    cell_centers: np.ndarray
    cell_widths: np.ndarray
    face_areas: np.ndarray
    face_centers: np.ndarray
    face_normals: np.ndarray
    face_cells: np.ndarray
    #: −1 for interior / internal faces, else 2*axis + (0 for low, 1 for high)
    #: identifying the ambient domain side the face lies on.
    face_bnd: np.ndarray
    #: index of the cut (fault/intersection trace) a slit face copy lies on,
    #: −1 elsewhere. Indices refer to the cut list used to build this grid:
    #: the lower-dimensional subdomains slitting it, in subdomain order.
    face_cut: np.ndarray
    #: 1 for the slit copy on the side the cut normal points into, 2 for the
    #: opposite side, 0 for ordinary faces.
    face_side: np.ndarray
    frame_origin: np.ndarray
    frame_axes: np.ndarray
    node_coords: Optional[np.ndarray] = None
    face_nodes: Optional[np.ndarray] = None

    @property
    def n_cells(self) -> int:
        return self.cell_volumes.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_areas.shape[0]

    def is_boundary(self) -> np.ndarray:
        """Boolean mask of faces having a single cell neighbor."""
        return self.face_cells[:, 1] < 0

    def cell_centers_global(self) -> np.ndarray:
        return self.frame_origin + self.cell_centers @ self.frame_axes

    def face_centers_global(self) -> np.ndarray:
        return self.frame_origin + self.face_centers @ self.frame_axes

    def validate(self) -> None:
        """Assert structural grid invariants (cheap, used at build time)."""
        interior = ~self.is_boundary()
        if np.any(self.face_cells[interior, 0] == self.face_cells[interior, 1]):
            raise MeshError("interior face with identical neighbors")
        if self.dim > 0:
            norms = np.linalg.norm(self.face_normals, axis=1)
            if not np.allclose(norms, 1.0, rtol=1e-12, atol=0.0):
                raise MeshError("face normals are not unit length")
            # Closed-cell condition: signed area-weighted normals cancel.
            out = self.face_areas[:, None] * self.face_normals
            cells = np.concatenate([self.face_cells[:, 0], self.face_cells[interior, 1]])
            out = np.concatenate([out, -out[interior]])
            acc = np.array([np.bincount(cells, o, self.n_cells) for o in out.T])
            scale = np.abs(self.face_areas).max() + 1e-300
            if np.abs(acc).max() > 1e-10 * scale:
                raise MeshError("closed-cell condition violated")


@dataclass
class MortarInterface:
    """Interface between a lower-dimensional subdomain and a higher one.

    One mortar cell per coupled pair: ``higher_faces[m]`` is a boundary face
    of the higher grid and ``lower_cells[m]`` a cell of the lower grid, with
    equal measure. ``side_sign`` is the permutation sign of the coupling: +1
    when the higher domain's outward normal at the interface coincides with
    the stored cut normal (the side the cut normal points away from), −1 on
    the side the cut normal points into.
    """

    lower: int
    higher: int
    side: int
    side_sign: int
    higher_faces: np.ndarray
    lower_cells: np.ndarray
    measures: np.ndarray
    #: id of the fault whose material governs this coupling (for couplings
    #: between intersection objects the governing values are inherited and
    #: resolved by the material layer; ``fault_id`` is then −1).
    fault_id: int = -1
    kind: str = "fault"

    @property
    def n_mortar(self) -> int:
        return self.higher_faces.shape[0]


@dataclass
class SubdomainInfo:
    """Bookkeeping for a subdomain: its role and originating fault(s)."""

    kind: str  # "matrix" | "fault" | "intersection"
    fault_ids: tuple = ()


@dataclass
class FaultSpec:
    """Axis-aligned thin inclusion given by two corner points.

    The two corners must agree in exactly one coordinate (the fault plane),
    to within 1e-9 of the largest difference of their coordinates, so the
    test holds at any scale and distance from the origin. The fault normal
    points toward increasing plane coordinate; side 1 is the side the
    normal points into, side 2 the other.
    """

    p0: tuple
    p1: tuple
    name: str = ""
    axis: int = field(init=False)  # the constant (plane-normal) coordinate axis

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        if p0.shape != p1.shape:
            raise MeshError(f"fault {self.name!r}: corner dimension mismatch")
        gap = np.abs(p1 - p0)
        same = np.flatnonzero(gap <= 1e-9 * gap.max())
        if same.size != 1:
            raise MeshError(
                f"fault {self.name!r}: corners must agree in exactly one coordinate"
            )
        self.axis = int(same[0])

    @property
    def plane(self) -> float:
        return float(np.asarray(self.p0, dtype=float)[self.axis])

    @property
    def inplane_axes(self) -> tuple:
        d = len(self.p0)
        return tuple(a for a in range(d) if a != self.axis)


@dataclass
class MixedDimMesh:
    """DAG of subdomain grids linked by mortar interfaces.

    Subdomain ids index ``subdomains``; interfaces connect dimensions
    differing by exactly one, lower-dimensional grids listed after their
    ambient grid.
    """

    dim: int
    subdomains: list
    info: list
    interfaces: list
    domain_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    domain_hi: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)

    def mortar_face_mask(self, i: int) -> np.ndarray:
        """Faces of subdomain ``i`` that are the higher side of an interface."""
        mask = np.zeros(self.subdomains[i].n_faces, dtype=bool)
        for itf in self.interfaces:
            if itf.higher == i:
                mask[itf.higher_faces] = True
        return mask

    def validate(self) -> None:
        for g in self.subdomains:
            g.validate()
        for itf in self.interfaces:
            gl = self.subdomains[itf.lower]
            gh = self.subdomains[itf.higher]
            if gh.dim - gl.dim != 1:
                raise MeshError("interface must connect dimensions differing by 1")
            if np.unique(itf.higher_faces).size != itf.n_mortar:
                raise MeshError("mortar cells must map to distinct higher faces")
            areas = gh.face_areas[itf.higher_faces]
            vols = gl.cell_volumes[itf.lower_cells]
            if not np.allclose(areas, vols, rtol=1e-10, atol=0.0):
                raise MeshError("mortar cell measures do not match across sides")
            if not np.allclose(itf.measures, vols, rtol=1e-10, atol=0.0):
                raise MeshError("stored mortar measures inconsistent")


# ---------------------------------------------------------------------------
# Generic Cartesian grid builder with slits.
# ---------------------------------------------------------------------------


def _snap_index(value: float, lo: float, h: float, name: str) -> int:
    """The node index of ``value`` on a lattice of origin ``lo`` and
    spacing ``h``: the builder's one tolerance, 1e-6 of a cell width."""
    t = (value - lo) / h
    k = round(t)
    if abs(t - k) > 1e-6:
        raise MeshError(f"{name}: coordinate {value} is not on a grid line (h={h})")
    return int(k)


def _coords(x0, h, k):
    """Coordinates ``x0 + h (k / 2)`` of doubled node indices ``k``: node
    ``i`` is ``2 i`` and the center of cell ``i`` is ``2 i + 1``."""
    return x0 + h * (k / 2)


def _build_cartesian_grid(lo, hi, cuts, x0, h, top) -> CellGrid:
    """The Cartesian grid of the node box [lo, hi] of the ambient lattice
    (origin ``x0``, spacing ``h``, ``top`` cells per axis) over the axes
    the box spans, duplicating every face on one of ``cuts``.

    A cut is the node box of a slit child; it fixes one of the axes the
    grid spans. A box that spans no axis is a single point cell of unit
    measure. Faces on the ambient box get ``face_bnd`` 2*axis (+1 on the
    high side), all others −1. Two-dimensional grids also list their nodes.
    """
    axes = np.flatnonzero(lo != hi)
    dim = axes.size
    frame_origin = np.where(lo != hi, 0.0, _coords(x0, h, 2 * lo))
    frame_axes = np.eye(lo.size)[axes]
    if dim == 0:
        return CellGrid(
            dim=0,
            cell_volumes=np.array([1.0]),
            cell_centers=np.zeros((1, 0)),
            cell_widths=np.zeros((1, 0)),
            face_areas=np.zeros(0),
            face_centers=np.zeros((0, 0)),
            face_normals=np.zeros((0, 0)),
            face_cells=np.zeros((0, 2), dtype=int),
            face_bnd=np.zeros(0, dtype=int),
            face_cut=np.zeros(0, dtype=int),
            face_side=np.zeros(0, dtype=int),
            frame_origin=frame_origin,
            frame_axes=frame_axes,
        )
    n = (hi - lo)[axes]
    width = h[axes]
    nodes = [_coords(x0[g], h[g], 2 * np.arange(lo[g], hi[g] + 1)) for g in axes]
    mids = [_coords(x0[g], h[g], 2 * np.arange(lo[g], hi[g]) + 1) for g in axes]

    # Cells, x-fastest lexicographic ordering: id = i + n0*(j + n1*k).
    grids = np.meshgrid(*mids, indexing="ij")
    centers = np.stack([g.ravel(order="F") for g in grids], axis=1)
    n_cells = int(np.prod(n))
    volumes = np.full(n_cells, float(np.prod(width)))
    widths = np.tile(width, (n_cells, 1))

    strides = np.ones(dim, dtype=int)
    for a in range(1, dim):
        strides[a] = strides[a - 1] * n[a - 1]

    parts = {
        "area": [], "center": [], "normal": [], "cells": [],
        "bnd": [], "cut": [], "side": [], "nodes": [],
    }
    want_nodes = dim == 2

    for a, g in enumerate(axes):
        others = [b for b in range(dim) if b != a]
        if others:
            ranges = [np.arange(n[b]) for b in others]
            mg = np.meshgrid(*ranges, indexing="ij")
            combo = np.stack([m.ravel(order="F") for m in mg], axis=1)
        else:
            combo = np.zeros((1, 0), dtype=int)
        k = combo.shape[0]
        P = n[a] + 1
        area = float(np.prod(width[others])) if others else 1.0

        plane_idx = np.repeat(np.arange(P), k)
        row_idx = np.tile(np.arange(k), P)
        N0 = P * k
        cen = np.empty((N0, dim))
        cen[:, a] = nodes[a][plane_idx]
        for bi, b in enumerate(others):
            cen[:, b] = mids[b][combo[row_idx, bi]]

        cid_off = combo @ strides[others] if others else np.zeros(1, dtype=int)
        cid_lo = cid_off[row_idx] + (plane_idx - 1) * strides[a]
        cid_hi = cid_off[row_idx] + plane_idx * strides[a]

        at_lo = plane_idx == 0
        at_hi = plane_idx == n[a]
        boundary = at_lo | at_hi
        bnd = np.full(N0, -1, dtype=int)
        bnd[at_lo & (lo[g] == 0)] = 2 * g
        bnd[at_hi & (hi[g] == top[g])] = 2 * g + 1

        # A slit child fixes axis g at an interior node; its faces are the
        # ones whose cells along the other axes lie in its span.
        cut_of = np.full(N0, -1, dtype=int)
        for ci, (clo, chi) in enumerate(cuts):
            if clo[g] != chi[g]:
                continue
            mask = lo[g] + plane_idx == clo[g]
            for bi, b in enumerate(others):
                cell = lo[axes[b]] + combo[row_idx, bi]
                mask &= (clo[axes[b]] <= cell) & (cell < chi[axes[b]])
            cut_of[mask] = ci
        slit = cut_of >= 0

        # Duplicate slit positions: copy 0 attaches below (side 2, outward
        # normal +e_a), copy 1 attaches above (side 1, outward normal −e_a).
        rep = np.where(slit, 2, 1)
        src = np.repeat(np.arange(N0), rep)
        first_of = np.concatenate(([0], np.cumsum(rep)[:-1]))
        rank = np.arange(src.shape[0]) - np.repeat(first_of, rep)

        c0 = np.where(at_lo[src], cid_hi[src], cid_lo[src])
        c0 = np.where(slit[src] & (rank == 1), cid_hi[src], c0)
        c1 = np.where(boundary[src] | slit[src], -1, cid_hi[src])

        sign = np.ones(src.shape[0])
        sign[at_lo[src]] = -1.0
        sign[slit[src] & (rank == 1)] = -1.0
        nrm = np.zeros((src.shape[0], dim))
        nrm[:, a] = sign

        cut_arr = np.where(slit[src], cut_of[src], -1)
        side_arr = np.zeros(src.shape[0], dtype=int)
        side_arr[slit[src] & (rank == 0)] = 2
        side_arr[slit[src] & (rank == 1)] = 1

        parts["area"].append(np.full(src.shape[0], area))
        parts["center"].append(cen[src])
        parts["normal"].append(nrm)
        parts["cells"].append(np.stack([c0, c1], axis=1))
        parts["bnd"].append(bnd[src])
        parts["cut"].append(cut_arr)
        parts["side"].append(side_arr)
        if want_nodes:
            j = combo[row_idx, 0]
            if a == 0:
                nd = np.stack(
                    [plane_idx + (n[0] + 1) * j, plane_idx + (n[0] + 1) * (j + 1)], axis=1
                )
            else:
                nd = np.stack(
                    [j + (n[0] + 1) * plane_idx, j + 1 + (n[0] + 1) * plane_idx], axis=1
                )
            parts["nodes"].append(nd[src])

    node_coords = None
    face_nodes = None
    if want_nodes:
        node_coords = np.stack(
            [np.tile(nodes[0], n[1] + 1), np.repeat(nodes[1], n[0] + 1)], axis=1
        )
        face_nodes = np.concatenate(parts["nodes"], axis=0)

    return CellGrid(
        dim=dim,
        cell_volumes=volumes,
        cell_centers=centers,
        cell_widths=widths,
        face_areas=np.concatenate(parts["area"]),
        face_centers=np.concatenate(parts["center"], axis=0),
        face_normals=np.concatenate(parts["normal"], axis=0),
        face_cells=np.concatenate(parts["cells"], axis=0),
        face_bnd=np.concatenate(parts["bnd"]),
        face_cut=np.concatenate(parts["cut"]),
        face_side=np.concatenate(parts["side"]),
        frame_origin=frame_origin,
        frame_axes=frame_axes,
        node_coords=node_coords,
        face_nodes=face_nodes,
    )


# ---------------------------------------------------------------------------
# Mixed-dimensional mesh construction.
# ---------------------------------------------------------------------------


@dataclass
class _Locus:
    """One box of the fault hierarchy, in node indices of the ambient
    lattice: the ambient domain, a fault, or a fault intersection. The box
    spans the axes where ``lo < hi`` and fixes the others."""

    lo: np.ndarray
    hi: np.ndarray
    fault_ids: tuple = ()
    #: parent locus id -> "slit" (strictly inside the parent) or "end" (on
    #: the parent's edge), in increasing id order.
    parents: dict = field(default_factory=dict)

    @property
    def free(self) -> np.ndarray:
        return self.lo != self.hi


def _meet(a: _Locus, b: _Locus) -> Optional[_Locus]:
    """The locus where two loci of one level meet, or None.

    They meet when each fixes exactly one axis the other spans, their boxes
    intersect (boundary included), and their common spans overlap.
    """
    if np.count_nonzero(a.free != b.free) != 2:
        return None
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    if np.any(hi < lo) or np.any(hi[a.free & b.free] == lo[a.free & b.free]):
        return None
    return _Locus(lo, hi)


def _relation(child: _Locus, parent: _Locus) -> str:
    """Whether ``child`` lies strictly inside ``parent`` ("slit") or on the
    parent's edge ("end") along the axis the child newly fixes."""
    axis = parent.free & ~child.free
    c = child.lo[axis]
    inside = (parent.lo[axis] < c) & (c < parent.hi[axis])
    return "slit" if inside.all() else "end"


def _level_order(m: _Locus) -> tuple:
    return tuple(np.flatnonzero(m.free)), tuple(m.lo[~m.free])


def _hierarchy(n: np.ndarray, boxes: Sequence[tuple], faults: Sequence[FaultSpec]) -> list:
    """Loci of the fault hierarchy in subdomain order.

    The ambient box comes first, then the faults' node boxes in input
    order. Each further level holds the pairwise meets of the previous
    level's loci, merged by box and sorted by (free axes, fixed nodes).
    """
    loci = [_Locus(np.zeros_like(n), n)]
    loci += [_Locus(lo, hi, (k,), {0: "slit"}) for k, (lo, hi) in enumerate(boxes)]
    level = range(1, len(loci))
    while len(level) > 1:
        meets = {}
        for i in level:
            for j in range(i + 1, level.stop):
                m = _meet(loci[i], loci[j])
                if m is not None:
                    key = (tuple(m.lo), tuple(m.hi))
                    # Parents are collected first; their relations follow.
                    meets.setdefault(key, m).parents.update(dict.fromkeys((i, j)))
        start = len(loci)
        for m in sorted(meets.values(), key=_level_order):
            m.parents = {p: _relation(m, loci[p]) for p in sorted(m.parents)}
            m.fault_ids = tuple(sorted({f for p in m.parents for f in loci[p].fault_ids}))
            ends = [p for p, how in m.parents.items() if how == "end"]
            if ends and m.free.any():
                other = next(p for p in m.parents if p != ends[0])
                ke, ko = ends[0] - 1, other - 1
                raise MeshError(
                    f"fault {faults[ke].name or ke!r} ends on fault {faults[ko].name or ko!r}: "
                    "T-junctions along a line are not supported in 3D"
                )
            loci.append(m)
        level = range(start, len(loci))
    return loci


def _check_overlaps(boxes: Sequence[tuple], faults: Sequence[FaultSpec]) -> None:
    for i, (lo_i, hi_i) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            lo_j, hi_j = boxes[j]
            free = lo_i != hi_i
            lo, hi = np.maximum(lo_i, lo_j), np.minimum(hi_i, hi_j)
            if np.array_equal(free, lo_j != hi_j) and np.all(hi >= lo) and np.all(hi[free] > lo[free]):
                raise MeshError(
                    f"faults {faults[i].name or i!r} and {faults[j].name or j!r} "
                    "overlap on a shared plane"
                )


def build_cartesian_md_mesh(
    domain_lo: Sequence[float],
    domain_hi: Sequence[float],
    resolution: Sequence[int],
    faults: Sequence[FaultSpec],
) -> MixedDimMesh:
    """Construct the mixed-dimensional mesh for an axis-aligned box.

    Parameters
    ----------
    domain_lo, domain_hi : sequence of float
        Corners of the ambient box.
    resolution : sequence of int
        Cells per axis of the ambient grid.
    faults : sequence of FaultSpec
        Thin inclusions; every fault plane must coincide with an interior
        grid face plane and fault endpoints must lie on grid nodes, within
        1e-6 of a cell width. Each corner is snapped once to its node.

    Returns
    -------
    MixedDimMesh
        Ambient grid (id 0), one grid per fault, then intersection grids in
        deterministic order, linked by mortar interfaces.
    """
    dim = len(resolution)
    lo = np.asarray(domain_lo, dtype=float)
    hi = np.asarray(domain_hi, dtype=float)
    n = np.asarray(resolution, dtype=int)
    if dim not in (2, 3):
        raise MeshError("ambient dimension must be 2 or 3")
    if np.any(n <= 0):
        raise MeshError("resolution must be positive along every axis")
    h = (hi - lo) / n

    boxes = []
    for k, f in enumerate(faults):
        name = f"fault {f.name or k!r}"
        if len(f.p0) != dim:
            raise MeshError(f"{name}: wrong coordinate dimension")
        ends = np.array(
            [[_snap_index(p[a], lo[a], h[a], name) for a in range(dim)] for p in (f.p0, f.p1)]
        )
        box_lo, box_hi = ends.min(axis=0), ends.max(axis=0)
        if not 0 < box_lo[f.axis] < n[f.axis]:
            raise MeshError(f"{name}: plane must lie strictly inside the domain")
        if np.any(box_lo < 0) or np.any(box_hi > n):
            raise MeshError(f"{name}: extends outside the domain")
        for a in f.inplane_axes:
            if box_lo[a] == box_hi[a]:
                raise MeshError(f"{name}: zero extent along axis {a}")
        boxes.append((box_lo, box_hi))
    _check_overlaps(boxes, faults)

    loci = _hierarchy(n, boxes, faults)
    cuts = [[] for _ in loci]  # per locus: its slit children, in locus order
    for c, locus in enumerate(loci):
        for p, how in locus.parents.items():
            if how == "slit":
                cuts[p].append(c)

    subdomains, info, interfaces = [], [], []
    for c, locus in enumerate(loci):
        grid = _build_cartesian_grid(
            locus.lo, locus.hi, [(loci[s].lo, loci[s].hi) for s in cuts[c]], lo, h, n
        )
        subdomains.append(grid)
        kind = "matrix" if c == 0 else "fault" if c <= len(faults) else "intersection"
        info.append(SubdomainInfo(kind=kind, fault_ids=locus.fault_ids))

        for p, how in locus.parents.items():
            higher = subdomains[p]
            if how == "slit":
                at = higher.face_cut == cuts[p].index(c)
            else:
                # A point on the end of a line: the line's tip face there,
                # whose outward normal points up the line at its high end.
                up = 1.0 if np.array_equal(locus.lo, loci[p].hi) else -1.0
                at = higher.is_boundary() & (higher.face_cut < 0) & (higher.face_normals[:, 0] == up)
            if grid.dim:
                # One interface per side, each covering the whole slit. A
                # side's slit faces and the lower grid's cells both run
                # x-fastest over the same span, so they pair in order.
                sides = (1, 2)
                groups = [np.flatnonzero(at & (higher.face_side == s)) for s in sides]
            else:
                # One interface per adjoining face. Outward normal along
                # +axis: the branch lies on side 2.
                faces = np.flatnonzero(at)
                sides = [2 if higher.face_normals[f, 0] > 0 else 1 for f in faces]
                groups = [faces[i : i + 1] for i in range(faces.size)]
            if p == 0:
                fault_id = c - 1
            else:
                fault_id = p - 1 if p <= len(faults) else -1
            for side, faces in zip(sides, groups):
                if faces.size != grid.n_cells:
                    raise MeshError("interface face/cell count mismatch")
                interfaces.append(
                    MortarInterface(
                        lower=c,
                        higher=p,
                        side=side,
                        side_sign=1 if side == 2 else -1,
                        higher_faces=faces,
                        lower_cells=np.arange(grid.n_cells),
                        measures=grid.cell_volumes.copy(),
                        fault_id=fault_id,
                        kind="fault" if p == 0 else "intersection",
                    )
                )

    mesh = MixedDimMesh(
        dim=dim,
        subdomains=subdomains,
        info=info,
        interfaces=interfaces,
        domain_lo=lo,
        domain_hi=hi,
    )
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# Plain-text mesh import/export.
# ---------------------------------------------------------------------------

#: Columns of each table block of the mesh file, in file order: the
#: attribute they hold, its width (1, 2, or "d" for the grid dimension) and
#: its type. An attribute of width 1 is a 1-D array.
_CELLS = (("cell_volumes", 1, float), ("cell_centers", "d", float), ("cell_widths", "d", float))
_FACES = (
    ("face_areas", 1, float), ("face_centers", "d", float), ("face_normals", "d", float),
    ("face_cells", 2, int), ("face_bnd", 1, int), ("face_cut", 1, int), ("face_side", 1, int),
)
_NODES = (("node_coords", "d", float),)
_FACE_NODES = (("face_nodes", 2, int),)
_PAIRS = (("higher_faces", 1, int), ("lower_cells", 1, int), ("measures", 1, float))


def _widths(columns, d: int) -> list:
    return [d if w == "d" else w for _, w, _ in columns]


#: Rows per %-format call of :func:`format_rows`. Each call turns its rows
#: into Python floats, about 40 bytes per value, so no call holds a whole
#: table.
_FORMAT_ROWS = 4096


def format_rows(fmt: str, table: np.ndarray) -> list:
    """The %-format of a table, one line per row, as one string per
    :data:`_FORMAT_ROWS` rows (none if the table is empty)."""
    return [
        "\n".join([fmt] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (table[i : i + _FORMAT_ROWS] for i in range(0, len(table), _FORMAT_ROWS))
    ]


def _block(tag: str, obj, columns, d: int = 0, counted: bool = True) -> list:
    """The tag line, with the row count if ``counted``, and rows of a block."""
    # 17 significant digits read back as the same float.
    types = [typ for (_, _, typ), w in zip(columns, _widths(columns, d)) for _ in range(w)]
    fmt = " ".join(["%d" if typ is int else "%.17g" for typ in types])
    table = np.column_stack([getattr(obj, name) for name, _, _ in columns])
    return [f"{tag} {table.shape[0]}" if counted else tag] + format_rows(fmt, table)


def export_mesh(mesh: MixedDimMesh, path: str) -> None:
    """Write the mesh in the whitespace-separated text format.

    Lines ``mdmesh 1 <ambient dim>``, ``domain <lo...> <hi...>`` and
    ``subdomains <n>``; per subdomain ``subdomain <id> dim <d> kind <kind>
    faults <ids|->``, ``frame <origin...> <row-major axes...>`` and the
    blocks ``cells``, ``faces`` and ``nodes``, then ``face_nodes`` if there
    are nodes; ``interfaces <n>``, and per interface ``interface <lower>
    <higher> <side> <sign> <fault> <kind>`` and a ``pairs`` block. A block is
    its tag and row count (one row per face for ``face_nodes``, which has no
    count) and one row per entity with the columns of its table above.
    """

    def fmt(vals):
        return " ".join(f"{v:.17g}" for v in np.atleast_1d(vals))

    out = []
    out.append(f"mdmesh 1 {mesh.dim}")
    out.append(f"domain {fmt(mesh.domain_lo)} {fmt(mesh.domain_hi)}")
    out.append(f"subdomains {mesh.n_subdomains}")
    for sid, (g, inf) in enumerate(zip(mesh.subdomains, mesh.info)):
        fids = ",".join(str(i) for i in inf.fault_ids) if inf.fault_ids else "-"
        out.append(f"subdomain {sid} dim {g.dim} kind {inf.kind} faults {fids}")
        out.append(f"frame {fmt(g.frame_origin)} {fmt(g.frame_axes.ravel())}")
        out += _block("cells", g, _CELLS, g.dim)
        out += _block("faces", g, _FACES, g.dim)
        if g.node_coords is not None:
            out += _block("nodes", g, _NODES, g.dim)
            out += _block("face_nodes", g, _FACE_NODES, counted=False)
        else:
            out.append("nodes 0")
    out.append(f"interfaces {len(mesh.interfaces)}")
    for itf in mesh.interfaces:
        out.append(
            f"interface {itf.lower} {itf.higher} {itf.side} {itf.side_sign} "
            f"{itf.fault_id} {itf.kind}"
        )
        out += _block("pairs", itf, _PAIRS)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


class _MeshFile:
    """The lines of a mesh file and the index of the one read last."""

    def __init__(self, path: str):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.at = -1

    def take(self, tag: str, count: int) -> list:
        """The ``count`` fields after ``tag`` on the next line, which must
        start with it."""
        self.at += 1
        fields = self.lines[self.at].split() if self.at < len(self.lines) else []
        if fields[:1] != [tag]:
            raise ValueError(f"expected {tag!r}")
        if len(fields) != count + 1:
            raise ValueError(f"expected {count} fields after {tag!r}, found {len(fields) - 1}")
        return fields[1:]

    def block(self, tag: str, columns, d: int = 0, n: Optional[int] = None) -> dict:
        """The next block's attributes; it has ``n`` rows if not counted."""
        fields = self.take(tag, 1 if n is None else 0)
        n = int(fields[0]) if n is None else n
        widths = _widths(columns, d)
        width = sum(widths)
        rows = self.lines[self.at + 1 : self.at + 1 + n]
        try:
            table = np.loadtxt(rows, comments=None, ndmin=2) if n else np.zeros((0, width))
        except ValueError:
            table = None
        if table is None or table.shape != (n, width):
            for row in rows:  # parse row by row: the bad row raises
                self.at += 1
                np.array(row.split(), dtype=float).reshape(width)
            self.at += 1
            raise ValueError(f"expected {n} rows of {width} numbers")
        self.at += n
        parts = np.split(table, np.cumsum(widths)[:-1], axis=1)
        return {
            name: (part[:, 0] if w == 1 else part).astype(typ)
            for (name, w, typ), part in zip(columns, parts)
        }


def import_mesh(path: str) -> MixedDimMesh:
    """Read a mesh written by :func:`export_mesh`.

    A malformed file raises :class:`MeshError` naming the file and the line.
    """
    src = _MeshFile(path)
    try:
        version, dim = src.take("mdmesh", 2)
        if version != "1":
            raise ValueError("not a mdmesh version-1 file")
        dim = int(dim)
        dom = np.array(src.take("domain", 2 * dim), dtype=float)
        subdomains, info = [], []
        for _ in range(int(src.take("subdomains", 1)[0])):
            _, dim_tag, d, kind_tag, kind, faults_tag, fids = src.take("subdomain", 7)
            if (dim_tag, kind_tag, faults_tag) != ("dim", "kind", "faults"):
                raise ValueError("expected 'subdomain <id> dim <d> kind <kind> faults <ids>'")
            if kind not in ("matrix", "fault", "intersection"):
                raise ValueError(f"unknown subdomain kind {kind!r}")
            d = int(d)
            frame = np.array(src.take("frame", dim + d * dim), dtype=float)
            grid = src.block("cells", _CELLS, d) | src.block("faces", _FACES, d)
            nodes = src.block("nodes", _NODES, d)
            if len(nodes["node_coords"]):
                grid |= nodes | src.block("face_nodes", _FACE_NODES, n=len(grid["face_areas"]))
            axes = frame[dim:].reshape(d, dim)
            subdomains.append(CellGrid(d, frame_origin=frame[:dim], frame_axes=axes, **grid))
            fids = () if fids == "-" else tuple(int(i) for i in fids.split(","))
            info.append(SubdomainInfo(kind, fids))
        interfaces = []
        for _ in range(int(src.take("interfaces", 1)[0])):
            hdr = src.take("interface", 6)
            pairs = src.block("pairs", _PAIRS)
            interfaces.append(
                MortarInterface(*map(int, hdr[:4]), **pairs, fault_id=int(hdr[4]), kind=hdr[5])
            )
    except (ValueError, IndexError) as exc:
        raise MeshError(f"{path}: line {src.at + 1}: {exc}") from None
    mesh = MixedDimMesh(dim, subdomains, info, interfaces, dom[:dim], dom[dim:])
    mesh.validate()
    return mesh
