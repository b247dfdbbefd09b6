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
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class MeshError(Exception):
    """Invalid mesh topology, geometry, or non-representable input."""


def _stack(columns, rows: int) -> np.ndarray:
    """The (rows, len(columns)) array of 1-D columns; (rows, 0) without any."""
    return np.stack(columns, axis=1) if len(columns) else np.zeros((rows, 0))


@dataclass
class CellGrid:
    """A Cartesian cell grid of dimension ``dim``, possibly embedded in a
    higher ambient space, stored as a view of its lattice.

    Along each local axis the grid stores its lattice: the coordinates at
    the doubled indices ``k = 0 .. 2 n`` (node ``i`` is ``2 i``, the center
    of cell ``i`` is ``2 i + 1``) and the ``n`` cell widths. Cells are
    numbered in lattice order, x-fastest. A face stores its doubled lattice
    index, even along the face's axis and odd along the others (the two
    copies of a slit face share it), and its topology. The fields are set
    once and checked on construction (:meth:`validate`); every other
    geometric array is derived from them on first use and kept.

    Coordinates are local (``dim`` components); the affine frame
    ``x_global = frame_origin + local @ frame_axes`` embeds them into the
    ambient space. The rows of ``frame_axes`` are the unit vectors of the
    ambient axes the grid spans, in increasing order.

    Interior faces list two distinct cell neighbors, boundary faces one
    (second entry −1). A face's normal, ``face_sign`` along ``face_axis``,
    points from ``face_cells[f, 0]`` toward the face: from the first
    neighbor to the second inside the grid, outward on its boundary.
    """

    dim: int
    #: per local axis, the coordinates at the doubled indices 0 .. 2 n
    lattice: tuple
    #: per local axis, the widths of its n cells
    widths: tuple
    #: (n_faces, dim) doubled lattice index of each face
    face_index: np.ndarray
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

    def __post_init__(self):
        self.validate()

    @property
    def shape(self) -> tuple:
        """Cells per local axis."""
        return tuple(w.size for w in self.widths)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_faces(self) -> int:
        return self.face_index.shape[0]

    def is_boundary(self) -> np.ndarray:
        """Boolean mask of faces having a single cell neighbor."""
        return self.face_cells[:, 1] < 0

    @property
    def cell_index(self) -> np.ndarray:
        """(n_cells, dim) cell index of each cell along each axis."""
        ids = np.arange(self.n_cells)
        strides = np.cumprod((1,) + self.shape[:-1])
        return _stack([ids // s % n for s, n in zip(strides, self.shape)], self.n_cells)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        centers = [x[2 * i + 1] for x, i in zip(self.lattice, self.cell_index.T)]
        return _stack(centers, self.n_cells)

    @cached_property
    def cell_widths(self) -> np.ndarray:
        return _stack([w[i] for w, i in zip(self.widths, self.cell_index.T)], self.n_cells)

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Products of the cell widths in axis order; 1 for a point."""
        return np.prod(self.cell_widths, axis=1)

    @cached_property
    def face_axis(self) -> np.ndarray:
        """The axis each face is normal to: the one its index is even on."""
        return np.nonzero((self.face_index & 1) == 0)[1].astype(np.int8)

    @cached_property
    def face_centers(self) -> np.ndarray:
        return _stack([x[k] for x, k in zip(self.lattice, self.face_index.T)], self.n_faces)

    @cached_property
    def face_areas(self) -> np.ndarray:
        """Products of the widths of the cells a face spans, in axis order;
        1 for the point faces of a line."""
        areas = np.ones(self.n_faces)
        for w, k in zip(self.widths, self.face_index.T):
            span = np.ones(2 * w.size + 1)  # 1 at the nodes, the widths between
            span[1::2] = w
            areas *= span[k]
        return areas

    @cached_property
    def face_sign(self) -> np.ndarray:
        """The normal's component along the face's axis: 1 where the face
        lies above its first cell, else −1."""
        at = np.arange(self.n_faces) * self.dim + self.face_axis  # flat (face, axis) entries
        first = self.cell_index.ravel()[self.face_cells[:, 0] * self.dim + self.face_axis]
        return np.where(self.face_index.ravel()[at] > 2 * first + 1, np.int8(1), np.int8(-1))

    @cached_property
    def face_nodes(self) -> np.ndarray:
        """The two end nodes of each face of a 2D grid, low end first. The
        nodes are numbered x-fastest: node (i, j) is i + (n_0 + 1) j."""
        low, across = self.face_index >> 1, self.face_index & 1
        strides = np.cumprod((1,) + tuple(n + 1 for n in self.shape[:-1]))
        return np.stack([low @ strides, (low + across) @ strides], axis=1)

    def cell_centers_global(self) -> np.ndarray:
        return self.frame_origin + self.cell_centers @ self.frame_axes

    def face_centers_global(self) -> np.ndarray:
        return self.frame_origin + self.face_centers @ self.frame_axes

    def validate(self) -> None:
        """Check that every face lies between its cells, one lattice step
        from each along the one axis its index is even on, and that each
        cell has exactly one face on each side of every axis (cheap, run on
        construction)."""
        if self.dim == 0:
            return  # a point has no faces
        index, (first, second), n = self.face_index, self.face_cells.T, np.array(self.shape)
        if np.any((index < 0) | (index > 2 * n)) or np.any(sum((k & 1) == 0 for k in index.T) != 1):
            raise MeshError("face index off the grid's lattice")
        # The ids of the cells above and below each face along its axis: on
        # plane p, the cell above exists if p < n and the one below if p > 0.
        axis, strides = self.face_axis, np.cumprod(np.r_[1, n[:-1]])
        plane = index.ravel()[np.arange(self.n_faces) * self.dim + axis] >> 1
        above = (index >> 1) @ strides
        below = above - strides[axis]
        up = (first == below) & (plane > 0)  # the face lies above its first cell
        has_above = plane < n[axis]
        other = np.where(up, (second == above) & has_above, (second == below) & (plane > 0))
        if not np.all((up | (first == above) & has_above) & ((second < 0) | other)):
            raise MeshError("a face does not lie between its cells")
        inner = second >= 0
        sides = np.concatenate([2 * first + up, (2 * second + ~up)[inner]]) * self.dim
        sides += np.concatenate([axis, axis[inner]])
        if np.any(np.bincount(sides, minlength=2 * self.dim * self.n_cells) != 1):
            raise MeshError("a cell is not closed by one face on each side of every axis")


@dataclass
class MortarInterface:
    """Interface between a lower-dimensional subdomain and a higher one,
    on one side of the lower one (1 or 2, as for :class:`FaultSpec`).

    Mortar cell ``m`` pairs the boundary face ``higher_faces[m]`` of the
    higher grid with cell ``m`` of the lower grid, whose volume is its
    measure; the mesh checks that the face's area equals it.
    """

    lower: int
    higher: int
    side: int
    higher_faces: np.ndarray

    def __post_init__(self):
        if self.side not in (1, 2):
            raise MeshError(f"interface side must be 1 or 2, got {self.side}")

    @property
    def n_mortar(self) -> int:
        return self.higher_faces.shape[0]

    @property
    def side_sign(self) -> int:
        """The permutation sign of the coupling: +1 on side 2, where the
        higher domain's outward normal is the cut normal, −1 on side 1,
        the side the cut normal points into."""
        return 1 if self.side == 2 else -1


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
        """Check that every interface pairs each cell of an existing lower
        grid with a distinct face of an existing grid one dimension higher,
        of equal measure: both are products of the same widths in the same
        order, so they are compared exactly."""
        for j, itf in enumerate(self.interfaces):
            if not (0 <= itf.lower < self.n_subdomains and 0 <= itf.higher < self.n_subdomains):
                raise MeshError(f"interface {j} names a subdomain that does not exist")
            gl = self.subdomains[itf.lower]
            gh = self.subdomains[itf.higher]
            if gh.dim - gl.dim != 1:
                raise MeshError("interface must connect dimensions differing by 1")
            if np.any((itf.higher_faces < 0) | (itf.higher_faces >= gh.n_faces)):
                raise MeshError(f"interface {j} names a face that does not exist")
            if itf.n_mortar != gl.n_cells:
                raise MeshError(
                    f"interface {j} has {itf.n_mortar} mortar cells for {gl.n_cells} lower cells"
                )
            if np.unique(itf.higher_faces).size != itf.n_mortar:
                raise MeshError("mortar cells must map to distinct higher faces")
            if not np.array_equal(gh.face_areas[itf.higher_faces], gl.cell_volumes):
                raise MeshError("mortar cell measures do not match across sides")


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


def _build_cartesian_grid(lo, hi, cuts, x0, h, top) -> CellGrid:
    """The Cartesian grid of the node box [lo, hi] of the ambient lattice
    (origin ``x0``, spacing ``h``, ``top`` cells per axis) over the axes
    the box spans, duplicating every face on one of ``cuts``.

    A cut is the node box of a slit child; it fixes one of the axes the
    grid spans. A box that spans no axis is a single point cell of unit
    measure. Faces on the ambient box get ``face_bnd`` 2*axis (+1 on the
    high side), all others −1.
    """
    axes = np.flatnonzero(lo != hi)
    dim = axes.size
    n = (hi - lo)[axes]
    strides = np.cumprod(np.r_[1, n[:-1]])  # cell id = cell index @ strides
    # An empty part gives a grid without faces (a point) their shapes and types.
    parts = [(np.zeros((0, dim), int), np.zeros((0, 2), int), *[np.zeros(0, int)] * 3)]

    for a, g in enumerate(axes):
        # The faces normal to axis a, plane by plane and x-fastest over the
        # other axes within a plane: ``at`` holds each face's plane along a
        # and its cell along every other axis.
        order = [b for b in range(dim) if b != a] + [a]
        count = np.where(np.arange(dim) == a, n + 1, n)[order]
        at = np.empty((int(np.prod(count)), dim), dtype=int)
        at[:, order] = np.column_stack(np.unravel_index(np.arange(len(at)), count, order="F"))
        plane = at[:, a]
        cid_hi = at @ strides
        cid_lo = cid_hi - strides[a]

        at_lo = plane == 0
        at_hi = plane == n[a]
        boundary = at_lo | at_hi
        bnd = np.full(len(at), -1)
        bnd[at_lo & (lo[g] == 0)] = 2 * g
        bnd[at_hi & (hi[g] == top[g])] = 2 * g + 1

        # A slit child fixes axis g at an interior node; its faces are the
        # ones whose cells along the other axes lie in its span.
        cut_of = np.full(len(at), -1)
        node = lo[axes] + at
        for ci, (clo, chi) in enumerate(cuts):
            if clo[g] == chi[g]:
                inside = (clo[axes] <= node) & (node < chi[axes])
                inside[:, a] = node[:, a] == clo[g]
                cut_of[inside.all(axis=1)] = ci
        slit = cut_of >= 0

        # Duplicate slit positions: the first copy attaches below (side 2),
        # the second, which repeats its source, above (side 1).
        src = np.repeat(np.arange(len(at)), np.where(slit, 2, 1))
        upper = np.r_[False, src[1:] == src[:-1]]
        c0 = np.where(at_lo[src] | upper, cid_hi[src], cid_lo[src])
        c1 = np.where(boundary[src] | slit[src], -1, cid_hi[src])
        side = np.where(slit[src], np.where(upper, 1, 2), 0)
        parts.append([
            2 * at[src] + (np.arange(dim) != a), np.stack([c0, c1], axis=1),
            bnd[src], np.where(slit[src], cut_of[src], -1), side,
        ])

    index, cells, bnd, cut, side = (np.concatenate(p) for p in zip(*parts))
    return CellGrid(
        dim=dim,
        lattice=tuple(x0[g] + h[g] * (np.arange(2 * lo[g], 2 * hi[g] + 1) / 2) for g in axes),
        widths=tuple(np.full(m, h[g]) for m, g in zip(n, axes)),
        face_index=index,
        face_cells=cells,
        face_bnd=bnd,
        face_cut=cut,
        face_side=side,
        frame_origin=np.where(lo != hi, 0.0, x0 + h * lo),
        frame_axes=np.eye(lo.size)[axes],
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
                at = higher.is_boundary() & (higher.face_cut < 0) & (higher.face_sign == up)
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
                sides = [2 if higher.face_sign[f] > 0 else 1 for f in faces]
                groups = [faces[i : i + 1] for i in range(faces.size)]
            interfaces += [MortarInterface(c, p, side, faces) for side, faces in zip(sides, groups)]

    mesh = MixedDimMesh(dim=dim, subdomains=subdomains, info=info, interfaces=interfaces)
    mesh.validate()
    return mesh

