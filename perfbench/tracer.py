"""Spans around the public function of each mdflow layer, from outside.

The library imports its layer functions by name into several modules, so
every binding that a call can go through is replaced by one shared wrapper.
A wrapper records a span (name, parent, start, end) and, after the span has
closed, optional counts read from the call's arguments and result. The time
those counting hooks take is excluded from every span open around them, so
that reading the LU fill (which copies both factors) does not show up as
solve time.

Spans are kept in memory and returned by :meth:`Tracer.records`; the op
process writes them out when it exits.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _mesh_counts(args, kwargs, mesh) -> dict:
    return {
        "cells": sum(g.n_cells for g in mesh.subdomains),
        "subdomains": len(mesh.subdomains),
        "interfaces": len(mesh.interfaces),
        "mortar_cells": sum(itf.n_mortar for itf in mesh.interfaces),
    }


def _system_counts(args, kwargs, system) -> dict:
    return {"unknowns": system.n_unknowns, "nnz": int(system.matrix.nnz)}


def _grid_cells(args, kwargs, result) -> dict:
    return {"cells": int(args[0].n_cells)}


def _lu_fill(args, kwargs, lu) -> dict:
    return {"lu_fill": int(lu.L.nnz + lu.U.nnz), "nnz": int(args[0].nnz)}


def _residual(args, kwargs, sol) -> dict:
    return {"residual": float(sol.residual)}


def _file_size(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _levels(args, kwargs, study) -> dict:
    return {"levels": len(study.records)}


#: (span name, attribute, modules whose binding of it is replaced, counts).
#: ``mdflow.discretize`` on the package is the dispatch function, so modules
#: are always reached through ``importlib.import_module``.
BINDINGS = (
    ("mdmesh.build", "build_cartesian_md_mesh",
     ("mdflow.cli", "mdflow.verify", "mdflow.equidim"), _mesh_counts),
    ("mdassembly.global", "assemble_global",
     ("mdflow.mdassembly", "mdflow.cli", "mdflow.verify", "mdflow.equidim"), None),
    ("semilocal.problems", "build_problems", ("mdflow.mdassembly",), None),
    ("mdassembly.assemble", "assemble_from_problems", ("mdflow.mdassembly",),
     _system_counts),
    ("discretize", "discretize", ("mdflow.mdassembly",), _grid_cells),
    ("discretize.mpfa", "mpfa_discretize", ("mdflow.discretize",), None),
    ("discretize.tpfa", "tpfa_discretize", ("mdflow.discretize",), None),
    ("semilocal.blocks", "assemble_interface_blocks", ("mdflow.mdassembly",), None),
    ("solve", "solve",
     ("mdflow.mdassembly", "mdflow.cli", "mdflow.verify", "mdflow.equidim"),
     _residual),
    ("solve.factor", "splu", ("scipy.sparse.linalg",), _lu_fill),
    ("balance", "mass_balance_report", ("mdflow.cli",), None),
    ("vtkio", "write_vtk", ("mdflow.cli",), _file_size),
    ("verify", "run_case", ("mdflow.cli",), _levels),
    ("equidim", "solve_equidim", ("mdflow.verify",), None),
)


class TracerError(Exception):
    """The program no longer has a binding the tracer expects."""


class Tracer:
    """Records nested spans of one process; single-threaded."""

    def __init__(self):
        # One row per span: [name, id, parent id, start, end, excluded, counts].
        self._spans = []
        self._open = []

    def span(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, len(self._spans), self._open[-1][1] if self._open else -1,
                   time.perf_counter(), 0.0, 0.0, None]
            self._spans.append(row)
            self._open.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                row[6] = counts(args, kwargs, result)
                hidden = time.perf_counter() - row[4]
                for parent in self._open:
                    parent[5] += hidden
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding listed in :data:`BINDINGS`."""
        for name, attr, modules, counts in BINDINGS:
            mods = [importlib.import_module(m) for m in modules]
            original = getattr(mods[0], attr, None)
            if original is None:
                raise TracerError(f"{modules[0]} has no attribute {attr!r}")
            for mod in mods[1:]:
                if getattr(mod, attr, None) is not original:
                    raise TracerError(
                        f"{mod.__name__}.{attr} is not {modules[0]}.{attr}"
                    )
            wrapper = self.span(name, original, counts)
            for mod in mods:
                setattr(mod, attr, wrapper)

    def records(self) -> list:
        """Spans as dicts with their duration net of excluded hook time."""
        return [
            {"name": n, "id": i, "parent": p, "start": t0,
             "duration": t1 - t0 - ex, "counts": c or {}}
            for n, i, p, t0, t1, ex, c in self._spans
        ]
