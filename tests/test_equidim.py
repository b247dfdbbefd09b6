"""Fully resolved reference solver tests.

A strip whose tensor equals the matrix permeability must be invisible: a
uniform head drop across the full domain then produces the exact linear
profile. With symmetric data and no off-diagonal strip entries the
averaged strip profile must be symmetric about the domain midline.
"""

import numpy as np
import pytest

from mdflow.config import BcClause, builtin_case
from mdflow.equidim import EquiDimCase, average_fault_pressure, solve_equidim
from mdflow.mdmesh import MeshError
from mdflow.verify import equidim_oracle
from test_mdassembly import scaled


def strip_case(tensor, n=20, a=0.1, bcs=None, matrix_k=None):
    if bcs is None:
        bcs = [BcClause(2, "dirichlet", 1.0), BcClause(3, "dirichlet", 0.0)]
    return EquiDimCase(
        domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0), resolution=(n, n),
        matrix_k=np.eye(2) if matrix_k is None else matrix_k,
        strips=[((0.0, 0.5 - a / 2), (1.0, 0.5 + a / 2), tensor)],
        bcs=bcs,
    )


def test_transparent_strip_gives_linear_profile():
    case = strip_case(np.eye(2))
    sol = solve_equidim(case)
    y = sol.grid.cell_centers[:, 1]
    assert np.abs(sol.pressures - (1.0 - y)).max() < 1e-11


def test_symmetric_strip_profile():
    # conductive strip without cross terms, symmetric boundary data:
    # the averaged profile must be symmetric about x = 0.5
    tensor = np.array([[50.0, 0.0], [0.0, 2.0]])
    bcs = [
        BcClause(2, "dirichlet", 10.0, box=((0.25, 0.0), (0.75, 0.0))),
        BcClause(3, "dirichlet", 1.0, box=((0.0, 1.0), (0.25, 1.0))),
        BcClause(3, "dirichlet", 1.0, box=((0.75, 1.0), (1.0, 1.0))),
    ]
    case = strip_case(tensor, n=40, a=0.05, bcs=bcs)
    sol = solve_equidim(case)
    xs, prof = average_fault_pressure(
        sol, (0.0, 0.475), (1.0, 0.525), axis=0
    )
    assert xs.shape == prof.shape
    assert np.abs(prof - prof[::-1]).max() < 1e-8


def test_cross_terms_break_symmetry():
    tensor = np.array([[50.0, 20.0], [20.0, 2.0]])
    bcs = [
        BcClause(2, "dirichlet", 10.0, box=((0.25, 0.0), (0.75, 0.0))),
        BcClause(3, "dirichlet", 1.0, box=((0.0, 1.0), (0.25, 1.0))),
        BcClause(3, "dirichlet", 1.0, box=((0.75, 1.0), (1.0, 1.0))),
    ]
    case = strip_case(tensor, n=40, a=0.05, bcs=bcs)
    sol = solve_equidim(case)
    xs, prof = average_fault_pressure(
        sol, (0.0, 0.475), (1.0, 0.525), axis=0
    )
    assert np.abs(prof - prof[::-1]).max() > 1e-3


def test_average_equal_rows():
    case = strip_case(np.eye(2))
    sol = solve_equidim(case)
    sol.pressures = np.full(sol.grid.n_cells, 4.5)
    xs, prof = average_fault_pressure(sol, (0.0, 0.45), (1.0, 0.55), axis=0)
    assert np.allclose(prof, 4.5)
    assert xs.shape[0] == 20


def test_average_cancels_antisymmetric_perturbation():
    case = strip_case(np.eye(2), n=10, a=0.2)
    sol = solve_equidim(case)
    base = np.full(sol.grid.n_cells, 2.0)
    y = sol.grid.cell_centers[:, 1]
    band = (y > 0.4) & (y < 0.6)
    delta = np.where(y > 0.5, 0.125, -0.125) * band
    sol.pressures = base + delta
    xs, prof = average_fault_pressure(sol, (0.0, 0.4), (1.0, 0.6), axis=0)
    assert np.allclose(prof, 2.0, atol=1e-13)


def test_strip_must_align_with_grid():
    case = strip_case(np.eye(2), n=20, a=0.13)
    with pytest.raises(MeshError):
        solve_equidim(case)


def test_strip_needs_two_rows():
    case = strip_case(np.eye(2), n=10, a=0.1)
    with pytest.raises(MeshError):
        solve_equidim(case)


@pytest.mark.parametrize(
    "s_lo,s_hi",
    [((0.0, 0.5), (1.0, 0.5)), ((0.0, 0.55), (1.0, 0.45)), ((1.0, 0.45), (0.0, 0.55))],
    ids=["flat", "swapped-y", "swapped-x"],
)
def test_strip_needs_a_positive_span_on_every_axis(s_lo, s_hi):
    # Such a strip holds no cell, so the solve would see the matrix alone.
    case = strip_case(np.eye(2), n=20)
    case.strips = [(s_lo, s_hi, np.array([[100.0, 80.0], [80.0, 100.0]]))]
    with pytest.raises(MeshError, match="below its high corner"):
        case.validate()


def test_empty_band_rejected():
    case = strip_case(np.eye(2))
    sol = solve_equidim(case)
    with pytest.raises(ValueError):
        average_fault_pressure(sol, (2.0, 2.0), (3.0, 3.0), axis=0)


@pytest.mark.parametrize("s", [1e-10, 1e-11])
def test_oracle_profile_does_not_depend_on_units(s):
    # Cells 5e-13 wide at s = 1e-10: the band and the columns are told
    # apart on the grid's own lattice, not by absolute margins.
    cfg = builtin_case("case1")
    xs, ref = equidim_oracle(cfg)
    xs_s, prof = equidim_oracle(scaled(cfg, s))
    assert xs_s.shape == xs.shape == (200,)
    assert np.abs(xs_s - s * xs).max() <= 1e-14 * s
    assert np.abs(prof - ref).max() <= 1e-10 * np.abs(ref).max()
