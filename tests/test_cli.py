"""Command-line front end tests: exit codes, output files, determinism."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

import mdflow
from mdflow.cli import main

DEMO = """\
[domain]
lo = 0 0
hi = 1 1
resolution = 8 8
matrix_k = 1.0
name = demo

[fault]
p0 = 0 0.5
p1 = 1 0.5
aperture = 0.01
k_parallel = 100
k_perp = 100
k_t = 80

[bc]
side = y-
kind = dirichlet
value = 10

[bc]
side = y+
kind = dirichlet
value = 1
"""


def write_demo(tmp_path, text=DEMO, name="demo.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_vtk_cell_scalars(path):
    lines = path.read_text().splitlines()
    start = lines.index("LOOKUP_TABLE default") + 1
    n = int([ln for ln in lines if ln.startswith("CELL_DATA")][0].split()[1])
    return np.array([float(v) for v in lines[start:start + n]])


def test_run_writes_all_outputs(tmp_path, capsys):
    cfg = write_demo(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "solved demo" in stdout

    matrix_vtk = out / "demo_sub00.vtk"
    fault_vtk = out / "demo_sub01.vtk"
    assert matrix_vtk.exists() and fault_vtk.exists()
    text = matrix_vtk.read_text()
    assert text.startswith("# vtk DataFile Version 2.0")
    assert "SCALARS pressure double 1" in text
    assert "DATASET RECTILINEAR_GRID" in text
    assert "CELL_DATA 64" in text
    assert "CELL_DATA 8" in fault_vtk.read_text()

    mortar = (out / "demo_mortar.csv").read_text().splitlines()
    assert mortar[0] == "interface,cell,x,y,flux"
    # two interfaces (one per fault side) with 8 mortar cells each
    assert len(mortar) == 1 + 16

    fault = (out / "demo_fault.csv").read_text().splitlines()
    assert fault[0] == "subdomain,x,y,pressure"
    assert len(fault) == 1 + 8
    assert all(row.split(",")[0] == "1" for row in fault[1:])

    balance = (out / "demo_balance.txt").read_text().splitlines()
    assert balance[0] == "mass balance for demo"
    resid = float(
        [ln for ln in balance if ln.startswith("max cell residual")][0].split()[-1]
    )
    assert resid < 1e-10


def test_run_far_from_the_origin_writes_all_outputs(tmp_path):
    # 1e5 / 3 wide cells: neighbours compute their shared nodes differently
    # in the last bits.
    text = DEMO.replace("hi = 1 1", "hi = 1e5 1e5").replace("resolution = 8 8", "resolution = 3 4")
    text = text.replace("p0 = 0 0.5", "p0 = 0 5e4").replace("p1 = 1 0.5", "p1 = 1e5 5e4")
    out = tmp_path / "out"
    assert main(["run", write_demo(tmp_path, text=text), "--output", str(out)]) == 0
    text = (out / "demo_sub00.vtk").read_text()
    assert "DIMENSIONS 4 5 1" in text and "CELL_DATA 12" in text
    assert "DIMENSIONS 4 1 1" in (out / "demo_sub01.vtk").read_text()
    for name in ("demo_mortar.csv", "demo_fault.csv", "demo_balance.txt"):
        assert (out / name).exists()


def test_run_in_a_tiny_box_writes_all_outputs(tmp_path):
    # The demo in a box of side 1e-8: cells 3.125e-10 wide, below any
    # absolute tolerance of 1e-9. Only Dirichlet data, so the same heads.
    # The 2D LU scales by powers of two and refines every right-hand side
    # scaled to its largest entry, so the printed heads (12 digits) agree
    # exactly.
    ref, out = tmp_path / "ref", tmp_path / "out"
    text = DEMO.replace("resolution = 8 8", "resolution = 32 32")
    assert main(["run", write_demo(tmp_path, text=text), "--output", str(ref)]) == 0
    text = text.replace("hi = 1 1", "hi = 1e-8 1e-8").replace("aperture = 0.01", "aperture = 1e-10")
    text = text.replace("p0 = 0 0.5", "p0 = 0 5e-9").replace("p1 = 1 0.5", "p1 = 1e-8 5e-9")
    assert main(["run", write_demo(tmp_path, text=text, name="tiny.cfg"), "--output", str(out)]) == 0
    assert "DIMENSIONS 33 33 1" in (out / "demo_sub00.vtk").read_text()
    assert "DIMENSIONS 33 1 1" in (out / "demo_sub01.vtk").read_text()
    for sub in ("demo_sub00.vtk", "demo_sub01.vtk"):
        p, p_ref = read_vtk_cell_scalars(out / sub), read_vtk_cell_scalars(ref / sub)
        assert np.abs(p - p_ref).max() <= 1e-10 * np.abs(p_ref).max()
    for name in ("demo_mortar.csv", "demo_fault.csv", "demo_balance.txt"):
        assert (out / name).exists()


def test_run_uniform_dirichlet_gives_constant_field(tmp_path):
    text = DEMO.replace("value = 10", "value = 7").replace("value = 1", "value = 7")
    text += "\n[bc]\nside = x-\nkind = dirichlet\nvalue = 7\n"
    text += "\n[bc]\nside = x+\nkind = dirichlet\nvalue = 7\n"
    cfg = write_demo(tmp_path, text=text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output", str(out)]) == 0
    for sub in ("demo_sub00.vtk", "demo_sub01.vtk"):
        vals = read_vtk_cell_scalars(out / sub)
        assert np.allclose(vals, 7.0, atol=1e-10)
    fluxes = [
        float(row.split(",")[-1])
        for row in (out / "demo_mortar.csv").read_text().splitlines()[1:]
    ]
    assert np.allclose(fluxes, 0.0, atol=1e-10)


def test_run_is_deterministic(tmp_path):
    cfg = write_demo(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", cfg, "--output", str(out_a)]) == 0
    assert main(["run", cfg, "--output", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "mdflow: error:" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_demo(tmp_path, text="[domain]\nlo = banana split\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "mdflow: error:" in err


def test_bc_box_off_its_side_exits_2_at_its_line(tmp_path, capsys):
    # The y+ clause's box lies below the top edge, so it selects no face.
    cfg = write_demo(tmp_path, text=DEMO + "box = 0 0 1 0.5\n")
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "mdflow: error: line 25: [bc] box ((0.0, 0.0), (1.0, 0.5)) selects no boundary "
        "face on side y+\n"
    )
    assert not (tmp_path / "out").exists()


def test_region_box_without_a_cell_center_exits_2(tmp_path, capsys):
    # Cell centers of the 8 x 8 demo lie at odd multiples of 1/16; none is
    # in the box, so the region would set no cell's k.
    region = "\n[region]\nbox = 0.07 0.07 0.1 0.1\nk = 0.01\n"
    cfg = write_demo(tmp_path, text=DEMO + region)
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "mdflow: error: region box (0.07, 0.07) (0.1, 0.1) holds no cell center\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    ["name = a/b", "name =", "output ="],
    ids=["name-with-separator", "empty-name", "empty-output"],
)
def test_bad_output_names_exit_2_before_meshing(line, tmp_path, monkeypatch, capsys):
    # The case name starts every output file name and ``output`` names
    # their directory, so a bad one stops the run before anything is written.
    monkeypatch.chdir(tmp_path)
    cfg = write_demo(tmp_path, text=DEMO.replace("name = demo", line))
    argv = ["run", cfg] if line.startswith("output") else ["run", cfg, "--output", "out"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("mdflow: error: line 6:")
    assert os.listdir(tmp_path) == ["demo.cfg"]


def test_main_freezes_the_heap_it_starts_with(tmp_path):
    # Interpreter finalization collects every object the cycle collector
    # tracks; frozen ones, such as numpy's and scipy's, are skipped. Lists
    # made before the call are tracked and not frozen yet.
    held = [[] for _ in range(100)]
    before = gc.get_freeze_count()
    assert main(["run", write_demo(tmp_path), "--output", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() >= before + len(held)


def test_unknown_case_exits_2(capsys):
    assert main(["converge", "case99"]) == 2
    assert "mdflow: error:" in capsys.readouterr().err


def test_bad_formulation_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "case1", "--formulation", "nonlocal"])
    assert exc.value.code == 2
    assert "unknown formulation" in capsys.readouterr().err


def test_converge_writes_table(tmp_path, capsys):
    code = main(
        ["converge", "network2d", "--levels", "2", "--output", str(tmp_path),
         "--formulation", "SL"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "# mean EOC" in stdout
    path = tmp_path / "network2d_semilocal.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "level,h,N,N_f,error,eoc,formulation,case"
    assert len(lines) == 3
    assert lines[1].endswith(",semilocal,network2d")


def test_converge_local_alias(tmp_path):
    code = main(
        ["converge", "case1", "--levels", "2", "--output", str(tmp_path),
         "--formulation", "L"]
    )
    assert code == 0
    assert (tmp_path / "case1_local.csv").exists()


def test_compare_writes_dual_columns(tmp_path, capsys):
    code = main(["compare", "case1", "--levels", "2", "--output", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "case1_compare.csv").read_text().splitlines()
    assert lines[0] == (
        "level,h,N,N_f,error_local,eoc_local,error_semilocal,eoc_semilocal,case"
    )
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 9
        assert cells[-1] == "case1"
        assert float(cells[4]) > 0 and float(cells[6]) > 0


def test_compare_case1_matches_the_benchmark_table(tmp_path):
    """The benchmark's stored case1 table, at the benchmark's tolerances:
    1e-8 relative on h and the errors, 1e-5 on the orders (printed to six
    significant digits)."""
    assert main(["compare", "case1", "--output", str(tmp_path)]) == 0
    got = [row.split(",") for row in (tmp_path / "case1_compare.csv").read_text().splitlines()]
    ref = os.path.join(os.path.dirname(__file__), "..", "perfbench", "refs", "compare-case1.csv")
    with open(ref) as fh:
        want = [row.split(",") for row in fh.read().splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    col = {name: k for k, name in enumerate(want[0])}
    for g, w in zip(got[1:], want[1:]):
        for name in ("level", "N", "N_f", "case"):
            assert g[col[name]] == w[col[name]], name
        for name in ("h", "error_local", "error_semilocal"):
            got_v, want_v = float(g[col[name]]), float(w[col[name]])
            assert abs(got_v - want_v) <= 1e-8 * abs(want_v), name
        for name in ("eoc_local", "eoc_semilocal"):
            assert (g[col[name]] == "") == (w[col[name]] == ""), name
            if w[col[name]]:
                assert abs(float(g[col[name]]) - float(w[col[name]])) <= 1e-5, name


def test_benchmark_tracer_finds_every_binding():
    # The benchmark's tracer replaces library functions by name; a renamed
    # or re-imported function makes ``install`` raise ``TracerError``.
    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    code = "from tracer import Tracer; Tracer().install()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_compare_solves_the_reference_once(tmp_path, monkeypatch):
    import mdflow.verify as verify

    verify._ORACLE_PROFILES.clear()
    calls = []

    def counting(case):
        calls.append(case)
        return solve_equidim(case)

    solve_equidim = verify.solve_equidim
    monkeypatch.setattr(verify, "solve_equidim", counting)
    assert main(["compare", "case1", "--levels", "2", "--output", str(tmp_path)]) == 0
    assert len(calls) == 1


T_JUNCTION_3D = """\
[domain]
lo = 0 0 0
hi = 1 1 1
resolution = 4 4 4

[fault]
p0 = 0.5 0 0
p1 = 0.5 1 1
aperture = 0.01
k_parallel = 1
k_perp = 1

[fault]
p0 = 0 0.5 0
p1 = 0.5 0.5 1
aperture = 0.01
k_parallel = 1
k_perp = 1
"""


def test_run_3d_t_junction_exits_2(tmp_path, capsys):
    cfg = write_demo(tmp_path, text=T_JUNCTION_3D)
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "fault 'F2' ends on fault 'F1'" in err
    assert "T-junctions along a line are not supported in 3D" in err
    # A failed run leaves no output directory behind.
    assert not (tmp_path / "out").exists()


def test_cli_import_skips_scipy_spatial():
    # Importing the front end should not pay for scipy.spatial.
    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    code = "import sys, mdflow.cli; sys.exit('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_compare_never_loads_scipy_spatial(tmp_path):
    # ``sample_nearest`` looks the reference up on its lattice axes, so the
    # studies need no k-d tree either.
    src = os.path.dirname(os.path.dirname(mdflow.__file__))
    code = (
        "import sys, mdflow.cli; "
        f"rc = mdflow.cli.main(['compare', 'case1', '--levels', '2', '--output', {str(tmp_path)!r}]); "
        "sys.exit(3 if 'scipy.spatial' in sys.modules else rc)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert done.returncode == 0
    assert (tmp_path / "case1_compare.csv").exists()


def test_mesh_command_is_a_usage_error(tmp_path, capsys):
    # Every command meshes its config itself; there is no mesh file to write.
    with pytest.raises(SystemExit) as exit_info:
        main(["mesh", write_demo(tmp_path), "--export", str(tmp_path / "demo.mesh")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'mesh'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["demo.cfg"]


def _fail_to_solve(system):
    raise mdflow.SolverError("no convergence")


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda text: text.replace("resolution = 8 8", "resolution = inf 8"), 2,
         "mdflow: error: line 4:"),
        (lambda text: text.replace("p0 = 0 0.5", "p0 = 0 0.33").replace("p1 = 1 0.5", "p1 = 1 0.33"),
         2, "mdflow: error: fault 'F1': coordinate 0.33 is not on a grid line"),
        (lambda text: text.replace("k_t = 80", "k_t = 1000"), 2,
         "mdflow: error: fault 'F1': the effective in-plane tensor is not positive definite"),
        (None, 1, "mdflow: solver error: no convergence"),
    ],
    ids=["config", "mesh", "screen", "solver"],
)
def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch, capsys, edit, code, message):
    # The output directory is made only after the solve and the mass
    # balance, so a run that stops at any earlier stage writes nothing.
    if edit is None:
        monkeypatch.setattr("mdflow.cli.solve", _fail_to_solve)
    cfg = write_demo(tmp_path, text=DEMO if edit is None else edit(DEMO))
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(message)
    assert os.listdir(tmp_path) == ["demo.cfg"]
