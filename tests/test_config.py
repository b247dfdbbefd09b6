"""Config parsing, validation, and round-trip tests."""

import re
from pathlib import Path

import pytest

import numpy as np

from mdflow.config import (
    BUILTIN_CASES,
    SIDE_NAMES,
    SECTIONS,
    ConfigError,
    builtin_case,
    parse_config,
)

BASE = "[domain]\nlo = 0 0\nhi = 1 1\nresolution = 4 4\nmatrix_k = 1\n"
# Line 7 is the section header, and its keys follow in the order written.
REGION = BASE + "\n[region]\nbox = 0 0 1 1\nk = 2\n"
FAULT = BASE + (
    "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01\nk_parallel = 1\nk_perp = 1\n"
)
BC = BASE + "\n[bc]\nside = y-\nkind = dirichlet\nvalue = 1\nbox = 0 0 1 0\n"


def _set(text, key, value):
    """``text`` with the value of its first ``key`` line replaced."""
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)


# Non-finite numbers, where each key is read: (text, key, value, line).
NON_FINITE = [
    (BASE, "resolution", "inf 8", 4),
    (BASE, "resolution", "nan 8", 4),
    (BASE, "lo", "0 nan", 2),
    (BASE, "hi", "inf 1", 3),
    (BASE, "matrix_k", "inf", 5),
    (FAULT, "aperture", "nan", 10),
    (FAULT, "k_perp", "inf", 12),
    (FAULT, "k_perp", "1 nan", 12),
    (BC, "value", "nan", 10),
    (BC, "value", "1e999", 10),
    (BC, "box", "0 0 inf 0", 11),
    (REGION, "box", "nan 0 1 1", 8),
]


def _fmt(values) -> str:
    return " ".join(f"{float(v):.12g}" for v in np.ravel(values))


def write_config(cfg) -> str:
    """Serialize a configuration; ``parse_config`` restores it exactly."""
    out = ["[domain]"]
    out.append(f"lo = {_fmt(cfg.domain_lo)}")
    out.append(f"hi = {_fmt(cfg.domain_hi)}")
    out.append("resolution = " + " ".join(str(int(r)) for r in cfg.resolution))
    out.append(f"matrix_k = {_fmt([cfg.matrix_k])}")
    out.append(f"output = {cfg.output}")
    out.append(f"name = {cfg.name}")
    for lo, hi, k in cfg.matrix_regions:
        out.append("")
        out.append("[region]")
        out.append(f"box = {_fmt(lo)} {_fmt(hi)}")
        out.append(f"k = {_fmt([k])}")
    for f in cfg.faults:
        out.append("")
        out.append("[fault]")
        out.append(f"p0 = {_fmt(f.p0)}")
        out.append(f"p1 = {_fmt(f.p1)}")
        out.append(f"aperture = {_fmt([f.aperture])}")
        out.append(f"k_parallel = {_fmt([f.k_parallel])}")
        out.append(f"k_perp = {_fmt(f.k_perp)}")
        out.append(f"k_t = {_fmt(f.k_t)}")
        out.append(f"name = {f.name}")
    for clause in cfg.bcs:
        out.append("")
        out.append("[bc]")
        out.append(f"side = {SIDE_NAMES[clause.side]}")
        out.append(f"kind = {clause.kind}")
        out.append(f"value = {_fmt([clause.value])}")
        if clause.box is not None:
            out.append(f"box = {_fmt(clause.box[0])} {_fmt(clause.box[1])}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(BUILTIN_CASES))
def test_roundtrip_builtin(name):
    cfg = builtin_case(name)
    text = write_config(cfg)
    cfg2 = parse_config(text)
    assert write_config(cfg2) == text
    assert cfg2.name == cfg.name
    assert cfg2.resolution == cfg.resolution
    assert len(cfg2.faults) == len(cfg.faults)
    assert len(cfg2.bcs) == len(cfg.bcs)


def test_case1_material_data():
    cfg = builtin_case("case1")
    f = cfg.faults[0]
    assert cfg.matrix_k == 1.0
    assert f.k_parallel == 100.0
    assert f.k_perp == (100.0, 100.0)
    assert f.k_t == (80.0, 80.0)
    assert f.aperture == 0.01


def test_case2_sides_differ():
    cfg = builtin_case("case2")
    f = cfg.faults[0]
    assert f.k_t == (50.0, 80.0)
    assert f.aperture == 0.02


def test_builtin_unknown_name():
    with pytest.raises(ConfigError):
        builtin_case("case99")


def test_no_faults_is_valid():
    cfg = parse_config(BASE + "\n[bc]\nside = y-\nkind = dirichlet\nvalue = 1\n")
    assert cfg.faults == []
    cfg.validate()


def test_single_value_pairs_broadcast():
    text = BASE + (
        "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01\n"
        "k_parallel = 3\nk_perp = 7\nk_t = 2\n"
    )
    f = parse_config(text).faults[0]
    assert f.k_perp == (7.0, 7.0)
    assert f.k_t == (2.0, 2.0)


def test_two_value_pairs_kept():
    text = BASE + (
        "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01\n"
        "k_parallel = 3\nk_perp = 7 9\nk_t = 2 4\n"
    )
    f = parse_config(text).faults[0]
    assert f.k_perp == (7.0, 9.0)
    assert f.k_t == (2.0, 4.0)


@pytest.mark.parametrize(
    "text,line,needle",
    [
        (
            BASE + "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = -0.01\n"
            "k_parallel = 1\nk_perp = 1\n",
            10,
            "aperture",
        ),
        (BASE + "bogus = 3\n", 6, "unknown key 'bogus'"),
        (BASE + "solver = direct\n", 6, "unknown key 'solver'"),
        (BASE + "method = auto\n", 6, "unknown key 'method'"),
        (BASE + "\n[weird]\n", 7, "unknown section"),
        (BASE + "resolution = 8 8\n", 6, "duplicate key 'resolution'"),
        (BASE + "\n[bc]\nside = q-\nkind = dirichlet\nvalue = 1\n", 8, "side"),
        (BASE + "\n[bc]\nside = y-\nkind = fancy\nvalue = 1\n", 9, "kind"),
        (
            BASE + "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\nk_parallel = 1\nk_perp = 1\n",
            7,
            "missing required key 'aperture'",
        ),
        (
            "[domain]\nlo = 0 0\nhi = 1 1\nresolution = 4 x\nmatrix_k = 1\n",
            4,
            "expected numbers",
        ),
        (BASE + "\n[domain]\nlo = 0 0\nhi = 2 2\nresolution = 4 4\nmatrix_k = 1\n",
         7, "more than one [domain]"),
        (
            BASE + "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01\n"
            "k_parallel = 1\nk_perp = 1 2 3\n",
            12,
            "one or two values",
        ),
        ("lo = 0 0\n", 1, "outside of any section"),
        # A reversed box would select no cell or face.
        (BASE + "\n[region]\nbox = 1 1 0.5 0.5\nk = 2\n", 8, "'box' low corner"),
        (
            BASE + "\n[bc]\nside = x+\nkind = dirichlet\nvalue = 1\nbox = 1 1 0.5 1\n",
            11,
            "'box' low corner",
        ),
        # The local law is a fault with k_t = 0, not a key of its own.
        (BASE + "formulation = local\n", 6, "unknown key 'formulation'"),
        (_set(BASE, "matrix_k", "-1"), 5, "'matrix_k' must be positive"),
        (_set(REGION, "k", "0"), 9, "'k' must be positive"),
        (_set(FAULT, "k_parallel", "-1"), 11, "'k_parallel' must be positive"),
        (_set(FAULT, "p0", "0 0.5 0"), 8, "'p0' needs 2 numbers"),
        (_set(FAULT, "p1", "1"), 9, "'p1' needs 2 numbers"),
        # The case name starts every output file name.
        (BASE + "name = a/b\n", 6, "'name' must not hold a path separator, got 'a/b'"),
        (BASE + "name =\n", 6, "'name' needs a value"),
        (BASE + "output =\n", 6, "'output' needs a value"),
        # A fault's name labels it in the screen's and the mesher's messages.
        (FAULT + "name =\n", 13, "'name' needs a value"),
        (FAULT + "name = A\n" + FAULT[len(BASE):] + "name = A\n", 21,
         "fault name 'A' is taken"),
        # The second fault would be named F2 by its position.
        (FAULT + "name = F2\n" + FAULT[len(BASE):], 15, "fault name 'F2' is taken"),
    ]
    + [(_set(text, key, value), line, f"{key!r} must be finite")
       for text, key, value, line in NON_FINITE],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert msg.startswith(f"line {line}:")
    assert needle in msg


def test_name_rejects_the_alternative_separator(monkeypatch):
    monkeypatch.setattr("mdflow.config.os.altsep", "\\")
    with pytest.raises(ConfigError, match=r"^line 6: 'name' must not hold a path separator"):
        parse_config(BASE + "name = a\\b\n")
    assert parse_config(BASE + "output = a\\b\n").output == "a\\b"


@pytest.mark.parametrize(
    "text,line,key",
    [
        ("[domain]\nlo = 0 0\nhi = 1 1\nresolution = 4 4\nmatrix_k = 1 2\n",
         5, "matrix_k"),
        (
            "[domain]\nlo = 0 0 0\nhi = 1 1 1\nresolution = 4 4 4\n"
            "\n[region]\nbox = 0 0 0 1 1 1\nk = 1 0.5 0 0.5 1 0 0 0 1\n",
            8,
            "k",
        ),
        (
            BASE + "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01 0.02\n"
            "k_parallel = 1\nk_perp = 1\n",
            10,
            "aperture",
        ),
        (
            BASE + "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01\n"
            "k_parallel = 1 1\nk_perp = 1\n",
            11,
            "k_parallel",
        ),
        (BASE + "\n[bc]\nside = y-\nkind = dirichlet\nvalue = 1 7\n", 10, "value"),
    ],
)
def test_scalar_keys_reject_extra_numbers(text, line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {line}: {key!r} takes one value"


def test_nonpositive_k_perp_rejected():
    text = BASE + (
        "\n[fault]\np0 = 0 0.5\np1 = 1 0.5\naperture = 0.01\n"
        "k_parallel = 1\nk_perp = 0\n"
    )
    with pytest.raises(ConfigError):
        parse_config(text)


def test_material_set_local_zeroes_tangential():
    cfg = builtin_case("case1")
    mats_sl = cfg.material_set("semilocal")
    mats_l = cfg.material_set("local")
    (sl,) = mats_sl.fault_perms
    (lo,) = mats_l.fault_perms
    assert sl.k_t[0][0] == 80.0
    assert lo.k_t[0][0] == 0.0
    assert sl.k_perp == lo.k_perp


def test_material_set_rejects_unknown_formulation():
    # The study's short names are resolved by the command line, not here.
    with pytest.raises(ConfigError, match="unknown formulation 'L'"):
        builtin_case("case1").material_set("L")


def test_readme_lists_every_key():
    """README's configuration table names the keys of :data:`SECTIONS`,
    section by section and in reading order; parentheses hold notes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, flags=re.M)
    listed = {
        name: re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys))
        for name, keys in rows
    }
    assert listed == {name: list(keys) for name, keys in SECTIONS.items()}
