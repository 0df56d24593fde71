"""Tests for CSV/JSON profile serialization."""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import curvsol.io
from curvsol import ParameterError, SpeedSpec, harmonic_pairs, integrate_profile, sigma_k_root
from curvsol.cli import main
from curvsol.io import (derived_columns, read_profile_csv, speed_from_dict,
                        speed_to_dict, write_profile_csv, write_table)


@pytest.fixture(scope="module")
def profile():
    return integrate_profile(sigma_k_root(2, 3), r_max=1.5)


def test_round_trip_lossless(tmp_path, profile):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    back = read_profile_csv(path)
    assert np.array_equal(back.samples, profile.samples)
    assert back.speed == profile.speed
    assert back.startup_slope == profile.startup_slope
    assert back.status == profile.status
    assert back.blowup_radius == profile.blowup_radius


def test_speed_dict_round_trip():
    spec = SpeedSpec("product", 4, factors=(sigma_k_root(2, 4), harmonic_pairs(4)),
                     weights=(0.25, 0.75))
    assert speed_from_dict(speed_to_dict(spec)) == spec


def test_derived_columns_consistent(profile):
    cols = derived_columns(profile)
    # residual column small for a genuine sigma_k profile
    assert np.nanmax(np.abs(cols[:, 4])) < 1e-7
    # tilt column matches 1/sqrt(1+du^2)
    assert cols[:, 3] == pytest.approx(1.0 / np.sqrt(1.0 + profile.du ** 2), rel=1e-14)


def test_malformed_csv_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,u,du,ddu,lambda1,lambda2,gamma,tilt,residual\n1.0,0.1,oops,0.2\n")
    with pytest.raises(ParameterError, match="line 2"):
        read_profile_csv(path)


def test_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParameterError, match="line 1"):
        read_profile_csv(path)


def test_missing_sidecar(tmp_path, profile):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    (tmp_path / "p.meta.json").unlink()
    with pytest.raises(ParameterError, match="sidecar"):
        read_profile_csv(path)


def test_write_is_deterministic(tmp_path, profile):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_profile_csv(a, profile)
    write_profile_csv(b, profile)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()


def test_write_table_bytes(tmp_path, capsys):
    values = [float("nan"), float("inf"), -0.0, 1.0 / 3.0]
    expected = "x,y\n" + "".join(f'{format(v, ".17g")},{format(-v, ".17g")}\n' for v in values)
    path = tmp_path / "t.csv"
    write_table(path, ("x", "y"), (np.array(values), -np.array(values)))
    assert path.read_bytes() == expected.encode()
    write_table(None, ("x", "y"), (np.array(values), -np.array(values)))
    assert capsys.readouterr().out == expected


def oracle_write_table(path, header, columns):
    """The row-at-a-time formatter that the batched ``write_table`` replaced,
    kept as the reference for its bytes."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    text = (",".join(header) + "\n"
            + "".join(row % tuple(r) for r in np.column_stack(columns).tolist()))
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def table_text(header, columns) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_table(None, header, columns)
    return out.getvalue()


def per_cell_text(header, table) -> str:
    return ",".join(header) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 300), st.integers(1, 9)),
                  elements=st.floats(width=64, allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_write_table_bytes_equal_per_cell_format(table):
    header = tuple(f"c{j}" for j in range(table.shape[1]))
    assert table_text(header, tuple(table.T)) == per_cell_text(header, table)


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGE_VALUES = [
    *(v for k in range(-6, 19) for v in _neighbours(float(f"1e{k}"))),   # powers of ten
    *(v for x in (1e-4, 1e16) for v in (*_neighbours(x), *_neighbours(-x))),  # batched-path edges
    *_neighbours(2.0 ** 53), 2.0 ** 53 + 2.0, 2.0 ** 53 - 1.0,
    1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 9.9999999999999999e15,
    -1.5, -0.1, -123456.789, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0,
]


@pytest.mark.parametrize("columns", [1, 2, 3, 7])
def test_write_table_edge_values(columns):
    values = np.array(EDGE_VALUES)
    table = np.resize(values, (len(values) // columns + 1) * columns).reshape(-1, columns)
    header = tuple(f"c{j}" for j in range(columns))
    assert table_text(header, tuple(table.T)) == per_cell_text(header, table)


@pytest.mark.parametrize("value, text", [
    (1e15 + 0.25, "1000000000000000.2"),     # exact ties round half to even
    (1e15 + 0.75, "1000000000000000.8"),
    (1e14 + 0.125, "100000000000000.12"),
    (9.9999999999999999e15, "10000000000000000"),
    (np.nextafter(1e16, 0.0), "9999999999999998"),
    (2.0 ** 53 + 2.0, "9007199254740994"),
    (1e-4, "0.0001"),
    (-1e-4, "-0.0001"),
    (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
    (0.1, "0.10000000000000001"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (np.nan, "nan"),
    (-np.inf, "-inf"),
])
def test_write_table_cell_text(value, text):
    assert table_text(("x", "y"), (np.array([value]), np.array([1.0]))) == f"x,y\n{text},1\n"


def test_decade_edge_cells_take_the_per_cell_path(monkeypatch):
    # a cell whose significand's high part is 1e16 or 1e17 is not exact in one
    # pass of the batched kernel, so it must be formatted by %.17g itself
    edges = [1.0, 10.0, 100.0, 1e-4, 1e-3, 0.1, 1e15]
    edges += [-x for x in edges]
    ordinary = np.linspace(0.37, 7.3e3, 26).tolist()
    table = np.array([x for pair in zip(edges + edges, ordinary) for x in pair]).reshape(-1, 4)
    seen = []
    other_cells = curvsol.io._other_cells

    def recording(v, last):
        seen.extend(v.tolist())
        return other_cells(v, last)

    monkeypatch.setattr(curvsol.io, "_other_cells", recording)
    header = ("a", "b", "c", "d")
    assert table_text(header, tuple(table.T)) == per_cell_text(header, table)
    assert set(edges) <= set(seen)
    assert not set(ordinary) & set(seen)


def test_write_table_without_rows_is_the_header():
    assert table_text(("r", "w"), (np.array([]), np.array([]))) == "r,w\n"
    assert table_text(("r",), (np.array([]),)) == "r\n"


def test_write_table_one_column():
    values = np.linspace(-3.0, 3.0, 5001)       # more than one batch, 0 in the middle
    assert table_text(("r",), (values,)) == per_cell_text(("r",), values[:, None])


def test_write_table_header_must_match_columns():
    with pytest.raises(ValueError, match="3 columns under 2 header names"):
        write_table(None, ("r", "w"), (np.ones(2), np.ones(2), np.ones(2)))


@pytest.mark.parametrize("argv", [
    ["picard", "--n", 3, "--R", 0.38, "--grid", 8189, "--tol", 1e-13, "--out", "t.json"],
    ["solve", "--speed", "harmonic", "--n", 3, "--rmax", 3, "--out", "t.csv"],
    ["barriers", "--names", "w3,w5", "--n", 3, "--out", "t.csv"],
], ids=["picard", "solve", "barriers"])
def test_cli_tables_equal_the_row_formatter(tmp_path, monkeypatch, argv):
    def table(directory):
        directory.mkdir()
        assert main([str(directory / a) if a in ("t.json", "t.csv") else str(a)
                     for a in argv]) == 0
        return (directory / "t.csv").read_bytes()

    batched = table(tmp_path / "batched")
    monkeypatch.setattr(curvsol.io, "write_table", oracle_write_table)
    assert batched == table(tmp_path / "oracle")
    cells = np.loadtxt(tmp_path / "oracle" / "t.csv", delimiter=",", skiprows=1)
    # each table also has cells that take the per-cell path
    assert np.any((np.abs(cells) < 1e-4) | ~np.isfinite(cells))


HEADER = "r,u,du,ddu,lambda1,lambda2,gamma,tilt,residual\n"


@pytest.mark.parametrize("body, message", [
    ("", "line 1: expected header starting with r,u,du,ddu"),
    ("r,du,u,ddu\n1.0,0.1,0.2,0.3\n", "line 1: expected header starting with r,u,du,ddu"),
    (HEADER + "0.5,0,0,0\n1.0,0.1,0.2\n", "line 3: 3 fields, expected r,u,du,ddu"),
    (HEADER + "1.0,0.1,oops,0.2\n", "line 2: could not convert string to float: 'oops'"),
    (HEADER + "0.5,0,0,0\n\n1.0,0.1,nan,0.2\n", "line 4: du is not finite"),
    (HEADER, "no samples"),
    (HEADER + "\n", "no samples"),
])
def test_table_error_messages(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(body)
    with pytest.raises(ParameterError) as info:
        read_profile_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_decreasing_radius_names_its_line(tmp_path, profile):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    lines = path.read_text().splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]
    path.write_text("".join(lines))
    with pytest.raises(ParameterError) as info:
        read_profile_csv(path)
    assert str(info.value) == f"{path}: line 7: radii must be strictly increasing"


def test_quoted_fields_read_by_the_line_loop(tmp_path, profile):
    # np.loadtxt rejects quoted fields; the csv loop behind it reads them
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(
        ",".join(f'"{x}"' for x in line.rstrip("\n").split(",")) + "\n" for line in lines[1:]))
    assert np.array_equal(read_profile_csv(path).samples, profile.samples)


def _crlf(lines):
    return [line.replace("\n", "\r\n") for line in lines]


def _cr(lines):
    return [line.replace("\n", "\r") for line in lines]


def _blank_line(lines):
    return lines[:4] + ["\n"] + lines[4:]


def _ragged(lines):
    # one row cut to r,u,du,ddu, another with a field more than the header
    return (lines[:3] + [",".join(lines[3].split(",")[:4]) + "\n"]
            + [lines[4].replace("\n", ",7\n")] + lines[5:])


@pytest.mark.parametrize("edit", [_crlf, _cr, _blank_line, _ragged],
                         ids=["crlf", "cr", "blank", "ragged"])
def test_reader_grammar(tmp_path, profile, edit):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))), newline="")
    assert np.array_equal(read_profile_csv(path).samples, profile.samples)


# -- one read of the file per call, one parse per table -------------------------

_opened = None      # while a list: the path of every file the process opens


def _collect_opens(event, args):
    if event == "open" and _opened is not None:
        _opened.append(str(args[0]))


sys.addaudithook(_collect_opens)    # the open event covers open, io.open, os.open and pathlib


@pytest.mark.parametrize("body", [
    HEADER.encode() + b"0.5,0,0,0\n1.0,0.1\xff,0.2,0.3\n",
    HEADER.encode() + b"0.5,0,0,0\n1.0,0.1,oops,0.2\n",
], ids=["not-utf8", "malformed"])
def test_a_rejected_csv_is_read_once_per_call(tmp_path, monkeypatch, body):
    path = tmp_path / "t.csv"
    path.write_bytes(body)
    monkeypatch.setattr(sys.modules[__name__], "_opened", [])
    for calls in (1, 2):
        with pytest.raises(ParameterError, match="line 3"):
            read_profile_csv(path)
        assert _opened.count(str(path)) == calls


def test_repeated_reads_parse_the_table_once(tmp_path, profile, monkeypatch):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    for _ in range(4):
        assert np.array_equal(read_profile_csv(path).samples, profile.samples)
    assert len(calls) == 1


def test_repeated_reads_return_arrays_of_their_own(tmp_path, profile):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    first, second = read_profile_csv(path).samples, read_profile_csv(path).samples
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    first[:] = 0.0
    assert np.array_equal(read_profile_csv(path).samples, profile.samples)


def test_a_table_rewritten_in_place_reads_its_new_bytes(tmp_path, profile):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    before = read_profile_csv(path).samples
    data, stat = path.read_bytes(), path.stat()
    row = data.split(b"\n")[5]
    start = row.index(b",") + 1                  # u in the table's fifth row
    digit = start + next(i for i, c in enumerate(row[start:]) if c in b"12345678")
    edited = row[:digit] + bytes([row[digit] + 1]) + row[digit + 1:]
    path.write_bytes(data.replace(row, edited))  # same path, same length
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = read_profile_csv(path).samples
    assert after[4, 1] != before[4, 1]
    assert np.array_equal(np.delete(after, 4, 0), np.delete(before, 4, 0))


def test_a_rejected_table_is_rejected_on_every_read(tmp_path, profile):
    path = tmp_path / "p.csv"
    write_profile_csv(path, profile)
    lines = path.read_text().splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]      # np.loadtxt parses it; the radius check fails
    path.write_text("".join(lines))
    errors = []
    for _ in range(2):
        with pytest.raises(ParameterError) as info:
            read_profile_csv(path)
        errors.append(str(info.value))
    assert errors == [f"{path}: line 7: radii must be strictly increasing"] * 2


def test_the_sidecar_is_checked_on_every_read(tmp_path, profile):
    path, side = tmp_path / "p.csv", tmp_path / "p.meta.json"
    write_profile_csv(path, profile)
    read_profile_csv(path)
    status = f'"status": "{profile.status}"'
    side.write_text(side.read_text().replace(status, '"status": "blew_up"'))
    with pytest.raises(ParameterError, match="blowup_radius = null differs"):
        read_profile_csv(path)


# -- the in-place writer --------------------------------------------------------

def _artifacts(directory, profile):
    """Write one artifact of each writer into ``directory``; the paths written."""
    curvsol.io.write_json(directory / "r.json", {"checks": [1.5, None], "n": 3})
    write_table(directory / "t.csv", ("r", "w"), (np.linspace(0.0, 1.0, 7), np.ones(7)))
    write_profile_csv(directory / "p.csv", profile)
    assert main(["plot", "--in", str(directory / "p.csv"), "--out", str(directory / "f.svg")]) == 0
    return sorted(p.name for p in directory.iterdir())


def test_a_rewrite_over_a_longer_file_equals_a_fresh_write(tmp_path, profile):
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    fresh.mkdir()
    used.mkdir()
    names = _artifacts(fresh, profile)
    assert names == ["f.svg", "p.csv", "p.meta.json", "r.json", "t.csv"]
    for name in names:               # each old file longer than its new content
        (used / name).write_bytes(b"x" * (2 * (fresh / name).stat().st_size + 4096))
    assert _artifacts(used, profile) == names
    for name in names:
        assert (used / name).read_bytes() == (fresh / name).read_bytes(), name


def test_the_writer_never_opens_with_o_trunc(tmp_path, profile, monkeypatch):
    flags = []
    os_open = os.open
    monkeypatch.setattr(curvsol.io.os, "open",
                        lambda path, flag, *mode: flags.append(flag) or os_open(path, flag, *mode))
    _artifacts(tmp_path, profile)
    _artifacts(tmp_path, profile)    # and over existing files
    assert len(flags) == 10
    assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)


def test_a_symlinked_out_rewrites_its_target_and_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 1000)
    link.symlink_to(target)
    curvsol.io.write_json(link, {"a": 1})
    assert link.is_symlink()
    assert target.read_bytes() == b'{\n  "a": 1\n}\n'


@pytest.mark.parametrize("argv", [
    ["props", "--speed", "sigma-k", "--n", "3", "--k", "2", "--samples", "10"],
    ["barriers", "--names", "w3", "--n", "3", "--count", "3"],
    ["verify", "cylinder", "--samples", "3"],
], ids=["props", "barriers", "verify"])
def test_out_dev_null_exits_zero(argv, capsys):
    assert main(argv + ["--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""
