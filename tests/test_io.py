"""Tests for CSV/JSON profile serialization."""

import numpy as np
import pytest

from curvsol import ParameterError, harmonic_pairs, integrate_profile, sigma_k_root
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
    from curvsol import product
    spec = product([sigma_k_root(2, 4), harmonic_pairs(4)], [0.25, 0.75])
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
