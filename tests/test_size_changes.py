"""``tools/size_changes.py``, which sizes each changed number between two
versions of an output file for ``tools/compare_outputs.sh``: nothing for
equal files, one line per changed CSV column or stdout number."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "size_changes.py"

QUENCHED = """env_index,n,engine,tv,mean_err,theta,N_n,tail,bias_bound
0,4,exact-dp,0.16302309962219119,0.14589803375031585,0.61803398874989479,5,0,0
0,12,exact-dp,0.012814779885455426,0.0018387797276965528,0.61803398874989479,275,0,0
"""


def _sizes(tmp_path, name, old, new):
    (tmp_path / "old").mkdir(exist_ok=True)
    (tmp_path / "new").mkdir(exist_ok=True)
    (tmp_path / "old" / name).write_text(old)
    (tmp_path / "new" / name).write_text(new)
    run = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "old" / name),
                          str(tmp_path / "new" / name)], capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_equal_files_get_no_line(tmp_path):
    assert _sizes(tmp_path, "quenched.csv", QUENCHED, QUENCHED) == []
    assert _sizes(tmp_path, "theta.stdout", "theta 0.5\nexit 0\n", "theta 0.5\nexit 0\n") == []


def test_a_mass_times_one_plus_two_to_the_minus_50_is_one_line(tmp_path):
    mass = 0.1353352832366127
    old = f"r,mass\n0,{mass!r}\n1,{mass!r}\n"
    new = f"r,mass\n0,{mass!r}\n1,{format(mass * (1 + 2.0 ** -50), '.17g')}\n"
    [line] = _sizes(tmp_path, "pmf.csv", old, new)
    # the product rounds to 4 units of 2^-55 in the last place
    assert line == "size: mass: |d| 1.11e-16 at row 2, rel 8.2e-16 at row 2"
    assert float(line.rsplit("rel ", 1)[1].split()[0]) == pytest.approx(2.0 ** -50, rel=0.1)


def test_a_dp_row_is_sized_against_its_rounding(tmp_path):
    new = QUENCHED.replace("0.012814779885455426", "0.012814779885455431")
    [line] = _sizes(tmp_path, "quenched.csv", QUENCHED, new)
    # row 2 has L = N_n + n = 287 positions
    assert line == ("size: tv: |d| 5.2e-18 at row 2 (L*2^-52 6.37e-14), "
                    "rel 4.06e-16 at row 2 (L*2^-52 6.37e-14)")


def test_stdout_numbers_and_changed_text(tmp_path):
    old = "theta 0.61803398874989479\nratio_max_deviation 0\nexit 0\n"
    new = "theta 0.61803398874989468\nratio_max_deviation 0\nexit 1\n"
    assert _sizes(tmp_path, "theta.stdout", old, new) == [
        "size: theta: |d| 1.11e-16, rel 1.8e-16",
        "size: exit: |d| 1, rel inf",
    ]
    assert _sizes(tmp_path, "pa.stdout", "mean 4\n", "average 4\n") == [
        "size: line 1: text differs"]
    assert _sizes(tmp_path, "summary.csv", "n,engine\n4,exact-dp\n", "n,engine\n4,mc\n") == [
        "size: engine: text differs at row 1"]
