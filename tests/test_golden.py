"""The shipped configs write what tests/golden/ holds.

The configs rerun through tests/make_golden.py in a subprocess, with BLAS
pinned to one thread.  When the fresh stamp equals the committed one, every
file must be byte-identical.  On any other environment the last bits may
differ, so integer, bool and string fields must match exactly and float
fields within FLOAT_RTOL; a grad-check report must match in everything but
its max_rel_err values, which are compared in byte mode only.  The test
prints which mode ran.  A deliberate change in what the configs write is
accepted only by regenerating the set (``python tests/make_golden.py``)
and naming the moved columns in CHANGES.md, never by widening FLOAT_RTOL.
"""

import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from make_golden import CONFIGS, GOLDEN, ROOT

FLOAT_RTOL = 1e-6


def _is_float(cell):
    """A float literal that is not an integer literal ("0.5", "nan", "1e-07")."""
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("-").isdigit()


def _float_eq(a, b):
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y))


def tolerant_diffs(got_text, want_text, name):
    """Fields of one CSV that differ beyond the tolerance rule.  A column is
    a float column if any of its cells, in either file, is a float literal;
    every other column compares exactly."""
    got = list(csv.reader(io.StringIO(got_text)))
    want = list(csv.reader(io.StringIO(want_text)))
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"{name}: header or row count differs"]
    floats = {j for row in got[1:] + want[1:]
              for j, cell in enumerate(row) if _is_float(cell)}
    diffs = []
    for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        if len(g_row) != len(w_row):
            diffs.append(f"{name}:{r}: field count differs")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            same = _float_eq(g, w) if j in floats and g != w else g == w
            if not same:
                diffs.append(f"{name}:{r}: {want[0][j]} {g} != golden {w}")
    return diffs


def report_verdicts(text):
    """A grad-check report without its max_rel_err values: each group's
    verdict, the counts, the overall verdict and the exit code."""
    return re.sub(r"max_rel_err=\S+", "max_rel_err=", text)


def golden_diffs(out, byte_mode):
    """Every difference between the output set in `out` and tests/golden/."""
    diffs = []
    for config in [*CONFIGS, "grad_check"]:
        got_files = {p.name for p in (out / config).iterdir()}
        want_files = {p.name for p in (GOLDEN / config).iterdir()}
        if got_files != want_files:
            diffs.append(f"{config}: files {sorted(got_files)} != "
                         f"golden {sorted(want_files)}")
        for fname in sorted(got_files & want_files):
            got = (out / config / fname).read_bytes()
            want = (GOLDEN / config / fname).read_bytes()
            if byte_mode:
                if got != want:
                    diffs.append(f"{config}/{fname}: bytes differ")
            elif fname.endswith(".txt"):
                if report_verdicts(got.decode()) != \
                        report_verdicts(want.decode()):
                    diffs.append(f"{config}/{fname}: verdicts differ")
            else:
                diffs += tolerant_diffs(got.decode(), want.decode(),
                                        f"{config}/{fname}")
    return diffs


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    subprocess.run([sys.executable, str(ROOT / "tests" / "make_golden.py"),
                    "--out", str(out)], cwd=ROOT, check=True,
                   capture_output=True, timeout=600)
    return out


def test_shipped_configs_write_the_golden_outputs(fresh):
    got_stamp = json.loads((fresh / "stamp.json").read_text())
    want_stamp = json.loads((GOLDEN / "stamp.json").read_text())
    byte_mode = got_stamp == want_stamp
    mode = ("byte" if byte_mode else
            f"tolerance (float rtol {FLOAT_RTOL}; stamp {got_stamp}, "
            f"golden stamp {want_stamp})")
    print(f"golden outputs compared in {mode} mode")
    diffs = golden_diffs(fresh, byte_mode)
    assert not diffs, f"{mode} mode, {len(diffs)} differences: " + \
        "; ".join(diffs[:10])


def _copy_golden(tmp_path):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    return tmp_path


def _edit(path, row, col, value):
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[row][col] = value
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    path.write_text(buf.getvalue())


class TestComparison:
    """The comparison rules, on edited copies of the golden set."""

    def test_unchanged_copy_passes_both_modes(self, tmp_path):
        out = _copy_golden(tmp_path)
        assert golden_diffs(out, True) == [] == golden_diffs(out, False)

    def test_last_digit_fails_bytes_passes_tolerance(self, tmp_path):
        out = _copy_golden(tmp_path)
        path = out / "critical_depth" / "metrics.csv"
        _edit(path, 1, 3, "1.07477216")  # train_loss 1.07477215
        assert golden_diffs(out, True) == [
            "critical_depth/metrics.csv: bytes differ"]
        assert golden_diffs(out, False) == []

    def test_float_beyond_tolerance_fails(self, tmp_path):
        out = _copy_golden(tmp_path)
        _edit(out / "variance_study" / "ttrace.csv", 1, 3, "-0.9998")
        assert len(golden_diffs(out, False)) == 1

    @pytest.mark.parametrize("col, value", [(2, "16"), (7, "true"),
                                            (0, "capacity_sweep-s8-none")])
    def test_int_bool_and_string_fields_are_exact(self, tmp_path, col, value):
        out = _copy_golden(tmp_path)
        _edit(out / "capacity" / "metrics.csv", 1, col, value)
        assert len(golden_diffs(out, False)) == 1

    def test_integral_float_compares_with_tolerance(self, tmp_path):
        out = _copy_golden(tmp_path)
        _edit(out / "capacity" / "metrics.csv", 1, 6, "0.9999999999")
        assert golden_diffs(out, False) == []

    @pytest.mark.parametrize("old, new, tolerant", [
        ("2.638e-10", "2.639e-10", True),
        ("  ok\nng_t", "  FAIL\nng_t", False),
        ("checked=751", "checked=750", False),
        ("passed=True\n0", "passed=True\n1", False),
    ], ids=["max_rel_err", "verdict", "count", "exit_code"])
    def test_grad_check_report_rules(self, tmp_path, old, new, tolerant):
        out = _copy_golden(tmp_path)
        path = out / "grad_check" / "relu-s7.txt"
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new, 1))
        assert golden_diffs(out, True) == [
            "grad_check/relu-s7.txt: bytes differ"]
        assert golden_diffs(out, False) == ([] if tolerant else [
            "grad_check/relu-s7.txt: verdicts differ"])

    def test_missing_file_fails(self, tmp_path):
        out = _copy_golden(tmp_path)
        (out / "variance_study" / "layerstats.csv").unlink()
        assert len(golden_diffs(out, True)) == 1
