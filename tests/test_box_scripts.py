"""The `--jobs` harness that the three CI box scripts share (conftest.map_box).

Only the serial branch and the refusals run here: a refused `--jobs` never
reaches the pool, and the pool itself runs in CI with `--jobs 2`.
"""

import os

import pytest

import closed_form_box
import oracle_box
import seed_engine
from conftest import map_box


def unreachable():
    raise AssertionError("the box was built although --jobs was refused")


class TestMapBox:
    @pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1], ids=["zero", "above_cpu_count"])
    def test_jobs_out_of_range_refused_before_box_is_built(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            map_box("d", unreachable, abs, 1, ["--jobs", str(jobs)])
        assert exc.value.code == 2
        assert f"--jobs must be between 1 and the CPU count, got {jobs}" in capsys.readouterr().err

    def test_serial_run_keeps_box_order(self):
        assert map_box("d", lambda: [3, -1, 2], lambda x: 10 * x, 4, []) == ([3, -1, 2], [30, -10, 20])

    @pytest.mark.parametrize("script", [seed_engine, oracle_box, closed_form_box],
                             ids=lambda m: m.__name__)
    def test_each_script_reads_jobs_through_the_harness(self, capsys, script):
        with pytest.raises(SystemExit) as exc:
            script.main(["--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs must be between 1 and the CPU count, got 0" in capsys.readouterr().err
