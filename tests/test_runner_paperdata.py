"""Tests for the experiment runner CLI and the transcribed paper data."""

import pytest

from repro.experiments.runner import main
from repro.paperdata import (
    TABLE1_FAILED_COUNTS,
    TABLE1_LOT_SIZE,
    TABLE1_POINTS,
    TABLE1_YIELD,
)


class TestRunnerCli:
    def test_run_single(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1" in out
        assert "Fig. 1" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["compiled", "event"])
    def test_reference_engines_are_not_options(self, engine, capsys):
        """The reference simulators are test oracles, not CLI engines."""
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--engine", engine])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_output_dir_writes_files(self, tmp_path, capsys):
        assert main(["fig6", "--output-dir", str(tmp_path)]) == 0
        report = (tmp_path / "fig6.txt").read_text()
        assert "Fig. 6" in report

    def test_output_dir_created(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert main(["fig1", "--output-dir", str(target)]) == 0
        assert (target / "fig1.txt").exists()


class TestPaperData:
    def test_lot_size(self):
        assert TABLE1_LOT_SIZE == 277

    def test_counts_monotone(self):
        assert TABLE1_FAILED_COUNTS == sorted(TABLE1_FAILED_COUNTS)

    def test_final_fraction(self):
        """Table 1's last row: 257/277 = 0.93 failed at 65% coverage."""
        last = TABLE1_POINTS[-1]
        assert last.coverage == pytest.approx(0.65)
        assert last.fraction_failed == pytest.approx(0.928, abs=0.001)

    def test_first_row_is_the_slope_anchor(self):
        """First row 113/277 at 5% gives the paper's P'(0) = 8.2."""
        first = TABLE1_POINTS[0]
        slope = first.fraction_failed / first.coverage
        assert slope == pytest.approx(8.2, abs=0.06)

    def test_plateau_consistent_with_yield(self):
        """The 93 percent plateau ~ 1 - y for y = 0.07."""
        assert TABLE1_POINTS[-1].fraction_failed == pytest.approx(
            1 - TABLE1_YIELD, abs=0.01
        )
