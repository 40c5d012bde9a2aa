"""Unit tests for the benchmark regression gate.

``benchmarks/check_regressions.py`` is a script outside the package, so
it is loaded here via importlib.  The claims under test: ratio metrics
fail *below* their tolerance bound (higher is better), a ``FLOORS``
entry holds whether or not the baseline records its metric, the
``_skipped`` waivers work in both directions, every floor is reachable
from a committed baseline, and ``main()`` exits non-zero on a missing
baseline directory or a missing current file.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regressions.py"
)
_spec = importlib.util.spec_from_file_location("check_regressions", _SCRIPT)
check_regressions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regressions)


@pytest.fixture()
def dirs(tmp_path):
    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "current"
    baseline_dir.mkdir()
    current_dir.mkdir()
    return baseline_dir, current_dir


def write(directory: Path, name: str, document: dict) -> Path:
    path = directory / name
    path.write_text(json.dumps(document))
    return path


def run_check(dirs, baseline, current, name="BENCH_x.json"):
    baseline_dir, current_dir = dirs
    return check_regressions.check_file(
        write(baseline_dir, name, baseline),
        write(current_dir, name, current),
        tolerance=0.35,
    )


def set_floors(monkeypatch, floors: dict, name="BENCH_x.json") -> None:
    monkeypatch.setitem(check_regressions.FLOORS, name, floors)


# --------------------------------------------------------------- ratio gate
def test_ratio_metric_still_fails_below_its_bound(dirs):
    failures, _ = run_check(
        dirs,
        {"sec": {"speedup": 10.0}},
        {"sec": {"speedup": 1.0}},
    )
    assert failures and "below" in failures[0]


def test_plain_metrics_stay_informational(dirs):
    failures, lines = run_check(
        dirs,
        {"sec": {"append_s": 1.0}},
        {"sec": {"append_s": 99.0}},
    )
    assert not failures
    assert any("[info]" in line for line in lines)


# --------------------------------------------------------------- floors
def test_floor_above_the_tolerance_bound_decides_the_failure(dirs, monkeypatch):
    set_floors(monkeypatch, {"sec.speedup": 5.0})
    # 4.5 is within 35% of the baseline (bound 3.9), but under the floor.
    failures, _ = run_check(
        dirs,
        {"sec": {"speedup": 6.0}},
        {"sec": {"speedup": 4.5}},
    )
    assert len(failures) == 1
    assert "below 5.000" in failures[0] and "floor 5.0" in failures[0]


def test_floored_metric_without_baseline_entry_is_held_to_its_floor(
    dirs, monkeypatch
):
    set_floors(monkeypatch, {"sec.speedup": 2.0})
    baseline = {"sec": {"append_s": 1.0}}
    failures, _ = run_check(dirs, baseline, {"sec": {"speedup": 1.5}})
    assert len(failures) == 1
    assert "hard floor 2.0" in failures[0] and "no baseline entry" in failures[0]

    failures, lines = run_check(dirs, baseline, {"sec": {"speedup": 2.5}})
    assert not failures
    assert any("[ok] sec.speedup" in line for line in lines)


def test_floored_metric_absent_from_baseline_and_current_fails(dirs, monkeypatch):
    set_floors(monkeypatch, {"sec.speedup": 2.0})
    failures, _ = run_check(
        dirs,
        {"sec": {"append_s": 1.0}},
        {"sec": {"append_s": 1.0}},
    )
    assert len(failures) == 1
    assert "absent from both baseline and current" in failures[0]


# --------------------------------------------------------------- skip waivers
def test_skipped_current_section_waives_ratio_gate_and_floor(dirs, monkeypatch):
    # One floor whose metric the baseline records, one whose it does not:
    # the skipped section waives both.
    set_floors(monkeypatch, {"sec.speedup": 5.0, "sec.size_ratio": 3.0})
    failures, lines = run_check(
        dirs,
        {"sec": {"speedup": 10.0}},
        {"sec": {"_skipped": 1}},
    )
    assert not failures
    skipped = [line for line in lines if "[skipped]" in line]
    assert len(skipped) == 2
    assert any("sec.speedup" in line for line in skipped)
    assert any("sec.size_ratio" in line for line in skipped)


def test_skipped_baseline_section_leaves_floors_gating_current(dirs, monkeypatch):
    set_floors(monkeypatch, {"sec.speedup": 1.8})
    baseline = {"sec": {"_skipped": 1}}
    failures, _ = run_check(dirs, baseline, {"sec": {"speedup": 1.0}})
    assert len(failures) == 1 and "hard floor 1.8" in failures[0]

    failures, _ = run_check(dirs, baseline, {"sec": {"speedup": 2.0}})
    assert not failures


def test_every_floor_is_reachable_from_a_committed_baseline():
    """``main()`` walks only committed baselines, so a floor whose file has
    no baseline (or whose metric that baseline neither records nor skips)
    would never be checked."""
    baseline_dir = _SCRIPT.parent / "baselines"
    for name, floors in check_regressions.FLOORS.items():
        path = baseline_dir / name
        assert path.is_file(), f"{name} has floors but no committed baseline"
        document = json.loads(path.read_text())
        recorded = dict(check_regressions.iter_metrics(document))
        skipped = check_regressions.skipped_sections(document)
        for metric in floors:
            assert metric in recorded or metric.split(".", 1)[0] in skipped, (
                f"{name}: floored metric {metric} is neither recorded nor skipped"
            )


# --------------------------------------------------------------- main()
def test_main_fails_when_a_current_file_is_missing(dirs, capsys):
    baseline_dir, current_dir = dirs
    write(baseline_dir, "BENCH_a.json", {"sec": {"speedup": 1.0}})
    write(baseline_dir, "BENCH_b.json", {"sec": {"speedup": 1.0}})
    write(current_dir, "BENCH_a.json", {"sec": {"speedup": 1.0}})
    exit_code = check_regressions.main(
        ["--baseline-dir", str(baseline_dir), "--current-dir", str(current_dir)]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "[ok] sec.speedup" in captured.out
    assert "BENCH_b.json: missing" in captured.err
    assert "BENCH_a.json:" not in captured.err


def test_main_without_baselines_is_an_error(dirs, capsys):
    baseline_dir, current_dir = dirs
    write(current_dir, "BENCH_a.json", {"sec": {"speedup": 1.0}})
    exit_code = check_regressions.main(
        ["--baseline-dir", str(baseline_dir), "--current-dir", str(current_dir)]
    )
    assert exit_code == 2
    assert "no baselines found" in capsys.readouterr().err
