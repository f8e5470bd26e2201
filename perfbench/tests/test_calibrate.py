"""The host-speed calibrator: windows, slices and the nominal-host scale."""

from time import perf_counter, sleep

import pytest

import calibrate


def test_tick_runs_no_slice_inside_a_window():
    cal = calibrate.Calibrator(every_s=60.0, units=2)
    cal.start()
    for _ in range(1000):
        cal.tick()
    assert cal.reference_units == 0
    cal.stop()
    assert cal.reference_units == 2 and cal.reference_s > 0


def test_nominal_time_scales_program_time_by_reference_speed():
    cal = calibrate.Calibrator(every_s=0.02, units=2)
    cal.start()
    start = perf_counter()
    while perf_counter() - start < 0.1:
        sleep(0.005)
        cal.tick()
    cal.stop()
    program_s = perf_counter() - start - cal.reference_s
    assert cal.reference_units >= 8
    # nominal = sum over windows of program time x (nominal / measured unit time),
    # so it equals program time divided by a speed within the slices' range.
    assert cal.nominal_s == pytest.approx(program_s / cal.speed, rel=0.5)
    assert cal.nominal_s > 0


def test_reference_work_is_deterministic():
    a = calibrate.Calibrator(units=3)
    b = calibrate.Calibrator(units=3)
    a.unit_s(slices=2)
    b.unit_s(slices=2)
    assert a._state == b._state
    assert (a._counters.hits, a._counters.misses) == (b._counters.hits, b._counters.misses)
