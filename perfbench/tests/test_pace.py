"""Scaling a timed interval by the pace of reference.py (harness.Pace)."""

import pytest

from harness import REFERENCE_S, Pace


def pace_with(stamps):
    """A Pace whose reference run is over and left these repetitions."""
    pace = Pace()
    pace.proc = object()
    pace.stamps = stamps
    return pace


def test_overlapping_repetitions_count_by_their_share():
    pace = pace_with([(0.0, 1.0), (1.0, 3.0), (3.0, 4.0)])
    # half of the first repetition and all of the second
    assert pace.scaled(0.5, 3.0) == pytest.approx(1.5 * REFERENCE_S)
    # half of the second and half of the third
    assert pace.scaled(2.0, 3.5) == pytest.approx(1.0 * REFERENCE_S)


def test_a_slower_host_gives_the_same_scaled_time():
    fast = pace_with([(float(k), k + 1.0) for k in range(10)])
    slow = pace_with([(1.25 * k, 1.25 * (k + 1)) for k in range(10)])
    assert fast.scaled(1.0, 5.0) == pytest.approx(slow.scaled(1.25, 6.25))


def test_an_interval_the_reference_did_not_cover_is_an_error():
    with pytest.raises(RuntimeError):
        pace_with([(1.0, 2.0)]).scaled(0.5, 1.5)


def test_without_a_reference_run_it_is_wall_time():
    assert Pace().scaled(1.0, 3.5) == 2.5
