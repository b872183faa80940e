"""Property tests of joint-stream interpolation over random streams."""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import kincal as kc
from kincal.errors import ExtrapolationError

UNIT = st.floats(min_value=0.0, max_value=1.0)


def interpolate_one(samples, t):
    """Reference: the one-time formula, with the knot returned as is when
    ``t`` hits it exactly."""
    times = np.array([s[0] for s in samples], dtype=float)
    values = np.array([np.asarray(s[1], dtype=float) for s in samples])
    hi = int(np.searchsorted(times, t, side="left"))
    if times[hi] == t:
        return values[hi].copy()
    lo = hi - 1
    w = (t - times[lo]) / (times[hi] - times[lo])
    return values[lo] + w * (values[hi] - values[lo])


@st.composite
def streams(draw):
    """Time-sorted streams of 2-6 knots with 0-3 joints; knot times may
    repeat."""
    count = draw(st.integers(2, 6))
    joints = draw(st.integers(0, 3))
    start = draw(st.floats(min_value=-10.0, max_value=10.0))
    gaps = draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                         min_size=count - 1, max_size=count - 1))
    if sum(gaps) == 0.0:
        gaps[0] = 1.0
    times = start + np.concatenate([[0.0], np.cumsum(gaps)])
    values = draw(st.lists(
        st.lists(st.floats(min_value=-4.0, max_value=4.0),
                 min_size=joints, max_size=joints),
        min_size=count, max_size=count))
    return [(float(t), v) for t, v in zip(times, values)]


@st.composite
def streams_and_times(draw):
    """A stream and times inside its range, some of them knot times."""
    samples = draw(streams())
    first, last = samples[0][0], samples[-1][0]
    inside = [min(first + f * (last - first), last)
              for f in draw(st.lists(UNIT, max_size=8))]
    knots = draw(st.lists(st.sampled_from([s[0] for s in samples]), max_size=4))
    times = draw(st.permutations(inside + knots))
    return samples, np.array(times, dtype=float)


@given(streams_and_times())
def test_array_call_equals_one_time_calls(case):
    samples, times = case
    joints = len(samples[0][1])
    expected = np.array([interpolate_one(samples, t) for t in times]
                        ).reshape(len(times), joints)
    np.testing.assert_array_equal(kc.interpolate_joints(samples, times),
                                  expected)
    for t, row in zip(times, expected):
        np.testing.assert_array_equal(kc.interpolate_joints(samples, float(t)),
                                      row)


@given(streams_and_times(), st.lists(st.floats(min_value=1e-6, max_value=5.0),
                                     min_size=1, max_size=3),
       st.data())
def test_any_time_out_of_range_raises(case, excess, data):
    samples, times = case
    first, last = samples[0][0], samples[-1][0]
    outside = [first - e if data.draw(st.booleans()) else last + e
               for e in excess]
    mixed = list(times)
    for t in outside:
        mixed.insert(data.draw(st.integers(0, len(mixed))), t)
    named = next(t for t in mixed if not first <= t <= last)
    with pytest.raises(ExtrapolationError,
                       match=re.escape(f"time {named} outside")):
        kc.interpolate_joints(samples, np.array(mixed))
