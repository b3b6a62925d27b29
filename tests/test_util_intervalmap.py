"""Unit + property tests for the IntervalMap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.intervalmap import IntervalMap


def test_empty_map():
    m = IntervalMap()
    assert m.get(0) is None
    assert len(m) == 0
    assert m.total_covered() == 0


def test_set_and_get():
    m = IntervalMap()
    m.set_range(10, 5, "a")
    assert m.get(9) is None
    assert m.get(10) == "a"
    assert m.get(14) == "a"
    assert m.get(15) is None


def test_zero_length_rejected():
    m = IntervalMap()
    with pytest.raises(ValueError):
        m.set_range(0, 0, "a")
    with pytest.raises(ValueError):
        m.clear_range(0, 0)


def test_negative_start_rejected():
    m = IntervalMap()
    with pytest.raises(ValueError):
        m.set_range(-1, 5, "a")


def test_overwrite_splits_run():
    m = IntervalMap()
    m.set_range(0, 10, "a")
    m.set_range(3, 4, "b")
    assert m.runs() == [(0, 3, "a"), (3, 7, "b"), (7, 10, "a")]


def test_adjacent_equal_values_merge():
    m = IntervalMap()
    m.set_range(0, 5, "a")
    m.set_range(5, 5, "a")
    assert m.runs() == [(0, 10, "a")]


def test_adjacent_unequal_values_stay_separate():
    m = IntervalMap()
    m.set_range(0, 5, "a")
    m.set_range(5, 5, "b")
    assert len(m) == 2


def test_clear_range_middle():
    m = IntervalMap()
    m.set_range(0, 10, "a")
    m.clear_range(4, 2)
    assert m.runs() == [(0, 4, "a"), (6, 10, "a")]
    assert m.get(5) is None


def test_clear_range_spanning_multiple_runs():
    m = IntervalMap()
    m.set_range(0, 5, "a")
    m.set_range(5, 5, "b")
    m.set_range(10, 5, "c")
    m.clear_range(3, 9)
    assert m.runs() == [(0, 3, "a"), (12, 15, "c")]


def test_runs_in_tiles_query_with_gaps():
    m = IntervalMap()
    m.set_range(5, 5, "a")
    m.set_range(15, 5, "b")
    tiles = list(m.runs_in(0, 25))
    assert tiles == [
        (0, 5, None),
        (5, 10, "a"),
        (10, 15, None),
        (15, 20, "b"),
        (20, 25, None),
    ]


def test_runs_in_clips_to_query():
    m = IntervalMap()
    m.set_range(0, 100, "a")
    assert list(m.runs_in(40, 20)) == [(40, 60, "a")]


def test_covered_length_and_fully_covered():
    m = IntervalMap()
    m.set_range(0, 10, "a")
    m.set_range(20, 10, "b")
    assert m.covered_length(0, 30) == 20
    assert not m.is_fully_covered(0, 30)
    assert m.is_fully_covered(0, 10)
    assert m.is_fully_covered(22, 5)


def test_first_gap():
    m = IntervalMap()
    m.set_range(0, 10, "a")
    m.set_range(15, 5, "b")
    assert m.first_gap(0, 20) == (10, 15)
    assert m.first_gap(0, 10) is None
    assert m.first_gap(0, 30) == (10, 15)


def test_equality():
    a = IntervalMap()
    b = IntervalMap()
    a.set_range(0, 5, "x")
    b.set_range(0, 3, "x")
    b.set_range(3, 2, "x")
    assert a == b


# -- property tests -----------------------------------------------------------

@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["set", "clear"]))
        start = draw(st.integers(0, 200))
        length = draw(st.integers(1, 50))
        value = draw(st.integers(0, 3))
        ops.append((kind, start, length, value))
    return ops


@settings(max_examples=200, deadline=None)
@given(operations())
def test_matches_naive_dict_model(ops):
    """The interval map must agree with a plain per-key dict."""
    m = IntervalMap()
    model = {}
    for kind, start, length, value in ops:
        if kind == "set":
            m.set_range(start, length, value)
            for key in range(start, start + length):
                model[key] = value
        else:
            m.clear_range(start, length)
            for key in range(start, start + length):
                model.pop(key, None)
        # The running coverage count must track every mutation.
        assert m.total_covered() == len(model)
    for key in range(0, 260):
        assert m.get(key) == model.get(key), f"mismatch at {key}"


@settings(max_examples=100, deadline=None)
@given(operations())
def test_runs_are_maximal_and_sorted(ops):
    """Runs must be sorted, non-overlapping, non-empty, and coalesced."""
    m = IntervalMap()
    for kind, start, length, value in ops:
        if kind == "set":
            m.set_range(start, length, value)
        else:
            m.clear_range(start, length)
    runs = m.runs()
    for start, end, _ in runs:
        assert start < end
    for (s1, e1, v1), (s2, e2, v2) in zip(runs, runs[1:]):
        assert e1 <= s2
        if e1 == s2:
            assert v1 != v2, "adjacent equal runs must be merged"


@settings(max_examples=100, deadline=None)
@given(operations(), st.integers(0, 250), st.integers(1, 60))
def test_runs_in_tiles_exactly(ops, start, length):
    m = IntervalMap()
    for kind, s, l, value in ops:
        if kind == "set":
            m.set_range(s, l, value)
        else:
            m.clear_range(s, l)
    tiles = list(m.runs_in(start, length))
    cursor = start
    for tile_start, tile_end, value in tiles:
        assert tile_start == cursor
        assert tile_end > tile_start
        cursor = tile_end
        for key in range(tile_start, min(tile_end, tile_start + 3)):
            assert m.get(key) == value
    assert cursor == start + length
