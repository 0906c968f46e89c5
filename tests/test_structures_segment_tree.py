"""Tests for the min segment tree backend."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.segment_tree import MinSegmentTree


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MinSegmentTree([])

    def test_single_slot(self):
        tree = MinSegmentTree([4.2])
        assert tree.argmin() == (0, 4.2)
        assert len(tree) == 1

    def test_initial_argmin(self):
        tree = MinSegmentTree([5.0, 2.0, 8.0, 1.0, 9.0])
        assert tree.argmin() == (3, 1.0)

    def test_non_power_of_two_sizes(self):
        for n in (1, 2, 3, 5, 7, 13):
            tree = MinSegmentTree(list(range(n, 0, -1)))
            assert tree.argmin() == (n - 1, 1.0)
            assert tree.check_invariant()


class TestUpdates:
    def test_update_changes_argmin(self):
        tree = MinSegmentTree([5.0, 2.0, 8.0])
        tree.update(2, 0.5)
        assert tree.argmin() == (2, 0.5)

    def test_adjust_delta(self):
        tree = MinSegmentTree([5.0, 2.0])
        tree.adjust(0, -4.0)
        assert tree.argmin() == (0, 1.0)
        assert tree.key_of(0) == 1.0

    def test_negative_keys(self):
        tree = MinSegmentTree([0.0, 0.0, 0.0])
        tree.update(1, -3.5)
        assert tree.argmin() == (1, -3.5)

    def test_out_of_range_slot_raises(self):
        tree = MinSegmentTree([1.0])
        with pytest.raises(IndexError):
            tree.update(5, 0.0)
        with pytest.raises(IndexError):
            tree.key_of(-1)


class TestDeactivation:
    def test_deactivate_removes_from_queries(self):
        tree = MinSegmentTree([1.0, 2.0, 3.0])
        assert tree.deactivate(0) == 1.0
        assert tree.argmin() == (1, 2.0)
        assert not tree.is_active(0)
        assert tree.active_count == 2

    def test_deactivated_slot_rejects_operations(self):
        tree = MinSegmentTree([1.0, 2.0])
        tree.deactivate(0)
        with pytest.raises(KeyError):
            tree.update(0, 5.0)
        with pytest.raises(KeyError):
            tree.key_of(0)
        with pytest.raises(KeyError):
            tree.deactivate(0)

    def test_argmin_after_all_deactivated_raises(self):
        tree = MinSegmentTree([1.0, 2.0])
        tree.deactivate(0)
        tree.deactivate(1)
        with pytest.raises(IndexError):
            tree.argmin()

    def test_peel_simulation(self):
        """Simulate the greedy peel loop: repeated argmin + deactivate."""
        rng = random.Random(3)
        keys = [rng.uniform(-10, 10) for _ in range(37)]
        tree = MinSegmentTree(keys)
        seen = []
        while tree.active_count:
            slot, key = tree.argmin()
            seen.append(key)
            tree.deactivate(slot)
            # Neighbours' degrees shift after a removal.
            for _ in range(3):
                other = rng.randrange(37)
                if tree.is_active(other):
                    tree.adjust(other, rng.uniform(-1, 1))
        assert len(seen) == 37


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    st.lists(
        st.tuples(st.integers(0, 39), st.floats(-1e6, 1e6)), max_size=40
    ),
)
@settings(max_examples=60, deadline=None)
def test_argmin_matches_reference(initial, updates):
    """Property: argmin equals the brute-force minimum of active slots."""
    tree = MinSegmentTree(initial)
    reference = list(initial)
    for slot, key in updates:
        if slot < len(reference):
            tree.update(slot, key)
            reference[slot] = key
    slot, key = tree.argmin()
    assert key == min(reference)
    assert reference[slot] == key
    assert tree.check_invariant()
