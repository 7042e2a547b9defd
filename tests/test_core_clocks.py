"""Unit tests for matrix and vector Write clocks."""

import numpy as np
import pytest

from repro.core.clocks import MatrixClock, VectorClock


class TestMatrixClock:
    def test_starts_at_zero(self):
        mc = MatrixClock(3)
        assert (mc.m == 0).all()

    def test_increment_writes_only_destination_columns(self):
        mc = MatrixClock(4)
        mc.increment(1, [0, 2])
        assert mc[1, 0] == 1 and mc[1, 2] == 1
        assert mc[1, 1] == 0 and mc[1, 3] == 0
        assert mc.m.sum() == 2

    def test_increment_accumulates(self):
        mc = MatrixClock(3)
        mc.increment(0, [1])
        mc.increment(0, [1, 2])
        assert mc[0, 1] == 2 and mc[0, 2] == 1

    def test_merge_is_entrywise_max(self):
        a, b = MatrixClock(2), MatrixClock(2)
        a.increment(0, [0, 1])
        b.increment(1, [0])
        b.increment(0, [1])
        b.increment(0, [1])
        a.merge(b)
        assert a[0, 0] == 1 and a[0, 1] == 2 and a[1, 0] == 1

    def test_merge_laws(self):
        # join-semilattice: idempotent, commutative, monotone
        def mk(seed):
            rng = np.random.default_rng(seed)
            return MatrixClock(3, rng.integers(0, 5, size=(3, 3)))

        a, b = mk(1), mk(2)
        aa = a.copy()
        aa.merge(a)
        assert aa == a  # idempotent
        ab, ba = a.copy(), b.copy()
        ab.merge(b)
        ba.merge(a)
        assert ab == ba  # commutative
        assert ab.dominates(a) and ab.dominates(b)  # upper bound

    def test_copy_is_independent(self):
        a = MatrixClock(2)
        b = a.copy()
        b.increment(0, [0])
        assert a[0, 0] == 0 and b[0, 0] == 1

    def test_copy_equals_original_and_leaves_its_views_alone(self):
        a = MatrixClock(3, np.array([[1, 0, 2], [0, 3, 0], [4, 0, 5]]))
        col = a.column_list(2)
        b = a.copy()
        assert b == a and b.m is not a.m
        assert b.column_list(2) == col and b.column_list(2) is not col
        b.increment(0, [2])
        b.merge(MatrixClock(3, np.full((3, 3), 9)))
        assert a.m.tolist() == [[1, 0, 2], [0, 3, 0], [4, 0, 5]]
        assert a.column_list(2) is col and col == [2, 0, 5]
        assert b.column_list(2) == [9, 9, 9]

    def test_column_view(self):
        mc = MatrixClock(3)
        mc.increment(0, [2])
        mc.increment(1, [2])
        assert mc.column(2).tolist() == [1, 1, 0]

    def test_merge_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MatrixClock(2).merge(MatrixClock(3))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MatrixClock(0)
        with pytest.raises(ValueError):
            MatrixClock(2, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            MatrixClock(2, -np.ones((2, 2)))


class TestVectorClock:
    def test_increment_returns_new_value(self):
        vc = VectorClock(3)
        assert vc.increment(1) == 1
        assert vc.increment(1) == 2
        assert vc[1] == 2 and vc[0] == 0

    def test_merge_max(self):
        a, b = VectorClock(3), VectorClock(3)
        a.increment(0)
        b.increment(0)
        b.increment(0)
        b.increment(2)
        a.merge(b)
        assert a.v.tolist() == [2, 0, 1]

    def test_dominates(self):
        a = VectorClock(2, [3, 1])
        b = VectorClock(2, [2, 1])
        assert a.dominates(b)
        assert not b.dominates(a)
        assert a.dominates(a)

    def test_equality(self):
        assert VectorClock(2, [1, 2]) == VectorClock(2, [1, 2])
        assert VectorClock(2, [1, 2]) != VectorClock(2, [2, 1])

    def test_copy_independent(self):
        a = VectorClock(2)
        b = a.copy()
        b.increment(0)
        assert a[0] == 0

    def test_copy_equals_original_and_leaves_its_view_alone(self):
        a = VectorClock(3, [1, 0, 2])
        view = a.as_list()
        b = a.copy()
        assert b == a and b.v is not a.v
        assert b.as_list() == view and b.as_list() is not view
        b.increment(1)
        b.merge(VectorClock(3, [5, 5, 5]))
        assert a.v.tolist() == [1, 0, 2]
        assert a.as_list() is view and view == [1, 0, 2]
        assert b.as_list() == [5, 5, 5]

    def test_invalid(self):
        with pytest.raises(ValueError):
            VectorClock(0)
        with pytest.raises(ValueError):
            VectorClock(2, [1, 2, 3])
        with pytest.raises(ValueError):
            VectorClock(2, [-1, 0])
        with pytest.raises(ValueError):
            VectorClock(2).merge(VectorClock(3))
