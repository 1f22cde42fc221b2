"""Unit tests for batching policies."""

import pytest

from repro.core.tasks.batching import FixedBatching, NoBatching
from repro.errors import TaskError


class TestNoBatching:
    def test_always_one_per_hit(self):
        policy = NoBatching()
        assert policy.batch_size(10) == 1
        assert policy.should_flush(1, force=False)
        assert not policy.should_flush(0, force=True)
        assert "1 task/HIT" in policy.describe()


class TestFixedBatching:
    def test_flushes_only_full_batches_unless_forced(self):
        policy = FixedBatching(5)
        assert not policy.should_flush(3, force=False)
        assert policy.should_flush(3, force=True)
        assert policy.should_flush(5, force=False)
        assert policy.batch_size(3) == 3
        assert policy.batch_size(12) == 5

    def test_invalid_size(self):
        with pytest.raises(TaskError):
            FixedBatching(0)

    def test_describe_mentions_size(self):
        assert "7 tasks/HIT" in FixedBatching(7).describe()
