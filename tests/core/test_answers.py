"""Unit and property tests for answer lists and user-defined aggregates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.answers import (
    AnswerList,
    FieldwiseMajority,
    First,
    ListAll,
    MajorityVote,
    MeanRating,
    MedianRating,
    get_aggregate,
    register_aggregate,
)
from repro.core.tasks.reducer import vote_weights
from repro.crowd.quality import WorkerReputation
from repro.errors import AggregateError


class TestAnswerList:
    def test_agreement(self):
        answers = AnswerList.of([True, True, False])
        assert answers.agreement() == pytest.approx(2 / 3)
        assert AnswerList.of([]).agreement() == 1.0

    def test_agreement_with_unhashable_answers(self):
        answers = AnswerList.of([{"CEO": "a"}, {"CEO": "a"}, {"CEO": "b"}])
        assert answers.agreement() == pytest.approx(2 / 3)

    def test_worker_ids_must_be_parallel(self):
        with pytest.raises(AggregateError):
            AnswerList.of([True, False], ["w1"])

    def test_indexing_and_iteration(self):
        answers = AnswerList.of([1, 2, 3])
        assert answers[0] == 1
        assert list(answers) == [1, 2, 3]
        assert len(answers) == 3


class TestMajorityVote:
    def test_simple_majority(self):
        assert MajorityVote()(AnswerList.of([True, False, True])) is True

    def test_tie_breaks_toward_earliest(self):
        assert MajorityVote()(AnswerList.of(["a", "b"])) == "a"
        assert MajorityVote()(AnswerList.of(["b", "a", "a", "b"])) == "b"

    def test_dict_answers(self):
        votes = [{"CEO": "Jane"}, {"CEO": "Jane"}, {"CEO": "John"}]
        assert MajorityVote()(AnswerList.of(votes)) == {"CEO": "Jane"}

    def test_empty_rejected(self):
        with pytest.raises(AggregateError):
            MajorityVote()(AnswerList.of([]))

    def test_weights_override_raw_counts(self):
        answers = AnswerList.of([True, False, False], ["expert", "spam1", "spam2"])
        assert MajorityVote().reduce(answers, [5.0, 0.1, 0.1]) is True


class TestWeightedVote:
    """Reputation-weighted voting, as the reducer picks its weights."""

    @staticmethod
    def reputation():
        """An expert right on 20 gold probes; two spammers right on half of 40."""
        reputation = WorkerReputation()
        for _ in range(20):
            reputation.record_gold("expert", True)
            for spammer in ("spam1", "spam2"):
                reputation.record_gold(spammer, True)
                reputation.record_gold(spammer, False)
        return reputation

    def test_weights_override_raw_counts(self):
        answers = AnswerList.of([True, False, False], ["expert", "spam1", "spam2"])
        weights = vote_weights(list(answers.worker_ids), self.reputation())
        assert weights[0] > weights[1] + weights[2]
        assert MajorityVote()(answers, weights) is True
        assert MajorityVote()(answers) is False

    def test_unknown_workers_use_default_weight(self):
        reputation = self.reputation()
        answers = AnswerList.of([True, False, False], ["a", "b", "c"])
        assert reputation.vote_weight("a") == reputation.vote_weight("c")
        # Equal weights vote as a plain count, so none are handed to the aggregate.
        assert vote_weights(list(answers.worker_ids), reputation) is None
        assert MajorityVote()(answers) is False

    def test_without_worker_ids_falls_back_to_majority(self):
        answers = AnswerList.of([1, 1, 2])
        assert vote_weights(list(answers.worker_ids), self.reputation()) is None
        assert MajorityVote()(answers) == 1


class TestOtherAggregates:
    def test_first_and_list_all(self):
        answers = AnswerList.of([3, 1, 2])
        assert First()(answers) == 3
        assert ListAll()(answers) == [3, 1, 2]

    def test_mean_and_median(self):
        assert MeanRating()(AnswerList.of([1, 2, 6])) == pytest.approx(3.0)
        assert MedianRating()(AnswerList.of([1, 2, 6])) == 2
        assert MedianRating()(AnswerList.of([1, 2, 3, 10])) == pytest.approx(2.5)

    def test_mean_rejects_non_numeric(self):
        with pytest.raises(AggregateError):
            MeanRating()(AnswerList.of([1, "two"]))

    def test_fieldwise_majority(self):
        votes = [
            {"CEO": "Jane", "Phone": "111"},
            {"CEO": "Jane", "Phone": "222"},
            {"CEO": "John", "Phone": "222"},
        ]
        assert FieldwiseMajority()(AnswerList.of(votes)) == {"CEO": "Jane", "Phone": "222"}

    def test_fieldwise_requires_mappings(self):
        with pytest.raises(AggregateError):
            FieldwiseMajority()(AnswerList.of([1, 2]))


class TestRegistry:
    def test_lookup_is_case_insensitive(self):
        assert isinstance(get_aggregate("majorityvote"), MajorityVote)
        assert isinstance(get_aggregate("MeanRating"), MeanRating)

    def test_unknown_aggregate(self):
        with pytest.raises(AggregateError):
            get_aggregate("nope")

    def test_custom_registration(self):
        class Longest(MajorityVote):
            name = "Longest"

            def reduce(self, answers):
                return max(answers, key=len)

        register_aggregate("Longest", Longest)
        assert get_aggregate("longest")(AnswerList.of(["a", "abc", "ab"])) == "abc"


class TestAggregateProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=15))
    def test_majority_vote_matches_counting(self, votes):
        result = MajorityVote()(AnswerList.of(votes))
        trues, falses = votes.count(True), votes.count(False)
        if trues > falses:
            assert result is True
        elif falses > trues:
            assert result is False
        else:
            assert result is votes[0]

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=20))
    def test_mean_and_median_bounded_by_extremes(self, values):
        answers = AnswerList.of(values)
        assert min(values) - 1e-9 <= MeanRating()(answers) <= max(values) + 1e-9
        assert min(values) <= MedianRating()(answers) <= max(values)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20))
    def test_majority_winner_is_modal(self, votes):
        winner = MajorityVote()(AnswerList.of(votes))
        assert votes.count(winner) == max(votes.count(v) for v in set(votes))
