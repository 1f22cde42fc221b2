"""Property-based tests for confidence-weighted aggregation and redundancy.

Extends the ``tests/storage/test_properties.py`` style into the crowd layer:

* under *uniform* reputations, every weighted aggregate must equal its plain
  counterpart exactly (``MajorityVote`` / ``FieldwiseMajority`` /
  ``MeanRating``) across all workload answer kinds — booleans (filters and
  join predicates), comparison labels, form mappings, and numeric ratings;
* the adaptive redundancy rule never emits more assignments than the
  configured maximum, for any accuracy/target combination, and waves never
  request more than the remaining budget of a task.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import (
    AnswerList,
    ConfidenceWeightedVote,
    FieldwiseMajority,
    MajorityVote,
    MeanRating,
    WeightedFieldwiseMajority,
    WeightedMeanRating,
    weighted_confidence,
)
from repro.core.optimizer.optimizer import CANDIDATE_ASSIGNMENTS, _pick_assignments
from repro.crowd.quality import WorkerReputation

worker_ids = st.lists(
    st.sampled_from([f"W{i:02d}" for i in range(8)]), min_size=1, max_size=9
)

# Answer kinds the workloads actually produce.
bool_answers = st.booleans()
comparison_answers = st.sampled_from(["left", "right"])
rating_answers = st.floats(min_value=1.0, max_value=7.0, allow_nan=False)
form_answers = st.fixed_dictionaries(
    {"CEO": st.sampled_from(["Ada", "Grace", "Edsger"]), "Phone": st.sampled_from(["1", "2"])}
)
categorical_answers = st.one_of(bool_answers, comparison_answers, form_answers)


def answer_list(data, strategy, workers):
    answers = [data.draw(strategy) for _ in workers]
    return AnswerList.of(answers, workers)


@given(worker_ids, st.data(), st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
@settings(max_examples=150)
def test_weighted_vote_equals_majority_under_uniform_weights(workers, data, weight):
    answers = answer_list(data, categorical_answers, workers)
    uniform = {worker_id: weight for worker_id in workers}
    assert ConfidenceWeightedVote(uniform).reduce(answers) == MajorityVote().reduce(answers)


@given(worker_ids, st.data())
@settings(max_examples=100)
def test_weighted_vote_with_fresh_reputation_equals_majority(workers, data):
    """A just-constructed reputation tracker is uniform by construction."""
    answers = answer_list(data, categorical_answers, workers)
    reputation = WorkerReputation()
    assert reputation.is_uniform(tuple(workers))
    weights = reputation.vote_weights(tuple(workers))
    assert ConfidenceWeightedVote(weights).reduce(answers) == MajorityVote().reduce(answers)


@given(worker_ids, st.data(), st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
@settings(max_examples=100)
def test_weighted_fieldwise_equals_fieldwise_under_uniform_weights(workers, data, weight):
    answers = answer_list(data, form_answers, workers)
    uniform = {worker_id: weight for worker_id in workers}
    assert WeightedFieldwiseMajority(uniform).reduce(answers) == FieldwiseMajority().reduce(
        answers
    )


@given(worker_ids, st.data(), st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
@settings(max_examples=100)
def test_weighted_mean_equals_mean_under_uniform_weights(workers, data, weight):
    answers = answer_list(data, rating_answers, workers)
    uniform = {worker_id: weight for worker_id in workers}
    assert WeightedMeanRating(uniform).reduce(answers) == MeanRating().reduce(answers)


@given(worker_ids, st.data())
@settings(max_examples=100)
def test_weighted_confidence_bounds_and_uniform_degradation(workers, data):
    answers = answer_list(data, categorical_answers, workers)
    uniform = {worker_id: 1.0 for worker_id in workers}
    confidence = weighted_confidence(answers, uniform)
    assert 0.0 < confidence <= 1.0
    assert confidence == answers.agreement()


@given(
    st.lists(
        st.sampled_from([f"W{i:02d}" for i in range(8)]), min_size=1, max_size=8, unique=True
    ),
    st.data(),
)
@settings(max_examples=60)
def test_skewed_weights_follow_the_trusted_worker(workers, data):
    """With one overwhelmingly trusted worker, the vote follows them."""
    answers = answer_list(data, bool_answers, workers)
    trusted = workers[0]
    weights = {worker_id: 0.01 for worker_id in workers}
    weights[trusted] = 1000.0
    reduced = ConfidenceWeightedVote(weights).reduce(answers)
    assert reduced == answers.answers[workers.index(trusted)]


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=1.0, exclude_max=False, allow_nan=False),
)
@settings(max_examples=200)
def test_adaptive_redundancy_is_always_an_odd_candidate(accuracy, target):
    chosen = _pick_assignments(accuracy, target)
    assert chosen in CANDIDATE_ASSIGNMENTS
    assert chosen % 2 == 1


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200)
def test_wave_requests_never_overshoot_the_remaining_target(target, received, wave_size):
    """The wave sizing rule used by the Task Manager, in isolation.

    A wave never requests more than the task's remaining assignment budget,
    and total assignments across waves can therefore never exceed the target
    (each wave buys at most what is still missing).
    """
    remaining = max(target - received, 1)
    wave = min(wave_size, remaining)
    assert 1 <= wave <= wave_size
    if received < target:
        assert received + wave <= target
