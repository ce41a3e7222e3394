import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipsim.detect import DEFAULT_DELTA, Verdict, cosine_similarity, judge, sweep_delta
from ipsim.errors import ZeroEmbedding
from reference import cosine_reference
from test_acceptance import swept_delta

finite_vec = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=16,
)


@st.composite
def vec_pair(draw):
    n = draw(st.integers(2, 16))
    elems = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    a = draw(st.lists(elems, min_size=n, max_size=n))
    b = draw(st.lists(elems, min_size=n, max_size=n))
    return a, b


def nonzero(v):
    return any(abs(x) > 1e-6 for x in v)


@settings(max_examples=150, deadline=None)
@given(vec_pair())
def test_cosine_matches_reference(pair):
    a, b = pair
    assume(nonzero(a) and nonzero(b))
    got = cosine_similarity(np.array(a), np.array(b))
    assert got == pytest.approx(cosine_reference(a, b), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(vec_pair())
def test_cosine_symmetric_and_bounded(pair):
    a, b = pair
    assume(nonzero(a) and nonzero(b))
    ab = cosine_similarity(np.array(a), np.array(b))
    ba = cosine_similarity(np.array(b), np.array(a))
    assert ab == ba
    assert -1.0 <= ab <= 1.0


@settings(max_examples=100, deadline=None)
@given(finite_vec, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_cosine_scale_invariant(a, s, t):
    assume(nonzero(a))
    v = np.array(a)
    base = cosine_similarity(v, v)
    assert cosine_similarity(s * v, t * v) == pytest.approx(base, abs=1e-9)


def test_self_similarity_is_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(16)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_opposite_vectors_score_minus_one():
    v = np.array([1.0, -2.0, 3.0])
    assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_orthogonal_vectors_score_zero():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0


def test_zero_embedding_rejected():
    z = np.zeros(4)
    v = np.ones(4)
    with pytest.raises(ZeroEmbedding):
        cosine_similarity(z, v)
    with pytest.raises(ZeroEmbedding):
        cosine_similarity(v, z)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_embedding_is_judged_an_error_naming_the_design(bad):
    with pytest.raises(ZeroEmbedding, match="^design 'a' has a NaN or inf embedding"):
        judge("a", "b", np.array([bad, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ZeroEmbedding, match="^design 'b' has a NaN or inf embedding"):
        judge("a", "b", np.array([1.0, 0.0]), np.array([1.0, bad]))


def test_clamping_never_exceeds_unit_interval():
    # Accumulated rounding can push a raw ratio slightly past 1.
    v = np.full(64, 0.1)
    assert cosine_similarity(v, v) <= 1.0


def test_verdict_labels_and_threshold_is_strict():
    high = Verdict("a", "b", score=0.9, delta=0.5)
    low = Verdict("a", "b", score=0.2, delta=0.5)
    at = Verdict("a", "b", score=0.5, delta=0.5)
    assert high.label == "piracy"
    assert low.label == "no-piracy"
    assert at.label == "no-piracy"


def test_verdict_json_shape():
    v = Verdict("orig.v", "clone.v", score=0.75, delta=0.5)
    decoded = json.loads(v.to_json())
    assert decoded == {"a": "orig.v", "b": "clone.v", "score": 0.75,
                       "delta": 0.5, "label": "piracy"}
    assert list(decoded) == ["a", "b", "score", "delta", "label"]


def test_judge_builds_verdict():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 0.0])
    v = judge("x", "y", a, b)
    assert v.a == "x" and v.b == "y"
    assert v.delta == DEFAULT_DELTA
    assert v.score == pytest.approx(1.0, abs=1e-12)
    assert v.label == "piracy"


def test_judge_validates_delta():
    a = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        judge("x", "y", a, a, delta=1.5)
    with pytest.raises(ValueError):
        judge("x", "y", a, a, delta=-2.0)
    for edge in (-1.0, 1.0):
        assert judge("x", "y", a, a, delta=edge).delta == edge


def test_sweep_delta_ties_go_to_the_smaller_delta():
    # Every delta in [0.20, 0.50) separates these pairs.
    assert sweep_delta([1, -1], [0.5, 0.2]) == (0.2, 1.0)
    # A score on a grid point is not above that delta.
    assert sweep_delta([1, -1], [0.3, 0.29]) == (0.29, 1.0)


def test_sweep_delta_grid_ends():
    assert sweep_delta([1], [-0.98]) == (-0.99, 1.0)
    assert sweep_delta([-1, -1], [0.99, 0.5]) == (0.99, 1.0)
    # No grid point separates these, so the first (smallest) delta wins.
    assert sweep_delta([1, -1], [-0.995, -0.999]) == (-0.99, 0.5)


def test_sweep_delta_matches_acceptance_sweep():
    rng = np.random.default_rng(4)
    for _ in range(20):
        labels = rng.choice([1, -1], size=40).tolist()
        scores = rng.uniform(-1.0, 1.0, size=40).tolist()
        delta, acc = sweep_delta(labels, scores)
        ref_acc, ref_delta = swept_delta(labels, scores)
        assert acc == ref_acc
        assert delta == pytest.approx(ref_delta, abs=1e-9)


def test_cosine_known_angle():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0])
    assert cosine_similarity(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-12)
