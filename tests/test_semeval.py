import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lammsc import semeval
from lammsc.errors import ProtocolError, ShapeError
from lammsc.wire import Endpoint

from helpers import fnv1a64, reference_vector_ok

MAX = sys.float_info.max
# values at float64's edge: the largest float, ints on either side of it
# (int(MAX) + 1 rounds down to MAX) and either side of 2**1024 - 2**970,
# from which an int no longer converts to a float
_EDGES = [MAX, -MAX, int(MAX), int(MAX) + 1, -int(MAX) - 1,
          2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970, 10 ** 308, 10 ** 309]
_ELEMENTS = (st.floats() | st.integers() | st.sampled_from(_EDGES)
             | st.booleans() | st.none() | st.text(max_size=3)
             | st.lists(st.floats(), max_size=2))
# DIM - 1, DIM or DIM + 1 reals, with a few arbitrary elements put in
_VECTORS = st.builds(
    lambda size, base, odd: [odd.get(i, base) for i in range(size)],
    st.sampled_from([semeval.DIM - 1, semeval.DIM, semeval.DIM + 1]),
    st.floats(-1, 1) | st.integers(-3, 3),
    st.dictionaries(st.integers(0, semeval.DIM), _ELEMENTS, max_size=4))


def dim_with(*odd) -> list:
    return [0.25] * (semeval.DIM - len(odd)) + list(odd)


def reference_embed(text: str) -> np.ndarray:
    """Independent per-trigram implementation of the hashed embedding."""
    data = text.lower().encode("utf-8")
    vec = np.zeros(semeval.DIM)
    for i in range(len(data) - 2):
        h = fnv1a64(data[i:i + 3])
        vec[h % semeval.DIM] += 1.0 if (h >> 63) == 0 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


class TestEmbed:
    def test_matches_reference_implementation(self):
        for text in ("the garden", "Jane and me in a playful pose.", "ααβγ UTF✓"):
            assert np.allclose(semeval.embed(text).values, reference_embed(text),
                               atol=1e-12)

    def test_bit_stable_across_calls(self):
        a = semeval.embed("stability check")
        b = semeval.embed("stability check")
        assert np.array_equal(a.values, b.values)

    def test_short_text_gives_zero_vector(self):
        for text in ("", "a", "ab"):
            assert np.all(semeval.embed(text).values == 0.0)

    def test_unit_norm_otherwise(self):
        v = semeval.embed("some ordinary sentence").values
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_case_insensitive(self):
        assert np.array_equal(semeval.embed("The Garden").values,
                              semeval.embed("the garden").values)

    def test_repetition_direction_stable(self):
        t = "the quick brown fox jumps over the lazy dog"
        c = semeval.cosine(semeval.embed(t), semeval.embed(t + t))
        assert c >= 0.99


class TestCosine:
    def test_self_similarity_exactly_one(self):
        v = semeval.embed("the garden")
        assert semeval.cosine(v, v) == 1.0
        assert semeval.cosine(semeval.embed("the garden"),
                              semeval.embed("the garden")) == 1.0

    def test_negation_exactly_minus_one(self):
        v = semeval.embed("opposites")
        assert semeval.cosine(v, semeval.EmbeddingVector(-v.values)) == -1.0

    def test_zero_vector_convention(self):
        z = semeval.embed("")
        v = semeval.embed("nonzero text here")
        assert semeval.cosine(z, v) == 0.0
        assert semeval.cosine(v, z) == 0.0
        assert semeval.cosine(z, z) == 0.0

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal(semeval.DIM)
            b = rng.standard_normal(semeval.DIM)
            c1 = semeval.cosine(a, b)
            assert -1.0 <= c1 <= 1.0
            assert c1 == pytest.approx(semeval.cosine(b, a), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            semeval.cosine(np.ones(4), np.ones(8))


class TestAccuracy:
    def test_identical_pairs_score_one(self):
        v = semeval.embed("alpha beta gamma")
        scores = [semeval.cosine(v, semeval.embed("alpha beta gamma"))] * 5
        assert semeval.accuracy_from_scores(scores, 0.6) == 1.0

    def test_counting_above_threshold(self):
        assert semeval.accuracy_from_scores([0.9, 0.7, 0.5, 0.3], 0.6) == 0.5

    def test_exactly_at_threshold_counts_incorrect(self):
        assert semeval.accuracy_from_scores([0.6], 0.6) == 0.0
        assert semeval.accuracy_from_scores([0.6 + 1e-9], 0.6) == 1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(-1, 1, 200).tolist()
        accs = [semeval.accuracy_from_scores(scores, t)
                for t in np.linspace(-1, 1, 21)]
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            semeval.accuracy_from_scores([], 0.6)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            semeval.accuracy_from_scores([0.5], 1.5)


class TestEmbedReplyCheck:
    """embed_remote accepts exactly the vectors the per-element rule does,
    and builds the same bytes from them."""

    @settings(max_examples=300, deadline=None)
    @given(vector=_VECTORS | st.lists(_ELEMENTS, max_size=3))
    @example(vector=dim_with(True))
    @example(vector=dim_with(10 ** 309))
    @example(vector=dim_with(10 ** 308))
    @example(vector=dim_with(int(MAX) + 1))
    @example(vector=dim_with(MAX, -MAX))
    @example(vector=dim_with(*json.loads("[NaN]")))
    @example(vector=dim_with(*json.loads("[Infinity]")))
    @example(vector=dim_with(*json.loads("[-Infinity]")))
    @example(vector=dim_with("0.5"))
    @example(vector=dim_with(None))
    @example(vector=dim_with([0.5]))
    @example(vector=[0.25] * (semeval.DIM - 1))
    @example(vector=[0.25] * (semeval.DIM + 1))
    @example(vector=[1] * semeval.DIM)
    def test_matches_per_element_rule(self, vector):
        def post_json(ep, path, body):
            return {"vector": vector}

        ep = Endpoint("http://replies.invalid")
        with mock.patch.object(semeval, "post_json", post_json):
            if reference_vector_ok(vector):
                got = semeval.embed_remote("hello", ep).values
                assert got.tobytes() == np.asarray(vector, dtype=np.float64).tobytes()
            else:
                with pytest.raises(ProtocolError, match="finite reals"):
                    semeval.embed_remote("hello", ep)
