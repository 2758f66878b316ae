import numpy as np
import pytest

from lammsc import semeval
from lammsc.errors import ShapeError

from helpers import fnv1a64


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
