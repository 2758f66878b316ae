"""Semantic scoring: hashed-trigram embeddings, cosine, threshold accuracy.

The built-in embedder is a deterministic stand-in for a neural text
encoder: lowercase the text, hash every overlapping byte trigram with
64-bit FNV-1a, and accumulate a signed count in one of 1024 buckets
(sign from the hash's top bit). Perfect recovery scores 1, corruption
scores lower, and results are bit-stable across platforms.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, ShapeError
from .wire import post_json, require_field

DIM = 1024

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@dataclass
class EmbeddingVector:
    """Unit-norm (or all-zero) 1024-dim embedding."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (DIM,):
            raise ShapeError(f"embedding must have {DIM} values, got shape "
                             f"{self.values.shape}")


def embed(text: str) -> EmbeddingVector:
    """Embed text as a signed bag of hashed byte trigrams."""
    data = text.lower().encode("utf-8")
    vec = np.zeros(DIM, dtype=np.float64)
    n = len(data) - 2
    if n > 0:
        b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
        for k in range(3):
            h ^= b[k:k + n]
            h *= _FNV_PRIME  # wraps mod 2^64
        buckets = (h % np.uint64(DIM)).astype(np.intp)
        signs = np.where((h >> np.uint64(63)) == 0, 1.0, -1.0)
        np.add.at(vec, buckets, signs)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
    return EmbeddingVector(vec)


def _values(v) -> np.ndarray:
    return v.values if isinstance(v, EmbeddingVector) else np.asarray(v, dtype=np.float64)


def cosine(u, v) -> float:
    """Cosine similarity clamped to [-1, 1]; 0 if either vector is all-zero."""
    a = _values(u)
    b = _values(v)
    if a.shape != b.shape:
        raise ShapeError(f"cosine: dimensions {a.shape} and {b.shape} differ")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0
    if np.array_equal(a, -b):
        return -1.0
    return float(np.clip(float(np.dot(a, b)) / (norm_a * norm_b), -1.0, 1.0))


def accuracy_from_scores(scores, threshold: float = 0.6) -> float:
    """Fraction of scores strictly above the threshold."""
    scores = list(scores)
    if not scores:
        raise ValueError("accuracy needs at least one score")
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    return sum(1 for s in scores if s > threshold) / len(scores)


def _reals(vector) -> np.ndarray | None:
    """``vector`` as float64 if it is a list of DIM JSON numbers (a bool is
    not one), each finite and within float64's range; else None."""
    if not isinstance(vector, list) or len(vector) != DIM or not set(
            map(type, vector)) <= {int, float}:
        return None
    try:
        values = np.asarray(vector, dtype=np.float64)
    except OverflowError:  # an int at or past 2**1024 - 2**970
        return None
    # A NaN, an infinity and a value of float64's largest magnitude take the
    # exact per-element rule: an int past the largest float rounds down to it.
    if not (np.abs(values) < sys.float_info.max).all() and not all(
            abs(x) <= sys.float_info.max for x in vector):
        return None
    return values


def embed_remote(text: str, ep) -> EmbeddingVector:
    """Fetch the embedding from a remote service speaking the /embed contract."""
    resp = post_json(ep, "/embed", {"text": text})
    values = _reals(require_field(resp, "vector", ep.base_url))
    if values is None:
        raise ProtocolError(f"{ep.base_url}: vector must hold {DIM} finite reals")
    return EmbeddingVector(values)
