"""Synthetic scene corpora: generation, line format, loading.

A corpus file holds one JSON scene record per line:
  {"modality": ..., "entities": [[descriptor, [attributes...]], ...],
   "pose": ..., "background": ...}
"""

from __future__ import annotations

import numpy as np

from .errors import CorpusError
from .fileio import atomic_open
from .mma import ScenePayload, canonical_scene, scene_from_json, scene_to_json

DESCRIPTOR_POOL = ("a dog", "a cat", "a bird")
HAS_ATTRS = ("golden hair", "black hair", "brown hair", "red hair",
             "blue eyes", "green eyes", "warm smile")
WEAR_ATTRS = ("brown suit", "white dress", "blue dress", "gray coat",
              "blue jacket", "red tie", "black bow", "straw hat",
              "green scarf", "silver belt")
POSES = ("a playful pose", "a formal pose", "a relaxed pose", "a dramatic pose",
         "a thoughtful pose")
BACKGROUNDS = ("a garden", "a beach", "a park", "a snowy street",
               "a sunny meadow", "a quiet library")


def _attrs(rng: np.random.Generator) -> list[str]:
    n_has = int(rng.integers(0, 3))
    n_wear = int(rng.integers(0, 3))
    out = list(rng.choice(HAS_ATTRS, size=n_has, replace=False))
    out += list(rng.choice(WEAR_ATTRS, size=n_wear, replace=False))
    return out


def synthetic_corpus(count: int, seed: int = 0) -> list[ScenePayload]:
    """Scenes built around the default prompt-base pair ("a boy", "a girl")."""
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(count):
        entities = [("a boy", _attrs(rng)), ("a girl", _attrs(rng))]
        if rng.random() < 0.3:
            entities.append((str(rng.choice(DESCRIPTOR_POOL)), _attrs(rng)))
        scenes.append(canonical_scene(ScenePayload(
            "image", entities, str(rng.choice(BACKGROUNDS)),
            str(rng.choice(POSES)))))
    return scenes


def save_corpus(path, scenes: list[ScenePayload]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(scene_to_json(scene))
            fh.write("\n")


def load_corpus(path) -> list[ScenePayload]:
    """Parse one scene per line; any malformed line fails the whole load."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:  # or a NUL byte in the path, or not UTF-8
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    scenes = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise CorpusError(f"{path}:{lineno}: empty record")
        try:
            scenes.append(scene_from_json(line))
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
    if not scenes:
        raise CorpusError(f"{path}: corpus is empty")
    return scenes
