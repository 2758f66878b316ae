import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lammsc import mma
from lammsc.errors import CaptionParseError

GARDEN_SCENE = mma.ScenePayload(
    "image",
    [("a boy", ["golden hair", "brown suit", "red tie"]),
     ("a girl", ["black hair", "white dress", "black bow"])],
    background="a garden", pose="a playful pose")

GARDEN_CAPTION = ("A boy and a girl in a playful pose. "
                  "The boy has golden hair and is wearing a brown suit with a red tie. "
                  "The girl has black hair and is wearing a white dress with a black bow. "
                  "The background is a garden.")

_DESCRIPTORS = ["a boy", "a girl", "a dog", "a cat", "a bird", "an owl"]
_HAS_ATTRS = ["golden hair", "black hair", "brown hair", "blue eyes", "green eyes",
              "warm smile"]
_WEAR_ATTRS = ["brown suit", "white dress", "red tie", "black bow", "gray coat",
               "straw hat", "green scarf", "blue jacket"]
_POSES = ["a playful pose", "a formal pose", "a relaxed pose", "a dramatic pose"]
_BACKGROUNDS = ["a garden", "a beach", "a park", "a snowy street", "a sunny meadow"]


def random_scene(rng: np.random.Generator) -> mma.ScenePayload:
    n_entities = int(rng.integers(0, 4))
    descriptors = list(rng.choice(_DESCRIPTORS, size=n_entities, replace=False))
    entities = []
    for d in descriptors:
        n_has = int(rng.integers(0, 3))
        n_wear = int(rng.integers(0, 3))
        attrs = list(rng.choice(_HAS_ATTRS, size=n_has, replace=False))
        attrs += list(rng.choice(_WEAR_ATTRS, size=n_wear, replace=False))
        entities.append((d, attrs))
    pose = str(rng.choice(_POSES)) if entities else ""
    background = str(rng.choice(_BACKGROUNDS)) if rng.random() < 0.9 else ""
    return mma.ScenePayload("image", entities, background, pose)


scene_strategy = st.builds(
    random_scene, st.integers(min_value=0, max_value=10 ** 6).map(np.random.default_rng))


class TestSceneToText:
    def test_garden_caption_bytes(self):
        assert mma.scene_to_text(GARDEN_SCENE) == GARDEN_CAPTION

    def test_single_plain_entity_two_sentences(self):
        scene = mma.ScenePayload("image", [("a cat", [])], "a garden", "a relaxed pose")
        caption = mma.scene_to_text(scene)
        assert caption == "A cat in a relaxed pose. The background is a garden."
        assert caption.count(".") == 2

    def test_attribute_order_is_canonical(self):
        a = mma.ScenePayload("image", [("a boy", ["red tie", "brown suit"])],
                             "a park", "a formal pose")
        b = mma.ScenePayload("image", [("a boy", ["brown suit", "red tie"])],
                             "a park", "a formal pose")
        assert mma.scene_to_text(a) == mma.scene_to_text(b)

    def test_vowel_article(self):
        scene = mma.ScenePayload("image", [("an owl", ["orange scarf"])],
                                 "a park", "a formal pose")
        assert "is wearing an orange scarf" in mma.scene_to_text(scene)


# caption fragments, so that generated text reaches past the first sentence
_CAPTION_PIECES = ["A boy", "a girl", " and ", " in ", "a playful pose", ". ",
                   ".", "The ", "the boy", " has ", " is wearing ", " with ",
                   "golden hair", "a red tie", "The background is ", "a garden",
                   " ", "", "\n", "boy", "in", "É"]


class TestTextToScene:
    def test_garden_caption_parses_back(self):
        assert mma.text_to_scene(GARDEN_CAPTION) == mma.canonical_scene(GARDEN_SCENE)

    def test_background_only(self):
        scene = mma.text_to_scene("The background is a garden.")
        assert scene.entities == []
        assert scene.background == "a garden"

    def test_modality_from_request_context(self):
        assert mma.text_to_scene(GARDEN_CAPTION, modality="video").modality == "video"

    def test_nonconforming_sentence_named(self):
        bad = "A boy in a pose. Completely unrelated gibberish here. " \
              "The background is a garden."
        with pytest.raises(CaptionParseError) as err:
            mma.text_to_scene(bad)
        assert "unrelated gibberish" in str(err.value).lower() or \
               "unrelated gibberish" in err.value.sentence.lower()

    @given(scene_strategy)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_identity(self, scene):
        canon = mma.canonical_scene(scene)
        assert mma.text_to_scene(mma.scene_to_text(scene)) == canon

    @given(st.text() | st.lists(st.sampled_from(_CAPTION_PIECES), max_size=16)
           .map("".join))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text_parses_or_raises_caption_error(self, text):
        try:
            scene = mma.text_to_scene(text)
        except CaptionParseError:
            return
        assert scene == mma.canonical_scene(scene)

    def test_injective_on_canonical_scenes(self):
        rng = np.random.default_rng(7)
        seen = {}
        for _ in range(400):
            scene = mma.canonical_scene(random_scene(rng))
            caption = mma.scene_to_text(scene)
            if caption in seen:
                assert seen[caption] == scene
            seen[caption] = scene


class TestCanonicalScene:
    def test_duplicate_head_rejected(self):
        scene = mma.ScenePayload("image", [("a boy", []), ("the boy", [])],
                                 "a park", "a formal pose")
        with pytest.raises(ValueError, match="duplicate"):
            mma.canonical_scene(scene)

    def test_attribute_with_article_rejected(self):
        scene = mma.ScenePayload("image", [("a boy", ["a red tie"])], "a park",
                                 "a formal pose")
        with pytest.raises(ValueError, match="article"):
            mma.canonical_scene(scene)

    def test_bad_modality_rejected(self):
        with pytest.raises(ValueError, match="modality"):
            mma.canonical_scene(mma.ScenePayload("hologram"))

    def test_descriptor_with_connector_rejected(self):
        scene = mma.ScenePayload("image", [("a boy and friend", [])], "", "a pose")
        with pytest.raises(ValueError):
            mma.canonical_scene(scene)


class TestSceneJson:
    def test_round_trip(self):
        blob = mma.scene_to_json(mma.canonical_scene(GARDEN_SCENE))
        assert mma.scene_from_json(blob) == mma.canonical_scene(GARDEN_SCENE)

    def test_stable_bytes(self):
        canon = mma.canonical_scene(GARDEN_SCENE)
        assert mma.scene_to_json(canon) == mma.scene_to_json(canon)

    @pytest.mark.parametrize("blob", [
        '{"background": null}', '{"pose": 5}', '{"modality": ["image"]}',
        '{"entities": ["ab"]}', '{"entities": [["a boy"]]}',
        '{"entities": [["a boy", "golden hair"]]}', '{"entities": [[1, []]]}',
        '{"entities": [["a boy", [null]]]}', '{"entities": {"a boy": []}}',
        '{"modality": "smell"}', '[1]', 'not json', "[" * 10 ** 5,
        b'{"pose": "\xff"}', '{"backgroud": "a garden", "entities": [["a boy", []]]}'],
        ids=["null-background", "int-pose", "list-modality", "string-entity",
             "short-entity", "string-attributes", "int-descriptor",
             "null-attribute", "object-entities", "unknown-modality",
             "not-an-object", "not-json", "nested-too-deep", "bad-utf8",
             "unknown-key"])
    def test_malformed_record_rejected(self, blob):
        with pytest.raises(ValueError):
            mma.scene_from_json(blob)

    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=10), inner, max_size=3), max_leaves=12)

    @given(st.dictionaries(
        st.sampled_from(["modality", "entities", "background", "pose"]),
        _JSON | st.sampled_from(["image", "a boy", "golden hair"])) | _JSON)
    @settings(max_examples=300, deadline=None)
    def test_any_json_loads_or_raises_value_error(self, record):
        try:
            scene = mma.scene_from_json(json.dumps(record))
        except ValueError:
            return
        assert scene == mma.canonical_scene(scene)
