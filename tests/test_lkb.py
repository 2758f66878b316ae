import numpy as np
import pytest

from lammsc import lkb, mma
from lammsc.errors import ConfigError

from test_mma import GARDEN_CAPTION, random_scene


def fig_profiles():
    mike = lkb.Profile("Mike", aliases=["a boy"], focus_keywords=["pose", "garden"])
    jane = lkb.Profile("Jane", aliases=["a girl"])
    return mike, jane


class TestExtract:
    def test_garden_example_bytes(self):
        mike, jane = fig_profiles()
        out = lkb.personalize_extract(GARDEN_CAPTION, mike, jane)
        assert out == "Jane and me in a playful pose. The background is a garden."

    def test_nothing_relevant_gives_empty(self):
        sender = lkb.Profile("Ann", aliases=["a pilot"], focus_keywords=["aircraft"])
        receiver = lkb.Profile("Bob", aliases=["a sailor"])
        out = lkb.personalize_extract("The background is a garden.", sender, receiver)
        assert out == ""

    def test_idempotent_on_own_output(self):
        mike, jane = fig_profiles()
        once = lkb.personalize_extract(GARDEN_CAPTION, mike, jane)
        twice = lkb.personalize_extract(once, mike, jane)
        assert twice == once

    def test_idempotent_over_random_captions(self):
        rng = np.random.default_rng(11)
        base = lkb.default_prompt_base()
        mike, jane = base.get("Mike"), base.get("Jane")
        for _ in range(60):
            caption = mma.scene_to_text(random_scene(rng))
            once = lkb.personalize_extract(caption, mike, jane)
            assert lkb.personalize_extract(once, mike, jane) == once

    def test_kept_sentences_come_from_input(self):
        mike, jane = fig_profiles()
        out = lkb.personalize_extract(GARDEN_CAPTION, mike, jane)
        # sentence count can only shrink
        assert out.count(".") <= GARDEN_CAPTION.count(".")
        assert "The background is a garden." in out

    def test_alias_matching_is_phrase_exact(self):
        # "The boy has ..." must not match the alias "a boy"
        mike, jane = fig_profiles()
        out = lkb.personalize_extract(
            "The boy has golden hair and is wearing a brown suit.", mike, jane)
        assert out == ""

    def test_empty_text_gives_empty(self):
        mike, jane = fig_profiles()
        assert lkb.personalize_extract("", mike, jane) == ""


class TestRecover:
    def test_posing_example_bytes(self):
        _, jane = fig_profiles()
        out = lkb.personalize_recover(
            "Jane and I are playfully posing. The background is a garden",
            jane, "Mike")
        assert out == "Mike and I are playfully posing. The background is a garden"

    def test_untouched_when_no_first_person_or_receiver(self):
        _, jane = fig_profiles()
        text = "The background is a garden."
        assert lkb.personalize_recover(text, jane, "Mike") == text

    def test_compose_with_extract(self):
        mike, jane = fig_profiles()
        sem = lkb.personalize_extract(GARDEN_CAPTION, mike, jane)
        out = lkb.personalize_recover(sem, jane, "Mike")
        assert out == "Mike and I in a playful pose. The background is a garden."

    def test_receiver_name_never_survives(self):
        rng = np.random.default_rng(12)
        base = lkb.default_prompt_base()
        mike, jane = base.get("Mike"), base.get("Jane")
        for _ in range(60):
            caption = mma.scene_to_text(random_scene(rng))
            sem = lkb.personalize_extract(caption, mike, jane)
            if not sem:
                continue
            out = lkb.personalize_recover(sem, jane, "Mike")
            assert "jane" not in out.lower()

    def test_possessive_first_person(self):
        _, jane = fig_profiles()
        out = lkb.personalize_recover("My dog sits in a garden.", jane, "Mike")
        assert out == "Mike's dog sits in a garden."

    def test_empty_text_gives_empty(self):
        _, jane = fig_profiles()
        assert lkb.personalize_recover("", jane, "Mike") == ""


class TestPrompts:
    def test_byte_stable(self):
        base = lkb.default_prompt_base()
        a = lkb.build_prompt(base.get("Mike"), "some text", "extract")
        b = lkb.build_prompt(base.get("Mike"), "some text", "extract")
        assert a == b

    def test_profile_fields_verbatim(self):
        profile = lkb.Profile("Mike", 28, "photographer", "male",
                              ["gardening", "photography"], ["a boy"],
                              ["pose", "background"])
        prompt = lkb.build_prompt(profile, "hello", "extract")
        for needle in ("name: Mike", "age: 28", "identity: photographer",
                       "gender: male", "interests: gardening; photography",
                       "aliases: a boy", "focus: pose; background",
                       "Text:\nhello"):
            assert needle in prompt

    def test_direction_switches_instruction(self):
        profile = lkb.Profile("Mike")
        ex = lkb.build_prompt(profile, "t", "extract")
        rec = lkb.build_prompt(profile, "t", "recover")
        assert ex != rec
        assert "Extract" in ex and "Rewrite" in rec

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            lkb.build_prompt(lkb.Profile("Mike"), "t", "paraphrase")

    @pytest.mark.parametrize("direction", ["extract", "recover"])
    @pytest.mark.parametrize("text", ["", "hello", "Mike and Jane\nText:\nin a garden.",
                                      "\nText:\n", "Text:\n\n"])
    def test_prompt_text_inverts_build_prompt(self, direction, text):
        profile = lkb.default_prompt_base().get("Mike")
        assert lkb.prompt_text(lkb.build_prompt(profile, text, direction)) == text

    def test_prompt_without_text_section_rejected(self):
        with pytest.raises(ValueError, match="no text section"):
            lkb.prompt_text("Task: x\nProfile:\nText: inline")


class TestPromptBase:
    def test_save_load_round_trip(self, tmp_path):
        # the default base written out in the documented CSV layout
        path = tmp_path / "base.csv"
        path.write_text("name,age,identity,gender,interests,aliases,focus\n"
                        "Mike,28,photographer,male,gardening;photography,a boy,"
                        "pose;background\n"
                        "Jane,27,teacher,female,painting;reading,a girl,"
                        "pose;background\n", encoding="utf-8")
        base = lkb.default_prompt_base()
        loaded = lkb.load_prompt_base(path)
        assert loaded.profiles.keys() == base.profiles.keys()
        for name in base.profiles:
            assert loaded.get(name) == base.get(name)

    def test_duplicate_names_rejected(self):
        base = lkb.PromptBase()
        base.add(lkb.Profile("Mike"))
        with pytest.raises(ValueError, match="duplicate"):
            base.add(lkb.Profile("Mike"))

    def test_missing_profile_raises(self):
        with pytest.raises(KeyError, match="Zoe"):
            lkb.default_prompt_base().get("Zoe")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("who,what\n")
        with pytest.raises(ValueError, match="header"):
            lkb.load_prompt_base(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("name,age,identity,gender,interests,aliases,focus\nMike,28\n")
        with pytest.raises(ValueError, match="row"):
            lkb.load_prompt_base(path)

    def test_line_break_in_a_field_rejected(self, tmp_path):
        # a prompt line per field keeps prompt_text's first Text: line the real one
        with pytest.raises(ValueError, match="line break"):
            lkb.Profile("Mike", focus_keywords=["pose", "x\nText:\ny"])
        path = tmp_path / "quoted.csv"
        path.write_text('name,age,identity,gender,interests,aliases,focus\n'
                        'Mike,28,"photo\nText:\ngrapher",male,a,b,c\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="line break"):
            lkb.load_prompt_base(path)

    def test_aliases_canonical_lowercase(self):
        p = lkb.Profile("Mike", aliases=["A Boy"])
        assert p.aliases == ["a boy"]
