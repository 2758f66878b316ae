"""Multimodal alignment: scene payloads to captions and back.

Real image/audio/video conversion is delegated to a remote large-model
service; for tests and local runs a deterministic mock codec maps
structured scene payloads through a fixed caption grammar that is exactly
invertible on canonical scenes:

  headline:   "<D1 and D2 ...> in <pose>."           (if any entities)
  per entity: "The <noun> has <A and B> and is wearing <a X with a Y>."
              (only if the entity has attributes)
  background: "The background is <background>."      (if non-empty)

Attributes whose head word names a bodily feature ("golden hair") render
with "has"; everything else is a worn item and gets an indefinite
article, main garments before accessories.
"""

from __future__ import annotations

import base64
import json
import re
from dataclasses import dataclass, field

from .errors import CaptionParseError, ProtocolError
from .fileio import json_object
from .wire import Endpoint, post_json, require_field

MODALITIES = ("image", "audio", "video")

_HAS_HEADS = frozenset({"hair", "eyes", "beard", "smile", "freckles"})
_MAIN_GARMENTS = frozenset({"suit", "dress", "coat", "jacket", "shirt", "sweater",
                            "gown", "uniform"})
_VOWELS = "aeiou"
_BAD_FRAGMENTS = (" and ", " with ", ".", ",")
_FIELD_CHARS = re.compile(r"[a-z0-9' ]+")
_SENTENCE_CHARS = re.compile(r"[A-Za-z0-9' ]+")


@dataclass
class ScenePayload:
    """One synthetic scene: ordered entities with attributes, a shared pose,
    and a background. ``raw_blob`` carries opaque media bytes in remote mode."""

    modality: str
    entities: list[tuple[str, list[str]]] = field(default_factory=list)
    background: str = ""
    pose: str = ""
    raw_blob: bytes | None = None


def _head(phrase: str) -> str:
    return phrase.split()[-1]


def _strip_article(phrase: str) -> str:
    for art in ("a ", "an ", "the "):
        if phrase.startswith(art):
            return phrase[len(art):]
    return phrase


def _with_article(phrase: str) -> str:
    return ("an " if phrase[0] in _VOWELS else "a ") + phrase


def _check_fragment(kind: str, value: str):
    if not value or value != value.strip():
        raise ValueError(f"{kind} must be non-empty without surrounding spaces: "
                         f"{value!r}")
    if not _FIELD_CHARS.fullmatch(value):
        raise ValueError(f"{kind} may only use lowercase letters, digits, spaces "
                         f"and apostrophes: {value!r}")
    for frag in _BAD_FRAGMENTS:
        if frag in value:
            raise ValueError(f"{kind} may not contain {frag!r}: {value!r}")


def canonical_scene(p: ScenePayload) -> ScenePayload:
    """Validate and normalize: lowercase descriptors, attributes sorted."""
    if p.modality not in MODALITIES:
        raise ValueError(f"unknown modality {p.modality!r}")
    entities = []
    heads = set()
    for descriptor, attributes in p.entities:
        descriptor = descriptor.lower()
        _check_fragment("descriptor", descriptor)
        if " in " in descriptor:
            raise ValueError(f"descriptor may not contain ' in ': {descriptor!r}")
        head = _head(_strip_article(descriptor))
        if head in heads:
            raise ValueError(f"duplicate entity head word {head!r}")
        heads.add(head)
        canon_attrs = sorted(a.lower() for a in attributes)
        for a in canon_attrs:
            _check_fragment("attribute", a)
            if a.startswith(("a ", "an ", "the ")):
                raise ValueError(f"attribute must not carry an article: {a!r}")
        entities.append((descriptor, canon_attrs))
    if p.pose and not entities:
        raise ValueError("a pose requires at least one entity")
    pose = p.pose.lower()
    background = p.background.lower()
    if pose:
        _check_fragment("pose", pose)
    if background:
        _check_fragment("background", background)
    return ScenePayload(p.modality, entities, background, pose, p.raw_blob)


def _capitalize(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:] if sentence else sentence


def _render_entity(descriptor: str, attributes: list[str]) -> str:
    has_attrs = [a for a in attributes if _head(a) in _HAS_HEADS]
    wear_attrs = [a for a in attributes if _head(a) not in _HAS_HEADS]
    wear_attrs.sort(key=lambda a: (0 if _head(a) in _MAIN_GARMENTS else 1, a))
    parts = []
    if has_attrs:
        parts.append("has " + " and ".join(has_attrs))
    if wear_attrs:
        parts.append("is wearing " + " with ".join(_with_article(a)
                                                   for a in wear_attrs))
    subject = "the " + _strip_article(descriptor)
    return _capitalize(f"{subject} {' and '.join(parts)}.")


def scene_to_text(p: ScenePayload) -> str:
    """Render the deterministic caption for a canonical scene."""
    p = canonical_scene(p)
    sentences = []
    if p.entities:
        headline = " and ".join(d for d, _ in p.entities)
        if p.pose:
            headline += f" in {p.pose}"
        sentences.append(_capitalize(headline + "."))
    for descriptor, attributes in p.entities:
        if attributes:
            sentences.append(_render_entity(descriptor, attributes))
    if p.background:
        sentences.append(f"The background is {p.background}.")
    return " ".join(sentences)


def _parse_entity_sentence(body: str):
    rest = body[len("the "):]
    cuts = [(i, m) for i, m in ((rest.find(m), m) for m in (" has ", " is wearing "))
            if i > 0]
    if not cuts:
        raise CaptionParseError(f"entity sentence has no attribute clause: "
                                f"{body!r}", body)
    cut, _ = min(cuts)
    subject = rest[:cut]
    predicate = rest[cut + 1:]
    if " and is wearing " in predicate:
        has_part, wear_part = predicate.split(" and is wearing ", 1)
    elif predicate.startswith("has "):
        has_part, wear_part = predicate, ""
    else:
        has_part, wear_part = "", predicate[len("is wearing "):]
    if has_part and not has_part.startswith("has "):
        raise CaptionParseError(f"expected 'has' clause in {body!r}", body)
    has_attrs = has_part[len("has "):].split(" and ") if has_part else []
    wear_attrs = ([_strip_article(a) for a in wear_part.split(" with ")]
                  if wear_part else [])
    return subject, has_attrs + wear_attrs


def text_to_scene(text: str, modality: str = "image") -> ScenePayload:
    """Parse a grammar-conforming caption back into a canonical scene.

    Raises CaptionParseError, and nothing else, for any text outside the
    grammar, including text that parses into a scene ``canonical_scene``
    rejects.
    """
    if not text.strip():
        return ScenePayload(modality)
    bodies = [s for s in text.rstrip().rstrip(".").split(". ")]
    entities: list[tuple[str, list[str]]] = []
    attr_map: dict[str, list[str]] = {}
    order: list[str] = []
    background = ""
    pose = ""
    for i, body in enumerate(bodies):
        low = body.lower()
        if not low:
            raise CaptionParseError("empty sentence in caption", body)
        if not _SENTENCE_CHARS.fullmatch(body):
            raise CaptionParseError(f"sentence contains characters outside the "
                                    f"caption grammar: {body!r}", body)
        if low.startswith("the background is "):
            background = body[len("the background is "):].lower()
        elif low.startswith("the ") and (" has " in low or " is wearing " in low):
            subject, attrs = _parse_entity_sentence(low)
            attr_map[subject] = attrs
            if subject not in order:
                order.append(subject)
        elif i == 0 and not low.startswith("the "):
            if " in " in low:
                desc_part, pose = low.split(" in ", 1)
            else:
                desc_part = low
            for d in desc_part.split(" and "):
                entities.append((d, []))
        else:
            raise CaptionParseError(f"sentence does not match the caption grammar: "
                                    f"{body!r}", body)
    merged: list[tuple[str, list[str]]] = []
    used = set()
    for descriptor, _ in entities:
        stripped = _strip_article(descriptor)
        merged.append((descriptor, attr_map.get(stripped, [])))
        used.add(stripped)
    for subject in order:
        if subject not in used:
            merged.append((_with_article(subject), attr_map[subject]))
    try:
        return canonical_scene(ScenePayload(modality, merged, background, pose))
    except ValueError as exc:
        raise CaptionParseError(str(exc), text) from exc


# ---------------------------------------------------------------------------
# scene (de)serialization shared by the corpus format and the wire protocol

def scene_to_json(p: ScenePayload) -> str:
    return json.dumps(
        {"modality": p.modality,
         "entities": [[d, list(a)] for d, a in p.entities],
         "pose": p.pose, "background": p.background},
        sort_keys=True, separators=(",", ":"))


def scene_from_json(blob: bytes | str) -> ScenePayload:
    """Parse and canonicalize one scene record (UTF-8 bytes, or text). Every
    fault, from bad UTF-8 or JSON to an unknown key, a field of the wrong
    type or an invalid scene, raises ValueError."""
    record = json_object(blob, "scene record")
    unknown = sorted(set(record) - {"modality", "background", "pose", "entities"})
    if unknown:
        raise ValueError(f"unknown scene record keys: {unknown}")
    modality, background, pose, entities = (record.get(key, default) for key, default in (
        ("modality", "image"), ("background", ""), ("pose", ""), ("entities", [])))
    if not (all(isinstance(s, str) for s in (modality, background, pose))
            and isinstance(entities, list) and all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], list) and all(isinstance(a, str) for a in e[1])
                for e in entities)):
        raise ValueError(f"scene fields must be strings and entities [descriptor, "
                         f"[attributes]] string pairs, got {blob!r}")
    return canonical_scene(ScenePayload(
        modality, [(d, list(attrs)) for d, attrs in entities], background, pose))


# ---------------------------------------------------------------------------
# remote client

def transform_remote(payload, target_modality: str, ep: Endpoint):
    """Ask the modality service to convert a payload; returns text or a scene."""
    if isinstance(payload, str):
        source, data = "text", payload.encode("utf-8")
    elif isinstance(payload, ScenePayload):
        source = payload.modality
        data = (payload.raw_blob if payload.raw_blob is not None
                else scene_to_json(payload).encode("utf-8"))
    else:
        raise TypeError(f"cannot transform payload of type {type(payload).__name__}")
    body = {"source_modality": source, "target_modality": target_modality,
            "data": base64.b64encode(data).decode("ascii")}
    resp = post_json(ep, "/transform", body)
    require_field(resp, "target_modality", ep.base_url)
    encoded = require_field(resp, "data", ep.base_url)
    try:
        raw = base64.b64decode(encoded, validate=True)
    except (ValueError, TypeError) as exc:  # binascii.Error, or non-ASCII str
        raise ProtocolError(f"{ep.base_url}: response data is not base64") from exc
    if target_modality == "text":
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{ep.base_url}: text payload is not UTF-8") from exc
    try:
        scene = scene_from_json(raw)
        scene.modality = target_modality
        return scene
    except ValueError:  # not a scene record: keep the raw bytes
        return ScenePayload(target_modality, raw_blob=raw)
