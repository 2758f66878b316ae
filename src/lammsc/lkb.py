"""Personalized knowledge base: user profiles and semantics personalization.

The local personalizer is deterministic and rule-based so the pipeline has
an exact oracle; a remote LLM service can replace it behind the same
interface. Extraction keeps only sentences that mention a sender focus
keyword or either party, then rewrites the sender to "me" and the receiver
to their name in one simultaneous pass. Recovery maps first-person tokens
to the sender's name and the receiver's name back to first person. In
"X and Y" coordinations the first-person token always goes last.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

from .errors import ConfigError, ProtocolError
from .wire import Endpoint, post_json, require_field

_PLACEHOLDER = ""
_FIRST_PERSON = frozenset({"me", "Me", "I"})
_STOP_WORDS = frozenset({"in", "on", "at", "is", "are", "was", "were", "has",
                         "have", "and", "with"})
_PROMPT_FIELDS = ("name", "age", "identity", "gender", "interests", "aliases",
                  "focus")
_TASKS = {
    "extract": "Extract the sender's personalized semantics from the text below.",
    "recover": "Rewrite the received semantics below from the receiver's point "
               "of view.",
}


@dataclass
class Profile:
    """One user's personalization record."""

    name: str
    age: int = 0
    identity: str = ""
    gender: str = ""
    interests: list[str] = field(default_factory=list)
    aliases: list[str] = field(default_factory=list)
    focus_keywords: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.name:
            raise ValueError("profile name must be non-empty")
        self.aliases = [a.lower() for a in self.aliases]


@dataclass
class PromptBase:
    """Profiles keyed by user name; names are unique."""

    profiles: dict[str, Profile] = field(default_factory=dict)

    def add(self, profile: Profile):
        if profile.name in self.profiles:
            raise ValueError(f"duplicate profile name {profile.name!r}")
        self.profiles[profile.name] = profile

    def get(self, name: str) -> Profile:
        if name not in self.profiles:
            raise KeyError(f"no profile named {name!r} in the prompt base")
        return self.profiles[name]


def default_prompt_base() -> PromptBase:
    """The two-user base every built-in test scene is written against."""
    base = PromptBase()
    base.add(Profile("Mike", 28, "photographer", "male",
                     ["gardening", "photography"], ["a boy"],
                     ["pose", "background"]))
    base.add(Profile("Jane", 27, "teacher", "female",
                     ["painting", "reading"], ["a girl"],
                     ["pose", "background"]))
    return base


def load_prompt_base(path) -> PromptBase:
    """Read a prompt base CSV; an unreadable file or bad row is a ConfigError."""
    base = PromptBase()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != list(_PROMPT_FIELDS):
                raise ValueError(f"expected header {','.join(_PROMPT_FIELDS)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(_PROMPT_FIELDS):
                    raise ValueError(f"malformed profile row {row!r}")
                name, age, identity, gender, interests, aliases, focus = row
                base.add(Profile(name, int(age or 0), identity, gender,
                                 [s for s in interests.split(";") if s],
                                 [s for s in aliases.split(";") if s],
                                 [s for s in focus.split(";") if s]))
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"prompt base {path}: {exc}") from exc
    return base


# ---------------------------------------------------------------------------
# sentence plumbing

def _split_sentences(text: str) -> list[tuple[str, bool]]:
    """Split on '. ' boundaries; each item is (body, had_trailing_period)."""
    parts = text.split(". ")
    out = [(p, True) for p in parts[:-1]]
    last = parts[-1]
    if last.endswith("."):
        out.append((last[:-1], True))
    else:
        out.append((last, False))
    return out


def _join_sentences(sentences: list[tuple[str, bool]]) -> str:
    return " ".join(body + ("." if period else "") for body, period in sentences)


def _capitalize(body: str) -> str:
    return body[0].upper() + body[1:] if body else body


def _phrase_pattern(term: str) -> str:
    return rf"(?<!\w){re.escape(term)}(?!\w)"


# ASCII-only case folding: under full Unicode folding, IGNORECASE lets
# e.g. U+0130 match "i" while lowercasing to a two-codepoint string,
# which corrupted channel output can actually produce.
_MATCH_FLAGS = re.IGNORECASE | re.ASCII


def _mentions(term: str, body: str) -> bool:
    return re.search(_phrase_pattern(term), body, _MATCH_FLAGS) is not None


def _simultaneous_replace(body: str, mapping: dict[str, str]) -> str:
    """One-pass substitution; replacements are never rescanned."""
    if not mapping:
        return body
    keys = sorted(mapping, key=len, reverse=True)
    pattern = re.compile("|".join(_phrase_pattern(k) for k in keys), _MATCH_FLAGS)
    return pattern.sub(lambda m: mapping.get(m.group(0).lower(), m.group(0)), body)


def _normalize_coordination(body: str, fp_tokens) -> str:
    """Move a leading first-person token behind its whole coordination chain,
    so the rewrite is idempotent."""
    words = body.split(" ")
    out: list[str] = []
    i = 0
    n = len(words)
    while i < n:
        w = words[i]
        if w in fp_tokens and i + 1 < n and words[i + 1] == "and":
            phrases: list[list[str]] = []
            j = i + 1
            while j < n and words[j] == "and":
                k = j + 1
                phrase: list[str] = []
                while (k < n and len(phrase) < 4
                       and words[k].lower() not in _STOP_WORDS
                       and words[k] not in fp_tokens):
                    phrase.append(words[k])
                    k += 1
                if not phrase:
                    break
                phrases.append(phrase)
                j = k
            if phrases:
                for idx, phrase in enumerate(phrases):
                    if idx:
                        out.append("and")
                    out.extend(phrase)
                out.extend(["and", w])
                i = j
                continue
        out.append(w)
        i += 1
    return " ".join(out)


def _resolve_placeholders(body: str) -> str:
    words = body.split(" ")
    for idx, w in enumerate(words):
        if not w.startswith(_PLACEHOLDER):
            continue
        suffix = w[len(_PLACEHOLDER):]
        if suffix == "'s":
            words[idx] = "my"
        else:
            subject = idx == 0 or words[idx - 1] == "and"
            words[idx] = ("I" if subject else "me") + suffix
    return " ".join(words)


# ---------------------------------------------------------------------------
# personalization operators

def personalize_extract(text: str, sender: Profile, receiver: Profile) -> str:
    """Keep the sender-relevant sentences and rewrite both parties.

    Returns "" when no sentence survives the filter; callers flag that case.
    """
    sender_terms = sender.aliases + [sender.name]
    receiver_terms = receiver.aliases + [receiver.name]
    mapping = {t.lower(): "me" for t in sender_terms}
    mapping.update({t.lower(): receiver.name for t in receiver_terms})
    keep_terms = list(sender.focus_keywords) + sender_terms + receiver_terms
    kept = []
    for body, period in _split_sentences(text):
        if not body:
            continue
        if not any(_mentions(term, body) for term in keep_terms):
            continue
        body = _simultaneous_replace(body, mapping)
        body = _normalize_coordination(body, _FIRST_PERSON)
        kept.append((_capitalize(body), period))
    return _join_sentences(kept) if kept else ""


def personalize_recover(text: str, receiver: Profile, sender_name: str) -> str:
    """Rewrite received semantics for the receiver: sender gets named,
    the receiver becomes first person."""
    mapping = {"me": sender_name, "i": sender_name, "my": sender_name + "'s"}
    mapping.update({t.lower(): _PLACEHOLDER
                    for t in receiver.aliases + [receiver.name]})
    out = []
    for body, period in _split_sentences(text):
        if not body:
            continue
        body = _simultaneous_replace(body, mapping)
        body = _normalize_coordination(body, {_PLACEHOLDER})
        body = _resolve_placeholders(body)
        out.append((_capitalize(body), period))
    return _join_sentences(out) if out else ""


# ---------------------------------------------------------------------------
# prompts and the remote client

def build_prompt(profile: Profile, text: str, direction: str) -> str:
    """Byte-stable prompt: task line, profile table, then the user text."""
    if direction not in _TASKS:
        raise ValueError(f"direction must be 'extract' or 'recover', got "
                         f"{direction!r}")
    lines = [
        "Task: " + _TASKS[direction],
        "Profile:",
        f"name: {profile.name}",
        f"age: {profile.age}",
        f"identity: {profile.identity}",
        f"gender: {profile.gender}",
        "interests: " + "; ".join(profile.interests),
        "aliases: " + "; ".join(profile.aliases),
        "focus: " + "; ".join(profile.focus_keywords),
        "Text:",
        text,
    ]
    return "\n".join(lines)


def personalize_remote(text: str, profile: Profile, direction: str,
                       ep: Endpoint) -> str:
    resp = post_json(ep, "/personalize",
                     {"prompt": build_prompt(profile, text, direction)})
    value = require_field(resp, "text", ep.base_url)
    if not isinstance(value, str):
        raise ProtocolError(f"{ep.base_url}: 'text' field must be a string")
    return value
