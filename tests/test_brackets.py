"""Escaping and top-level splitting of bracketed text."""

from __future__ import annotations

import random

import pytest

from rellink.brackets import (
    _ESCAPES,
    RESERVED,
    OutputParseError,
    bracket_groups,
    escape,
    split_unescaped,
    unescape,
)


class TestEscape:
    @pytest.mark.parametrize(
        "raw",
        ["plain", "a | b", "x, y", "open [ close ]", "back\\slash", "[|,]\\"],
    )
    def test_roundtrip(self, raw):
        assert unescape(escape(raw)) == raw

    def test_escape_marks_reserved(self):
        assert escape("a|b") == "a\\|b"
        assert escape("a,b") == "a\\,b"

    def test_unescape_keeps_foreign_escapes(self):
        assert unescape("a\\nb") == "a\\nb"


class TestSplitUnescaped:
    def test_plain_split(self):
        assert split_unescaped("a | b", "|") == ["a ", " b"]

    def test_escaped_separator_ignored(self):
        assert split_unescaped("a \\| b | c", "|") == ["a \\| b ", " c"]

    def test_no_separator(self):
        assert split_unescaped("abc", "|") == ["abc"]


class TestBracketGroups:
    def test_single_group(self):
        assert bracket_groups("[a | b]") == ["a | b"]

    def test_comma_separated(self):
        assert bracket_groups("[a | b], [c | d]") == ["a | b", "c | d"]

    def test_space_separated(self):
        assert bracket_groups("[a | b] [c | d]") == ["a | b", "c | d"]

    def test_escaped_bracket_inside(self):
        assert bracket_groups("[a \\] b]") == ["a \\] b"]

    def test_unclosed_raises(self):
        with pytest.raises(OutputParseError):
            bracket_groups("[a | b")

    def test_leading_garbage_raises(self):
        with pytest.raises(OutputParseError):
            bracket_groups("noise [a | b]")

    def test_empty_text(self):
        assert bracket_groups("") == []


# -- the codec against the character loops it replaced ----------------------
#
# Reference: the earlier implementations, kept verbatim, which stepped through
# every character in Python.  Parsing must return the same values and raise
# the same errors on any text, escaped or not.

_REF_RESERVED = "\\[]|,"


def _ref_escape(text: str) -> str:
    out = []
    for ch in text:
        if ch in _REF_RESERVED:
            out.append("\\")
        out.append(ch)
    return "".join(out)


def _ref_unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] in _REF_RESERVED:
            out.append(text[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _ref_split_unescaped(text: str, sep: str) -> list[str]:
    parts: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            current.append(ch)
            current.append(text[i + 1])
            i += 2
            continue
        if ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def _ref_bracket_groups(text: str) -> list[str]:
    groups: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        if text[i] != "[":
            raise OutputParseError(f"expected '[' at position {i}", text[i:])
        start = i + 1
        j = start
        while j < n:
            if text[j] == "\\" and j + 1 < n:
                j += 2
                continue
            if text[j] == "]":
                break
            j += 1
        if j >= n:
            raise OutputParseError("unclosed bracket group", text[i:])
        groups.append(text[start:j])
        i = j + 1
        while i < n and text[i].isspace():
            i += 1
        if i < n and text[i] == ",":
            i += 1
    return groups


# Reserved characters, doubled and lone backslashes, ASCII and Unicode
# whitespace (no-break and em spaces, the \x1c separator that str.isspace
# accepts), newlines, and plain and non-ASCII letters.
_ALPHABET = ["\\", "\\\\", "[", "]", "|", ",", " ", "  ", "\t", "\n", "\u00a0",
             "\u2003", "\x1c", "\x85", "a", "b", "Z", "-", "\u00e9", "x y"]


def _random_text(rng: random.Random) -> str:
    pieces = [rng.choice(_ALPHABET) for _ in range(rng.randint(0, 14))]
    if rng.random() < 0.2:
        pieces.append("\\")  # trailing backslash
    return "".join(pieces)


def _random_groups(rng: random.Random) -> str:
    """Mostly well-formed group lists, some with an unclosed or stray part."""
    groups = [f"[{_random_text(rng).replace(']', '')}]" for _ in range(rng.randint(0, 4))]
    seps = [rng.choice([" ", ", ", ",", "", " ,\u2003", "\x1c", "\n"]) for _ in groups]
    text = "".join(g + s for g, s in zip(groups, seps))
    roll = rng.random()
    if roll < 0.15:
        text += "[" + _random_text(rng)  # maybe unclosed
    elif roll < 0.25:
        text = rng.choice(["x", " ,", "\\"]) + text  # leading garbage
    elif roll < 0.35:
        text += rng.choice([",,", ", x", "]"])
    return rng.choice(["", " ", "\u00a0"]) + text


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except OutputParseError as exc:
        return ("error", str(exc), exc.chunk)


class TestCodecMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_escape_and_unescape(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            text = _random_text(rng)
            assert escape(text) == _ref_escape(text), text
            assert unescape(text) == _ref_unescape(text), text
            assert unescape(escape(text)) == text, text

    @pytest.mark.parametrize("seed", range(4))
    def test_escape_matches_table_translate(self, seed):
        # ``escape`` skips the table for text holding no reserved character;
        # the result must be the table's on every text, with or without one.
        rng = random.Random(seed)
        plain = ["a", "Z", "0", " ", "-", "\u00e9", "\u00df", "\u4e2d", "\U0001f600", "\u00a0", "/", "."]
        texts = ["", *RESERVED, *plain]
        for _ in range(1000):
            pieces = [rng.choice(plain) for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.5:
                pieces.insert(rng.randint(0, len(pieces)), rng.choice(RESERVED))
            texts.append("".join(pieces))
        for text in texts:
            assert escape(text) == text.translate(_ESCAPES), text
        assert all(any(ch in text for text in texts[len(RESERVED) + 1:]) for ch in RESERVED)
        assert sum(escape(text) == text for text in texts) > 400

    @pytest.mark.parametrize("seed", range(4))
    def test_split_unescaped(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            text = _random_text(rng)
            for sep in "|,":
                assert split_unescaped(text, sep) == _ref_split_unescaped(text, sep), text

    @pytest.mark.parametrize("seed", range(4))
    def test_bracket_groups(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(800):
            text = _random_groups(rng) if rng.random() < 0.8 else _random_text(rng)
            expected = _outcome(_ref_bracket_groups, text)
            assert _outcome(bracket_groups, text) == expected, text
            outcomes.add(expected[0] if expected[0] == "ok" else expected[1].split(" at ")[0])
        # Both error kinds and successful parses were exercised.
        assert outcomes == {"ok", "unclosed bracket group", "expected '['"}
