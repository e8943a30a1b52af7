"""Escaping and splitting helpers for the bracketed ``[a | b]`` text structures.

Both the encoder-side entity structures and the decoder-side argument-relation
pairs use square brackets with ``|`` field separators and comma-separated
lists.  Payload text may contain any of those characters, so they are
backslash-escaped on render and honored on parse.
"""

from __future__ import annotations

import re

RESERVED = "\\[]|,"
_ESCAPES = str.maketrans({ch: "\\" + ch for ch in RESERVED})
_ESCAPED_RE = re.compile(r"\\([\\\[\]|,])")
# One top-level group, the whitespace after it and an optional comma.  A
# backslash escapes the next character, so an escaped ``]`` stays inside.
_GROUP_RE = re.compile(r"\s*\[([^\]\\]*(?:\\.[^\]\\]*)*)\]\s*,?", re.DOTALL)
_SPACE_RE = re.compile(r"\s*")


class OutputParseError(ValueError):
    """Bracketed text or decoder output that does not fit the grammar; carries the chunk."""

    def __init__(self, message: str, chunk: str = ""):
        super().__init__(message)
        self.chunk = chunk


def escape(text: str) -> str:
    """Backslash each reserved character.  Text holding none comes back as
    it is: five substring tests cost less than one table-driven
    ``translate``, and most labels and mentions hold no reserved character."""
    if "\\" in text or "[" in text or "]" in text or "|" in text or "," in text:
        return text.translate(_ESCAPES)
    return text


def unescape(text: str) -> str:
    """Drop the backslash of each escaped reserved character; other
    backslashes are kept."""
    if "\\" not in text:
        return text
    return _ESCAPED_RE.sub(r"\1", text)


def split_unescaped(text: str, sep: str) -> list[str]:
    """Split on unescaped occurrences of a single separator character."""
    if "\\" not in text:
        return text.split(sep)
    parts: list[str] = []
    for part in text.split(sep):
        # A separator after an odd run of backslashes is escaped.
        if parts and (len(parts[-1]) - len(parts[-1].rstrip("\\"))) % 2:
            parts[-1] += sep + part
        else:
            parts.append(part)
    return parts


def bracket_groups(text: str) -> list[str]:
    """Extract the inner text of each top-level ``[...]`` group.

    Groups may be separated by whitespace, a comma, or both.  Anything else
    between groups, or an unclosed bracket, raises :class:`OutputParseError`.
    Escaped brackets inside a group do not open or close it.
    """
    groups: list[str] = []
    i = 0
    while match := _GROUP_RE.match(text, i):
        groups.append(match[1])
        i = match.end()
    i = _SPACE_RE.match(text, i).end()
    if i < len(text):
        if text[i] != "[":
            raise OutputParseError(f"expected '[' at position {i}", text[i:])
        raise OutputParseError("unclosed bracket group", text[i:])
    return groups
