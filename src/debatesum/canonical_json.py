"""Canonical JSON bytes, the one encoding of every artifact.

``to_json_bytes(doc)`` writes exactly ``(json.dumps(doc, sort_keys=True,
ensure_ascii=False, indent=2) + "\\n").encode("utf-8")`` in one pass, where
``json`` with ``indent`` falls back to its pure-Python generator encoder.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring as _quote

# what json writes for the non-finite floats, by their repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}
_CHUNK_PARTS = 4096


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _scalar_text(value) -> str | None:
    """The JSON text of a string, number, bool or None (subclasses such as
    str-Enums and numpy floats too, tested in json's order); None otherwise."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key) -> str:
    """A key as json writes it: a number, bool or None becomes a string."""
    text = key if isinstance(key, str) else _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _quote(text)


def _write(value, parts: list[str], chunks: list[bytes], newline: str) -> None:
    """Append ``value``'s text to ``parts``, which the end of a container encodes onto
    ``chunks`` past ``_CHUNK_PARTS``; ``newline`` is the line break plus its line's indent."""
    write = parts.append
    if isinstance(value, (list, tuple)):
        pairs, keyed, brackets = zip(repeat(""), value), False, "[]"
    elif isinstance(value, dict):
        pairs, keyed, brackets = sorted(value.items()), True, "{}"
    else:
        text = _scalar_text(value)
        if text is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        write(text)
        return
    if not value:
        write(brackets)
        return
    inner = newline + "  "
    separator, comma = brackets[0] + inner, "," + inner
    for key, item in pairs:
        if keyed:
            key = (_quote(key) if type(key) is str else _key_text(key)) + ": "
        kind = type(item)  # exact types first: they are nearly every scalar
        if kind is str:
            write(separator + key + _quote(item))
        elif kind is int:
            write(separator + key + int.__repr__(item))
        elif kind is float:
            write(separator + key + _float_text(item))
        elif kind is dict or kind is list or (text := _scalar_text(item)) is None:
            write(separator + key)  # a container: exact types skip the scalar checks
            _write(item, parts, chunks, inner)
        else:
            write(separator + key + text)
        separator = comma
    write(newline + brackets[1])
    if len(parts) > _CHUNK_PARTS:
        chunks.append("".join(parts).encode("utf-8"))
        parts.clear()


def to_json_bytes(doc) -> bytes:
    parts, chunks = [], []
    _write(doc, parts, chunks, "\n")
    parts.append("\n")
    return b"".join([*chunks, "".join(parts).encode("utf-8")])
