"""Text grammar for alphabets, words, and phrases.

    alphabet: a b c
    tau: a<->b c<->c
    word: A B A B
    proj: A=a B=b
    phrase: A B | B A
    proj: A=a B=b

Blank lines and ``#`` comments are skipped.  A ``word:`` value with a
single multi-character token is split into characters, except
``(empty)``, the empty word as the command line prints it.  A ``word:``
or ``phrase:`` value with no tokens is an error: the empty word is
written ``(empty)``.  In strict mode a symbol may appear in only one tau
pair; otherwise consistent redeclarations (``a<->b b<->a``) are
accepted.  Text read over a given alphabet declares none of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .algebra import InvolutiveAlphabet
from .moves import CAP_KEYS
from .words import EMPTY_WORD, Nanophrase, Nanoword


class ParseError(ValueError):
    """Bad input text, at a 1-based ``line`` of it, or a bad command-line
    option (``line`` None, the message names the option).  ``message`` is
    the text without its line."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class ParsedInput:
    alphabet: InvolutiveAlphabet
    items: tuple[Union[Nanoword, Nanophrase], ...]


def _tokens(value: str) -> list[str]:
    if value == EMPTY_WORD:
        return []
    parts = value.split()
    if len(parts) == 1 and len(parts[0]) > 1 and "|" not in parts[0]:
        return list(parts[0])
    return parts


def _parse_proj(value: str, line_no: int) -> dict[str, str]:
    out = {}
    for chunk in value.replace(",", " ").split():
        if "=" not in chunk:
            raise ParseError(line_no, f"expected NAME=symbol, got {chunk!r}")
        name, symbol = chunk.split("=", 1)
        if name in out and out[name] != symbol:
            raise ParseError(line_no, f"conflicting projection for {name!r}")
        out[name] = symbol
    return out


def parse_input(
    text: str, strict: bool = False, ground: Optional[InvolutiveAlphabet] = None
) -> ParsedInput:
    """The alphabet and items of ``text``, which declares its alphabet
    first, or, given ``ground``, is read over that alphabet and holds no
    ``alphabet:`` or ``tau:`` line."""
    alphabet = ground
    symbols: list[str] = []
    tau: dict[str, str] = {}
    items: list[Union[Nanoword, Nanophrase]] = []
    pending: Optional[tuple[str, list[str], int]] = None  # kind, tokens, line

    def finish_alphabet(line_no: int) -> InvolutiveAlphabet:
        nonlocal alphabet
        if alphabet is None:
            if not symbols:
                raise ParseError(line_no, "alphabet must be declared first")
            missing = [a for a in symbols if a not in tau]
            if missing:
                raise ParseError(
                    line_no, f"tau missing for {', '.join(missing)}"
                )
            try:
                alphabet = InvolutiveAlphabet.build(symbols, tau)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
        return alphabet

    def attach_projection(proj: dict[str, str], line_no: int) -> None:
        nonlocal pending
        if pending is None:
            raise ParseError(line_no, "proj line without a preceding word/phrase")
        kind, tokens, word_line = pending
        ground = finish_alphabet(line_no)
        flat = [t for t in tokens if t != "|"] if kind == "phrase" else tokens
        for name, symbol in proj.items():
            if symbol not in ground:
                raise ParseError(line_no, f"unknown symbol {symbol!r} in projection")
        try:
            item = Nanoword.from_names(ground, flat, proj)
            if kind == "phrase":  # the letters of each '|'-separated segment, in turn
                seq = iter(item.seq)
                parts = " ".join(tokens).split("|")
                splits = tuple(tuple(next(seq) for _ in part.split()) for part in parts)
                item = Nanophrase(ground, splits, item.proj, item.names)
            items.append(item)
        except ValueError as exc:
            # a missing or stray projection, which ``from_names`` checks
            # first, is the proj line's fault; any other is the word's
            raise ParseError(word_line if proj.keys() == set(flat) else line_no, str(exc)) from exc
        pending = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(line_no, f"expected 'key: value', got {line!r}")
        key, value = key.strip(), value.strip()
        if ground is not None and key in ("alphabet", "tau"):
            raise ParseError(line_no, f"no {key} line here: the alphabet is given")
        if key == "alphabet":
            if symbols:
                raise ParseError(line_no, "alphabet declared twice")
            symbols.extend(value.split())
            if len(set(symbols)) != len(symbols):
                raise ParseError(line_no, "duplicate symbols in alphabet")
        elif key == "tau":
            if not symbols:
                raise ParseError(line_no, "tau before alphabet")
            for chunk in value.split():
                if "<->" not in chunk:
                    raise ParseError(line_no, f"expected x<->y, got {chunk!r}")
                a, b = chunk.split("<->", 1)
                for s in (a, b):
                    if s not in symbols:
                        raise ParseError(line_no, f"unknown symbol {s!r} in tau")
                for x, y in ((a, b), (b, a)):
                    if x in tau:
                        if strict:
                            raise ParseError(line_no, f"{x!r} declared twice in tau")
                        if tau[x] != y:
                            raise ParseError(line_no, f"conflicting tau for {x!r}")
                    tau[x] = y
        elif key in ("word", "phrase"):
            if pending is not None:
                raise ParseError(line_no, "previous word/phrase is missing its proj line")
            finish_alphabet(line_no)
            tokens = value.replace("|", " | ").split() if key == "phrase" else _tokens(value)
            if not tokens and value != EMPTY_WORD:
                raise ParseError(line_no, f"{key} has no letters (the empty word is {EMPTY_WORD})")
            pending = (key, tokens, line_no)
        elif key == "proj":
            attach_projection(_parse_proj(value, line_no), line_no)
        else:
            raise ParseError(line_no, f"unknown key {key!r}")
    if pending is not None:
        raise ParseError(pending[2], "word/phrase is missing its proj line")
    if alphabet is None:
        finish_alphabet(len(text.splitlines()) or 1)
    return ParsedInput(alphabet, tuple(items))


def parse_caps_option(text: str) -> dict[str, int]:
    out = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise ParseError(None, f"--caps expects key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in CAP_KEYS:
            raise ParseError(None, f"unknown --caps key {key!r}")
        try:
            out[CAP_KEYS[key]] = int(value)
        except ValueError:
            raise ParseError(None, f"--caps key {key!r} expects an integer, got {value!r}") from None
        if out[CAP_KEYS[key]] < 1:
            raise ParseError(None, f"--caps key {key!r} must be at least 1, got {value!r}")
    return out
