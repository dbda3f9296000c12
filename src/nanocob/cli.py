"""Command-line front end.

Subcommands: invariants, pairing, fillings, surface, moves, check-slice,
classify, verify.  Exit codes: 0 success, 1 failed verification,
2 bad input (a parse error, an invalid move log, an unreadable file).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import os
import sys
from typing import Optional, Sequence

from .algebra import AlphabetError, InvolutiveAlphabet, PhiSpec, PhiSpecError
from .explorer import (
    ALL_SUITES,
    MAX_HALF_LENGTH,
    EnumerationGuard,
    classify,
    invariant_record,
    length_norm_bounds,
    slice_status,
)
from .moves import (
    Caps,
    DEFAULT_CAPS,
    Metamorphosis,
    check_templates,
    enumerate_bridges,
    site_moves,
)
from .pairings import (
    Genus,
    annihilating_fillings,
    count_fillings,
    enumerate_fillings,
    filling_is_annihilating,
    format_vector,
    pairing_of_nanoword,
    phi_sign_battery,
)
from .parsing import ParseError, parse_caps_option, parse_input
from .surfaces import (
    ribbon_graph_of,
    surface_stats,
    tautological_gram_rank,
)
from .words import EMPTY_WORD, Nanoword, WordError

PARSE_EXIT = 2
FAIL_EXIT = 1


def _read_source(value: str, option: str, inline: bool = False, path: bool = False) -> str:
    """The text the value of ``option`` stands for.  A value holding ':' or
    ';' is inline text, with ';' separating lines, and so is one the caller
    marks ``inline``; any other value, and every value the caller marks
    ``path``, names a UTF-8 file.  A value that names no file is a
    ParseError, since it may be mistyped inline text; a file that cannot be
    read is an OSError.  Both name the option."""
    if inline or (not path and (":" in value or ";" in value)):
        return value.replace(";", "\n")
    if not path and not os.path.exists(value):
        raise ParseError(None, f"{option}: no such file {value!r}")
    try:
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise OSError(f"{option}: cannot read {value!r}: {reason}") from None


def _parse_option(args, option, text: str, ground: Optional[InvolutiveAlphabet] = None):
    """The text given as ``option``, parsed on its own or over ``ground``.
    Every error names the option and the line within its text; a tuple
    ``option`` names the option each line of the text came from, and no
    line."""
    try:
        return parse_input(text, strict=args.strict, ground=ground)
    except ParseError as exc:
        if isinstance(option, tuple):
            raise ParseError(None, f"{option[exc.line - 1]}: {exc.message}") from None
        raise ParseError(None, f"{option}: {exc}") from None


def _load_item(args):
    """The one item of ``--word``, read over ``--alphabet``, or declaring
    its own alphabet when no ``--alphabet`` is given.  One line without ':'
    is the compact form, letters whose projections ``--proj`` gives."""
    word = args.word or ""
    # with --proj, --word is compact inline letters, never a file, and so
    # is a value that names no file
    inline = args.proj is not None or not os.path.exists(word)
    text = _read_source(word, "--word", inline=inline)
    if not text.strip():
        raise ParseError(None, "no word given (--word)")
    lines = text.splitlines()
    if ":" in text or len(lines) > 1:
        ground = _load_alphabet(args) if args.alphabet else None
        items = _parse_option(args, "--word", text, ground).items
    else:  # line 1 from --word, line 2 from --proj, kept to one line
        text = f"word: {lines[0]}\nproj: {' '.join((args.proj or '').split())}"
        items = _parse_option(args, ("--word", "--proj"), text, _load_alphabet(args)).items
    if len(items) != 1:
        raise ParseError(None, f"--word must hold one word or phrase, not {len(items)}")
    return items[0]


def _load_word(args) -> Nanoword:
    item = _load_item(args)
    if not isinstance(item, Nanoword):
        raise ParseError(None, "--word must be a word for this command, not a phrase")
    return item


def _load_templates(args, ground: InvolutiveAlphabet) -> tuple:
    """Extra insertion factors for the search: each phrase in the file
    becomes a template, checked by ``check_templates`` over the word's
    alphabet ``ground``, also for a word whose verdict needs no search."""
    if not args.templates:
        return ()
    parsed = _parse_option(args, "--templates", _read_source(args.templates, "--templates"))
    phrases = [item.to_phrase() if isinstance(item, Nanoword) else item for item in parsed.items]
    templates = tuple((phrase.words, phrase.proj) for phrase in phrases)
    try:
        check_templates(ground, templates)
    except AlphabetError as exc:
        raise ParseError(None, f"--templates: {exc} for the word's alphabet") from None
    except WordError as exc:
        raise ParseError(None, f"--templates must hold even symmetric phrases only: {exc}") from None
    return templates


def _load_alphabet(args) -> InvolutiveAlphabet:
    if not args.alphabet:
        raise ParseError(None, "no alphabet given (--alphabet)")
    parsed = _parse_option(args, "--alphabet", _read_source(args.alphabet, "--alphabet"))
    if parsed.items:
        raise ParseError(None, "--alphabet must hold an alphabet only, not a word or phrase")
    return parsed.alphabet


def _caps(args) -> Caps:
    caps = DEFAULT_CAPS
    if args.caps:
        caps = caps.replace(**parse_caps_option(args.caps))
    return caps


def _phis(args, ground: InvolutiveAlphabet) -> tuple[PhiSpec, ...]:
    if not args.phi or args.phi == "all":
        return phi_sign_battery(ground)
    values = {}
    for chunk in args.phi.replace(",", " ").split():
        rep, _, value = chunk.partition("=")
        try:
            number = int(value)
        except ValueError:
            raise ParseError(None, f"--phi expects SYMBOL=INTEGER, got {chunk!r}") from None
        if values.setdefault(rep, number) != number:
            raise ParseError(None, f"--phi: conflicting values for {rep!r}")
    try:
        return (PhiSpec.rationals(ground, values),)
    except PhiSpecError as exc:
        raise ParseError(None, f"--phi: {exc}") from None


def _emit(lines: Sequence[str], fmt: str) -> None:
    """Print tab-separated lines as they are, or their fields as CSV."""
    if fmt == "text":
        for line in lines:
            print(line)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            line.split("\t") for line in lines
        )


def cmd_invariants(args) -> int:
    item = _load_item(args)
    if not isinstance(item, Nanoword):
        witness = item.symmetry_witness()
        lines = [
            f"phrase\t{item}",
            f"even\t{'yes' if item.is_even() else 'no'}",
            f"symmetric\t{'yes' if witness is not None else 'no'}",
        ]
        if witness is not None:
            iota = " ".join(
                f"{item.names[a]}->{item.names[b]}" for a, b in witness.iota
            )
            lines.append(f"iota\t{iota}")
        _emit(lines, args.format)
        return 0
    w = item
    record = invariant_record(w, _phis(args, w.ground))
    lines = [
        f"word\t{' '.join(w.letter_seq()) or EMPTY_WORD}",
        f"gamma\t{record.gamma}",
        f"gamma-class\t{' '.join(f'{r}^{e}' if e != 1 else r for r, e in record.gamma_cyclic) or '1'}",
        f"u\t{record.u}",
    ]
    for label, twice in record.genera:
        lines.append(f"sigma\t{label}\t{Genus(twice)}")
    lines.append(f"hyperbolic\t{'yes' if record.hyperbolic else 'no'}")
    lines.append(f"r\t{record.r.format(torsion_suffix=True)}")
    _emit(lines, args.format)
    return 0


def cmd_pairing(args) -> int:
    w = _load_word(args)
    _emit(pairing_of_nanoword(w).format_matrix().split("\n"), args.format)
    return 0


def cmd_fillings(args) -> int:
    if args.limit < 0:
        raise ParseError(None, f"--limit must be at least 0, got {args.limit}")
    w = _load_word(args)
    p = pairing_of_nanoword(w)
    # only listed fillings are checked one by one; the total is counted in
    # closed form and the annihilating ones by the pruned walk, unless the
    # table is zero: every filling annihilates exactly when the tautological
    # one does, that is when every entry of the table vanishes
    lines = [
        f"{'*' if filling_is_annihilating(p, filling) else ' '} "
        f"{{{', '.join(format_vector(p, v) for v in filling)}}}"
        # islice stops at most at sys.maxsize, more fillings than any table has
        for filling in itertools.islice(enumerate_fillings(p), min(args.limit, sys.maxsize))
    ]
    total = count_fillings(p)
    if any(map(any, itertools.chain.from_iterable(p.coords))):
        annihilating = sum(1 for _ in annihilating_fillings(p))
    else:
        annihilating = total
    lines.append(f"fillings\t{total}\tannihilating\t{annihilating}")
    _emit(lines, args.format)
    return 0


def cmd_surface(args) -> int:
    if not args.alphabet:
        args.alphabet = "alphabet: + - ; tau: +<->-"
    w = _load_word(args)
    stats = surface_stats(ribbon_graph_of(w))
    rank = tautological_gram_rank(w)
    lines = [
        f"vertices\t{w.num_letters}",
        f"edges\t{w.length}",
        f"euler\t{stats.euler}",
        f"boundary\t{stats.boundary_components}",
        f"genus\t{stats.genus}",
        f"gram-rank\t{rank}",
        f"rank-equals-2-genus\t{'yes' if rank == 2 * stats.genus else 'no'}",
    ]
    _emit(lines, args.format)
    return 0 if rank == 2 * stats.genus else FAIL_EXIT


def cmd_moves(args) -> int:
    w = _load_word(args)
    caps = _caps(args)
    if args.replay:
        try:
            meta = Metamorphosis.from_log(_read_source(args.replay, "--replay", path=True))
            result = meta.replay(w)
        except WordError as exc:
            raise WordError(f"--replay: {exc}") from None
        print(f"result\t{' '.join(result.letter_seq()) or EMPTY_WORD}")
        print(f"proj\t{' '.join(f'{n}={a}' for n, a in zip(result.names, result.proj))}")
        print(f"arches\t{meta.total_arches}")
        return 0
    # moves of the canonical form, the word a replay starts from, so that
    # every listed line replays as a one-line log
    start = w.canonical_form()
    lines = [move.to_line() for move in site_moves(start, caps)]
    bridges = enumerate_bridges(start, caps.max_letters, caps.max_k)
    lines.append(f"bridges\t{len(bridges)}")
    lines += [bridge.to_line() for bridge in bridges]
    lower, upper = length_norm_bounds(w, caps)
    lines.append(f"length-norm\t[{lower}, {upper}]")
    _emit(lines, args.format)
    return 0


def cmd_check_slice(args) -> int:
    w = _load_word(args)
    verdict = slice_status(
        w, _caps(args), _phis(args, w.ground), _load_templates(args, w.ground)
    )
    print(str(verdict))
    if verdict.witness is not None and verdict.witness.moves:
        print(verdict.witness.to_log())
    return 0


def cmd_classify(args) -> int:
    ground = _load_alphabet(args)
    try:
        table = classify(
            args.half_length,
            ground,
            _caps(args),
            _phis(args, ground),
            allow_large=args.allow_large,
        )
    except EnumerationGuard as exc:
        # name the flag, not the keyword argument it sets
        raise EnumerationGuard(str(exc).replace("allow_large=True", "--allow-large")) from None
    _emit(["\t".join(fields) for fields in table.fields()], args.format)
    return 0


def cmd_verify(args) -> int:
    wanted = list(ALL_SUITES) if args.suite == "all" else args.suite.split(",")
    for name in wanted:
        if name not in ALL_SUITES:
            raise ParseError(
                None, f"--suite: unknown suite {name!r}; choose 'all' or from {', '.join(ALL_SUITES)}"
            )
    if not 0 <= args.max_half_length <= MAX_HALF_LENGTH:
        raise ParseError(
            None,
            f"--max-half-length must be between 0 and {MAX_HALF_LENGTH}, got {args.max_half_length}",
        )
    failed = False
    for name in wanted:
        suite = ALL_SUITES[name]
        if name == "genus-rank":
            result = suite(max_half_length=args.max_half_length)
        else:
            result = suite(seed=args.seed)
        print(result.line())
        failed = failed or not result.passed
    return FAIL_EXIT if failed else 0


# Every option, declared once: flag name -> add_argument keywords.
OPTIONS = {
    "alphabet": dict(help="alphabet file or inline text (';'-separated lines)"),
    "word": dict(help="word file, inline text, or compact letters"),
    "proj": dict(help="projection for compact words: 'A=a B=b'"),
    "caps": dict(help="caps: k=4,letters=6,bfs=12,nodes=4000"),
    "phi": dict(help="'all' (default battery) or 'a=1,b=-1'"),
    "format": dict(choices=("text", "csv"), default="text"),
    "strict": dict(action="store_true", help="reject tau redeclarations"),
    "limit": dict(type=int, default=20),
    "replay": dict(help="metamorphosis log file to replay"),
    "templates": dict(
        help="file of even symmetric phrases over the word's alphabet, "
        "used as insertion templates"
    ),
    "half-length": dict(type=int, required=True),
    "allow-large": dict(action="store_true"),
    "seed": dict(type=int, default=0),
    "suite": dict(default="all"),
    "max-half-length": dict(type=int, default=5),
    "jobs": dict(
        type=int, choices=(1,), default=1,
        help="accepted for compatibility; all work runs in one thread",
    ),
}

_WORD = ("alphabet", "word", "proj")

# Each subcommand with the options it reads.
COMMANDS = (
    ("invariants", cmd_invariants, (*_WORD, "phi", "format", "strict")),
    ("pairing", cmd_pairing, (*_WORD, "format", "strict")),
    ("fillings", cmd_fillings, (*_WORD, "format", "strict", "limit")),
    ("surface", cmd_surface, (*_WORD, "format", "strict")),
    ("moves", cmd_moves, (*_WORD, "caps", "format", "strict", "replay")),
    ("check-slice", cmd_check_slice, (*_WORD, "caps", "phi", "strict", "templates", "jobs")),
    ("classify", cmd_classify,
     ("alphabet", "caps", "phi", "format", "strict", "half-length", "allow-large", "jobs")),
    ("verify", cmd_verify, ("seed", "suite", "max-half-length", "jobs")),
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, like every other bad input."""

    def error(self, message: str):
        self.exit(PARSE_EXIT, f"parse error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing
    does not change it.  Its ``commands`` maps each command's name to that
    command's own parser."""
    parser = _Parser(
        prog="nanocob",
        description="nanoword cobordism toolkit: invariants, pairings, "
        "surfaces, moves, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in COMMANDS:
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
        p.set_defaults(fn=fn)
    parser.commands = sub.choices
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # The top-level parser hands every argument after a command's name to
    # that command's parser, so that parser parses them on its own; the
    # top-level parser runs only when no command is named, for its help,
    # usage and messages.
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except RecursionError:
        # the filling walk recurses once per letter group
        print("error: input too large: recursion limit reached", file=sys.stderr)
        return PARSE_EXIT


if __name__ == "__main__":
    sys.exit(main())
