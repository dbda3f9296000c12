import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nanocob.cli import _load_word, build_parser, main
from nanocob.explorer import enumerate_nanowords
from nanocob.moves import Metamorphosis, Move, neighbors
from nanocob.parsing import ParseError, parse_caps_option, parse_input
from nanocob.words import Nanophrase, Nanoword

ALPHABET = "alphabet: a b\ntau: a<->b\n"
GENERIC6 = "alphabet: a x b y c z\ntau: a<->x b<->y c<->z\n"


class TestParseInput:
    def test_word_block(self):
        parsed = parse_input(ALPHABET + "word: A B A B\nproj: A=a B=b\n")
        (w,) = parsed.items
        assert isinstance(w, Nanoword)
        assert w.letter_seq() == ("A", "B", "A", "B")
        assert w.proj == ("a", "b")

    def test_compact_word(self):
        parsed = parse_input(ALPHABET + "word: ABAB\nproj: A=a B=b\n")
        assert parsed.items[0].letter_seq() == ("A", "B", "A", "B")

    def test_multi_character_letter_names(self):
        parsed = parse_input(
            ALPHABET + "word: L1 L2 L1 L2\nproj: L1=a L2=b\n"
        )
        assert parsed.items[0].letter_seq() == ("L1", "L2", "L1", "L2")

    def test_phrase_block(self):
        for phrase in ("A B | B A", "A B|B A"):
            parsed = parse_input(ALPHABET + f"phrase: {phrase}\nproj: A=a B=b\n")
            (p,) = parsed.items
            assert isinstance(p, Nanophrase)
            assert p.words == ((0, 1), (1, 0))

    def test_no_letters_is_no_word(self):
        for line in ("word:", "word: # a comment", "phrase:"):
            with pytest.raises(ParseError, match="has no letters") as err:
                parse_input(ALPHABET + f"{line}\nproj:\n")
            assert err.value.line == 3
        (w,) = parse_input(ALPHABET + "word: (empty)\nproj:\n").items
        assert w.length == 0

    def test_occurrence_error_message(self):
        with pytest.raises(ParseError) as err:
            parse_input(ALPHABET + "word: A B A\nproj: A=a B=b\n")
        assert "occurs" in str(err.value)

    def test_tau_involution_error(self):
        with pytest.raises(ParseError):
            parse_input("alphabet: a b c\ntau: a<->b b<->c\nword: AA\nproj: A=a\n")

    def test_missing_projection(self):
        with pytest.raises(ParseError):
            parse_input(ALPHABET + "word: A B A B\nproj: A=a\n")

    def test_stray_projection(self):
        for block in ("word: A B A B", "phrase: A B | B A"):
            with pytest.raises(ParseError, match="not in the word: C$"):
                parse_input(ALPHABET + f"{block}\nproj: A=a B=b C=a\n")

    def test_duplicate_symbol(self):
        with pytest.raises(ParseError):
            parse_input("alphabet: a a\ntau: a<->a\n")

    def test_redeclared_tau_lenient_vs_strict(self):
        text = "alphabet: a b\ntau: a<->b b<->a\nword: AA\nproj: A=a\n"
        assert parse_input(text).items  # idempotent redeclaration accepted
        with pytest.raises(ParseError):
            parse_input(text, strict=True)

    def test_fixed_point_declaration(self):
        parsed = parse_input("alphabet: c\ntau: c<->c\nword: AA\nproj: A=c\n")
        assert parsed.alphabet.is_fixed("c")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_input(ALPHABET + "word: A B A B\nbogus: 1\n")
        assert err.value.line == 4  # alphabet and tau occupy lines 1-2

    def test_caps_option(self):
        caps = parse_caps_option("k=3,letters=5,bfs=12,nodes=100")
        assert caps == {
            "max_k": 3,
            "max_letters": 5,
            "bfs_length": 12,
            "bfs_nodes": 100,
        }
        with pytest.raises(ValueError):
            parse_caps_option("mystery=1")
        with pytest.raises(ParseError):
            parse_caps_option("sbound=2")  # no search reads it
        with pytest.raises(ParseError):
            parse_caps_option("nodes=x")
        for below_one in ("nodes=-5", "nodes=0", "k=0", "letters=0", "bfs=0"):
            with pytest.raises(ParseError):
                parse_caps_option(below_one)


class TestCommands:
    def test_pairing_reference_matrix(self, capsys):
        code = main(
            [
                "pairing",
                "--alphabet",
                "alphabet: a x b y c z;tau: a<->x b<->y c<->z",
                "--word",
                "ABCBAC",
                "--proj",
                "A=a B=b C=c",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines() if line.strip()]
        assert rows[0][1:] == ["s", "A", "B", "C"]
        table = {r[0]: r[1:] for r in rows[1:]}
        assert table["s"] == ["0", "-c", "-c", "a+b"]
        assert table["A"] == ["c", "0", "0", "a+2b+c"]
        assert table["B"] == ["c", "0", "0", "b+c"]
        assert table["C"] == ["-a-b", "-a-2b-c", "-b-c", "0"]

    @pytest.mark.parametrize(
        "alphabet, word, proj, expected",
        [
            (
                "alphabet: a x c;tau: a<->x c<->c", "ABCACDBD", "A=a B=c C=x D=c",
                [" \ts\tA\tB\tC\tD",
                 "s\t0\ta+c\ta+c\ta\tc",
                 "A\t-a+c\t0\t-a+c\t0\t0",
                 "B\t-a+c\ta+c\t0\t0\t0",
                 "C\t-a\t0\t0\t0\t0",
                 "D\tc\t0\t0\t0\t0"],
            ),
            (
                "alphabet: a x c d;tau: a<->x c<->c d<->d", "ABCDBADC", "A=c B=a C=d D=x",
                [" \ts\tA\tB\tC\tD",
                 "s\t0\ta+d\ta+d\ta+c\ta+c",
                 "A\t-a+d\t0\t0\tc+d\ta+c",
                 "B\t-a+d\t0\t0\t-a+d\t0",
                 "C\t-a+c\tc+d\ta+d\t0\t0",
                 "D\t-a+c\t-a+c\t0\t0\t0"],
            ),
        ],
    )
    def test_pairing_matrix_with_fixed_points(self, capsys, alphabet, word, proj, expected):
        """Pinned output, produced by the PiElement-matrix pairing, for
        words with letters projecting to fixed points."""
        assert main(["pairing", "--alphabet", alphabet, "--word", word, "--proj", proj]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_invariants_output(self, capsys):
        code = main(
            [
                "invariants",
                "--alphabet",
                "alphabet: a b;tau: a<->b",
                "--word",
                "word: A B A B;proj: A=a B=a",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma" in out and "hyperbolic\tyes" in out

    def test_csv_fields_match_text_fields(self, capsys):
        import csv

        commands = (
            ["invariants", "--alphabet", "alphabet: a x b y;tau: a<->x b<->y",
             "--word", "ABAB", "--proj", "A=a B=b"],
            ["invariants", "--alphabet", "alphabet: a x;tau: a<->x",
             "--word", "phrase: A B | B A;proj: A=a B=x"],
            ["fillings", "--alphabet", "alphabet: a x c z;tau: a<->x c<->z",
             "--word", "ABCADCBD", "--proj", "A=a B=x C=c D=c"],
            ["pairing", "--alphabet", "alphabet: a x b y c z;tau: a<->x b<->y c<->z",
             "--word", "ABCBAC", "--proj", "A=a B=b C=c"],
        )
        fields = []
        for argv in commands:
            assert main(argv + ["--format", "text"]) == 0
            text = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
            assert main(argv + ["--format", "csv"]) == 0
            rows = list(csv.reader(capsys.readouterr().out.splitlines()))
            assert rows == text
            fields.extend(field for row in rows for field in row)
        # the u line, the sigma labels and the filling lines hold commas
        assert "u(a)=[b], u(b)=-[a]" in fields
        assert "phi[Q](a=1,b=1)" in fields
        assert "* {s, A-B, C+D}" in fields

    def test_check_slice_not_slice(self, capsys):
        code = main(
            [
                "check-slice",
                "--alphabet",
                "alphabet: a x b y;tau: a<->x b<->y",
                "--word",
                "ABAB",
                "--proj",
                "A=a B=b",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "NotSlice(gamma)" in out

    def test_check_slice_witness_replays(self, capsys, tmp_path):
        code = main(
            [
                "check-slice",
                "--alphabet",
                "alphabet: a x c z;tau: a<->x c<->z",
                "--word",
                "ABACDCDB",
                "--proj",
                "A=a B=a C=c D=c",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Slice(")
        log = "\n".join(out.splitlines()[1:])
        log_file = tmp_path / "moves.log"
        log_file.write_text(log)
        code = main(
            [
                "moves",
                "--alphabet",
                "alphabet: a x c z;tau: a<->x c<->z",
                "--word",
                "ABACDCDB",
                "--proj",
                "A=a B=a C=c D=c",
                "--replay",
                str(log_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result\t(empty)" in out

    @pytest.mark.parametrize(
        "log",
        [
            "SURG foo\n", "SURG letters=0 segs=1\n", "H1@x\n", "H3@0,2\n",
            # only H3 and INS are written with INV; on another kind it is
            # bad input, not the forward move
            "INV H1@0\n", "INV H2@0,2\n", "INV SURG letters=0 segs=0-2\n",
            "INV BRIDGE letters=0 segs=0-1,1-2 kappa=1,0 arches=1\n", "INV SHIFT\n",
            # the stated arch count disagrees with kappa, which has one arch
            "BRIDGE letters=0 segs=0-1,1-2 kappa=1,0 arches=5\n",
            "INV INS words=0|0 proj=a at=0,2 kappa=1,0 arches=0\n",
            # a field the kind does not have, misspelt or not; only a move
            # with a kappa states its arches
            "INV INS words=0.0 proj=a at=0 kapa=0\n", "SURG letters=0 segs=0-2 kappa=0\n",
            "SURG letters=0 segs=0-2 arches=0\n", "INV INS words=0.0 proj=a at=0 arches=0\n",
            "BRIDGE letters=0 segs=0-2 kappa=0 arches=0 extra=1\n",
        ],
    )
    def test_replay_rejects_malformed_log(self, capsys, tmp_path, log):
        log_file = tmp_path / "moves.log"
        log_file.write_text(log)
        code = main(
            ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "AA",
             "--proj", "A=a", "--replay", str(log_file)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --replay: cannot parse move line")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "log",
        [
            "SURG letters=0,9 segs=0-2\n",
            "BRIDGE letters=0,9 segs=0-1,1-2 kappa=1,0\n",
            "SURG letters=0 segs=0-2,5-3\n",
        ],
    )
    def test_replay_rejects_move_not_of_word(self, capsys, tmp_path, log):
        """A well-formed line naming letters or positions the word does not
        have is bad input, not a crash and not a silent deletion."""
        log_file = tmp_path / "moves.log"
        log_file.write_text(log)
        code = main(
            ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "AA",
             "--proj", "A=a", "--replay", str(log_file)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "word, proj, line",
        [
            ("ABBA", "A=a B=x", "H1@0"),  # no doubled letter at 0
            ("ABBA", "A=a B=x", "H1@-1"),
            ("ABBA", "A=a B=x", "H1@3"),  # the last position
            ("ABAB", "A=a B=x", "H2@0,1"),  # overlapping segments
            ("ABBA", "A=a B=a", "H2@0,2"),  # the projection of B is not tau of A's
            # the sibling (AB | AB): a surgery, but not the second move
            ("ABAB", "A=a B=x", "H2@0,2"),
        ],
    )
    def test_replay_rejects_homotopy_deletion_not_of_word(self, capsys, tmp_path, word, proj, line):
        """H1 and H2 replay as the surgeries they are; a line that names no
        site of the word is bad input, not a crash."""
        log_file = tmp_path / "moves.log"
        log_file.write_text(line + "\n")
        code = main(
            ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", word,
             "--proj", proj, "--replay", str(log_file)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

    def test_sibling_of_second_move_replays_as_surgery(self, capsys, tmp_path):
        log_file = tmp_path / "moves.log"
        log_file.write_text("SURG letters=0,1 segs=0-2,2-4\n")
        code = main(
            ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "ABAB",
             "--proj", "A=a B=x", "--replay", str(log_file)]
        )
        assert code == 0
        assert "result\t(empty)" in capsys.readouterr().out

    def test_replay_rejects_forged_insertion(self, capsys, tmp_path):
        """Inserting ``ABAB``, which is not even symmetric, and deleting the
        whole word would take a word that is not slice to the empty word."""
        log_file = tmp_path / "forged.log"
        log_file.write_text("INV INS words=0.1.0.1 proj=b,a at=4\nSURG letters=0,1,2,3 segs=0-8\n")
        code = main(
            ["moves", "--alphabet", "alphabet: a x b y;tau: a<->x b<->y", "--word", "ABAB",
             "--proj", "A=a B=b", "--replay", str(log_file)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --replay: move 1: inserted phrase is not a bridge with its kappa\n"

    def test_replay_counts_arches_of_insertion(self, capsys, tmp_path):
        """An insertion that undoes a bridge carries its kappa, and so its
        arches."""
        log_file = tmp_path / "arch.log"
        log_file.write_text("INV INS words=0|0 proj=a at=0,2 kappa=1,0 arches=1\n")
        code = main(
            ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "AA",
             "--proj", "A=x", "--replay", str(log_file)]
        )
        assert code == 0
        assert "arches\t1\n" in capsys.readouterr().out

    def test_bad_caps_value_exit_code(self, capsys):
        code = main(
            ["check-slice", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "AA",
             "--proj", "A=a", "--caps", "nodes=x"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("parse error:")
        assert "'nodes'" in err and "'x'" in err
        assert "line 0" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("caps", ["nodes=-5", "nodes=0", "k=0", "letters=0"])
    def test_caps_below_one_exit_code(self, capsys, caps):
        for command in ("moves", "check-slice"):
            code = main(
                [command, "--alphabet", "alphabet: a x;tau: a<->x", "--word", "ABBA",
                 "--proj", "A=a B=x", "--caps", caps]
            )
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("parse error: --caps key")
            assert len(captured.err.splitlines()) == 1

    def test_option_errors_name_the_option(self, capsys, tmp_path):
        templates = tmp_path / "templates.txt"
        templates.write_text("alphabet: a b\ntau: a<->b\nword: A B A B\nproj: A=a B=b\n")
        odd_templates = tmp_path / "odd.txt"
        odd_templates.write_text("alphabet: a x\ntau: a<->x\nword: A B A\nproj: A=a B=x\n")
        one_orbit = ["--alphabet", "alphabet: a x;tau: a<->x"]
        bad_tau = ["--alphabet", "alphabet: a x;tau: a<->q"]
        cases = [
            (["pairing", *one_orbit], "--word"),
            (["pairing", *one_orbit, "--word", "phrase: A B | B A;proj: A=a B=x"], "--word"),
            (["classify", "--half-length", "1"], "--alphabet"),
            (["check-slice", "--alphabet", "alphabet: a b;tau: a<->b", "--word", "AA",
              "--proj", "A=a", "--templates", str(templates)], "--templates"),
            # each option's text is parsed on its own, and a fault in it names
            # that option and the line within it
            (["check-slice", *bad_tau, "--word", "AA", "--proj", "A=a"],
             "--alphabet: line 2: unknown symbol 'q' in tau"),
            (["classify", *bad_tau, "--half-length", "1"],
             "--alphabet: line 2: unknown symbol 'q' in tau"),
            (["check-slice", "--alphabet", "alphabet: a x", "--word", "AA", "--proj", "A=a"],
             "--alphabet: line 1: tau missing for a, x"),
            # --word text is read over --alphabet and cannot finish it
            (["check-slice", "--alphabet", "alphabet: a x", "--word", "tau: a<->x;word: A A;proj: A=a"],
             "--alphabet: line 1: tau missing for a, x"),
            (["check-slice", *one_orbit, "--word", "tau: a<->x;word: A A;proj: A=a"],
             "--word: line 1: no tau line here"),
            # compact letters take one line; more is --word text, read line by line
            (["check-slice", *one_orbit, "--word", "AB;AB", "--proj", "A=a B=x"],
             "--word: line 1: expected 'key: value'"),
            (["check-slice", *one_orbit, "--word", "ABAB", "--proj", "A=a\nB=q"],
             "--proj: unknown symbol 'q' in projection"),
            (["check-slice", *one_orbit, "--word", "ABAB;", "--proj", "A=q B=x"],
             "--proj: unknown symbol 'q' in projection"),
            (["check-slice", *one_orbit, "--templates", str(odd_templates), "--word", "AA",
              "--proj", "A=a"], "--templates: line 3: not a nanoword"),
            (["invariants", *one_orbit, "--word", "AA", "--proj", "A=a", "--phi", "x=1"], "--phi"),
            (["moves", *one_orbit, "--word", "AA", "--proj", "A=a", "--caps", "mystery=1"], "--caps"),
            # a bad --word text is named with the line within that option's own text;
            # the compact --word/--proj form names the option at fault, with no line
            (["invariants", *one_orbit, "--word", "word: A B A B;proj: A=a B=q"],
             "--word: line 2: unknown symbol 'q'"),
            (["invariants", *one_orbit, "--word", "word: A B A B;proj: A=a"],
             "--word: line 2: projection missing for B"),
            (["pairing", "--alphabet", "alphabet: a x;;tau: a<->x;", "--word", "#;word: A B A"],
             "--word: line 2: word/phrase is missing its proj line"),
            (["invariants", *one_orbit, "--word", "ABAB", "--proj", "A=a"],
             "--proj: projection missing for B"),
            (["check-slice", *one_orbit, "--word", "ABA", "--proj", "A=a B=x"],
             "--word: not a nanoword: letter B occurs 1 times"),
            (["pairing", "--word", "ABAB", "--proj", "A=a B=x"], "(--alphabet)"),
            # a second item in --word would go unjudged
            (["check-slice", *one_orbit, "--word", "word: A B A B;proj: A=a B=x;word: C C;proj: C=a"],
             "--word must hold one word or phrase"),
            # a blank --word is no word, not the empty word
            (["check-slice", *one_orbit, "--word", " "], "no word given (--word)"),
            (["check-slice", *one_orbit, "--word", ";"], "no word given (--word)"),
            # nor is a comment alone, in compact letters or in file text
            (["check-slice", *one_orbit, "--word", "#"], "--word: word has no letters"),
            (["check-slice", *one_orbit, "--word", "word: # A A;proj: A=a"],
             "--word: line 1: word has no letters"),
            # text with a ':' is never compact letters
            (["check-slice", *one_orbit, "--word", "proj: A=a"],
             "--word: line 1: proj line without a preceding word/phrase"),
            # a word in --alphabet is no item of --word, and no command reads it
            (["check-slice", "--alphabet", "alphabet: a x;tau: a<->x;word: A A;proj: A=a",
              "--word", "BB", "--proj", "B=a"], "--alphabet must hold an alphabet only"),
            (["classify", "--alphabet", "alphabet: a x;tau: a<->x;word: A A;proj: A=a",
              "--half-length", "1"], "--alphabet must hold an alphabet only"),
            # inline --alphabet and --templates text holds a ':', so a value
            # without one is a path, and a missing file is said to be one
            (["check-slice", *one_orbit, "--word", "AA", "--proj", "A=a", "--templates",
              str(tmp_path / "missing-templates.txt")], "--templates: no such file"),
            (["classify", "--alphabet", str(tmp_path / "missing-alphabet.txt"), "--half-length", "1"],
             "--alphabet: no such file"),
        ]
        for argv, option in cases:
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("parse error: ") and option in err, err
            assert ("line " in err) == ("line " in option), err
            assert len(err.splitlines()) == 1

    def test_moves_listing_replays(self, capsys):
        """The listing names each move kind the word allows and counts its
        bridges, and no SURG line repeats the segments of an H1 or H2 line:
        those moves are the one- and two-letter surgeries, listed once.
        `test_every_listed_move_replays` replays these listings line by
        line."""
        for word, proj, kinds in (
            ("ABBA", "A=a B=x", {"H1", "H2", "SURG", "BRIDGE"}),
            ("ABACBC", "A=a B=a C=a", {"H3", "SURG", "BRIDGE"}),
            ("BACACB", "A=a B=a C=a", {"INV H3", "SURG", "BRIDGE"}),
        ):
            base = ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", word,
                    "--proj", proj]
            assert main(base) == 0
            lines = capsys.readouterr().out.splitlines()
            bridges = [line for line in lines if line.startswith("BRIDGE ")]
            assert f"bridges\t{len(bridges)}" in lines and bridges
            moves = [line for line in lines if "\t" not in line]
            parsed = [Move.from_line(line) for line in moves]
            assert {("INV " if m.inverse else "") + m.kind for m in parsed} == kinds
            # the positions an H1 or H2 site deletes, against each SURG's segments
            sites = {tuple((s, s + 2) for s in m.data) for m in parsed if m.kind in ("H1", "H2")}
            surgeries = {m.data[1] for m in parsed if m.kind == "SURG"}
            assert surgeries and not sites & surgeries

    @pytest.mark.parametrize("word", ["BACACB", "ABBA", "ABACBC"])
    def test_every_listed_move_replays(self, capsys, tmp_path, word):
        """The listing holds every move the search takes at a site of the
        word, then the bridges; each of its move lines replays as a
        one-line log."""
        proj = {"BACACB": "A=a B=a C=a", "ABBA": "A=a B=x", "ABACBC": "A=a B=a C=a"}[word]
        base = ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", word,
                "--proj", proj]
        assert main(base) == 0
        moves = [line for line in capsys.readouterr().out.splitlines() if "\t" not in line]
        start = _load_word(build_parser().parse_args(base)).canonical_form()
        searched = [m.to_line() for m, _ in neighbors(start) if m.kind != "INS"]
        assert searched and moves[: len(searched)] == searched
        log = tmp_path / "move.log"
        for line in moves:
            log.write_text(line + "\n")
            assert main(base + ["--replay", str(log)]) == 0, line
            assert capsys.readouterr().err == ""

    INV_H3_WORD = ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "BACACB",
                   "--proj", "A=a B=a C=a"]

    def test_moves_lists_inverse_third_moves(self, capsys):
        assert main(self.INV_H3_WORD) == 0
        assert "INV H3@0,2,4" in capsys.readouterr().out.splitlines()

    def test_replay_missing_log_file(self, capsys, tmp_path):
        code = main(
            ["moves", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "AA",
             "--proj", "A=a", "--replay", str(tmp_path / "absent.log")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --replay: cannot read {str(tmp_path / 'absent.log')!r}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("option", ["--alphabet", "--word", "--templates", "--replay"])
    def test_unreadable_files_name_the_option(self, capsys, tmp_path, option):
        """A directory and a file that is not UTF-8 are each one error line
        naming the option and the file."""
        base = {"--alphabet": "alphabet: a x;tau: a<->x", "--word": "AA", "--proj": "A=a"}
        command = "moves" if option == "--replay" else "check-slice"
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes(b"alphabet: \xe9\n")
        for path, reason in [(tmp_path, "Is a directory"), (undecodable, "'utf-8' codec can't decode")]:
            values = {**base, option: str(path)}
            if option == "--word":
                del values["--proj"]  # a --word next to --proj is never a file
            argv = [command, *itertools.chain.from_iterable(values.items())]
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {option}: cannot read {str(path)!r}: {reason}"), err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["invariants", "check-slice", "pairing"])
    def test_stray_projection_exits_2(self, capsys, command):
        """A --proj entry for a letter the word lacks is bad input, not a
        silently dropped entry."""
        code = main([command, "--alphabet", "alphabet: a x;tau: a<->x", "--word", "ABAB",
                     "--proj", "A=a B=x Z=a"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error:")
        assert captured.err.endswith("projection given for letters not in the word: Z\n")
        assert len(captured.err.splitlines()) == 1

    def test_surface_command(self, capsys):
        code = main(["surface", "--word", "word: A B A B;proj: A=+ B=+"])
        out = capsys.readouterr().out
        assert code == 0
        assert "genus\t1" in out and "rank-equals-2-genus\tyes" in out

    def test_fillings_command(self, capsys):
        code = main(
            [
                "fillings",
                "--alphabet",
                "alphabet: a x c z;tau: a<->x c<->z",
                "--word",
                "ABCADCBD",
                "--proj",
                "A=a B=x C=c D=c",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "annihilating\t" in out
        assert "* {s, A-B, C+D}" in out

    # The whole text listing, as complete enumeration of the fillings gave
    # it: free, mixed and fixed-point alphabets, the empty word and an
    # 8-letter word.  (alphabet, word, proj, last line, sha256 of stdout)
    FILLINGS_PINS = (
        ("alphabet: a x;tau: a<->x", "(empty)", None, "fillings\t1\tannihilating\t1",
         "6a7a1cdb2ab35c56d303c0bc8fa0857d4b1345fb7271828372cbdb95c8ff0cb3"),
        ("alphabet: a x;tau: a<->x", "ABAB", "A=a B=x", "fillings\t2\tannihilating\t1",
         "a69762c925b50ea5b510a9c55e07cee6fd945e57ea7d6d8d90930388bb097fcb"),
        ("alphabet: a x c z;tau: a<->x c<->z", "ABCADCBD", "A=a B=x C=c D=c",
         "fillings\t4\tannihilating\t1",
         "ecbfa80f3c62a9077963903550a4fb3d1a02123c5302a3a80ff144f7c05d3c80"),
        ("alphabet: a x c;tau: a<->x c<->c", "ABCACB", "A=a B=c C=c",
         "fillings\t3\tannihilating\t1",
         "ec8ea23771e4503252d52ae8dc5b7834022f67682e8b0a912a711ac76fcd780d"),
        ("alphabet: a;tau: a<->a", "ABACBDCD", "A=a B=a C=a D=a",
         "fillings\t25\tannihilating\t6",
         "ef8d3629a1bbea6d372bb276f0ff6c2d2f81d8b9277ab3fc111a2b96c1609110"),
        ("alphabet: a x b y;tau: a<->x b<->y", "ABCDBADCEFGHFEHG",
         "A=a B=x C=a D=x E=b F=y G=b H=y", "fillings\t100\tannihilating\t25",
         "30b23d9b5e28f0ddba93c966fe3e90f324d70b4b452449cb149a92cfe5a0332f"),
    )

    @pytest.mark.parametrize("alphabet, word, proj, last, digest", FILLINGS_PINS)
    def test_fillings_listing_pinned(self, capsys, alphabet, word, proj, last, digest):
        argv = ["fillings", "--alphabet", alphabet, "--word", word, "--limit", "100000"]
        assert main(argv + (["--proj", proj] if proj else [])) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == last
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # The whole text listing of ``moves`` under the default caps, as the
    # filter over every factor and segment involution gave it: the order
    # and count of the BRIDGE lines included.  The SURG lines that repeated
    # an H1 or H2 site are gone; the listings are otherwise unchanged.
    # (alphabet, word, proj, bridges line, sha256 of stdout)
    MOVES_PINS = (
        ("alphabet: a x;tau: a<->x", "(empty)", None, "bridges\t0",
         "ee23dedfe34625e09271c584d855baee76193266c4ebdc3a890afab30e69abbd"),
        ("alphabet: a x;tau: a<->x", "ABBA", "A=a B=x", "bridges\t11",
         "b2f5cf30fd23713b2c5190db4f909a22be1f8eafef99f729f85f562ae22bf8bf"),
        ("alphabet: a x b y;tau: a<->x b<->y", "ABCACB", "A=a B=b C=y", "bridges\t17",
         "38c171d1614115fa82cb83e9230d3a223b526b02485d364cd0384d566ffbe514"),
        ("alphabet: a x c;tau: a<->x c<->c", "ABCACB", "A=a B=c C=c", "bridges\t18",
         "db887629e15fe04257fed5f7f4d33c11eb190dcb99039eb64b0e91c0156d59c6"),
        ("alphabet: a;tau: a<->a", "ABAB", "A=a B=a", "bridges\t11",
         "8fa9b613fa188ec1fead7faace5a5323099cf70602486397ee66988bba2c8f42"),
        ("alphabet: a x b y;tau: a<->x b<->y", "ABCDBADCEFGHFEHG",
         "A=a B=x C=a D=x E=b F=y G=b H=y", "bridges\t336",
         "a25e5c1072bad501244d2dc4fb264fbf60c46e6bc5d7b57dc0f1b393304da6b1"),
    )

    @pytest.mark.parametrize("alphabet, word, proj, bridges, digest", MOVES_PINS)
    def test_moves_listing_pinned(self, capsys, alphabet, word, proj, bridges, digest):
        argv = ["moves", "--alphabet", alphabet, "--word", word]
        assert main(argv + (["--proj", proj] if proj else [])) == 0
        out = capsys.readouterr().out
        assert bridges in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_fillings_checks_only_listed_fillings(self, capsys, monkeypatch):
        """The count of annihilating fillings comes from the pruned walk;
        only the fillings ``--limit`` lists are checked one by one."""
        import nanocob.cli as cli

        checked = []
        real = cli.filling_is_annihilating
        monkeypatch.setattr(
            cli, "filling_is_annihilating", lambda p, f: checked.append(f) or real(p, f)
        )
        argv = ["fillings", "--alphabet", "alphabet: a;tau: a<->a", "--word", "ABACBDCD",
                "--proj", "A=a B=a C=a D=a"]
        for limit, lines in ((0, 1), (3, 4), (100, 26)):
            checked.clear()
            assert main(argv + ["--limit", str(limit)]) == 0
            out = capsys.readouterr().out.splitlines()
            assert len(out) == lines and len(checked) == lines - 1
            assert out[-1] == "fillings\t25\tannihilating\t6"

    def test_fillings_zero_table_counted_in_closed_form(self, capsys, monkeypatch):
        """When the tautological filling annihilates (the table is zero),
        every filling does, and the command counts them in closed form
        without the walk; on every table its
        count equals the pruned walk's.  240 seeded words of 0-7 letters
        over four alphabets, among them at least 30 zero tables of two or
        more letters."""
        import random

        import nanocob.cli as cli
        from nanocob.explorer import random_nanoword
        from nanocob.pairings import (
            annihilating_fillings,
            filling_is_annihilating,
            pairing_of_nanoword,
            tautological_filling,
        )

        walked = []
        monkeypatch.setattr(
            cli, "annihilating_fillings", lambda p: walked.append(p) or annihilating_fillings(p)
        )
        rng = random.Random(21)
        zero = 0
        for alphabet in ("alphabet: a;tau: a<->a", "alphabet: a x;tau: a<->x",
                         "alphabet: a x c;tau: a<->x c<->c",
                         "alphabet: a x b y;tau: a<->x b<->y"):
            ground = parse_input(alphabet.replace(";", "\n")).alphabet
            for m in list(range(8)) * 6 + [rng.randint(2, 5) for _ in range(12)]:
                w = random_nanoword(rng, ground, m)
                p = pairing_of_nanoword(w)
                argv = ["fillings", "--alphabet", alphabet, "--limit", "0",
                        "--word", " ".join(w.letter_seq()) or "(empty)"]
                if m:
                    argv += ["--proj", " ".join(f"{n}={a}" for n, a in zip(w.names, w.proj))]
                walked.clear()
                assert main(argv) == 0
                *_, total, _, count = capsys.readouterr().out.rstrip("\n").split("\t")
                assert int(count) == sum(1 for _ in annihilating_fillings(p))
                if filling_is_annihilating(p, tautological_filling(p)):
                    assert count == total and not walked
                    zero += m >= 2
                else:
                    assert len(walked) == 1
        assert zero >= 30

    def test_fillings_negative_limit_rejected(self, capsys):
        base = ["fillings", "--alphabet", "alphabet: a x;tau: a<->x",
                "--word", "ABAB", "--proj", "A=a B=x"]
        for limit in ("-1", "-3"):
            assert main(base + ["--limit", limit]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"parse error: --limit must be at least 0, got {limit}\n"
        assert main(base + ["--limit", "0"]) == 0
        assert capsys.readouterr().out == "fillings\t2\tannihilating\t1\n"

    def test_fillings_limit_beyond_maxsize_lists_all(self, capsys):
        """A limit past sys.maxsize is a limit past the total, like any other."""
        base = ["fillings", "--alphabet", "alphabet: a x;tau: a<->x",
                "--word", "ABAB", "--proj", "A=a B=x"]
        assert main(base + ["--limit", "3"]) == 0
        listing = capsys.readouterr().out
        assert main(base + ["--limit", str(10 * sys.maxsize)]) == 0
        assert capsys.readouterr().out == listing
        assert len(listing.splitlines()) == 3

    def test_classify_command(self, capsys):
        code = main(
            [
                "classify",
                "--alphabet",
                "alphabet: a x;tau: a<->x",
                "--half-length",
                "1",
                "--format",
                "csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,word")
        assert len(lines) == 3  # AA with projection a or x

    def test_bad_phi_exit_code(self, capsys):
        base = [
            "invariants",
            "--alphabet",
            "alphabet: a x;tau: a<->x",
            "--word",
            "word: A B A B;proj: A=a B=x",
            "--phi",
        ]
        for phi in ("q=1", "x=1", "a", "a=one", "a=1,a=2"):
            assert main(base + [phi]) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error: --phi")
            assert len(err.strip().splitlines()) == 1
            assert "Traceback" not in err
            assert "line 0" not in err

    @pytest.mark.parametrize(
        "alphabet, half_length",
        [("alphabet: a x;tau: a<->x", "7"), ("alphabet: a x b y;tau: a<->x b<->y", "1")],
    )
    def test_enumeration_guard_names_the_flag(self, capsys, alphabet, half_length):
        code = main(["classify", "--alphabet", alphabet, "--half-length", half_length])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--allow-large" in captured.err
        assert "allow_large" not in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("half_length", ["2000", "99999999999999999999"])
    def test_oversized_classify_exits_2_in_one_line(self, capsys, half_length):
        """More words than any list holds are refused even with --allow-large."""
        code = main(["classify", "--alphabet", "alphabet: a x;tau: a<->x",
                     "--half-length", half_length, "--allow-large"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: half-length {half_length} gives more than")
        assert len(captured.err.splitlines()) == 1

    def test_recursion_limit_exits_2_in_one_line(self, capsys):
        """The filling walk recurses once per letter group, so a long word
        can pass the recursion limit; that is a bad input, not a crash."""
        letters = [f"L{i}" for i in range(300)]
        word = " ".join(f"{n} {n}" for n in letters)
        proj = " ".join(f"{n}=a" for n in letters)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            for command in ("invariants", "check-slice"):
                code = main([command, "--alphabet", "alphabet: a x;tau: a<->x",
                             "--word", f"word: {word};proj: {proj}"])
                captured = capsys.readouterr()
                assert code == 2
                assert captured.out == ""
                assert captured.err == "error: input too large: recursion limit reached\n"
        finally:
            sys.setrecursionlimit(limit)

    def test_jobs_other_than_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "alt-pairing", "--jobs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: argument --jobs")
        assert len(err.splitlines()) == 1

    def test_classify_rows_have_ten_fields(self, capsys):
        import csv

        tables = (
            ["alphabet: a x b y;tau: a<->x b<->y", "2", "--allow-large"],
            ["alphabet: a x;tau: a<->x", "2", "--caps", "letters=1,k=1,nodes=5,bfs=4"],
        )
        fields = []
        for alphabet, half_length, *extra in tables:
            argv = ["classify", "--alphabet", alphabet, "--half-length", half_length, *extra]
            assert main(argv + ["--format", "csv"]) == 0
            rows = list(csv.reader(capsys.readouterr().out.splitlines()))
            assert rows and all(len(row) == 10 for row in rows)
            assert main(argv + ["--format", "text"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split("\t") for line in lines] == rows
            fields.extend(rows[1:])
        # the fields that hold commas: the sigma labels and Unknown verdicts
        assert any("phi[Q](a=1,b=1)" in row[7] for row in fields)
        assert any(row[8].startswith("Unknown(caps letters=1,k=1,") for row in fields)

    def test_parser_state_does_not_leak_between_commands(self, capsys):
        """The parser is built once per process; a command after another
        prints what it prints on its own."""
        check = [
            "check-slice",
            "--alphabet",
            "alphabet: a x c z;tau: a<->x c<->z",
            "--word",
            "ABACDCDB",
            "--proj",
            "A=a B=a C=c D=c",
        ]
        classify = ["classify", "--alphabet", "alphabet: a x;tau: a<->x", "--half-length", "2"]
        outputs = []
        for argv in (check, classify, check):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2]
        assert outputs[0].startswith("Slice(")
        assert build_parser() is build_parser()

    def test_parse_error_exit_code(self, capsys):
        code = main(
            [
                "pairing",
                "--alphabet",
                "alphabet: a b;tau: a<->b",
                "--word",
                "word: A B A;proj: A=a B=b",
            ]
        )
        assert code == 2

    def test_verify_selected_suites(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "shift-consistency,alt-pairing",
                "--seed",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 2

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--suite", ""], "--suite"),
            (["--suite", "sandwich,"], "--suite"),
            (["--suite", ",shift-consistency"], "--suite"),
            (["--suite", "shift-consistency,nonsense"], "--suite"),
            (["--suite", "genus-rank", "--max-half-length", "-1"], "--max-half-length"),
            (["--suite", "shift-consistency", "--max-half-length", "-3"], "--max-half-length"),
            (["--suite", "genus-rank", "--max-half-length", "7"], "--max-half-length"),
            (["--suite", "shift-consistency", "--max-half-length", "7"], "--max-half-length"),
        ],
    )
    def test_verify_bad_selection_runs_nothing(self, capsys, argv, option):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and option in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_word_from_file(self, capsys, tmp_path):
        f = tmp_path / "input.txt"
        f.write_text(ALPHABET + "word: A A\nproj: A=a\n")
        code = main(["invariants", "--word", str(f)])
        assert code == 0
        assert "hyperbolic\tyes" in capsys.readouterr().out

    def test_inline_values_are_never_opened(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        alphabet = "alphabet: a x;tau: a<->x"
        for name in ("ABAB", alphabet):
            (tmp_path / name).write_text("not a word\n")
        # text with ':' or ';', and --word next to --proj, are inline
        code = main(["invariants", "--alphabet", alphabet, "--word", "ABAB", "--proj", "A=a B=x"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("word\tA B A B\n")
        # any other value names a file when one exists
        (tmp_path / "AA").write_text(ALPHABET + "word: A A\nproj: A=a\n")
        assert main(["invariants", "--word", "AA"]) == 0
        assert "hyperbolic\tyes" in capsys.readouterr().out

    def test_phrase_invariants(self, capsys):
        code = main(
            [
                "invariants",
                "--alphabet",
                "alphabet: a b;tau: a<->b",
                "--word",
                "phrase: A B | B A;proj: A=a B=b",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "even\tyes" in out and "symmetric\tyes" in out

    def test_check_slice_with_template_file(self, capsys, tmp_path):
        templates = tmp_path / "templates.txt"
        templates.write_text(
            "alphabet: a b\ntau: a<->b\nphrase: A B | A B\nproj: A=a B=b\n"
        )
        code = main(
            [
                "check-slice",
                "--alphabet",
                "alphabet: a b;tau: a<->b",
                "--word",
                "ABBA",
                "--proj",
                "A=a B=a",
                "--templates",
                str(templates),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Slice(")

    def test_rejects_asymmetric_template(self, tmp_path, capsys):
        templates = tmp_path / "templates.txt"
        templates.write_text(
            "alphabet: a b\ntau: a<->b\nword: A B A B\nproj: A=a B=b\n"
        )
        code = main(
            [
                "check-slice",
                "--alphabet",
                "alphabet: a b;tau: a<->b",
                "--word",
                "AA",
                "--proj",
                "A=a",
                "--templates",
                str(templates),
            ]
        )
        assert code == 2

    def test_rejects_template_with_empty_segment(self, tmp_path, capsys):
        """A template is checked as the factor it inserts, and a factor
        has no empty segment."""
        templates = tmp_path / "templates.txt"
        templates.write_text("alphabet: a x\ntau: a<->x\nphrase: A A | \nproj: A=a\n")
        code = main(
            ["check-slice", "--alphabet", "alphabet: a x;tau: a<->x", "--word", "ABBA",
             "--proj", "A=a B=x", "--templates", str(templates)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error: --templates")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "alphabet, word, proj",
        [
            # no insertion child is ever built here: the search ends at once
            ("alphabet: a x;tau: a<->x", "ABAB", "A=a B=a"),
            ("alphabet: a A c C;tau: a<->A c<->C", "ABACDCDB", "A=a B=a C=c D=c"),
        ],
    )
    def test_rejects_template_over_foreign_symbol(self, tmp_path, capsys, alphabet, word, proj):
        """A template is checked against the word's alphabet before any
        search, whether or not the search would insert it."""
        templates = tmp_path / "templates.txt"
        templates.write_text("alphabet: b y\ntau: b<->y\nword: A A\nproj: A=b\n")
        code = main(
            ["check-slice", "--alphabet", alphabet, "--word", word, "--proj", proj,
             "--templates", str(templates)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error: --templates:") and "'b'" in captured.err
        assert len(captured.err.splitlines()) == 1


# Words of the benchmark's seed-1 and seed-7 `check-slice` streams that
# were Unknown at `--caps nodes=60` while the search expanded insertions in
# FIFO order.  Taking insertions last, each is Slice with a short witness.
# (`ABCADCDB` with `A=a` and the rest `x` occurs twice in the seed-1 stream,
# so its 17 changed verdicts are 16 words.)
STREAM_ALPHABETS = {
    "ax": "alphabet: a x;tau: a<->x",
    "ax-by": "alphabet: a x b y;tau: a<->x b<->y",
    "ax-c": "alphabet: a x c;tau: a<->x c<->c",
}
STREAM_SLICES = [
    ("ax-by", "ABCBDCEFEFAD", "A=a B=a C=a D=x E=x F=a", 4),
    ("ax", "ABCBDEECAD", "A=x B=x C=x D=a E=a", 3),
    ("ax-c", "ABCCDEDFBEFA", "A=x B=c C=a D=c E=c F=c", 4),
    ("ax", "ABCADCDB", "A=a B=x C=x D=x", 3),
    ("ax", "ABCADEECDB", "A=a B=x C=x D=x E=x", 4),
    ("ax-by", "ABBCDAEDEC", "A=b B=y C=y D=y E=y", 3),
    ("ax", "ABCBDDCEAEFF", "A=a B=a C=a D=x E=a F=a", 3),
    ("ax", "ABCADEBFDECF", "A=a B=a C=a D=x E=x F=a", 3),
    ("ax", "ABCDBEDECA", "A=x B=x C=a D=a E=a", 3),
    ("ax", "ABCDCEFFDBEA", "A=x B=a C=a D=a E=x F=a", 3),
    ("ax-by", "ABCDEDECFBFA", "A=y B=b C=b D=a E=x F=b", 3),
    ("ax-by", "ABCDDEEFBFCA", "A=x B=b C=x D=x E=b F=a", 3),
    ("ax-by", "ABCDCDBEFAEF", "A=x B=b C=b D=y E=x F=x", 3),
    ("ax", "ABCDAECDFEFB", "A=a B=a C=a D=x E=a F=a", 3),
    ("ax-by", "ABCADEECDB", "A=b B=y C=y D=y E=y", 4),
    ("ax-c", "ABCDDBECEFAF", "A=x B=c C=x D=x E=c F=x", 3),
]


@pytest.mark.parametrize(
    "alphabet, word, proj, moves",
    STREAM_SLICES,
    ids=[f"{word}-{alphabet}" for alphabet, word, _, _ in STREAM_SLICES],
)
def test_stream_word_slices_with_insertions_last(capsys, alphabet, word, proj, moves):
    argv = ["check-slice", "--alphabet", STREAM_ALPHABETS[alphabet], "--word", word,
            "--proj", proj]
    assert main(argv + ["--caps", "nodes=60"]) == 0
    verdict, *log = capsys.readouterr().out.splitlines()
    assert verdict == f"Slice({moves} moves)"
    witness = Metamorphosis.from_log("\n".join(log))
    assert len(witness.moves) == moves
    assert witness.replay(_load_word(build_parser().parse_args(argv))).length == 0


# sha256 of `classify --format csv` for the README tables.  Speeding up the
# move search must keep neighbour order and witnesses, and so these bytes; a
# change that means to alter a table replaces its digest and says why.
README_TABLES = {
    "one-orbit": ("alphabet: a x;tau: a<->x", ()),
    "two-orbits": ("alphabet: a x b y;tau: a<->x b<->y", ("--allow-large",)),
    "fixed-point": ("alphabet: a;tau: a<->a", ()),
}
README_TABLE_SHA256 = {
    ("one-orbit", 3): "fb443d73211041228126916b8b776d11227dc243e664d78ce35dca20afb27429",
    ("two-orbits", 2): "1c75e8428e77c40da616a13be3f95bb8d72985a196f363ae7b6001409733aa8b",
    ("fixed-point", 0): "a3c154f49d58e6d89592fab45c69eaa3cb3c3ca28b1a31f84f09277a74f2c4d2",
    ("fixed-point", 1): "b51140b8cf9776ce699f7eefcc484b87ff2744c6772657cef4948a6c88fab822",
    ("fixed-point", 2): "3f950c47ac31d34a9f872323e84f1c8369d1745cda1867e7ede2e308185b0cca",
    ("fixed-point", 3): "fb98ad777c85f8870c43994393a24d926435ef8b3cd2ac545743d1d98d07b60d",
}


@pytest.mark.parametrize("label,half_length", sorted(README_TABLE_SHA256))
def test_readme_table_bytes(capsys, label, half_length):
    alphabet, extra = README_TABLES[label]
    argv = ["classify", "--alphabet", alphabet, "--half-length", str(half_length)]
    assert main(argv + ["--format", "csv", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_TABLE_SHA256[label, half_length]


def test_classify_loads_no_openssl():
    """`u_hash` is a CRC-32, so a `classify` table never imports hashlib,
    whose `_hashlib` loads OpenSSL.  It runs in a fresh interpreter, since
    pytest itself imports hashlib."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from nanocob.cli import main\n"
        "main(['classify', '--alphabet', 'alphabet: a;tau: a<->a', '--half-length', '2',"
        " '--format', 'csv'])\n"
        "print('_hashlib' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    *table, loaded = run.stdout.splitlines()
    assert sum("Slice(" in row for row in table) == 3
    assert loaded == "False"


# `invariants` on one free orbit plus a fixed point, whose u-polynomials
# hold torsion monomials such as [a+c]; text and CSV, byte for byte.
MIXED_ALPHABET = "alphabet: a x c;tau: a<->x c<->c"
MIXED_INVARIANTS = {
    ("ABACBC", "A=a B=a C=c", "text"): (
        "word\tA B A C B C\n"
        "gamma\ta c a^-1 c\n"
        "gamma-class\ta^-1 c a c\n"
        "u\tu(a)=[a]-[a+c], u(c)=[a]\n"
        "sigma\tphi[Q](a=1,c=0)\t1\n"
        "hyperbolic\tno\n"
        "r\t0\n"
    ),
    ("ABACBC", "A=a B=a C=c", "csv"): (
        "word,A B A C B C\n"
        "gamma,a c a^-1 c\n"
        "gamma-class,a^-1 c a c\n"
        'u,"u(a)=[a]-[a+c], u(c)=[a]"\n'
        'sigma,"phi[Q](a=1,c=0)",1\n'
        "hyperbolic,no\n"
        "r,0\n"
    ),
    ("ABCADBCD", "A=a B=a C=c D=c", "text"): (
        "word\tA B C A D B C D\n"
        "gamma\ta^2 c a^-1 c a^-1\n"
        "gamma-class\ta^-1 c a c\n"
        "u\tu(a)=-[a]+[a+c], u(c)=[a+c]+[2a+c]\n"
        "sigma\tphi[Q](a=1,c=0)\t1\n"
        "hyperbolic\tno\n"
        "r\t0\n"
    ),
    ("ABCADBCD", "A=a B=a C=c D=c", "csv"): (
        "word,A B C A D B C D\n"
        "gamma,a^2 c a^-1 c a^-1\n"
        "gamma-class,a^-1 c a c\n"
        'u,"u(a)=-[a]+[a+c], u(c)=[a+c]+[2a+c]"\n'
        'sigma,"phi[Q](a=1,c=0)",1\n'
        "hyperbolic,no\n"
        "r,0\n"
    ),
    ("ABACDBCD", "A=a B=x C=x D=c", "text"): (
        "word\tA B A C D B C D\n"
        "gamma\ta^-2 c a^2 c\n"
        "gamma-class\ta^-2 c a^2 c\n"
        "u\tu(a)=-[a]-[a+c]+[2a+c], u(c)=[2a]\n"
        "sigma\tphi[Q](a=1,c=0)\t1\n"
        "hyperbolic\tno\n"
        "r\t0\n"
    ),
    ("ABACDBCD", "A=a B=x C=x D=c", "csv"): (
        "word,A B A C D B C D\n"
        "gamma,a^-2 c a^2 c\n"
        "gamma-class,a^-2 c a^2 c\n"
        'u,"u(a)=-[a]-[a+c]+[2a+c], u(c)=[2a]"\n'
        'sigma,"phi[Q](a=1,c=0)",1\n'
        "hyperbolic,no\n"
        "r,0\n"
    ),
    ("ABCADCBD", "A=a B=x C=c D=c", "text"): (
        "word\tA B C A D C B D\n"
        "gamma\t1\n"
        "gamma-class\t1\n"
        "u\tu(a)=0, u(c)=0\n"
        "sigma\tphi[Q](a=1,c=0)\t0\n"
        "hyperbolic\tyes\n"
        "r\t0\n"
    ),
    ("ABCADCBD", "A=a B=x C=c D=c", "csv"): (
        "word,A B C A D C B D\n"
        "gamma,1\n"
        "gamma-class,1\n"
        'u,"u(a)=0, u(c)=0"\n'
        'sigma,"phi[Q](a=1,c=0)",0\n'
        "hyperbolic,yes\n"
        "r,0\n"
    ),
}


@pytest.mark.parametrize("word,proj,fmt", sorted(MIXED_INVARIANTS))
def test_mixed_alphabet_invariants_pinned(capsys, word, proj, fmt):
    argv = ["invariants", "--alphabet", MIXED_ALPHABET, "--word", word, "--proj", proj]
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == MIXED_INVARIANTS[word, proj, fmt]


# The options each subcommand reads; the parser declares these and no others.
OPTION_SETS = {
    "invariants": {"alphabet", "word", "proj", "phi", "format", "strict"},
    "pairing": {"alphabet", "word", "proj", "format", "strict"},
    "surface": {"alphabet", "word", "proj", "format", "strict"},
    "fillings": {"alphabet", "word", "proj", "format", "strict", "limit"},
    "moves": {"alphabet", "word", "proj", "caps", "format", "strict", "replay"},
    "check-slice": {"alphabet", "word", "proj", "caps", "phi", "strict", "templates", "jobs"},
    "classify": {"alphabet", "caps", "phi", "format", "strict", "half-length", "allow-large",
                 "jobs"},
    "verify": {"seed", "suite", "max-half-length", "jobs"},
}

# Options every subcommand used to accept, read or not.
FORMER_COMMON = ("alphabet", "word", "proj", "caps", "phi", "format", "seed", "jobs", "strict")
FORMER_EXTRA = {
    "fillings": ("limit",),
    "moves": ("templates", "replay"),
    "check-slice": ("templates",),
    "classify": ("half-length", "allow-large"),
    "verify": ("suite", "max-half-length"),
}
REMOVED_OPTIONS = sorted(
    (command, option)
    for command, kept in OPTION_SETS.items()
    for option in FORMER_COMMON + FORMER_EXTRA.get(command, ())
    if option not in kept
)

ONE_ORBIT_WORD = ["--alphabet", "alphabet: a x;tau: a<->x", "--word", "AA", "--proj", "A=a"]
VALID_ARGV = {
    **{command: [command, *ONE_ORBIT_WORD] for command in OPTION_SETS},
    "classify": ["classify", "--alphabet", "alphabet: a x;tau: a<->x", "--half-length", "1"],
    "verify": ["verify", "--suite", "alt-pairing"],
}
OPTION_VALUES = {
    "alphabet": "alphabet: a x;tau: a<->x",
    "word": "AA",
    "proj": "A=a",
    "caps": "nodes=10",
    "phi": "a=1",
    "format": "csv",
    "seed": "1",
    "jobs": "1",
    "templates": "templates.txt",
}


def subcommand_options(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.option_strings[0][2:] for a in p._actions if a.dest != "help"}
        for name, p in sub.choices.items()
    }


def test_each_subcommand_declares_the_options_it_reads():
    options = subcommand_options(build_parser())
    assert options == OPTION_SETS
    assert sum(len(kept) for kept in options.values()) == 49
    assert len(REMOVED_OPTIONS) == 31


@pytest.mark.parametrize("command,option", REMOVED_OPTIONS)
def test_removed_option_exits_2_in_one_line(capsys, command, option):
    flag = [f"--{option}"] + ([OPTION_VALUES[option]] if option in OPTION_VALUES else [])
    with pytest.raises(SystemExit) as exc:
        main(VALID_ARGV[command] + flag)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: unrecognized arguments: --{option}")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_option_table_matches_parser():
    rows = [line.split("|") for line in README.read_text(encoding="utf-8").splitlines()]
    table = {
        cells[1].strip().strip("`"): {o.strip() for o in cells[2].split(",")}
        for cells in rows
        if len(cells) == 4 and cells[1].strip().strip("`") in OPTION_SETS
    }
    assert table == subcommand_options(build_parser())


def readme_commands(*sections: str) -> list[list[str]]:
    """The ``nanocob`` command lines in the shell blocks of the named README
    sections, continuation lines joined, without the program name."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for section in text.split("\n## ")[1:]:
        title, _, body = section.partition("\n")
        if title not in sections:
            continue
        for block in body.split("```sh\n")[1:]:
            code = block.split("```")[0].replace("\\\n", " ")
            for line in code.splitlines():
                words = shlex.split(line, comments=True)
                if words and words[0] == "nanocob":
                    commands.append(words[1:])
    return commands


README_COMMANDS = readme_commands("Tests and the acceptance suite", "CLI")


def test_readme_commands_found():
    assert {argv[0] for argv in README_COMMANDS} == set(OPTION_SETS)


@pytest.mark.parametrize(
    "argv", README_COMMANDS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_COMMANDS)]
)
def test_readme_command_runs(capsys, argv):
    """Every README example parses; each one that needs no file of its own
    and is not a verification run exits 0."""
    build_parser().parse_args(argv)
    if argv[0] == "verify" or "--replay" in argv:
        return
    assert main(argv) == 0


# Fuzzing the command line: valid inputs with random text in some of their
# options, and fragments of valid input mixed into the random text, so that
# the parsers get past their first line.
FUZZ_BASES = (
    {"alphabet": "alphabet: a x;tau: a<->x", "word": "ABAB", "proj": "A=a B=x"},
    {"alphabet": "alphabet: a x c;tau: a<->x c<->c", "word": "ABACBC", "proj": "A=a B=a C=c"},
    {"alphabet": "alphabet: a b;tau: a<->b b<->a", "word": "phrase: A B | B A;proj: A=a B=b"},
)
FUZZ_FRAGMENTS = {
    "alphabet": ("alphabet: a x;tau: a<->x", "alphabet: a x c;tau: a<->x c<->c", "alphabet: a"),
    "word": ("ABAB", "AABB", "ABCACB", "word: A B A B;proj: A=a B=x"),
    "proj": ("A=a B=x", "A=a B=a C=c", "A=x"),
    "caps": ("k=2", "letters=3,bfs=6", "nodes=0", "bfs"),
    "phi": ("all", "a=1", "a=1,c=1", "a=x"),
}


def fuzz_text(option: str):
    fragments = st.sampled_from(FUZZ_FRAGMENTS[option])
    noise = st.text(max_size=16)
    return st.one_of(noise, fragments, st.builds(str.__add__, fragments, noise))


FUZZ_PHRASE = st.builds(
    "phrase: {};proj: {}".format,
    st.one_of(st.text(max_size=12), st.sampled_from(("A B | B A", "A | A", "A A |"))),
    fuzz_text("proj"),
)
# each command with the options it gets; every search stops at 20 nodes
FUZZ_COMMANDS = {
    "invariants": ("alphabet", "word", "proj", "phi"),
    "pairing": ("alphabet", "word", "proj"),
    "moves": ("alphabet", "word", "proj", "caps"),
    "check-slice": ("alphabet", "word", "proj", "phi"),
}


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(sorted(FUZZ_COMMANDS)),
    base=st.sampled_from(FUZZ_BASES),
    fuzzed=st.fixed_dictionaries(
        {},
        optional={
            **{option: fuzz_text(option) for option in FUZZ_FRAGMENTS},
            "phrase": FUZZ_PHRASE,
        },
    ),
)
def test_fuzzed_command_line_exits_cleanly(tmp_path, monkeypatch, command, base, fuzzed):
    """Random option text exits 0 or 2, with at most one line on stderr
    and no exception out of ``main``."""
    monkeypatch.chdir(tmp_path)
    values = {**base, **fuzzed}
    if "phrase" in values:
        values["word"] = values.pop("phrase")
    argv = [command] + [f"--{option}={values[option]}" for option in FUZZ_COMMANDS[command]
                        if option in values]
    if command == "moves":
        argv.append(f"--caps=nodes=20,{values.get('caps', '')}")
    if command == "check-slice":
        argv.append("--caps=nodes=20")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports a bad command line this way
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


# Round trip: every word and projection the CLI prints parses back to the
# word it stands for, over free, fixed and mixed alphabets with generated
# symbol and letter names.
SYMBOL = st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True)
LETTER = st.from_regex(r"[A-Za-z][A-Za-z0-9_']{0,2}", fullmatch=True)


@st.composite
def cli_alphabets(draw) -> str:
    """Alphabet text with 0-2 free orbits and 0-1 fixed points, at least
    one orbit in all."""
    free, fixed = draw(st.sampled_from(((1, 0), (2, 0), (0, 1), (1, 1))))
    symbols = draw(st.lists(SYMBOL, min_size=2 * free + fixed, max_size=2 * free + fixed,
                            unique=True))
    pairs = [f"{symbols[2 * i]}<->{symbols[2 * i + 1]}" for i in range(free)]
    pairs += [f"{s}<->{s}" for s in symbols[2 * free:]]
    return f"alphabet: {' '.join(symbols)};tau: {' '.join(pairs)}"


def read_back(alphabet: str, word: str, proj: str) -> Nanoword:
    (item,) = parse_input(f"{alphabet};word: {word};proj: {proj}".replace(";", "\n")).items
    return item


def printed_rows(out: str, fmt: str) -> list[list[str]]:
    if fmt == "csv":
        return list(csv.reader(out.splitlines()))
    return [line.split("\t") for line in out.splitlines()]


@settings(max_examples=60, deadline=None)
@given(alphabet=cli_alphabets(), data=st.data(), fmt=st.sampled_from(("text", "csv")))
def test_invariants_word_line_reads_back(alphabet, data, fmt):
    symbols = alphabet.split(";")[0].split()[1:]
    names = data.draw(st.lists(LETTER, max_size=4, unique=True))
    letters = data.draw(st.permutations(names + names))
    proj = " ".join(f"{name}={data.draw(st.sampled_from(symbols))}" for name in names)
    typed = " ".join(letters) or "(empty)"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["invariants", "--alphabet", alphabet, "--word", typed, "--proj", proj,
                     "--format", fmt])
    assert code == 0
    (word_line,) = [row for row in printed_rows(out.getvalue(), fmt) if row[0] == "word"]
    assert read_back(alphabet, word_line[1], proj) == read_back(alphabet, typed, proj)


@settings(max_examples=60, deadline=None)
@given(
    alphabet=cli_alphabets(),
    half_length=st.integers(0, 2),
    fmt=st.sampled_from(("text", "csv")),
)
def test_classify_word_and_proj_fields_read_back(alphabet, half_length, fmt):
    argv = ["classify", "--alphabet", alphabet, "--half-length", str(half_length),
            "--allow-large", "--caps", "nodes=20", "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    header, *rows = printed_rows(out.getvalue(), fmt)
    ground = parse_input(alphabet.replace(";", "\n")).alphabet
    words = enumerate_nanowords(half_length, ground, allow_large=True)
    assert len(rows) == len(words)
    for row in rows:
        fields = dict(zip(header, row))
        assert read_back(alphabet, fields["word"], fields["proj"]) == words[int(fields["index"])]
