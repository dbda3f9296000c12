"""The benchmark's workloads: inputs made from a seed, the operations that
run them through ``nanocob.cli.main``, and the checks of their outputs.

An operation is one or more CLI calls whose time is taken together.  A pass
is a list of operations; a run takes passes while the workload's ``more``
says so.  A workload's ``problems`` lists what is wrong with one
operation's output; ``check`` applies it to a whole run.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field

# Ground alphabets as CLI text, with the orbit of each symbol.
ONE_ORBIT = "alphabet: a x;tau: a<->x"
TWO_ORBITS = "alphabet: a x b y;tau: a<->x b<->y"
ORBIT_AND_FIXED = "alphabet: a x c;tau: a<->x c<->c"
FIXED_POINT = "alphabet: a;tau: a<->a"
ORBIT_OF = {"a": "a", "x": "a", "b": "b", "y": "b", "c": "c"}


@dataclass
class Op:
    label: str
    argvs: list[list[str]]
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one CLI call returned: exit code, captured stdout and stderr."""

    code: int
    out: str
    err: str


def ground_of(text: str):
    from nanocob.parsing import parse_input

    return parse_input(text.replace(";", "\n")).alphabet


def _csv_rows(text: str) -> list[dict]:
    """Rows of ``classify --format csv``.  The sigma and verdict fields may
    hold unquoted commas, so the verdict is found by its leading status."""
    rows = []
    for line in text.splitlines()[1:]:
        index, word, proj, _length, _gamma, _u_hash, _u, rest = line.split(",", 7)
        rest, component = rest.rsplit(",", 1)
        verdict = re.search(r"(?:^|,)((?:Slice|NotSlice|Unknown)\(.*)$", rest).group(1)
        rows.append({
            "index": int(index),
            "word": [] if word == "(empty)" else word.split(),
            "proj": dict(kv.split("=") for kv in proj.split()),
            "verdict": verdict,
            "component": int(component),
        })
    return rows


# ---------------------------------------------------------------------------
# classify


@dataclass(frozen=True)
class Table:
    label: str
    alphabet: str
    half_lengths: tuple[int, ...]
    extra: tuple[str, ...] = ()


# Pairs the search leaves apart although no invariant separates them: 30 in
# the one-orbit table (obstructed words sharing their u-polynomial), none in
# the others.  A later change may lower these counts but not raise them.
UNRESOLVED_PAIRS = {"one-orbit": 30}

CLASSIFY_TABLES = (
    Table("one-orbit", ONE_ORBIT, (3,)),
    Table("two-orbits", TWO_ORBITS, (2,), ("--allow-large",)),
    Table("fixed-point", FIXED_POINT, (0, 1, 2, 3)),
)


class Classify:
    """The README classification tables.  Fully deterministic: the seed is
    ignored.  A pass is one operation that builds all the tables: the small
    tables take milliseconds, too short to time steadily on their own."""

    name = "classify"

    def __init__(self, tiny: bool = False):
        self.tables = CLASSIFY_TABLES[1:] if tiny else CLASSIFY_TABLES

    def inputs(self, seed: int) -> list[list[Op]]:
        argvs, owners = [], []
        for table in self.tables:
            for h in table.half_lengths:
                argvs.append(["classify", "--alphabet", table.alphabet, "--half-length", str(h),
                              "--format", "csv", "--jobs", "1", *table.extra])
                owners.append(table)
        return [[Op("README tables", argvs, {"tables": owners})]]

    def passes(self, inputs):
        return itertools.repeat(inputs[0])

    def more(self, elapsed, seconds, ops_done, last_pass):
        return elapsed + last_pass <= seconds

    def problems(self, op: Op, calls: list[Outcome]) -> list[str]:
        from nanocob.explorer import invariant_record
        from nanocob.words import Nanoword

        per_table: dict[Table, list] = {}
        for table, call in zip(op.data["tables"], calls):
            ground = ground_of(table.alphabet)
            rows = _csv_rows(call.out)
            keys = [
                invariant_record(Nanoword.from_names(ground, r["word"], r["proj"])).cobordism_key()
                for r in rows
            ]
            per_table.setdefault(table, []).append(list(zip(rows, keys)))
        return [
            f"{table.label}: {problem}"
            for table, per_call in per_table.items()
            for problem in _table_problems(table.label, per_call)
        ]


def _status(verdict: str) -> str:
    return verdict.split("(", 1)[0]


def _table_problems(label: str, per_call: list[list[tuple[dict, tuple]]]) -> list[str]:
    """Compare the rows of one README table, given with their cobordism
    keys per CLI call, with the README's claims.  A pair is unresolved when
    it lies in two components although no invariant tells them apart."""
    problems = []
    unresolved = 0
    for pairs in per_call:
        for (r1, k1), (r2, k2) in itertools.combinations(pairs, 2):
            if r1["component"] != r2["component"] and k1 == k2:
                unresolved += 1
            if r1["component"] == r2["component"] and k1 != k2:
                problems.append(f"rows {r1['index']} and {r2['index']} merged across invariants")
    if unresolved > UNRESOLVED_PAIRS.get(label, 0):
        problems.append(f"{unresolved} unresolved pairs, at most {UNRESOLVED_PAIRS.get(label, 0)} expected")
    rows = [r for pairs in per_call for r, _ in pairs]
    statuses = [_status(r["verdict"]) for r in rows]
    if "Unknown" in statuses:
        problems.append(f"{statuses.count('Unknown')} unknown verdicts")
    if label == "one-orbit":
        components = {r["component"] for r in rows}
        got = (len(rows), statuses.count("Slice"), statuses.count("NotSlice"), len(components))
        if got != (120, 108, 12, 13):
            problems.append(f"rows/slice/obstructed/components {got}, expected (120, 108, 12, 13)")
    elif label == "two-orbits":
        linked = [
            (r, k) for pairs in per_call for r, k in pairs
            if r["word"] == ["L1", "L2", "L1", "L2"]
        ]
        if len(linked) != 16:
            problems.append(f"{len(linked)} linked pairs, expected 16")
        obstructed = []
        for r, k in linked:
            same_orbit = len({ORBIT_OF[a] for a in r["proj"].values()}) == 1
            status = _status(r["verdict"])
            if same_orbit != (status == "Slice") or status == "Unknown":
                problems.append(f"linked pair {r['proj']} is {r['verdict']}")
            if status == "NotSlice":
                obstructed.append((r, k))
        if len(obstructed) != 8:
            problems.append(f"{len(obstructed)} obstructed linked pairs, expected 8")
        for (r1, k1), (r2, k2) in itertools.combinations(obstructed, 2):
            if r1["component"] == r2["component"] or k1 == k2:
                problems.append(f"linked pairs {r1['proj']} and {r2['proj']} not distinct")
    elif label == "fixed-point":
        if len(rows) != 20 or set(statuses) != {"Slice"}:
            problems.append(
                f"{len(rows)} classes with verdicts {sorted(set(statuses))}, expected 20 all Slice"
            )
    return problems


# ---------------------------------------------------------------------------
# check-slice


CHECK_SLICE_ALPHABETS = (
    (ONE_ORBIT, "ax"),
    (TWO_ORBITS, "axby"),
    (ORBIT_AND_FIXED, "axc"),
)
CHECK_SLICE_LETTERS = (2, 3, 4, 5, 6)
CHECK_SLICE_CAPS = "nodes=60"
CHECK_SLICE_BATCH = 10
CHECK_SLICE_STREAM = 4000


def random_word(rng: random.Random, letters: int, symbols: str) -> tuple[str, str]:
    """A uniformly random chord diagram on ``letters`` letters with uniform
    projections, as compact CLI text (letters named by first occurrence)."""
    positions = list(range(2 * letters))
    rng.shuffle(positions)
    chord = [0] * (2 * letters)
    for k in range(letters):
        chord[positions[2 * k]] = chord[positions[2 * k + 1]] = k
    names: dict[int, str] = {}
    for k in chord:
        if k not in names:
            names[k] = "ABCDEF"[len(names)]
    word = "".join(names[k] for k in chord)
    proj = " ".join(f"{names[k]}={rng.choice(symbols)}" for k in range(letters))
    return word, proj


class CheckSlice:
    """A seeded stream of random words, one check-slice call each.  Sizes
    of 2-6 letters and the three alphabets (one free orbit, two free orbits,
    one free orbit plus a fixed point) occur equally often.  A pass is a
    batch of consecutive words; the run goes on until its time is up and it
    has done at least ``min_ops`` words."""

    name = "check-slice"

    def __init__(self, tiny: bool = False):
        self.stream = 15 if tiny else CHECK_SLICE_STREAM
        self.min_ops = 0 if tiny else 200
        self._grounds: dict = {}

    def inputs(self, seed: int) -> list[list[Op]]:
        rng = random.Random(seed)
        strata = [
            (letters, alphabet, symbols)
            for letters in CHECK_SLICE_LETTERS
            for alphabet, symbols in CHECK_SLICE_ALPHABETS
        ]
        ops = []
        while len(ops) < self.stream:
            # every size meets every alphabet once per block, in random order
            rng.shuffle(strata)
            for letters, alphabet, symbols in strata:
                word, proj = random_word(rng, letters, symbols)
                argv = ["check-slice", "--alphabet", alphabet, "--word", word,
                        "--proj", proj, "--caps", CHECK_SLICE_CAPS, "--jobs", "1"]
                ops.append(Op(f"{word} [{proj}]", [argv], {"alphabet": alphabet}))
        return [ops[i:i + CHECK_SLICE_BATCH] for i in range(0, len(ops), CHECK_SLICE_BATCH)]

    def passes(self, inputs):
        return iter(inputs)

    def more(self, elapsed, seconds, ops_done, last_pass):
        return elapsed < seconds or ops_done < self.min_ops

    def problems(self, op: Op, calls: list[Outcome]) -> list[str]:
        from nanocob.words import Nanoword

        argv = op.argvs[0]
        alphabet = op.data["alphabet"]
        if alphabet not in self._grounds:
            self._grounds[alphabet] = ground_of(alphabet)
        proj = dict(kv.split("=") for kv in argv[argv.index("--proj") + 1].split())
        w = Nanoword.from_names(self._grounds[alphabet], argv[argv.index("--word") + 1], proj)
        verdict, *log = calls[0].out.splitlines()
        problem = _verdict_problem(w, verdict, log)
        return [problem] if problem else []


def obstructions(record) -> dict[str, bool]:
    return {
        "gamma": not record.gamma.is_identity(),
        "u": not record.u.is_zero(),
        "genus": any(twice > 0 for _, twice in record.genera),
        "pairing": not record.hyperbolic,
    }


def _verdict_problem(w, verdict: str, log: list[str]):
    """Why a check-slice verdict is wrong, or None.  A Slice witness must
    replay to the empty word; a NotSlice obstruction must be an invariant
    that is nonzero; an Unknown must come with every invariant vanishing."""
    from nanocob.explorer import invariant_record
    from nanocob.moves import Metamorphosis

    status, _, rest = verdict.partition("(")
    if status == "Slice":
        meta = Metamorphosis.from_log("\n".join(log))
        if f"{len(meta.moves)} moves)" != rest:
            return f"witness has {len(meta.moves)} moves, verdict says {verdict}"
        end = meta.replay(w)
        return None if end.length == 0 else f"witness replays to {end}"
    nonzero = obstructions(invariant_record(w))
    if status == "NotSlice":
        name = rest.rstrip(")")
        return None if nonzero.get(name) else f"{verdict} but {name} vanishes"
    if status == "Unknown":
        found = [k for k, v in nonzero.items() if v]
        return f"Unknown despite nonzero {found}" if found else None
    return f"unrecognised verdict {verdict!r}"


# ---------------------------------------------------------------------------
# verify


VERIFY_MAX_HALF_LENGTH = 4
# The suites' own seed: the CLI default.  Between suite seeds the sandwich
# suite's 100 random pairs vary in cost by about 17% (one pair's cost has a
# coefficient of variation near 1.7), and the bridge suite's words by as
# much, more than a bound can allow, so every run times the same checks.
VERIFY_SEED = 0
# checks per suite at its default size; genus-rank and bridge-inequality
# depend on the input and are recomputed
VERIFY_SIZES = {
    "surgery-filling": 500,
    "move-invariance": 1000,
    "inequalities": 200,
    "sandwich": 100,
    "shift-consistency": 200,
    "alt-pairing": 500,
}


class Verify:
    """``verify --suite all`` at the suites' default seed.  Deterministic:
    the run's seed is ignored.  A pass is one call, repeated while time
    allows."""

    name = "verify"

    def __init__(self, tiny: bool = False):
        self.suite = "genus-rank,shift-consistency,alt-pairing" if tiny else "all"
        self.max_half_length = 2 if tiny else VERIFY_MAX_HALF_LENGTH
        self._expected: dict[int, dict[str, int]] = {}

    def inputs(self, seed: int) -> list[list[Op]]:
        argv = ["verify", "--suite", self.suite, "--seed", str(VERIFY_SEED),
                "--max-half-length", str(self.max_half_length), "--jobs", "1"]
        return [[Op(f"seed {VERIFY_SEED}", [argv], {"seed": VERIFY_SEED})]]

    def passes(self, inputs):
        return itertools.repeat(inputs[0])

    def more(self, elapsed, seconds, ops_done, last_pass):
        return elapsed + last_pass <= seconds

    def expected_counts(self, seed: int) -> dict[str, int]:
        if seed not in self._expected:
            self._expected[seed] = self._count_checks(seed)
        return self._expected[seed]

    def _count_checks(self, seed: int) -> dict[str, int]:
        from nanocob.algebra import InvolutiveAlphabet
        from nanocob.explorer import ALL_SUITES, bridge_inequality_suite, enumerate_nanowords

        names = list(ALL_SUITES) if self.suite == "all" else self.suite.split(",")
        counts = {}
        for name in names:
            if name == "genus-rank":
                ground = InvolutiveAlphabet.plus_minus()
                counts[name] = sum(
                    len(enumerate_nanowords(n, ground))
                    for n in range(self.max_half_length + 1)
                )
            elif name == "bridge-inequality":
                report = bridge_inequality_suite(200, None, seed)
                counts[name] = report.checked + report.weak_checked
            else:
                counts[name] = VERIFY_SIZES[name]
        return counts

    def problems(self, op: Op, calls: list[Outcome]) -> list[str]:
        expected = [
            f"PASS {name}: {n} checks"
            for name, n in self.expected_counts(op.data["seed"]).items()
        ]
        lines = calls[0].out.splitlines()
        if [line.split(" (", 1)[0] for line in lines] != expected:
            return [f"got {lines}, expected {expected}"]
        return []


WORKLOADS = {w.name: w for w in (Classify, CheckSlice, Verify)}


def check(workload, ops: list[Op], outcomes: list[list[Outcome]]) -> list[tuple[int, str]]:
    """(operation index, message) for every wrong answer.  An operation
    fails when a call exits non-zero, when its output is not understood, or
    when the workload's own check finds a problem."""
    bad = []
    for i, (op, calls) in enumerate(zip(ops, outcomes)):
        codes = [c.code for c in calls]
        if any(codes):
            errors = " ".join(c.err.strip() for c in calls)
            bad.append((i, f"{op.label}: exit codes {codes} {errors}"))
            continue
        try:
            found = workload.problems(op, calls)
        except Exception as exc:
            found = [f"output not understood: {exc!r}"]
        bad.extend((i, f"{op.label}: {p}") for p in found)
    return bad
