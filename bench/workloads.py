"""The benchmark's workloads: seeded inputs, the calls into the program,
and the checks on every output.

Each workload is a sequence of rounds.  A round is a fixed mix of items
(the same categories in every round, fresh seeded models), so that any
whole number of rounds has the same mix and runs of different seeds
measure comparable work.  An item is one call into the program; its
check returns the canonical output bytes that go into the digests, or
raises CheckFailed.

The theorem table, the model file writer and the oracle sanity checks
are written here independently of the package.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import read_spans

SMALL_POOL = tuple(Fraction(n, d) for n, d in
                   ((1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (5, 2), (3, 1)))
HEIGHT = 300            # numerators and denominators of the large draws
ORDER = 30              # series order of the oracle checks
PREGEN_ROUNDS = 8       # rounds whose inputs are made during set-up

STEPS = {
    "S1": ((1, -1), (-1, 1), (0, 1)),
    "S2": ((1, -1), (-1, 1), (0, 1), (1, 0)),
    "S3": ((1, -1), (-1, 1), (1, 1)),
    "S4": ((1, -1), (-1, 1), (1, 1), (0, 1)),
    "S5": ((1, -1), (-1, 1), (1, 0), (0, 1), (1, 1)),
}

# (A, B) loci of the theorem, with A = 1 - 1/a and B = 1 - 1/b
GENERIC = "generic"
RATIONAL_CURVE = "a+b=ab"       # A + B = 1
HALF = "a=b=2"                  # A = B = 1/2
EDGE = "b=2"                    # B = 1/2, A != 1/2 (the S1 edge case)
AXIS = "a=1|b=1"                # A = 0 or B = 0
LOCI = (GENERIC, RATIONAL_CURVE, HALF, EDGE, AXIS)


class CheckFailed(Exception):
    """An output contradicts the theorem table, an oracle or the digest."""


def expected_verdict(tag, a, b) -> str:
    """The classification theorem, stated independently of the package."""
    if tag in ("S1", "S2") and a + b == a * b:
        return "Rational"
    if tag == "S3" and a == 2 and b == 2:
        return "Algebraic"
    return "NotDAlgebraic"


def rat_text(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


@dataclass(frozen=True)
class Spec:
    """A model as plain data: step set, step weights, a, b."""

    tag: str
    weights: tuple      # ((i, j), Fraction) in STEPS order
    a: Fraction
    b: Fraction
    locus: str

    def d(self, i, j) -> Fraction:
        return dict(self.weights).get((i, j), Fraction(0))

    def to_json(self) -> str:
        return json.dumps({
            "stepset": self.tag,
            "weights": {f"{i},{j}": rat_text(w) for (i, j), w in self.weights},
            "a": rat_text(self.a),
            "b": rat_text(self.b),
        }, sort_keys=True)

    def verdict(self) -> str:
        return expected_verdict(self.tag, self.a, self.b)

    def first_step_weight(self) -> Fraction:
        """[t^1] Q(1, 1): the one-step walks from the origin."""
        return self.a * self.d(1, 0) + self.b * self.d(0, 1) + self.d(1, 1)


def draw_rats(rng, n) -> list:
    """n positive rationals in random order: half from a small pool, half
    of height <= 300, so that every model has the same share of each."""
    small = [rng.choice(SMALL_POOL) for _ in range((n + 1) // 2)]
    large = [Fraction(rng.randint(1, HEIGHT), rng.randint(1, HEIGHT)) for _ in range(n // 2)]
    out = small + large
    rng.shuffle(out)
    return out


def draw_spec(rng, tag, locus) -> Spec:
    """A model of the given support on the given (a, b) locus."""
    steps = STEPS[tag]
    *ws, a, b = draw_rats(rng, len(steps) + 2)
    if locus == RATIONAL_CURVE:
        while a <= 1:
            a = draw_rats(rng, 1)[0] + 1 if a == 1 else 1 / a
        b = a / (a - 1)
    elif locus == HALF:
        a = b = Fraction(2)
    elif locus == EDGE:
        a = a if a != 2 else a + 1
        b = Fraction(2)
    elif locus == AXIS:
        which = rng.randrange(3)
        if which != 1:
            a = Fraction(1)
        if which != 0:
            b = Fraction(1)
    elif locus != GENERIC:
        raise ValueError(f"unknown locus {locus!r}")
    return Spec(tag, tuple(zip(steps, ws)), a, b, locus)


def round_rng(seed, workload, r):
    return random.Random(f"{workload}:{seed}:{r}")


def digest_text(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@dataclass
class Item:
    id: str         # unique within the run
    key: str        # equal keys must give byte-identical output
    call: object    # tracer-or-None -> raw result (the timed part)
    check: object   # raw result -> canonical output bytes


# -- in-process workloads ----------------------------------------------------


class _InProcess:
    in_process = True

    def __init__(self, seed, root, work):
        import quadwalk  # noqa: F401  (set-up time includes the import)
        from quadwalk import classifier, enumerator, model

        self.seed = seed
        self.classifier, self.enumerator, self.model = classifier, enumerator, model
        self._rounds = {r: self.make_round(r) for r in range(PREGEN_ROUNDS)}

    def build(self, spec: Spec):
        m = self.model
        return m.build_model(m.StepSet(spec.tag),
                             m.Weighting(d=dict(spec.weights), a=spec.a, b=spec.b))

    def round(self, r, fresh=False):
        """Items of round r; fresh=True builds new model objects."""
        if fresh or r not in self._rounds:
            return self.make_round(r)
        return self._rounds.pop(r)


class ClassifyGrid(_InProcess):
    """classifier.classify on seeded models of all five supports."""

    name = "classify-grid"
    # per round: (support, loci it cycles through); rational and algebraic
    # loci keep a fixed share, S4/S5 rotate their special loci out of phase
    SLOTS = (
        ("S1", (RATIONAL_CURVE,)),
        ("S1", (EDGE, AXIS, GENERIC)),
        ("S2", (RATIONAL_CURVE,)),
        ("S2", (GENERIC, EDGE, AXIS)),
        ("S3", (HALF,)),
        ("S3", (GENERIC, RATIONAL_CURVE, EDGE, AXIS)),
        ("S4", (AXIS, RATIONAL_CURVE, HALF, EDGE)),
        ("S4", (GENERIC,)),
        ("S5", (HALF, EDGE, AXIS, RATIONAL_CURVE)),
        ("S5", (GENERIC,)),
    )

    def make_round(self, r):
        rng = round_rng(self.seed, self.name, r)
        items = []
        for k, (tag, loci) in enumerate(self.SLOTS):
            spec = draw_spec(rng, tag, loci[r % len(loci)])
            items.append(self._item(f"r{r}.{k}.{tag}.{spec.locus}", spec))
        rng.shuffle(items)
        return items

    def _item(self, item_id, spec):
        model = self.build(spec)

        def check(c) -> bytes:
            want = spec.verdict()
            if c.verdict != want:
                raise CheckFailed(f"{spec.to_json()}: verdict {c.verdict}, theorem {want}")
            if not c.trail:
                raise CheckFailed(f"{spec.to_json()}: empty evidence trail")
            if (c.closed_forms is None) != (want == "NotDAlgebraic"):
                raise CheckFailed(f"{spec.to_json()}: closed forms do not match {want}")
            return c.to_json().encode()

        # functions are looked up at call time, so an installed tracer sees them
        return Item(item_id, item_id, lambda tracer: self.classifier.classify(model), check)


class Oracle(_InProcess):
    """The verification path at series order 30."""

    name = "oracle"
    ENUMERATE = ("S1", "S2", "S3", "S4", "S5")
    CLOSED_FORM = (("S1", RATIONAL_CURVE), ("S2", RATIONAL_CURVE), ("S3", HALF))

    def make_round(self, r):
        rng = round_rng(self.seed, self.name, r)
        items = []
        for k, tag in enumerate(self.ENUMERATE):    # every locus once per round
            spec = draw_spec(rng, tag, LOCI[(k + r) % len(LOCI)])
            items.append(self._enumerate_item(f"r{r}.enum.{tag}.{spec.locus}", spec))
        for tag, locus in self.CLOSED_FORM:
            spec = draw_spec(rng, tag, locus)
            items.append(self._closed_form_item(f"r{r}.vcf.{tag}.{spec.locus}", spec))
        rng.shuffle(items)
        return items

    def _enumerate_item(self, item_id, spec):
        model, en = self.build(spec), self.enumerator

        def call(tracer):
            series = en.enumerate_walks(model, ORDER)
            return series, en.functional_equation_residual(model, series)

        def check(result) -> bytes:
            series, residual = result
            if any(residual):
                raise CheckFailed(f"{spec.to_json()}: nonzero residual")
            if len(series.terms) != ORDER + 1 or series.terms[0] != {(0, 0): 1}:
                raise CheckFailed(f"{spec.to_json()}: malformed truncation")
            if sum(series.terms[1].values()) != spec.first_step_weight():
                raise CheckFailed(f"{spec.to_json()}: wrong one-step weight")
            return series.to_json().encode()

        return Item(item_id, item_id, call, check)

    def _closed_form_item(self, item_id, spec):
        model = self.build(spec)

        def check(report) -> bytes:
            want = {"order": ORDER, "verdict": spec.verdict(), "checked": ["Qx0", "Q0y"]}
            if report != want:
                raise CheckFailed(f"{spec.to_json()}: report {report}, expected {want}")
            return json.dumps(report, sort_keys=True).encode()

        return Item(item_id, item_id,
                    lambda tracer: self.classifier.verify_closed_form(model, order=ORDER),
                    check)


# -- the command line --------------------------------------------------------


COMMITTED_MODELS = ("models/s1-rational.json", "models/s3-algebraic.json",
                    "models/s5-generic.json")
CLI_TIMEOUT = 120


class Cli:
    """One `python -m quadwalk.cli` subprocess per item."""

    name = "cli"
    in_process = False
    # seeded model files: cheap and expensive ones are paired in each round
    CHEAP = (("S1", EDGE), ("S2", GENERIC), ("S3", GENERIC))
    COSTLY = (("S4", GENERIC), ("S5", GENERIC), ("S5", AXIS))

    def __init__(self, seed, root, work):
        import quadwalk  # noqa: F401  (set-up time includes the import)

        self.seed, self.root, self.work = seed, Path(root), Path(work)
        rng = round_rng(seed, self.name, "files")
        self.committed = {}
        for rel in COMMITTED_MODELS:
            doc = json.loads((self.root / rel).read_text(encoding="utf-8"))
            self.committed[rel] = expected_verdict(
                doc["stepset"], Fraction(doc["a"]), Fraction(doc["b"]))
        self.cheap = [self._write(f"cheap{k}", draw_spec(rng, t, l))
                      for k, (t, l) in enumerate(self.CHEAP)]
        self.costly = [self._write(f"costly{k}", draw_spec(rng, t, l))
                       for k, (t, l) in enumerate(self.COSTLY)]
        self.verify_seed = rng.randrange(1 << 16)
        self.env = {**child_env(), "PYTHONPATH": str(self.root / "src")}

    def _write(self, stem, spec):
        path = self.work / f"{stem}.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return str(path), spec

    def round(self, r, fresh=False):
        cheap, costly = self.cheap[r % 3], self.costly[r % 3]
        other_cheap, other_costly = self.cheap[(r + 1) % 3], self.costly[(r + 1) % 3]
        items = [self._classify(rel, verdict=v) for rel, v in self.committed.items()]
        items += [self._classify(path, spec=spec) for path, spec in (cheap, costly)]
        items += [
            self._enumerate(*other_costly),
            self._matrix(other_cheap[0]),
            self._verify(),
            self._phase_scan(cheap[0]),
        ]
        for k, item in enumerate(items):
            item.id = f"r{r}.{k}.{item.key}"
        return items

    def _item(self, argv, check):
        key = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)
        item = Item(None, key, None, _cli_check(check))
        item.call = lambda tracer: self._run(argv, tracer, item.id)
        return item

    def _run(self, argv, tracer, item_id):
        """The child's CompletedProcess; traced children run the launcher,
        which writes its spans to a file that is merged into tracer."""
        if tracer is None:
            cmd = [sys.executable, "-m", "quadwalk.cli", *argv]
            return _run_child(cmd, self.root, self.env)
        trace_path = self.work / "trace.jsonl"
        cmd = [sys.executable, str(Path(__file__).with_name("launch.py")),
               str(trace_path), item_id, *argv]
        proc = _run_child(cmd, self.root, self.env)
        if trace_path.exists():
            tracer.add_records(read_spans(trace_path), item_id)
            trace_path.unlink()
        return proc

    def _classify(self, path, verdict=None, spec=None):
        want = verdict if spec is None else spec.verdict()

        def check(stdout):
            doc = json.loads(stdout)
            if doc["verdict"] != want or not doc["trail"]:
                raise CheckFailed(f"classify {path}: verdict {doc['verdict']}, theorem {want}")
            if spec is not None and json.dumps(doc["model"], sort_keys=True) != spec.to_json():
                raise CheckFailed(f"classify {path}: model echoed as {doc['model']}")

        return self._item(["classify", "--model", path], check)

    def _enumerate(self, path, spec):
        def check(stdout):
            terms = json.loads(stdout)
            if len(terms) != ORDER + 1 or terms[0] != [[0, 0, "1"]]:
                raise CheckFailed(f"enumerate {path}: malformed truncation")
            if sum(Fraction(c) for _, _, c in terms[1]) != spec.first_step_weight():
                raise CheckFailed(f"enumerate {path}: wrong one-step weight")

        return self._item(["enumerate", "--model", path, "--order", str(ORDER)], check)

    def _matrix(self, path):
        def check(stdout):
            doc = json.loads(stdout)
            for key in ("M1", "M2"):
                rows = doc[key]["entries"]
                if len(rows) != 4 or any(len(row) != 4 for row in rows) or any(
                        e != "bot" and not isinstance(e, int) for row in rows for e in row):
                    raise CheckFailed(f"matrix {path}: malformed {key}")

        return self._item(["matrix", "--model", path], check)

    def _verify(self):
        def check(stdout):
            checks = json.loads(stdout)["checks"]
            residuals = [c["residual"] for c in checks if "residual" in c]
            forms = [c["closed_form"] for c in checks if "closed_form" in c]
            if residuals != ["0"] * 5 or forms != ["Rational", "Rational", "Algebraic"]:
                raise CheckFailed(f"verify: unexpected checks {checks}")

        argv = ["verify", "--seed", str(self.verify_seed), "--trials", "1", "--order", "8"]
        return self._item(argv, check)

    def _phase_scan(self, path):
        a_values, b_values, order = ("1/2", "2"), ("1", "3"), 6

        def check(stdout):
            rows = stdout.decode().splitlines()
            if rows[0] != "a,b,n,ratio_x_axis,ratio_y_axis" or \
                    len(rows) != 1 + len(a_values) * len(b_values) * (order + 1):
                raise CheckFailed(f"phase-scan {path}: malformed table")

        argv = ["phase-scan", "--model", path, "--order", str(order),
                "--a-values", ",".join(a_values), "--b-values", ",".join(b_values)]
        return self._item(argv, check)


def _cli_check(check):
    """Exit code 0, then the stdout check; the digest covers stdout."""

    def checked(proc):
        if proc.returncode != 0:
            raise CheckFailed(f"exit code {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace')[-300:]}")
        check(proc.stdout)
        return proc.stdout

    return checked


def child_env():
    import os

    return {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}


def _run_child(cmd, cwd, env):
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          timeout=CLI_TIMEOUT, check=False)


WORKLOADS = {w.name: w for w in (ClassifyGrid, Oracle, Cli)}
