"""The four workloads: seeded rounds of items, the calls into goi, and references.

A round is a fixed mix of items; a run repeats whole rounds, so every run
measures the same mix.  Inputs come from the seed alone and are plain data
(proof text, numpy arrays); each item's ``call`` hands them to goi's public
API, and its ``check`` compares the output with a reference computed when
the round was generated, outside the timed region, by code that is not
goi's.

Workloads reach goi through module attributes at call time (``self.g.x.f``)
so that the tracer's wrappers are the functions that run in traced mode.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import numpy as np

import proofs
from tracer import Patches

# The seed and trials `goi verify` runs with by default.
VERIFY_SEED = 0xC0FFEE
VERIFY_TRIALS = 100


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    inputs: object = None  # the generated data the call hands to goi


@dataclass
class ItemResult:
    name: str
    seconds: float
    ok: bool
    error: str | None = None
    data: dict | None = None


@dataclass
class Probe:
    """A known defect, run untimed after the measured rounds."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    expected: str


def run_items(items: list[Item], tracer=None, after=None) -> list[ItemResult]:
    """Run items one at a time; ``after(seconds)``, if given, runs untimed after each item."""
    results = []
    for item in items:
        if tracer is not None:
            tracer.item += 1
        t0 = perf_counter()
        try:
            value = item.call()
            error = None
        except Exception as exc:  # an item that raises is a failed item, not a crash
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        ok = error is None and bool(item.check(value))
        results.append(ItemResult(item.name, seconds, ok, error if error else (None if ok else "output differs from reference")))
        if after is not None:
            after(seconds)
    return results


class Workload:
    """One workload: a seeded warm-up, seeded rounds and untimed known-defect probes.

    ``named_items`` are the reference points whose own latency is reported.
    """

    name = ""
    named_items: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str, workdir: Path, g: SimpleNamespace | None = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.g = g  # the goi modules, from goi_setup.set_up()

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def warmup(self) -> list[Item]:
        raise NotImplementedError

    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def run_round(self, r: int, tracer=None, after=None) -> list[ItemResult]:
        return run_items(self.round(r), tracer, after)

    def probes(self) -> list[Probe]:
        return []

    def params(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# verify-suite


class VerifySuite(Workload):
    """`goi verify --suite all` as users run it: default seed, 100 trials.

    The suite is run at its own default seed, not at the benchmark's: its
    cost depends on the seed (adjunction-mat alone takes 2.7 s at the
    default seed and 8.6 s at seed 5), and some seeds end in a traceback,
    so a seeded pass would make runs incomparable.
    """

    name = "verify-suite"

    # Wall-clock budgets the suite applies to these checks, in seconds.
    BUDGETS = {
        "regression-determinants": 1e-3,
        "group-free-monoid": 1.0,
        "block-determinant-identity": 1.0,
        "mll-exact-soundness": 1.0,
    }

    def trials(self) -> int:
        return VERIFY_TRIALS if self.scale == "full" else 5

    def params(self) -> dict:
        return {"suite": "all", "suite_seed": VERIFY_SEED, "trials": self.trials()}

    def warmup(self) -> list[Item]:
        # A few milliseconds through the logic, exact and dense layers, and
        # not one of the checks with a wall-clock budget.
        return [Item("compositionality", lambda: self.g.verify.check_compositionality(), lambda rec: rec.status == "pass")]

    def run_round(self, r: int, tracer=None, after=None) -> list[ItemResult]:
        """One pass of run_suite; each check record is one item.

        The check functions are shimmed for the pass so that each record
        gets its own latency; run_suite itself decides which checks run.
        """
        verify = self.g.verify
        results: list[ItemResult] = []
        patches = Patches()
        for attr, fn in list(vars(verify).items()):
            if attr.startswith("check_") and callable(fn):
                patches.set(verify, attr, self._timed_check(fn, results, tracer, after))
        try:
            records = verify.run_suite("all", VERIFY_SEED, self.trials())
        except Exception as exc:  # the check that raised is already recorded as failed
            records = None
            if not results or results[-1].ok:
                results.append(ItemResult("run_suite", 0.0, False, f"{type(exc).__name__}: {exc}"))
        finally:
            patches.restore()
        if records is not None and len(records) != len(results):
            results.append(ItemResult("run_suite", 0.0, False, "record count differs from the checks run"))
        return results

    @staticmethod
    def _timed_check(fn, results: list[ItemResult], tracer, after):
        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.item += 1
            t0 = perf_counter()
            try:
                rec = fn(*args, **kwargs)
            except Exception as exc:
                results.append(ItemResult(fn.__name__, perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"))
                raise
            seconds = perf_counter() - t0
            ok = rec.status == "pass"
            results.append(ItemResult(rec.name, seconds, ok, None if ok else f"status {rec.status}: {rec.data}", rec.data))
            if after is not None:
                after(seconds)
            return rec

        return timed


# ----------------------------------------------------------------------
# mll-cut-chains


class MllCutChains(Workload):
    """Exact backend only: parse, check, allocate, interpret, execute.

    Mostly cut chains up to the 64 cuts the roadmap names, plus compound-cut,
    tensor and par shapes.  The reference is the link set of the cut-free
    normal form, which the generator knows from the conclusion alone.
    """

    name = "mll-cut-chains"
    named_items = ("cut-chain-64",)

    CHAINS = {
        "full": (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64),
        "tiny": (1, 2, 4, 8),
    }

    def _shapes(self, rng: random.Random) -> list[tuple[str, proofs.Proof]]:
        full = self.scale == "full"
        shapes = [
            ("compound-cut-2", proofs.compound_cut(proofs.fresh_names(rng, 2), rng, deep=False)),
            ("compound-cut-deep-2", proofs.compound_cut(proofs.fresh_names(rng, 2), rng, deep=True)),
            ("tensor-cut-4", proofs.tensor_of_axioms(proofs.fresh_names(rng, 4), rng, inner_cuts=1)),
            ("par-of-tensor-2", proofs.par_of_tensor(proofs.fresh_names(rng, 2), rng)),
        ]
        if full:
            shapes += [
                ("compound-cut-3", proofs.compound_cut(proofs.fresh_names(rng, 3), rng, deep=False)),
                ("compound-cut-deep-3", proofs.compound_cut(proofs.fresh_names(rng, 3), rng, deep=True)),
                ("tensor-cut-6", proofs.tensor_of_axioms(proofs.fresh_names(rng, 6), rng, inner_cuts=2)),
                ("par-of-tensor-3", proofs.par_of_tensor(proofs.fresh_names(rng, 3), rng)),
            ]
        return shapes

    def _generate(self, r: int) -> list[tuple[str, proofs.Proof]]:
        rng = self.rng(r)
        chains = [(f"cut-chain-{n}", proofs.cut_chain(n, proofs.fresh_names(rng, 1)[0], rng)) for n in self.CHAINS[self.scale]]
        out = chains + self._shapes(rng)
        rng.shuffle(out)
        return out

    def _item(self, name: str, proof: proofs.Proof) -> Item:
        expected = proofs.expected_links(proof.sequent)
        return Item(name, lambda: self._execute(proof.text), lambda op: self._matches(op, expected), proof.text)

    def _execute(self, text: str):
        """parse -> check_proof -> allocate_goi1 -> interpret_mll_goi1 -> ex_goi1."""
        g = self.g
        proof = g.syntax.parse_proof(text)
        g.syntax.check_proof(proof)
        plan = g.locations.allocate_goi1(proof)
        pi, sigma = g.goi1.interpret_mll_goi1(proof, plan)
        return g.execution.ex_goi1(pi, sigma)

    @staticmethod
    def _matches(op, expected: frozenset) -> bool:
        if op.table or op.rules:
            return False
        got = proofs.merge_siblings((c.out_word, c.out_slot, c.in_word, c.in_slot, complex(c.weight)) for c in op.cyls)
        return got == expected

    def warmup(self) -> list[Item]:
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return [self._item("cut-chain-4", proofs.cut_chain(4, "V1", rng))]

    def round(self, r: int) -> list[Item]:
        return [self._item(name, p) for name, p in self._generate(r)]


# ----------------------------------------------------------------------
# mall-with-towers


class MallWithTowers(Workload):
    """Additive proofs through `goi interpret` in-process, along two axes.

    With towers grow the dialect (depth 4: 16 blocks); tensors of axioms grow
    the carrier (32 axioms: 64 locations).  The reference is the paper's
    soundness claim, read from the written report.
    """

    name = "mall-with-towers"
    named_items = ("with-tower-4", "tensor-32")

    TOWERS = {"full": (1, 2, 3, 4), "tiny": (1, 2)}
    TENSORS = {"full": (2, 4, 8, 16, 32), "tiny": (2, 4)}
    SHAPES = {
        "full": (
            "with", "plus-left", "plus-right", "with-of-plus", "cut-against-with", "cut-against-plus",
            "tensor-of-with", "par-of-with", "nested-with", "cut", "par",
        ),
        "tiny": ("with", "plus-left", "cut-against-with", "par"),
    }

    def _generate(self, r: int) -> list[tuple[str, proofs.Proof]]:
        rng = self.rng(r)
        out = [(f"with-tower-{d}", proofs.with_tower(d, rng)) for d in self.TOWERS[self.scale]]
        out += [(f"tensor-{k}", proofs.tensor_tower(k, rng)) for k in self.TENSORS[self.scale]]
        out += [(kind, proofs.small_additive(kind, rng)) for kind in self.SHAPES[self.scale]]
        rng.shuffle(out)
        return out

    def _item(self, name: str, proof: proofs.Proof, tag: str) -> Item:
        path = self.workdir / f"{tag}.goi"
        path.write_text(proof.text + "\n", encoding="utf-8")
        report = self.workdir / "report.json"
        argv = ["interpret", str(path), "--out", str(report)]
        return Item(name, lambda: self.g.cli.main(argv), lambda rc: self._sound(rc, report), proof.text)

    @staticmethod
    def _sound(rc, report: Path) -> bool:
        """The soundness claim: exit 0, every promising field true, every witness orthogonal."""
        if rc != 0:
            return False
        data = json.loads(report.read_text(encoding="utf-8"))
        promising = data.get("promising", {})
        rows = data.get("witness_table", [])
        return (
            len(promising) == 5
            and all(v is True for v in promising.values())
            and bool(rows)
            and all(row["verdict"] == "orthogonal" for row in rows)
        )

    def warmup(self) -> list[Item]:
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return [self._item("with-tower-1", proofs.with_tower(1, rng), "warmup")]

    def round(self, r: int) -> list[Item]:
        return [self._item(name, p, f"r{r}-{k}") for k, (name, p) in enumerate(self._generate(r))]


# ----------------------------------------------------------------------
# dense-carriers


def _hermitian(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Hermitian matrix with the fixed spectrum linspace(lo, hi, n) and seeded eigenvectors.

    Fixing the spectrum keeps iterative kernels (power iteration, repeated
    squaring) doing the same amount of work for every seed.
    """
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    lam = rng.permutation(np.linspace(lo, hi, n))
    h = (q * lam) @ q.conj().T
    return (h + h.conj().T) / 2


def _labels(start: int, n: int) -> tuple:
    return tuple(range(start, start + n))


def _logdet_pos(m: np.ndarray) -> float:
    sign, logabs = np.linalg.slogdet(m)
    if abs(sign - 1) > 1e-9:
        raise ValueError("reference determinant is not positive")
    return float(logabs)


def _feedback_reference(u: np.ndarray, v: np.ndarray, h: int) -> np.ndarray:
    """Solution of the feedback equations u(x + y) = x' + y', v(y' + z) = y + z'.

    u acts on (x, y) with x of size h; v acts on (y, z).  Returns the map
    (x, z) -> (x', z').
    """
    c = u.shape[0] - h
    uxx, uxy, uyx, uyy = u[:h, :h], u[:h, h:], u[h:, :h], u[h:, h:]
    vyy, vyz, vzy, vzz = v[:c, :c], v[:c, c:], v[c:, :c], v[c:, c:]
    s = np.linalg.solve(np.eye(c) - vyy @ uyy, np.hstack([vyy @ uyx, vyz]))
    y_x, y_z = s[:, :h], s[:, h:]
    top = np.hstack([uxx + uxy @ y_x, uxy @ y_z])
    bottom = np.hstack([vzy @ (uyx + uyy @ y_x), vzy @ uyy @ y_z + vzz])
    return np.vstack([top, bottom])


class DenseCarriers(Workload):
    """The dense kernels as a few large calls on 64 to 320 locations.

    References come from numpy (eigvalsh, slogdet, solve) at generation
    time.  The near-gate operators whose determinant underflows are known
    defects: they run as probes after the rounds, so every run reports
    them without an operation of the measured mix failing.
    """

    name = "dense-carriers"

    # (kind, carrier size) per round.  The heaviest kind, plug, stops at 192
    # so that a 20 s run holds several rounds.
    MIX = {
        "full": (
            [("spectral-radius", n) for n in (64, 128, 192, 256, 320)]
            + [("fk-det", n) for n in (64, 128, 192, 256)]
            + [("ldet", n) for n in (64, 192, 256)]
            + [("ldet-near-gate", 128), ("meas-mat-dialect", 64)]
            + [("meas-mat", n) for n in (64, 128, 192, 256)]
            + [("feedback", n) for n in (64, 128, 192, 256)]
            + [("plug", n) for n in (64, 128, 192)]
        ),
        "tiny": (
            [("spectral-radius", 8), ("spectral-radius", 16), ("fk-det", 8), ("ldet", 8), ("ldet-near-gate", 16)]
            + [("meas-mat", 8), ("meas-mat", 16), ("meas-mat-dialect", 8), ("feedback", 8), ("feedback", 16)]
            + [("plug", 8), ("plug", 16)]
        ),
    }

    def round(self, r: int) -> list[Item]:
        rng = np.random.default_rng([abs(self.seed), r, 0xD1])
        build = {
            "spectral-radius": self._spectral_radius,
            "fk-det": self._fk_det,
            "ldet": self._ldet,
            "ldet-near-gate": lambda rng, n: self._ldet(rng, n, 0.9, 0.99, f"ldet-near-gate-{n}"),
            "meas-mat": self._meas_mat,
            "meas-mat-dialect": self._meas_mat_dialect,
            "feedback": self._feedback,
            "plug": self._plug,
        }
        items = [build[kind](rng, n) for kind, n in self.MIX[self.scale]]
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def _spectral_radius(self, rng, n: int) -> Item:
        m = _hermitian(rng, n, -0.85, 0.9)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(m))))

        def check(rep) -> bool:
            return rep.below_one() and rho * (1 - 1e-9) <= rep.spectral_radius <= rho * (1 + 1e-6) and rep.lower_bound <= rho * (1 + 1e-9)

        return Item(f"spectral-radius-{n}", lambda: self.g.linalg.spectral_radius(self.g.linalg.DenseOperator(_labels(0, n), m)), check, (m,))

    def _fk_det(self, rng, n: int) -> Item:
        a = _hermitian(rng, n, 0.3, 0.9)
        want = math.exp(_logdet_pos(a) / n)
        return Item(
            f"fk-det-{n}",
            lambda: self.g.linalg.fk_det(self.g.linalg.DenseOperator(_labels(0, n), a)),
            lambda got: abs(got - want) <= 1e-9 * want,
            (a,),
        )

    def _ldet(self, rng, n: int, lo: float = -0.85, hi: float = 0.9, name: str | None = None) -> Item:
        m = _hermitian(rng, n, lo, hi)
        want = -_logdet_pos(np.eye(n) - m)
        return Item(
            name or f"ldet-{n}",
            lambda: self.g.measurement.ldet(self.g.measurement.from_location_matrix(_labels(0, n), m)),
            lambda got: isinstance(got, float) and abs(got - want) <= 1e-8 * max(1.0, abs(want)),
            (m,),
        )

    def _meas_mat(self, rng, n: int) -> Item:
        # A positive semidefinite keeps the eigenvalues of AB real, so
        # det(1 - AB) is real and positive.
        a = _hermitian(rng, n, 0.0, 0.9)
        b = _hermitian(rng, n, -0.85, 0.9)
        want = -_logdet_pos(np.eye(n) - a @ b)

        def call():
            m = self.g.measurement
            c = _labels(0, n)
            return m.meas_mat(m.from_location_matrix(c, a), m.from_location_matrix(c, b))

        return Item(f"meas-mat-{n}", call, lambda got: isinstance(got, float) and abs(got - want) <= 1e-8 * max(1.0, abs(want)), (a, b))

    def _meas_mat_dialect(self, rng, n: int) -> Item:
        """Against an operator on a two-block dialect with pseudo-trace weights (0.4, 0.6)."""
        a = _hermitian(rng, n, 0.0, 0.9)
        blocks = [_hermitian(rng, n, -0.85, 0.9) for _ in range(2)]
        weights = (0.4, 0.6)
        want = -sum(w * _logdet_pos(np.eye(n) - a @ b) for w, b in zip(weights, blocks))
        payload = np.zeros((2 * n, 2 * n), dtype=complex)
        for k, b in enumerate(blocks):
            payload[k::2, k::2] = b  # labels are (location, coordinate), location-major

        def call():
            m = self.g.measurement
            c = _labels(0, n)
            dialect = m.Dialect((1, 1))
            B = m.DialectalOperator(c, dialect, m.PseudoTrace(weights), self.g.linalg.DenseOperator(m.dial_labels(c, 2), payload))
            return m.meas_mat(m.from_location_matrix(c, a), B)

        return Item(f"meas-mat-dialect-{n}", call, lambda got: isinstance(got, float) and abs(got - want) <= 1e-8 * max(1.0, abs(want)), (a, payload))

    def _pair(self, rng, n: int):
        h = n // 2
        u = _hermitian(rng, n, -0.85, 0.9)
        v = _hermitian(rng, n, -0.85, 0.9)
        return h, u, v, _feedback_reference(u, v, h)

    def _feedback(self, rng, n: int) -> Item:
        h, u, v, want = self._pair(rng, n)
        kept = _labels(0, h) + _labels(n, h)

        def call():
            lin = self.g.linalg
            split = self.g.execution.InterfaceSplit(kept=frozenset(range(h)), cut=frozenset(range(h, n)))
            return self.g.execution.feedback_dense(lin.DenseOperator(_labels(0, n), u), lin.DenseOperator(_labels(h, n), v), split)

        return Item(f"feedback-{n}", call, lambda w: w.carrier == kept and float(np.max(np.abs(w.mat - want))) <= 1e-8, (u, v))

    def _plug(self, rng, n: int) -> Item:
        h, u, v, want = self._pair(rng, n)
        kept = _labels(0, h) + _labels(n, h)

        def call():
            m = self.g.measurement
            return self.g.execution.plug_dialectal(m.from_location_matrix(_labels(0, n), u), m.from_location_matrix(_labels(h, n), v))

        def check(out) -> bool:
            mat = out.dense_payload().mat
            return tuple(out.carrier) == kept and out.dialect.dim == 1 and float(np.max(np.abs(mat - want))) <= 1e-8

        return Item(f"plug-{n}", call, check, (u, v))

    def warmup(self) -> list[Item]:
        # Small enough that BLAS runs it on one thread: a threaded warm-up
        # item makes set-up time depend on what else holds the other CPU.
        rng = np.random.default_rng([abs(self.seed), 0xAA])
        return [self._meas_mat(rng, 16)]

    def probes(self) -> list[Probe]:
        """Near-gate operators whose determinant underflows before the log is taken."""

        def ldet_scaled(n: int, s: float):
            m = self.g.measurement
            return m.ldet(m.from_location_matrix(_labels(0, n), s * np.eye(n)))

        def fk_scaled(n: int, s: float):
            return self.g.linalg.fk_det(self.g.linalg.DenseOperator(_labels(0, n), s * np.eye(n)))

        def close(want: float):
            return lambda got: isinstance(got, float) and math.isfinite(got) and abs(got - want) <= 1e-9 * abs(want)

        out = []
        for n in (160, 200):
            want = -n * math.log(1 - 0.99)
            out.append(Probe(f"ldet(0.99*I_{n})", lambda n=n: ldet_scaled(n, 0.99), close(want), f"{want:.4f}"))
        out.append(Probe("fk_det(0.01*I_200)", lambda: fk_scaled(200, 0.01), close(0.01), "0.01"))
        return out


WORKLOADS = {w.name: w for w in (VerifySuite, MllCutChains, MallWithTowers, DenseCarriers)}
