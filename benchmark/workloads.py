"""The four benchmark workloads: inputs, the calls that make one item, and checks.

Every workload runs in rounds.  A round has the same make-up for every seed
(the seed picks which inputs fill it), so a run of whole rounds keeps the mix
of cheap and costly items fixed and the latency percentiles steady.  Items are
closed loop: the next starts when the previous one returns.  Each item gets
digraph objects of its own, so nothing cached on an object by one item can
serve another.

An item's ``run`` calls only the public API (or the CLI in a subprocess) and
returns the raw outputs.  Its ``check`` runs after the timed phase and returns
``(correct, exact, message)``: ``correct`` compares canonical exact outputs
with values recorded from the seed commit (``reference.json``) or with an
oracle written here; ``exact`` says the result carries the strongest
certificate the item can have.  Perron brackets are checked for soundness
only, never for equal endpoints.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

BRACKET_WIDTH = Fraction(1, 10**18)
FLOAT_ROOT_TOL = 1e-9

# certify: the instance pool every seed samples from
POOL_SEED = 7919
POOL_STREAM = 1000  # instance_stream length that holds POOL_PER_ORDER of each order
POOL_PER_ORDER = 64
SMALL_ORDERS = tuple(range(2, 13))
LARGE_ORDERS = tuple(range(24, 33))
LARGE_PER_ORDER = 4
STRATA = 4
COATES_MAX_ORDER = 8
CERTIFY_FVS_BUDGET = 20_000  # nodes
COATES_BUDGET = 200_000  # cycles, then unions
ZETA_SAMPLES = (Fraction(1, 3), Fraction(1, 2), Fraction(2))

# ladder
E1_GRID = tuple(10 ** (1 + j / 4) for j in range(9))  # 10 .. 1e3
E2_GRID = tuple(10 ** (1 + j / 4) for j in range(13))  # 10 .. 1e4
GRID_JITTER = 0.05
GREEN_N_MAX = 1000  # grid points up to here get green_partial_sums (dense: n^2 floats)
GREEN_P_MAX = 200
CLASSIFY_N_MAX = 120
CLASSIFY_P_MAX = 1000
SWEEP_PARAMS = {"a": "1/2", "f": {"kind": "power", "epsilon": 0.5}}
SWEEP_GRID = (100, 316, 1000)

# transversal
HOSTS = ("prop1", "corollary1", "theorem2-fast")
# One size per tier: the solve time changes by up to 1.7x between
# neighbouring n, which would swamp the run-to-run comparison.
SMALL_N = 60
MID_N = 100
BIG_N = 146
CAPPED_N = 200
EXACT_BUDGET = 20_000  # nodes; every exact item finishes well inside it
CAPPED_BUDGET = 200  # nodes; the seed commit returns "upper-bound" here
OMEGA_MAX_N = 12
RANDOM_ORDER = 9
RANDOM_ITEMS = 1  # per round
RANDOM_PER_ITEM = 8  # instances per item

# cli
VERIFY_SEEDS = tuple(range(16))
CLI_FVS_BUDGET = 20_000
CLI_TIMEOUT_S = 60


def digest(values) -> str:
    text = "|".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass
class Item:
    key: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


class Workload:
    name = ""
    min_rounds = 1  # a multiple of round_block
    round_block = 1
    trace_rounds = 1
    # item_tail_ms quantile: at least 10 samples lie above it once min_rounds
    # rounds ran, and it falls inside a block of one kind of item in the
    # sorted latencies, so its value does not jump with the round count
    tail_q = 0.85

    def __init__(self, ss, ref: dict, seed: int, root: str, out_dir: str):
        self.ss = ss
        self.all_ref = ref
        self.ref = ref.get(self.name, {})
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.tracer = None

    def fresh(self, d):
        return self.ss.WeightedDigraph(d.order, dict(d.arcs))

    def setup(self):
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Graph oracles (independent of the library's cycle code)
# ---------------------------------------------------------------------------


def acyclic_without(d, removed) -> bool:
    """Kahn peeling of d minus ``removed``; loops count as cycles."""
    keep = set(range(d.order)) - set(removed)
    succ = {v: [] for v in keep}
    indeg = {v: 0 for v in keep}
    for u, v in d.arcs:
        if u in keep and v in keep:
            if u == v:
                return False
            succ[u].append(v)
            indeg[v] += 1
    queue = [v for v in keep if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(keep)


def brute_min_fvs(d) -> int:
    for k in range(d.order + 1):
        if any(acyclic_without(d, s) for s in itertools.combinations(range(d.order), k)):
            return k
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


class Certify(Workload):
    """Exact checks on instance_stream digraphs of order 2-12, plus order 24-32."""

    name = "certify"
    min_rounds = 2 * STRATA
    round_block = STRATA  # a block takes every stratum of every order once
    trace_rounds = 2

    def _pool(self, stream_len=POOL_STREAM):
        ss = self.ss
        stream = ss.inequalities.instance_stream(POOL_SEED, stream_len, max(SMALL_ORDERS))
        small: dict = {o: [] for o in SMALL_ORDERS}
        for i, d in stream:
            if len(small[d.order]) < POOL_PER_ORDER:
                small[d.order].append((i, d))
        large = []
        for j in range(len(LARGE_ORDERS) * LARGE_PER_ORDER):
            order = LARGE_ORDERS[j % len(LARGE_ORDERS)]
            rng = random.Random(f"{POOL_SEED}:large:{j}")
            large.append((j, ss.random_strong_digraph(rng, order)))
        return small, large

    def setup(self):
        small, large = self._pool(1 + max(e["i"] for es in self.ref["small"].values() for e in es))
        by_index = {o: dict(entries) for o, entries in small.items()}
        rng = random.Random(f"{self.seed}:certify")
        # strata: pool entries of one order split by their seed-commit cost
        self.strata = {}
        for o in SMALL_ORDERS:
            ranked = sorted(self.ref["small"][str(o)], key=lambda e: (e["cost_ms"], e["i"]))
            size = len(ranked) // STRATA
            for s in range(STRATA):
                part = ranked[s * size:(s + 1) * size]
                rng.shuffle(part)
                self.strata[o, s] = [(e, by_index[o][e["i"]]) for e in part]
        self.large = [(e, large[e["j"]][1]) for e in self.ref["large"]]
        self.large_shift = rng.randrange(len(LARGE_ORDERS))

    def round(self, r: int) -> list:
        items = []
        for o in SMALL_ORDERS:
            stratum = self.strata[o, (r + o) % STRATA]
            entry, d = stratum[(r // STRATA) % len(stratum)]
            items.append(self._small_item(entry, self.fresh(d)))
        order = LARGE_ORDERS[(r + self.large_shift) % len(LARGE_ORDERS)]
        candidates = [(e, d) for e, d in self.large if d.order == order]
        entry, d = candidates[(r // len(LARGE_ORDERS)) % len(candidates)]
        items.append(self._large_item(entry, self.fresh(d)))
        return items

    # -- items ---------------------------------------------------------------

    def run_small(self, d, i: int) -> dict:
        ss = self.ss
        out = {
            "det": ss.det_i_minus(d),
            "cp": ss.charpoly(d),
            "brackets": ss.perron_bounds(d),
            "root": ss.perron_root(d),
            "diag": ss.resolvent_diagonal(d),
        }
        reports = [ss.check_boyle_handelman(d), ss.check_ksv(d), ss.check_trace_bounds(d)]
        w = ss.min_cycle_transversal(d, budget=CERTIFY_FVS_BUDGET)
        reports.append(ss.check_diag_transversal_bound(d, w))
        reports.append(ss.check_transversal_product(d, w))
        reports.extend(ss.check_sigma_bound(d, w, k) for k in range(1, w.size + 1))
        out["reports"] = reports
        out["fvs"] = w
        out["zeta"] = ss.check_zeta_identity(d, i % d.order, ZETA_SAMPLES)
        out["scan"] = ss.scan_argmax_conjecture(d)
        if d.order <= COATES_MAX_ORDER:
            out["coates"] = ss.charpoly(d, "coates", budget=COATES_BUDGET)
        return out

    def run_large(self, d) -> dict:
        ss = self.ss
        return {
            "det": ss.det_i_minus(d),
            "cp": ss.charpoly(d),
            "brackets": ss.perron_bounds(d),
            "root": ss.perron_root(d),
            "diag": ss.resolvent_diagonal(d),
        }

    @staticmethod
    def canon(out: dict) -> dict:
        """Digests of the canonical exact outputs (bracket-free by design)."""
        found = {"det": digest([out["det"]]), "cp": digest(out["cp"]), "diag": digest(out["diag"])}
        if "fvs" in out:
            scan, zeta = out["scan"], out["zeta"]
            found["rest"] = digest([
                out["fvs"].size,
                [rep.ok for rep in out["reports"]],
                zeta.ok,
                zeta.min_margin,
                scan.argmax,
                scan.transversals_checked,
                scan.counterexamples,
                out["coates"] == out["cp"] if "coates" in out else None,
            ])
        return found

    @staticmethod
    def bracket_sound(out: dict) -> str | None:
        lo, hi = out["brackets"]
        if not lo <= hi:
            return f"bracket reversed [{lo}, {hi}]"
        if hi - lo > BRACKET_WIDTH:
            return f"bracket width {float(hi - lo):.3g} over 1e-18"
        if not float(lo) - FLOAT_ROOT_TOL <= out["root"] <= float(hi) + FLOAT_ROOT_TOL:
            return f"float root {out['root']!r} outside [{float(lo)}, {float(hi)}]"
        return None

    def _check(self, entry: dict, out: dict) -> tuple:
        bad = self.bracket_sound(out)
        if bad:
            return False, False, bad
        found = self.canon(out)
        for key, value in found.items():
            if entry[key] != value:
                return False, False, f"{key} digest {value} != reference {entry[key]}"
        exact = "fvs" not in out or out["fvs"].optimality == "exact"
        return True, exact, ""

    def _small_item(self, entry, d) -> Item:
        i = entry["i"]
        return Item(f"small:{i}", f"order-{d.order}", lambda: self.run_small(d, i),
                    lambda out: self._check(entry, out))

    def _large_item(self, entry, d) -> Item:
        return Item(f"large:{entry['j']}", f"order-{d.order}", lambda: self.run_large(d),
                    lambda out: self._check(entry, out))

    def reference(self) -> dict:
        small, large = self._pool()
        ref = {"small": {}, "large": []}
        for o in SMALL_ORDERS:
            if len(small[o]) < POOL_PER_ORDER:
                raise RuntimeError(f"pool stream too short for order {o}")
            rows = []
            for i, d in small[o]:
                t = time.perf_counter()
                out = self.run_small(d, i)
                cost = (time.perf_counter() - t) * 1e3
                if self.bracket_sound(out):
                    raise RuntimeError(f"unsound bracket on pool instance {i}")
                rows.append({"i": i, "cost_ms": round(cost, 2), **self.canon(out)})
            ref["small"][str(o)] = rows
            print(f"certify order {o}: {len(rows)} instances", file=sys.stderr)
        for j, d in large:
            t = time.perf_counter()
            out = self.run_large(d)
            cost = (time.perf_counter() - t) * 1e3
            ref["large"].append({"j": j, "cost_ms": round(cost, 2), **self.canon(out)})
        return ref


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


class Ladder(Workload):
    """Float analysis of example1 / example2 along jittered geometric n-grids."""

    name = "ladder"
    min_rounds = 8
    trace_rounds = 2
    tail_q = 0.94  # mid-way through the top 2 of 25: example1 n~1000 and the sweep

    def setup(self):
        c = self.ss.constructions
        self.f = c.f_power(0.5)
        self.e1 = self.ss.build_example1(a=0.5, f=self.f)
        self.e2 = self.ss.build_example2(c.a_power(-0.75))

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.seed}:ladder:{r}")

        def jitter(base):
            return max(2, round(base * (1 + GRID_JITTER * (2 * rng.random() - 1))))

        # Green sums follow the grid point, not the jittered n, so no seed
        # turns them on or off at the top point (they cost 4x that item)
        items = [self._grid_item("example1", self.e1, jitter(b), round(b) <= GREEN_N_MAX)
                 for b in E1_GRID]
        items += [self._grid_item("example2", self.e2, jitter(b), round(b) <= GREEN_N_MAX)
                  for b in E2_GRID]
        for label, fam in (("example1", self.e1), ("example2", self.e2)):
            items.append(Item(f"classify:{label}", "classify",
                              lambda fam=fam: self.ss.classify_recurrence(
                                  fam, n_max=CLASSIFY_N_MAX, p_max=CLASSIFY_P_MAX),
                              lambda v, label=label: self._check_classify(label, v)))
        items.append(Item("sweep", "sweep", self._run_sweep, self._check_sweep))
        return items

    def _grid_item(self, label, fam, n, green) -> Item:
        def run():
            ss = self.ss
            d = ss.truncate(fam, n)
            lam = ss.perron_root(d)
            omega = ss.sup_cycle_gain(d, max_length=n, proper_only=False)
            sums = ss.green_partial_sums(d, 0, lam, GREEN_P_MAX) if green else None
            return lam, omega.value, sums

        check = self._check_e1 if label == "example1" else self._check_e2
        return Item(f"{label}:{n}", label, run, lambda out: check(n, *out))

    def _run_sweep(self):
        ss = self.ss
        spec = ss.SweepSpec("example1", SWEEP_PARAMS, SWEEP_GRID, mode="float", compute_fvs=False)
        return ss.run_sweep(spec, progress=io.StringIO())

    # -- oracles: every cycle of example1 passes through vertex 0 -------------

    def _first_returns(self, n):
        """Weights g_m of the first-return cycles at vertex 0, m = 1..n."""
        return [0.5 * self.f(1)] + [self.f(m) for m in range(2, n + 1)]

    def _e1_root_and_omega(self, n, lam, omega):
        g = self._first_returns(n)
        want = max([g[0]] + [g[m - 1] ** (1 / m) for m in range(2, n + 1)])
        if not _close(omega, want, 1e-9):
            return f"omega {omega!r} != oracle {want!r}"
        renewal = sum(gm * lam ** -(m + 1) for m, gm in enumerate(g))
        if not (omega <= lam * (1 + 1e-12) and lam < 1 and abs(renewal - 1) <= 1e-8):
            return f"root {lam!r} fails the renewal equation (residual {renewal - 1:.3g})"
        return None

    def _check_e1(self, n, lam, omega, sums):
        bad = self._e1_root_and_omega(n, lam, omega)
        if bad:
            return False, False, bad
        if sums is not None:
            g = self._first_returns(n)
            u = [1.0]
            for p in range(1, GREEN_P_MAX + 1):
                u.append(sum(g[m - 1] * u[p - m] for m in range(1, min(p, n) + 1)))
            want = sum(up * lam ** -p for p, up in enumerate(u))
            if not _close(float(sums[-1]), want, 1e-8):
                return False, False, f"green sum {sums[-1]!r} != renewal oracle {want!r}"
        return True, True, ""

    def _check_e2(self, n, lam, omega, sums):
        s = math.fsum(k ** -1.5 for k in range(1, n))
        if not _close(lam, math.sqrt(s), 1e-10):
            return False, False, f"root {lam!r} != closed form {math.sqrt(s)!r}"
        if abs(omega - 1.0) > 1e-12:
            return False, False, f"omega {omega!r} != 1"
        if sums is not None:
            q = s / lam**2
            want = math.fsum(q**k for k in range(GREEN_P_MAX // 2 + 1))
            if not _close(float(sums[-1]), want, 1e-8):
                return False, False, f"green sum {sums[-1]!r} != closed form {want!r}"
        return True, True, ""

    def _check_classify(self, label, verdict):
        want = self.ref["classify"][label]
        got = [verdict.verdict, verdict.confidence]
        if got != want:
            return False, False, f"classify {label}: {got} != reference {want}"
        # example2 declares structural facts, so certified is its strongest verdict;
        # example1 with f_power declares no certificate to earn
        return True, label != "example2" or verdict.confidence == "certified", ""

    def _check_sweep(self, rows):
        if [row["n"] for row in rows] != list(SWEEP_GRID):
            return False, False, "sweep rows do not follow the grid"
        for row in rows:
            if row["fvs_size"] != "" or isinstance(row["lambda_n"], str):
                return False, False, f"sweep row {row}"
            bad = self._e1_root_and_omega(row["n"], row["lambda_n"], row["omega_n"])
            if bad:
                return False, False, f"sweep n={row['n']}: {bad}"
        return True, True, ""

    def reference(self) -> dict:
        self.setup()
        return {"classify": {
            label: [v.verdict, v.confidence]
            for label, fam in (("example1", self.e1), ("example2", self.e2))
            for v in [self.ss.classify_recurrence(fam, n_max=CLASSIFY_N_MAX, p_max=CLASSIFY_P_MAX)]
        }}


# ---------------------------------------------------------------------------
# transversal
# ---------------------------------------------------------------------------


class Transversal(Workload):
    """min_cycle_transversal on beaded-chain truncations and random order-9 digraphs."""

    name = "transversal"
    # A round has 5 items under 0.1 s (n = 60, omega, random) and 6 over 0.3 s
    # (n = 100, capped, n = 146), so the median falls inside the n = 100 block,
    # near its low end, rather than at the midpoint of a gap between the
    # fastest n = 100 and the slowest n = 60 solve.
    min_rounds = 4
    tail_q = 0.75  # inside ranks 6-10 of 11: the n = 100 and capped items

    def setup(self):
        ss = self.ss
        self.hosts = {h: ss.family_from_config(h, {}) for h in HOSTS}
        self.truncations = {
            (h, n): ss.truncate(fam, n)
            for h, fam in self.hosts.items()
            for n in (SMALL_N, MID_N, BIG_N, CAPPED_N)
        }
        host = self.hosts["corollary1"]
        self.omega_hosts = {
            n: ss.truncate(host, host.omega_window(n))
            for n in range(host.facts.l_min, OMEGA_MAX_N + 1)
        }
        self.shift = random.Random(f"{self.seed}:transversal").randrange(len(HOSTS))

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.seed}:transversal:{r}")
        items = []
        for h in HOSTS:
            items.append(self._beaded_item(h, SMALL_N, EXACT_BUDGET))
            items.append(self._beaded_item(h, MID_N, EXACT_BUDGET))
        items.append(self._beaded_item(HOSTS[(r + self.shift) % 3], BIG_N, EXACT_BUDGET))
        for k in (1, 2):
            items.append(self._beaded_item(HOSTS[(r + self.shift + k) % 3], CAPPED_N,
                                           CAPPED_BUDGET))
        items.append(self._omega_item([(n, self.fresh(d)) for n, d in self.omega_hosts.items()]))
        for j in range(RANDOM_ITEMS):
            ds = [self.ss.random_strong_digraph(
                random.Random(f"{self.seed}:transversal:{r}:{j}:{k}"), RANDOM_ORDER)
                for k in range(RANDOM_PER_ITEM)]
            items.append(Item(f"random:{r}:{j}", "random-9",
                              lambda ds=ds: [self.ss.min_cycle_transversal(d, budget=EXACT_BUDGET)
                                             for d in ds],
                              lambda res, ds=ds: self._check_random(ds, res)))
        return items

    def _beaded_item(self, host, n, budget) -> Item:
        d = self.fresh(self.truncations[host, n])
        key = f"{host}:{n}:{budget}"
        kind = "capped" if budget == CAPPED_BUDGET else f"{host}-n{n // 50 * 50}"
        return Item(key, kind, lambda: self.ss.min_cycle_transversal(d, budget=budget),
                    lambda res: self._check_beaded(key, d, res))

    def _omega_item(self, group) -> Item:
        """sup_cycle_gain on the window truncation of each n in the group."""
        ns = [n for n, _ in group]
        return Item("omega", "omega",
                    lambda: [self.ss.sup_cycle_gain(d, max_length=n, proper_only=False)
                             for n, d in group],
                    lambda gains: self._check_omega(ns, gains))

    @staticmethod
    def _valid(d, res) -> str | None:
        if res.size != len(res.vertices) or not acyclic_without(d, res.vertices):
            return f"{sorted(res.vertices)} is not a cycle transversal"
        return None

    def _check_beaded(self, key, d, res):
        bad = self._valid(d, res)
        if bad:
            return False, False, bad
        want = self.ref["beaded"][key]
        exact = res.optimality == "exact"
        if want["optimality"] == "exact":
            ok = res.size == want["size"] if exact else res.size >= want["size"]
        else:  # the seed commit only knows an upper bound here
            ok = res.size <= want["size"] if exact else True
        if not ok:
            return False, False, f"{key}: size {res.size} ({res.optimality}) vs reference {want}"
        return True, exact, ""

    def _check_omega(self, ns, gains):
        for n, gain in zip(ns, gains, strict=True):
            w, length = self.ref["omega"][str(n)]
            if gain != self.ss.Gain(Fraction(w), length):
                return False, False, f"omega_{n} = {gain} != reference {w}^(1/{length})"
            if not 1 - gain.value < Fraction(1, 2**n):
                return False, False, f"1 - omega_{n} not below 2^-{n}"
        return True, True, ""

    def _check_random(self, ds, results):
        exact = True
        for d, res in zip(ds, results, strict=True):
            bad = self._valid(d, res)
            if bad:
                return False, False, bad
            best = brute_min_fvs(d)
            if (res.optimality == "exact" and res.size != best) or res.size < best:
                return False, False, f"size {res.size} ({res.optimality}) vs brute force {best}"
            exact = exact and res.optimality == "exact"
        return True, exact, ""

    def reference(self) -> dict:
        self.setup()
        ss = self.ss
        beaded = {}
        for (h, n), d in sorted(self.truncations.items()):
            budget = CAPPED_BUDGET if n == CAPPED_N else EXACT_BUDGET
            t = time.perf_counter()
            res = ss.min_cycle_transversal(d, budget=budget)
            beaded[f"{h}:{n}:{budget}"] = {
                "size": res.size, "optimality": res.optimality,
                "cost_ms": round((time.perf_counter() - t) * 1e3, 2),
            }
            print(f"transversal {h} n={n}: {beaded[f'{h}:{n}:{budget}']}", file=sys.stderr)
        omega = {}
        for n, d in self.omega_hosts.items():
            g = ss.sup_cycle_gain(d, max_length=n, proper_only=False)
            omega[str(n)] = [str(Fraction(g.weight)), g.length]
        return {"beaded": beaded, "omega": omega}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli(Workload):
    """substochastic commands in subprocesses, one at a time."""

    name = "cli"
    min_rounds = 3
    tail_q = 0.55  # in the 5th of the 8 command latencies

    def setup(self):
        ss = self.ss
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        # charpoly inputs: certify pool instances of order 7 and 8, whose
        # coefficient digests the certify reference holds
        pool = self.all_ref["certify"]["small"]
        self.cp_digest = {e["i"]: e["cp"] for o in (7, COATES_MAX_ORDER) for e in pool[str(o)]}
        stream = ss.inequalities.instance_stream(POOL_SEED, 1 + max(self.cp_digest),
                                                 max(SMALL_ORDERS))
        self.coates = {i: d for i, d in stream if i in self.cp_digest}
        self.charpoly_pool = sorted(self.coates)
        self.file_dir = os.path.join(self.out_dir, "cli")
        os.makedirs(self.file_dir, exist_ok=True)
        self.fvs_host = ss.truncate(ss.family_from_config("corollary1", {}), 100)
        self.files = {}
        for r in range(4):
            self._digraph_file(r)

    def _digraph_file(self, r):
        """(pool index, path) of the digraph JSON that round r's charpoly reads."""
        if r not in self.files:
            rng = random.Random(f"{self.seed}:cli:{r}")
            i = rng.choice(self.charpoly_pool)
            path = os.path.join(self.file_dir, f"digraph-{r}.json")
            with open(path, "w") as fh:
                fh.write(self.coates[i].to_json())
            self.files[r] = (i, path)
        return self.files[r]

    def commands(self, r) -> list:
        rng = random.Random(f"{self.seed}:cli:{r}")
        i, path = self._digraph_file(r)
        vseed = str(rng.choice(VERIFY_SEEDS))
        return [
            ("verify-bh", ["verify", "boyle-handelman", "--count", "100", "--seed", vseed]),
            ("verify-conjecture", ["verify", "conjecture", "--count", "100", "--seed", vseed]),
            ("perron", ["spectral", "perron", "--family", "example1", "--n", "3000",
                        "--mode", "float"]),
            ("sweep", ["sweep", "--family", "example1", "--n-grid", "100,1000,3000", "--no-fvs"]),
            ("fvs", ["cycles", "fvs", "--family", "corollary1", "--n", "100",
                     "--budget", str(CLI_FVS_BUDGET)]),
            ("classify", ["classify", "--family", "example2", "--n-max", "120",
                          "--p-max", "1000"]),
            ("construct", ["construct", "example2", "--emit-truncation", "50"]),
            ("charpoly", ["spectral", "charpoly", "--digraph", path, "--method", "coates"]),
        ], i

    def round(self, r: int) -> list:
        cmds, pool_index = self.commands(r)
        items = []
        for j, (kind, args) in enumerate(cmds):
            key = f"{kind}:{args[args.index('--seed') + 1]}" if "--seed" in args else kind
            items.append(Item(key, kind, lambda args=args, j=j: self.invoke(args, f"{r}-{j}"),
                              lambda out, kind=kind, args=args: self._check(kind, args, out,
                                                                           pool_index)))
        return items

    def invoke(self, args, tag):
        """Run one command; traced runs go through cli_child.py, which writes spans."""
        if self.tracer is None:
            proc = self._spawn([sys.executable, "-m", "substochastic.cli", *args])
            return proc.returncode, proc.stdout, proc.stderr, None
        spans = os.path.join(self.out_dir, "cli-spans", f"{tag}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        proc = self.tracer.wrap("cli.process", self._spawn)([sys.executable, child, spans, *args])
        return proc.returncode, proc.stdout, proc.stderr, spans

    def _spawn(self, cmd):
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)

    # -- checks ----------------------------------------------------------------

    def _check(self, kind, args, out, pool_index):
        code, stdout, stderr, _ = out
        try:
            ok, msg = self._check_output(kind, args, code, stdout, pool_index)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ok, msg = False, f"unparseable output: {exc!r}"
        if not ok:
            return False, False, f"{' '.join(args)}: {msg} (exit {code}; {stderr.strip()[-200:]})"
        return True, code == 0, ""

    def _check_output(self, kind, args, code, stdout, pool_index):
        ref = self.ref
        if kind == "sweep":
            rows = self._sweep_rows(stdout)
            same = [r[0] for r in rows] == [r[0] for r in ref["sweep"]] and all(
                _close(a, b, 1e-9) and r[3] == w[3]
                for r, w in zip(rows, ref["sweep"]) for a, b in zip(r[1:3], w[1:3]))
            return code == 0 and same, "sweep rows differ"
        payload = json.loads(stdout)
        if kind.startswith("verify"):
            vseed = args[args.index("--seed") + 1]
            return self.verify_canon(kind, code, payload) == ref[kind][vseed], "verify report differs"
        if kind == "perron":
            return code == 0 and _close(payload["perron_root"], ref["perron"], 1e-9), "root differs"
        if kind == "fvs":
            want = ref["fvs"]
            if not acyclic_without(self.fvs_host, [v - 1 for v in payload["vertices"]]):
                return False, "not a cycle transversal"
            if want["optimality"] == "exact" and payload["optimality"] == "exact":
                return payload["size"] == want["size"] and code == 0, "size differs"
            return payload["size"] >= want["size"], "size below the exact minimum"
        if kind == "classify":
            return (code == 0 and [payload["verdict"], payload["confidence"]]
                    == ["recurrent", "certified"]), "verdict differs"
        if kind == "construct":
            return code == 0 and digest([json.dumps(payload, sort_keys=True)]) == ref["construct"], \
                "truncation differs"
        if kind == "charpoly":
            want = self.cp_digest[pool_index]
            return code == 0 and digest(payload["coefficients"]) == want, "coefficients differ"
        raise ValueError(f"unknown command kind {kind}")

    @staticmethod
    def verify_canon(kind, code, payload):
        canon = [code, payload["ok"], payload["instances_tested"], len(payload["violations"])]
        if kind == "verify-conjecture":
            canon += [digest([json.dumps(payload["findings"], sort_keys=True)]),
                      payload["min_margin"]]
        return canon

    @staticmethod
    def _sweep_rows(stdout):
        lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        return [[int(row["n"]), float(row["lambda_n"]), float(row["omega_n"]), row["fvs_size"]]
                for row in rows]

    def reference(self) -> dict:
        self.setup()
        ref = {}
        for kind, vs in (("verify-bh", "boyle-handelman"), ("verify-conjecture", "conjecture")):
            ref[kind] = {}
            for s in VERIFY_SEEDS:
                code, out, _, _ = self.invoke(["verify", vs, "--count", "100", "--seed", str(s)], "ref")
                ref[kind][str(s)] = self.verify_canon(kind, code, json.loads(out))
            print(f"cli {kind}: {len(VERIFY_SEEDS)} seeds", file=sys.stderr)
        cmds, _ = self.commands(0)
        by_kind = dict(cmds)
        code, out, _, _ = self.invoke(by_kind["perron"], "ref")
        ref["perron"] = json.loads(out)["perron_root"]
        code, out, _, _ = self.invoke(by_kind["sweep"], "ref")
        ref["sweep"] = self._sweep_rows(out)
        code, out, _, _ = self.invoke(by_kind["fvs"], "ref")
        payload = json.loads(out)
        ref["fvs"] = {"size": payload["size"], "optimality": payload["optimality"]}
        code, out, _, _ = self.invoke(by_kind["construct"], "ref")
        ref["construct"] = digest([json.dumps(json.loads(out), sort_keys=True)])
        return ref


WORKLOADS = {w.name: w for w in (Certify, Ladder, Transversal, Cli)}
