"""The benchmark's workloads.

A workload object does its set-up in ``__init__`` (fixtures, checking
references, cache warm-up, one untimed operation), then serves operations:
``op(i)`` is the timed call into ``catdom`` for operation ``i`` and
``check(i, out)`` raises ``CheckFailed`` when its output is wrong.
``counts(out)`` gives the per-operation work counters the traced run reports.
Every operation of a workload is the same call; only its seed differs, and
that seed is derived from the workload seed, so one workload seed always
gives the same inputs.

Only public ``catdom`` entry points are called, looked up at call time so
the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import catdom as cd
from catdom import cli

PINNED = Path(__file__).resolve().parent / "pinned.json"

# The default four-mechanism grid of ``run_experiment``, written out here so
# the check does not take its expectation from the code it checks.
GRID = (("sd", "opt"), ("sd", "pess"), ("balanced", "opt"), ("balanced", "pess"))
PHIS = (0.5, 1.0)

MALLOWS_LAYERS = (
    "domain.Preference",
    "domain.Preference.rank_of",
    "mallows.run_experiment",
    "mallows.uniform_preference",
    "mallows.sample_mallows",
    "engine.run_csam",
    "engine.optimistic_choice",
    "engine.pessimistic_comparison",
    "orders.PickingOrder",
)


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def op_seed(seed: int, i: int) -> int:
    data = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=4).digest()
    return int.from_bytes(data, "big")


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rss_mb() -> float:
    """Resident set size of this process now (Linux)."""
    import resource

    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class MallowsStudy:
    """Mallows expected-rank study: one op runs ``run_experiment`` on every
    (p, n values) pair of ``specs`` with the default mechanism grid."""

    expected_layers = MALLOWS_LAYERS

    def __init__(self, seed: int, workdir: Path, specs, samples: int):
        self.seed = seed
        self.specs = specs
        self.samples = samples
        self.info: dict = {}
        # Worst-case rank bounds per (family, behavior, n, p), the ceiling for
        # every realized rank and hence for every mean.
        self.bounds = {}
        for p, n_values in specs:
            for n in n_values:
                agents = list(range(1, n + 1))
                orders = {
                    "sd": cd.serial_dictatorship_order(agents, p),
                    "balanced": cd.balanced_order(agents, p),
                }
                for family, behavior in GRID:
                    b = cd.OPTIMISTIC if behavior == "opt" else cd.PESSIMISTIC
                    report = cd.worst_case_report(orders[family], [b] * n)
                    self.bounds[(family, behavior, n, p)] = (
                        report.utilitarian,
                        report.egalitarian,
                    )
        self._warm_sampler()
        self.check(-1, self.op(-1))

    def _warm_sampler(self) -> None:
        """First Mallows draw per (shape, phi): this fills the sampler's
        weight cache. Its time and the memory it keeps are reported."""
        import numpy as np
        from time import perf_counter

        rng = np.random.default_rng(self.seed)
        cold_s = 0.0
        before = rss_mb()
        for p, n_values in self.specs:
            for n in n_values:
                reference = cd.uniform_preference(cd.DomainShape(n, p), rng)
                for phi in PHIS:
                    t0 = perf_counter()
                    cd.sample_mallows(cd.MallowsParams(reference, phi), rng)
                    cold_s += perf_counter() - t0
        self.info["sampler_cold_s"] = cold_s
        self.info["sampler_cold_mb"] = rss_mb() - before

    def op(self, i: int):
        s = op_seed(self.seed, i)
        return [
            cd.run_experiment(
                cd.ExperimentConfig(
                    p=p, n_values=n_values, phis=PHIS, samples=self.samples, seed=s
                )
            )
            for p, n_values in self.specs
        ]

    def check(self, i: int, out) -> None:
        s = op_seed(self.seed, i)
        if len(out) != len(self.specs):
            raise CheckFailed(f"{len(out)} result lists for {len(self.specs)} calls")
        for (p, n_values), rows in zip(self.specs, out):
            expected = {(f, b, n, p, phi) for f, b in GRID for n in n_values for phi in PHIS}
            keys = [(r.mechanism, r.behavior, r.n, r.p, r.phi) for r in rows]
            if len(keys) != len(expected) or set(keys) != expected:
                raise CheckFailed(f"rows {sorted(keys)} do not match the grid")
            for r in rows:
                m = r.n**r.p
                ut_bound, eg_bound = self.bounds[(r.mechanism, r.behavior, r.n, r.p)]
                if r.samples != self.samples or r.seed != s:
                    raise CheckFailed(f"row {r} has the wrong samples or seed")
                if not (r.n <= r.mean_utilitarian <= min(r.n * m, ut_bound)):
                    raise CheckFailed(f"mean utilitarian rank out of range in {r}")
                if not (1 <= r.mean_egalitarian <= min(m, eg_bound)):
                    raise CheckFailed(f"mean egalitarian rank out of range in {r}")
                if r.mean_egalitarian > r.mean_utilitarian:
                    raise CheckFailed(f"egalitarian and utilitarian means disagree in {r}")
                if not (r.ci_utilitarian >= 0 and r.ci_egalitarian >= 0):
                    raise CheckFailed(f"negative confidence half-width in {r}")
        if i == 0:
            # For information only: the random stream may change on purpose.
            self.info["output_digest_op0"] = digest([cd.results_to_csv(rows) for rows in out])

    def counts(self, out) -> dict:
        return {}


class ExactAnalysis:
    """Exact analyses through the CLI: one op runs every entry of ``parts``
    in process with stdout captured. Seeded parts take their seed from a pool of
    ``POOL`` entries whose output digests are pinned in ``pinned.json``; the
    workload seed fixes the order in which ops walk the pool."""

    POOL = 64
    RANDOM_BUDGET = 1000
    BOSSY_COUNT = 150
    SD_COUNT = 30
    expected_layers = (
        "domain.Preference",
        "domain.Preference.rank_of",
        "engine.run_csam",
        "engine.optimistic_choice",
        "engine.pessimistic_comparison",
        "engine.direct_serial_dictatorship",
        "orders.PickingOrder",
        "orders.analyze_order",
        "bounds.search_orders",
        "bounds.worst_case_report",
        "adversarial.worst_case_profile",
        "adversarial.near_optimal_allocation",
        "spne.solve_spne",
        "axioms.check_strategy_proofness",
        "axioms.check_non_bossiness",
        "axioms.check_category_wise_neutrality",
        "axioms.check_pareto_optimality",
        "cli.main",
    )

    def __init__(self, seed: int, workdir: Path, pinned: dict | None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.order_4x4 = _write(workdir / "order-4x4.json", _balanced_order_doc(4, 4))
        self.order_3x4 = _write(workdir / "order-3x4.json", _balanced_order_doc(3, 4))
        self.profiles_3x4 = [
            _write(workdir / f"profile-3x4-{k}.json", _random_profile_doc(3, 4, 1000 + k))
            for k in range(self.POOL)
        ]
        spne_order = cd.order_from_json(_balanced_order_doc(3, 4))
        self.info = {"spne_states": cd.state_space_size(spne_order)}
        # None skips the digest comparison; pin.py uses it to make the digests.
        self.pinned = pinned
        self.schedule = random.Random(seed).sample(range(self.POOL), self.POOL)
        self.check(-1, self.op(-1))

    def parts(self, k: int) -> list[tuple[str, list[str]]]:
        axioms = ["check-axioms", "--n", "3", "--p", "2", "--mode", "sampled", "--seed", str(k)]
        return [
            ("search-exhaustive", ["search", "--n", "2", "--p", "3", "--behaviors", "opt,opt"]),
            (
                "search-random",
                ["search", "--n", "3", "--p", "3", "--behaviors", "opt,opt,pess",
                 "--mode", "random", "--budget", str(self.RANDOM_BUDGET), "--seed", str(k)],
            ),
            (
                "worst-case",
                ["worst-case", "--order", str(self.order_4x4), "--behaviors", "opt,pess,opt,pess"],
            ),
            (
                "spne",
                ["spne", "--order", str(self.order_3x4), "--profile", str(self.profiles_3x4[k])],
            ),
            ("axioms-bossy-sd", axioms + ["--mechanism", "bossy-sd", "--count", str(self.BOSSY_COUNT)]),
            ("axioms-sd", axioms + ["--mechanism", "sd", "--count", str(self.SD_COUNT)]),
        ]

    def run_parts(self, k: int):
        outs = []
        for name, argv in self.parts(k):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            outs.append((name, code, stdout.getvalue(), stderr.getvalue()))
        return k, outs

    def op(self, i: int):
        return self.run_parts(self.schedule[i % self.POOL])

    def documents(self, out) -> dict:
        k, outs = out
        docs = {}
        for name, code, stdout, stderr in outs:
            if code != 0:
                raise CheckFailed(f"{name} (pool entry {k}) exited {code}: {stderr.strip()}")
            try:
                docs[name] = json.loads(stdout)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"{name} (pool entry {k}) printed no JSON: {exc}") from None
        return docs

    def digests(self, out) -> dict:
        return {name: digest(doc) for name, doc in self.documents(out).items()}

    def check(self, i: int, out) -> None:
        k = out[0]
        docs = self.documents(out)
        if set(docs) != {name for name, _ in self.parts(k)}:
            raise CheckFailed(f"parts {sorted(docs)} ran, expected every part")
        witness = docs["worst-case"]
        realized = witness["realized"]["ranks"]
        bounds = {str(a["agent"]): a["bound"] for a in witness["bounds"]["agents"]}
        if realized != bounds:
            raise CheckFailed(f"witness realized ranks {realized} differ from bounds {bounds}")
        if docs["search-random"]["evaluated"] != self.RANDOM_BUDGET:
            raise CheckFailed("random search did not evaluate its whole budget")
        if self.pinned is not None:
            for name, doc in docs.items():
                want = self.pinned[name]
                want = want[k] if isinstance(want, list) else want
                if digest(doc) != want:
                    raise CheckFailed(f"{name} (pool entry {k}) output differs from its pinned digest")
        if i == 0:
            self.info["output_digest_op0"] = digest(docs)

    def counts(self, out) -> dict:
        docs = self.documents(out)
        exhaustive = docs["search-exhaustive"]
        return {
            "bounds.search_orders.evaluated": exhaustive["evaluated"]
            + docs["search-random"]["evaluated"],
            # exhaustive search only: orders scored out of all (np)! orders
            "bounds.search_orders.evaluated_ratio": exhaustive["evaluated"]
            / math.factorial(exhaustive["order"]["n"] * exhaustive["order"]["p"]),
            "axioms.checked": sum(
                v["checked"]
                for name in ("axioms-bossy-sd", "axioms-sd")
                for v in docs[name]["verdicts"]
            ),
        }


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _balanced_order_doc(n: int, p: int) -> dict:
    """Forward agent pass in odd categories, reversed pass in even ones."""
    rounds = []
    for i in range(1, p + 1):
        agents = range(1, n + 1) if i % 2 else range(n, 0, -1)
        rounds.extend([j, i] for j in agents)
    return {"n": n, "p": p, "rounds": rounds}


def _random_profile_doc(n: int, p: int, seed: int) -> dict:
    """Uniform random profile drawn with the benchmark's own generator, so a
    change to catdom's samplers leaves the fixtures as they are."""
    rng = random.Random(seed)
    bundles = [list(b) for b in itertools.product(range(1, n + 1), repeat=p)]
    preferences = []
    for _ in range(n):
        rng.shuffle(bundles)
        preferences.append([list(b) for b in bundles])
    return {"n": n, "p": p, "preferences": preferences}


def make(name: str, seed: int, workdir: Path):
    if name == "mallows-study":
        return MallowsStudy(seed, workdir, specs=((2, (4, 8)), (4, (3, 4))), samples=2)
    if name == "mallows-wide":
        return MallowsStudy(seed, workdir, specs=((6, (4,)),), samples=1)
    if name == "exact-analysis":
        return ExactAnalysis(seed, workdir, pinned=json.loads(PINNED.read_text()))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mallows-study", "mallows-wide", "exact-analysis")
