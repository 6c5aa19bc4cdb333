"""Seeded inputs for the three workloads.

A workload is one pass: a fixed list of CLI operations.  The seed chooses
the numbers inside the inputs (energies, populations, baths, couplings);
the shape of each pass (which subcommand, which dimension, which flags, in
which position) is the same for every seed, so the cost of a pass barely
depends on the seed and the share of known-fault operations is fixed.

Every operation carries the data its check needs in `expect`.  State files
are written as JSON with `repr`-exact floats, so the program and the checks
read the same numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# a random bath stays at least this far (in beta) from beta_c and beta_h
BATH_MARGIN = 0.05
# position-fixed --random sizes in oracle_sweep (half the operations)
RANDOM_SIZES = (1, 2, 4, 6, 8, 3)
ORACLE_DIMS = (2, 3, 4, 5, 6)
ORACLE_VARIANTS = ("generic", "degenerate", "empty", "bath_zero", "gibbs_tie")
# copies of the variant x dimension grid in one pass, each with its own
# numbers, so a latency percentile rests on several inputs of each shape
ORACLE_REPLICAS = 8
# (fock, steps) per position in jc_series: two small-cavity long series and
# two large-cavity short ones
JC_SHAPES = ((8, 2000), (24, 400), (8, 2000), (32, 300))
QUERY_DIMS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


@dataclass
class Op:
    """One CLI invocation with what its check needs."""

    kind: str
    argv: list[str]
    units: int = 1
    expect: dict = field(default_factory=dict)
    csv: str | None = None
    # fails today because of a named fault in the program
    known_fault: str | None = None


def _num(x: float) -> str:
    return repr(float(x))


class _Files:
    """Writes the generated state files into the run's working directory."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.count = 0

    def state(self, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"state{self.count:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def csv(self, name: str) -> str:
        return os.path.join(self.directory, name)


def _energies(rng, d: int, degenerate: bool = False) -> np.ndarray:
    e = np.sort(rng.uniform(0.0, 2.0, d)) + 0.1 * np.arange(d)
    if degenerate and d >= 3:
        # one repeated level in the middle of the ladder; a fully degenerate
        # qubit would have no temperature, so d = 2 stays non-degenerate
        k = 1 + int(rng.integers(0, d - 2))
        e[k + 1] = e[k]
    return np.round(e, 12)


def _populations(rng, d: int, empty: int | None = None) -> np.ndarray:
    p = rng.dirichlet(np.ones(d))
    if empty is not None:
        p[empty] = 0.0
        p /= p.sum()
    return p


def _coherent_rho(rng, p: np.ndarray) -> np.ndarray:
    """A state with diagonal p and random coherences: D^1/2 C D^1/2 for a
    correlation matrix C, so it is positive semidefinite by construction."""
    d = p.size
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c = g @ g.conj().T
    s = 1.0 / np.sqrt(np.real(np.diag(c)))
    c = c * s[:, None] * s[None, :]
    r = np.sqrt(p)
    rho = r[:, None] * c * r[None, :]
    rho = (rho + rho.conj().T) / 2
    np.fill_diagonal(rho, p)
    return rho


def _doc(e: np.ndarray, p: np.ndarray | None = None, rho: np.ndarray | None = None) -> dict:
    if rho is None:
        return {"energies": e.tolist(), "populations": p.tolist()}
    return {"energies": e.tolist(), "rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()}


def _clear_bath(rng, beta_c: float, beta_h: float) -> float:
    while True:
        b = float(rng.uniform(-3.0, 3.0))
        if abs(b - beta_c) > BATH_MARGIN and abs(b - beta_h) > BATH_MARGIN:
            return b


def _oracle_state(rng, d: int, variant: str):
    """(doc, beta_bath, tie) for one oracle input of the given variant."""
    if variant == "gibbs_tie":
        e = _energies(rng, d)
        b = 0.0 if d % 2 == 0 else float(rng.uniform(-2.0, 2.0))
        return _doc(e, ref.gibbs(e, b)), b, True
    while True:
        e = _energies(rng, d, degenerate=(variant == "degenerate"))
        empty = int(rng.integers(0, d)) if variant == "empty" else None
        p = _populations(rng, d, empty)
        beta_c, beta_h = ref.single_pair(e, p)
        if variant == "bath_zero":
            if abs(beta_c) > BATH_MARGIN and abs(beta_h) > BATH_MARGIN:
                return _doc(e, p), 0.0, False
            continue
        return _doc(e, p), _clear_bath(rng, beta_c, beta_h), False


def _oracle_op(files: _Files, rng, d: int, variant: str, random_n: int | None) -> Op:
    doc, bath, tie = _oracle_state(rng, d, variant)
    argv = ["oracle", files.state(doc), "--beta-bath", _num(bath)]
    units = 1
    expect = {"doc": doc, "beta_bath": bath, "tie": tie}
    if random_n is not None:
        seed = int(rng.integers(0, 2**31 - 1))
        argv += ["--random", str(random_n), "--seed", str(seed)]
        units += 5 * random_n
        expect.update(random=random_n, seed=seed)
    return Op("oracle", argv, units=units, expect=expect)


def oracle_sweep(rng, files: _Files) -> list[Op]:
    ops = []
    for _ in range(ORACLE_REPLICAS):
        for v, variant in enumerate(ORACLE_VARIANTS):
            for k, d in enumerate(ORACLE_DIMS):
                idx = v * len(ORACLE_DIMS) + k
                random_n = RANDOM_SIZES[(idx // 2) % len(RANDOM_SIZES)] if idx % 2 else None
                ops.append(_oracle_op(files, rng, d, variant, random_n))
    return ops


def _jc_op(files: _Files, rng, fock: int, steps: int, index: int) -> Op:
    g = float(rng.uniform(0.05, 0.2))
    t_max = 30.0
    # tau on a grid point of linspace(0, 30, steps + 1), between 10 and 29
    k_tau = int(rng.integers(steps // 3, (29 * steps) // 30))
    tau = t_max * k_tau / steps
    csv = files.csv(f"jc{index}.csv")
    argv = [
        "jc", "--omega", "1.0", "--g", _num(g), "--tau", _num(tau),
        "--fock", str(fock), "--steps", str(steps), "--out", csv,
    ]
    expect = {"g": g, "tau": tau, "fock": fock, "steps": steps, "k_tau": k_tau,
              "rows": sorted(set(rng.integers(0, steps + 1, 16).tolist()) | {0, k_tau, steps})}
    return Op("jc", argv, units=steps + 1, expect=expect, csv=csv)


def jc_series(rng, files: _Files) -> list[Op]:
    return [_jc_op(files, rng, fock, steps, i) for i, (fock, steps) in enumerate(JC_SHAPES)]


def _query_state(rng, d: int, index: int) -> dict:
    """A state of dimension d with coherences; degenerate and empty levels
    at fixed positions of the pass."""
    e = _energies(rng, d, degenerate=(index % 3 == 1))
    empty = int(rng.integers(0, d)) if (index % 4 == 2 and d > 2) else None
    p = _populations(rng, d, empty)
    return _doc(e, rho=_coherent_rho(rng, p))


def _asymptotic_state(rng, d: int, index: int) -> tuple[dict, float]:
    doc = _query_state(rng, d, index)
    e = np.asarray(doc["energies"])
    mean = float(np.asarray(doc["rho_re"]).diagonal() @ e)
    room = min(mean - e[0], e[-1] - mean)
    return doc, float(rng.uniform(0.05, 0.5)) * room


def _qutrit_params(rng) -> tuple[float, float]:
    return float(rng.uniform(0.2, 1.0)), float(rng.uniform(-1.0, 1.0))


MALFORMED = (
    ("non-numeric energies", {"energies": "abc", "populations": [0.5, 0.5]}),
    ("non-numeric population", {"energies": [0.0, 1.0], "populations": ["x", 1]}),
    ("ragged rho_re", {"energies": [0.0, 1.0], "rho_re": [[0.5, 0.0], [0.0]]}),
)
MALFORMED_FAULT = "cli.load_system_file lets a raw ValueError escape cli.main"
COPIES_FAULT = "temperatures.tensor_power_effective caps d**n, not the multisets it enumerates"


def state_queries(rng, files: _Files) -> list[Op]:
    ops: list[Op] = []
    for i in range(30):
        d = QUERY_DIMS[i % len(QUERY_DIMS)]
        doc = _query_state(rng, d, i)
        argv = ["single", files.state(doc)]
        csv = None
        if i % 3 == 0:
            csv = files.csv(f"single{i}.csv")
            argv += ["--out", csv]
        ops.append(Op("single", argv, expect={"doc": doc}, csv=csv))
    for i in range(24):
        doc, delta = _asymptotic_state(rng, QUERY_DIMS[i % len(QUERY_DIMS)], i)
        argv = ["asymptotic", files.state(doc), "--delta", _num(delta), "--expansion"]
        ops.append(Op("asymptotic", argv, expect={"doc": doc, "delta": delta}))
    for i in range(18):
        d = ORACLE_DIMS[i % len(ORACLE_DIMS)]
        ops.append(_oracle_op(files, rng, d, ORACLE_VARIANTS[i % 4], None))
    for i in range(8):
        lam, beta = (1.0, 0.0) if i < 2 else _qutrit_params(rng)
        argv = ["qutrit-catalyst", "--lambda", _num(lam), "--beta", _num(beta)]
        ops.append(Op("qutrit", argv, expect={"lam": lam, "beta": beta}))
    for i in range(4):
        beta = 0.0 if i == 0 else float(rng.uniform(-1.0, 1.0))
        argv = ["qutrit-catalyst", "--beta", _num(beta), "--sweep"]
        ops.append(Op("qutrit_sweep", argv, expect={"beta": beta}))
    for i in range(6):
        lam, beta = _qutrit_params(rng)
        argv = ["qutrit-catalyst", "--lambda", _num(lam), "--beta", _num(beta), "--copies", "12"]
        ops.append(Op("qutrit_copies", argv, expect={"lam": lam, "beta": beta, "copies": 12}))
    for _, doc in MALFORMED:
        ops.append(Op("malformed", ["single", files.state(doc)], known_fault=MALFORMED_FAULT))
    lam, beta = _qutrit_params(rng)
    argv = ["qutrit-catalyst", "--lambda", _num(lam), "--beta", _num(beta), "--copies", "13"]
    ops.append(Op("qutrit_copies", argv, expect={"lam": lam, "beta": beta, "copies": 13},
                  known_fault=COPIES_FAULT))
    # interleave deterministically so heavy queries are spread over the pass
    order = np.random.default_rng(12345).permutation(len(ops))
    return [ops[k] for k in order]


WORKLOADS = {
    "oracle_sweep": oracle_sweep,
    "jc_series": jc_series,
    "state_queries": state_queries,
}


def build(workload: str, seed: int, directory: str) -> tuple[list[Op], list[Op]]:
    """(pass, warm-up operations) for a workload and seed.

    The warm-up runs one operation of each kind before timing, so lazy
    imports and first-call costs land in set-up.  For jc_series it is a
    small instance of the same subcommand.
    """
    files = _Files(directory)
    # numpy seeds must be non-negative
    rng = np.random.default_rng([seed % 2**64, sorted(WORKLOADS).index(workload)])
    ops = WORKLOADS[workload](rng, files)
    if workload == "jc_series":
        return ops, [_jc_op(files, rng, 3, 30, 99)]
    warm = {}
    for op in ops:
        warm.setdefault((op.kind, op.csv is not None), op)
    return ops, list(warm.values())

