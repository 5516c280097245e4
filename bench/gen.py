"""Seeded input generator for the benchmark workloads.

Runs in its own process, before the measured one, so that building the
inputs never shows in the measured process's time or peak memory.  It writes
into ``--out``:

* ``manifest.json``: the CLI operations of one pass, in order, each with the
  outcome it must produce (exit code and report content);
* for the operator workloads, ``spec.json`` (the polydomain), ``planted.mtx``
  (a weighted multi-Toeplitz operator built from a known symbol),
  ``planted-symbol.json`` (that symbol) and ``spoiled.mtx`` (the planted
  operator with one entry changed).

The same ``--workload``/``--seed`` always writes byte-identical files.  The
battery seeds, the planted symbol and the spoiled entry come from this file's
own random generator, not from the program's sampling helpers; the program's
``monomial`` and ``save_matrix`` turn the symbol into the planted operator.

Usage: ``python3 bench/gen.py --workload wide --seed 3 --out DIR``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# The polydomain of the operator workloads, the same in every factor: every
# word of length <= 2, with letter-dependent coefficients.  It is fixed rather
# than drawn because the cost of the universal model's checks depends on the
# coefficients (ARPACK's convergence on the defect iterates varied 2.5x between
# drawn specs); the seed draws the planted symbol and the spoiled entry.
# Coefficients that depend on word length only are avoided: they make every
# defect iterate have L+1 distinct eigenvalues, a fast, untypical case.
SPEC_COEFFS = {(1,): 1.0, (2,): 0.5, (1, 1): 0.25, (1, 2): 0.25, (2, 1): 0.25, (2, 2): 0.25}

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS: dict[str, dict] = {
    # many small spaces, each built and used once: `verify --trunc 4` over
    # consecutive battery seeds, plus a repeat of the first one
    "battery": {"kind": "battery", "trunc": 4, "seeds": 24},
    # one big two-factor space (dim 3969): classification and the structural
    # equation on dense dim^2 arrays, no CP maps
    "wide": {
        "kind": "operator",
        "n": (2, 2),
        "m": (2, 2),
        "trunc": 5,
        "spoil": "structural",
        "model": False,
        "coeffs": SPEC_COEFFS,
        "terms": ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)),
    },
    # one long single-factor space (dim 2047): the universal model's CP maps,
    # classification and the structural equation
    "deep": {
        "kind": "operator",
        "n": (2,),
        "m": (3,),
        "trunc": 10,
        "spoil": "scaling",
        "model": True,
        "coeffs": SPEC_COEFFS,
        "terms": ((0,), (1,), (1,), (2,), (2,), (3,), (3,), (4,)),
    },
}

# size of the entry change that spoils the planted operator
SPOIL = 1e-3


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _spec(n, m, coeffs: dict) -> dict:
    entries = [
        {"i": i + 1, "word": list(w), "a": a}
        for i, ni in enumerate(n)
        for w, a in coeffs.items()
        if max(w) <= ni
    ]
    return {"k": len(n), "n": list(n), "m": list(m), "coeffs": entries}


def _draw_word(rng: np.random.Generator, n: int, length: int) -> tuple[int, ...]:
    return tuple(int(g) for g in rng.integers(1, n + 1, size=length))


def _draw_symbol(rng: np.random.Generator, n, terms) -> list[dict]:
    """Distinct reduced pairs with the stated per-factor lengths, random letters and sides."""
    seen = set()
    out = []
    for lengths in terms:
        while True:
            left, right = [], []
            for ni, d in zip(n, lengths):
                w = list(_draw_word(rng, ni, d))
                if rng.random() < 0.5:
                    left.append(w)
                    right.append([])
                else:
                    left.append([])
                    right.append(w)
            key = json.dumps([left, right])
            if key not in seen:
                break
        seen.add(key)
        c = complex(rng.standard_normal(), rng.standard_normal())
        c /= max(1.0, abs(c))
        out.append({"left": left, "right": right, "re": [[c.real]], "im": [[c.imag]]})
    return out


def _is_suffix(short: tuple, long: tuple) -> bool:
    return len(short) <= len(long) and long[len(long) - len(short):] == short


def _comparable(a, b) -> bool:
    return all(_is_suffix(x, y) or _is_suffix(y, x) for x, y in zip(a, b))


def _spoil_pair(rng: np.random.Generator, basis, n, trunc: int, kind: str, index_of):
    """Basis indices of the entry to change.

    ``structural``: a non-comparable pair, which a multi-Toeplitz operator
    must leave zero.  ``scaling``: a comparable pair whose reduced
    representative is a different pair (a common nonempty suffix), so only
    the weight-ratio relation can catch it.
    """
    dim = len(basis)
    if kind == "structural":
        while True:
            r, c = (int(x) for x in rng.integers(0, dim, size=2))
            if not _comparable(basis[r], basis[c]):
                return r, c
    row, col = [], []
    for ni in n:
        gamma = _draw_word(rng, ni, int(rng.integers(1, trunc)))
        sigma = _draw_word(rng, ni, int(rng.integers(1, trunc - len(gamma) + 1)))
        if rng.random() < 0.5:
            row.append(sigma + gamma)
            col.append(gamma)
        else:
            row.append(gamma)
            col.append(sigma + gamma)
    return index_of(row), index_of(col)


def _battery_ops(params: dict, seed: int) -> list[dict]:
    base = seed * params["seeds"]
    seeds = list(range(base, base + params["seeds"])) + [base]
    ops = []
    for j, b in enumerate(seeds):
        expect = {"exit": 0, "passed": True}
        name = f"verify-{b}"
        if j == len(seeds) - 1:
            expect["same_stdout_as"] = 0
            name += "-repeat"
        ops.append({
            "name": name,
            "argv": ["verify", "--seed", str(b), "--trunc", str(params["trunc"])],
            "expect": expect,
        })
    return ops


def _operator_inputs(params: dict, seed: int, out: Path) -> list[dict]:
    from polytoeplitz import linalg
    from polytoeplitz.freemonoid import IndexPair, MultiWord, Word
    from polytoeplitz.model import FockSpace, monomial
    from polytoeplitz.weights import spec_from_json

    rng = np.random.default_rng([seed, len(params["n"]), params["trunc"]])
    n, L = tuple(params["n"]), params["trunc"]
    spec_doc = _spec(n, params["m"], params["coeffs"])
    _dump(out / "spec.json", spec_doc)
    terms = _draw_symbol(rng, n, params["terms"])
    _dump(out / "planted-symbol.json", {"k": len(n), "n": list(n), "coeff_dim": 1, "terms": terms})

    space = FockSpace(spec_from_json(spec_doc), (L,) * len(n))

    def multiword(parts) -> MultiWord:
        return MultiWord(tuple(Word(tuple(p), ni) for p, ni in zip(parts, n)))

    planted = None
    for t in terms:
        pair = IndexPair(multiword(t["left"]), multiword(t["right"]))
        mat = monomial(space, pair, np.array([[t["re"][0][0] + 1j * t["im"][0][0]]])).matrix
        planted = mat if planted is None else planted + mat
    planted = planted.tocoo()
    with open(out / "planted.mtx", "w") as fh:
        linalg.save_matrix(fh, planted)

    basis = [tuple(w.letters for w in mw.parts) for mw in space.basis()]
    r, c = _spoil_pair(rng, basis, n, L, params["spoil"], lambda parts: space.index_of(multiword(parts)))
    spoiled = sp.coo_matrix(
        (np.append(planted.data, SPOIL), (np.append(planted.row, r), np.append(planted.col, c))),
        shape=planted.shape,
    )
    with open(out / "spoiled.mtx", "w") as fh:
        linalg.save_matrix(fh, spoiled)
    worst = [space.multiword_at(r).render(), space.multiword_at(c).render()]

    common = ["--spec", "spec.json", "--trunc", str(L)]
    ops = []
    if params["model"]:
        ops.append({"name": "model", "argv": ["model", *common], "expect": {"exit": 0, "passed": True}})
    ops += [
        {
            "name": "toeplitz-planted",
            "argv": ["toeplitz", *common, "--operator", "planted.mtx", "--out", "out/planted"],
            "expect": {"exit": 0, "verdict": True, "symbol": "planted-symbol.json", "symbol_tol": 1e-10},
        },
        {
            "name": "toeplitz-spoiled",
            "argv": ["toeplitz", *common, "--operator", "spoiled.mtx", "--out", "out/spoiled"],
            "expect": {"exit": 1, "verdict": False, "worst_pair": worst},
        },
        {
            "name": "brown-halmos",
            "argv": ["brown-halmos", *common, "--operator", "planted.mtx"],
            "expect": {"exit": 0, "max_residual": 1e-9},
        },
    ]
    return ops


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs and manifest of ``workload`` at ``seed`` into ``out``."""
    params = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    if params["kind"] == "battery":
        ops = _battery_ops(params, seed)
    else:
        ops = _operator_inputs(params, seed, out)
    _dump(out / "manifest.json", {"workload": workload, "seed": seed, "ops": ops})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
