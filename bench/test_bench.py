"""Tests of the benchmark itself, on small versions of its workloads.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import polytoeplitz.cli  # noqa: E402,F401  (loads every program module)

SMALL = {
    "battery": {"kind": "battery", "trunc": 2, "seeds": 1},
    "wide": dict(gen.WORKLOADS["wide"], trunc=2, terms=((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))),
    "deep": dict(gen.WORKLOADS["deep"], trunc=5, terms=((0,), (1,), (2,), (3,))),
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    for name, params in SMALL.items():
        monkeypatch.setitem(gen.WORKLOADS, name, params)


def _run_small(workload, tmp_path, monkeypatch, tracer=None, seed=3):
    gen.generate(workload, seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    return measure.run(0.0, tracer)


def _function_objects() -> dict:
    """Every function bound in a program namespace, plus the traced FockSpace methods."""
    from polytoeplitz.model import FockSpace

    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "polytoeplitz" or name.startswith("polytoeplitz."):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    out[(name, attr)] = value
    for attr in ("__init__", "pair_structure", "creation_product"):
        out[("FockSpace", attr)] = FockSpace.__dict__[attr]
    return out


@pytest.mark.parametrize("workload", ["battery", "wide", "deep"])
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen.generate(workload, 5, a)
    gen.generate(workload, 5, b)
    gen.generate(workload, 6, c)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert any((a / name).read_bytes() != (c / name).read_bytes() for name in names)


def test_untraced_run_leaves_function_objects_unchanged(tmp_path, monkeypatch):
    before = _function_objects()
    result = _run_small("deep", tmp_path, monkeypatch)
    after = _function_objects()
    assert result["failed"] == 0
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_rebinds_direct_imports_and_uninstalls(tmp_path):
    from polytoeplitz import cli, toeplitz

    before = _function_objects()
    tracer = tracing.Tracer().install()
    try:
        assert cli.is_multi_toeplitz is toeplitz.is_multi_toeplitz
        assert cli.is_multi_toeplitz is not before[("polytoeplitz.toeplitz", "is_multi_toeplitz")]
    finally:
        tracer.uninstall()
    after = _function_objects()
    assert all(after[key] is before[key] for key in before)


# the layer spans each workload is predicted to be heavy in (bench/README.md)
HEAVY = {
    "battery": ["weights.build_weight_table", "model.creation_product", "model.monomial",
                "toeplitz.evaluate_at_model", "cpmaps.phi_map", "cpmaps.is_member", "linalg.op_norm",
                "linalg.psd_check", "freemonoid.enumerate_words"],
    "wide": ["toeplitz.is_multi_toeplitz", "toeplitz.extract_fourier", "model.pair_structure",
             "linalg.load_matrix", "linalg.op_norm", "brownhalmos.bh_residual"],
    "deep": ["cpmaps.phi_map", "cpmaps.defect", "cpmaps.is_pure", "model.pair_structure",
             "toeplitz.is_multi_toeplitz", "brownhalmos.bh_residual", "freemonoid.enumerate_words"],
}


@pytest.mark.parametrize("workload", ["battery", "wide", "deep"])
def test_each_layer_gets_spans_where_predicted_heavy(workload, tmp_path, monkeypatch):
    tracer = tracing.Tracer().install()
    try:
        result = _run_small(workload, tmp_path, monkeypatch, tracer)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0, result["failures"]
    layers = tracing.summarize(tracer.spans, tracer.counts, len(result["passes"]))
    for name in HEAVY[workload]:
        assert layers[f"{name}.self_s"] > 0.0, name
    subcommands = {span[0] for span in tracer.spans if span[0].startswith("cli.")}
    assert all(layers[f"{cmd}_s"] > 0.0 for cmd in subcommands)
    assert 0.0 < layers["model.comparable_fraction"] < 1.0


def test_injected_crash_counts_in_fail_ratio(tmp_path, monkeypatch):
    def crash(cfg, args):
        raise RuntimeError("injected")

    monkeypatch.setattr(polytoeplitz.cli, "cmd_brown_halmos", crash)
    result = _run_small("wide", tmp_path, monkeypatch)
    assert (result["attempted"], result["failed"], result["incorrect"]) == (3, 1, 0)
    assert "RuntimeError: injected" in result["failures"][0]
    metrics = run.end_to_end(result, [1.0])
    assert metrics["ok_ratio"][0] == pytest.approx(2 / 3)


def test_wrong_outputs_are_caught(tmp_path, monkeypatch):
    gen.generate("wide", 3, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["ops"][1]["expect"]["worst_pair"] = ["e", "e"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    symbol = json.loads((tmp_path / "planted-symbol.json").read_text())
    symbol["terms"][0]["re"][0][0] += 1e-8
    (tmp_path / "planted-symbol.json").write_text(json.dumps(symbol))
    monkeypatch.chdir(tmp_path)
    result = measure.run(0.0)
    assert (result["failed"], result["incorrect"]) == (2, 2)
    assert any("worst pair" in f for f in result["failures"])
    assert any("extracted symbol deviates" in f for f in result["failures"])
