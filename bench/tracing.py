"""Span recorder for the traced benchmark run.

:meth:`Tracer.install` wraps every function in the ``__all__`` of the
program's modules, plus ``FockSpace.__init__``, ``FockSpace.pair_structure``
and ``FockSpace.creation_product``, and rebinds each wrapper in every
``polytoeplitz`` namespace that holds the original (``cli`` imports names
directly).  A wrapper records one span per call: name, start, end, parent span
and the growth of the process's peak RSS (``ru_maxrss``) during the call.
Named counts are recorded at the same boundaries.  Spans stay in memory until
:func:`summarize` turns them into per-layer metrics.

The untraced run never creates a :class:`Tracer`, so it runs the program's own
function objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import resource
import sys
import time
from collections import Counter, defaultdict

# the program's layers, one per module, in pipeline order
LAYERS = ("weights", "freemonoid", "model", "toeplitz", "cpmaps", "brownhalmos", "linalg", "sampling")
CLI_COMMANDS = ("verify", "toeplitz", "brown_halmos", "model")
# the functions whose own figures are reported, besides the per-layer totals
SELF_TIMES = (
    "linalg.op_norm", "linalg.psd_check", "linalg.load_matrix", "weights.build_weight_table",
    "freemonoid.enumerate_words", "model.FockSpace", "model.creation_product", "model.monomial",
    "model.pair_structure", "toeplitz.is_multi_toeplitz", "toeplitz.extract_fourier",
    "toeplitz.evaluate_at_model", "toeplitz.homogeneous_part", "toeplitz.pluriharmonic_kernel",
    "cpmaps.phi_map", "cpmaps.defect", "cpmaps.is_pure", "cpmaps.is_member", "cpmaps.berezin_kernel",
    "cpmaps.intertwining_residual", "brownhalmos.bh_residual", "brownhalmos.cauchy_dual_projection",
)
CALL_COUNTS = (
    "linalg.op_norm", "weights.build_weight_table", "freemonoid.enumerate_words", "model.FockSpace",
    "model.creation_product", "model.monomial", "model.pair_structure", "toeplitz.is_multi_toeplitz",
    "toeplitz.evaluate_at_model", "toeplitz.homogeneous_part", "cpmaps.phi_map", "cpmaps.defect",
    "cpmaps.is_member", "brownhalmos.bh_residual",
)
RSS_DELTAS = ("model.pair_structure", "toeplitz.is_multi_toeplitz")
NAMED_COUNTS = (
    "linalg.load_matrix.bytes", "weights.words", "model.pair_structure.bytes",
    "toeplitz.pairs_checked", "cpmaps.phi_map.operand_bytes",
)
MB = 1024.0  # ru_maxrss is in KiB on Linux


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _nbytes(mat) -> int:
    if hasattr(mat, "data") and hasattr(mat, "indices"):  # CSR/CSC
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    if hasattr(mat, "row"):  # COO
        return mat.data.nbytes + mat.row.nbytes + mat.col.nbytes
    return int(getattr(mat, "nbytes", 0))


# -- counts recorded when a call returns ---------------------------------------
# each takes (counts, args, kwargs, result, before) where ``before`` is what the
# matching entry in _BEFORE returned just before the call


def _count_weights(counts, args, kwargs, table, before):
    counts["weights.words"] += sum(len(t) for t in table.tables)


def _count_pairs(counts, args, kwargs, ps, fresh):
    if fresh:  # pair_structure caches; only a build allocates
        counts["model.pair_structure.bytes"] += sum(
            a.nbytes for a in (ps.comp, ps.tau, ps.cls, ps.rep_row, ps.rep_col, ps.tau_rep, ps.s_abs, ps.s_vectors)
        )
        counts["model.pairs_comparable"] += int(ps.comp.sum())
        counts["model.pairs_stored"] += ps.comp.size


def _count_toeplitz(counts, args, kwargs, report, before):
    counts["toeplitz.pairs_checked"] += int(report.checked_pairs)


def _count_load(counts, args, kwargs, mat, before):
    counts["linalg.load_matrix.bytes"] += _nbytes(mat)


def _count_phi(counts, args, kwargs, result, before):
    Y = args[3] if len(args) > 3 else kwargs["Y"]
    counts["cpmaps.phi_map.operand_bytes"] += _nbytes(Y) + _nbytes(result)


_AFTER = {
    "weights.build_weight_table": _count_weights,
    "model.pair_structure": _count_pairs,
    "toeplitz.is_multi_toeplitz": _count_toeplitz,
    "linalg.load_matrix": _count_load,
    "cpmaps.phi_map": _count_phi,
}
_BEFORE = {"model.pair_structure": lambda args, kwargs: args[0]._pairs is None}


class Tracer:
    """Records spans around calls into the program's layers."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, peak-RSS growth in KiB, error type or None)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []  # (owner, attribute, original) to restore

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after:
                after(tracer.counts, args, kwargs, result, state)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        rss0 = _maxrss()
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, _maxrss() - rss0, error)

    def install(self) -> "Tracer":
        """Wrap the layer functions and rebind them in every program namespace."""
        importlib.import_module("polytoeplitz.cli")
        modules = {m: importlib.import_module(f"polytoeplitz.{m}") for m in LAYERS}
        model = modules["model"]
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "polytoeplitz" or n.startswith("polytoeplitz.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        for attr, name in (("__init__", "model.FockSpace"), ("pair_structure", "model.pair_structure"),
                           ("creation_product", "model.creation_product")):
            original = model.FockSpace.__dict__[attr]
            self._undo.append((model.FockSpace, attr, original))
            setattr(model.FockSpace, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def summarize(spans, counts, passes: int) -> dict:
    """Per-layer metrics, per pass, from the spans and counts of a traced run.

    ``<name>.self_s`` is span time minus the time covered by child spans;
    ``<layer>.self_s`` sums that over the layer's functions.  ``cli.<cmd>_s``
    is the mean duration of one invocation of the subcommand.
    """
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    errors: Counter = Counter()
    rss_kb: dict = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    cli_time: dict = defaultdict(float)
    for idx, (name, start, end, parent, rss, error) in enumerate(spans):
        self_s[name] += (end - start) - child[idx]
        calls[name] += 1
        errors[name] += error is not None
        rss_kb[name] = max(rss_kb[name], rss)
        if name.startswith("cli."):
            cli_time[name] += end - start

    def per_pass(x):
        return x / passes

    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value

    m: dict = {}
    for cmd in CLI_COMMANDS:
        n = calls[f"cli.{cmd}"]
        m[f"cli.{cmd}_s"] = cli_time[f"cli.{cmd}"] / n if n else 0.0
    for layer in ("cli",) + LAYERS:
        m[f"{layer}.self_s"] = per_pass(layer_self[layer])
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = per_pass(self_s[name])
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = per_pass(calls[name])
    m["linalg.op_norm.errors"] = per_pass(errors["linalg.op_norm"])
    for name in RSS_DELTAS:
        m[f"{name}.rss_delta_mb"] = rss_kb[name] / MB
    for name in NAMED_COUNTS:
        m[name] = per_pass(counts[name])
    stored = counts["model.pairs_stored"]
    m["model.comparable_fraction"] = counts["model.pairs_comparable"] / stored if stored else 0.0
    return m
