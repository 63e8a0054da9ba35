"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the package, every public function of each
liecoh module (one module = one layer) plus four hot methods, and records a
span per call: name, start, end and the id of the enclosing span.  A layer's
self time is its spans' durations minus the time covered by their child spans.

Functions are imported by name across modules (``grgln`` binds
``dimension_series``, ``cli`` binds ``invariant_monomials`` and so on), so a
wrapper is installed in every module namespace that binds the function.
Classes are never replaced, only their methods, because ``Fq.__eq__`` and
``FqElement._check`` rely on ``isinstance``.

The three methods called once per field product or per output monomial are
recorded as aggregated leaf spans: their count and time are kept and charged
to the parent's child time, but no span tuple is stored for each call, which
would hold millions of tuples in memory.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter
from time import perf_counter

from liecoh import cli, ffq, gl2, grgln, invalg, rootsys, verifygrid
from liecoh.errors import ResourceGuardError

LAYERS = {"ffq": ffq, "invalg": invalg, "gl2": gl2, "rootsys": rootsys,
          "grgln": grgln, "verifygrid": verifygrid, "cli": cli}

# span name -> (class, method); the names are the per-layer metric prefixes
METHODS = {
    "ffq.Fq": (ffq.Fq, "__init__"),
    "ffq.FqElement.mul": (ffq.FqElement, "__mul__"),
    "ffq.FqMatrix.mul": (ffq.FqMatrix, "__mul__"),
    "invalg.Monomial": (invalg.Monomial, "__post_init__"),
}
AGGREGATED = {"ffq.FqElement.mul", "ffq.FqMatrix.mul", "invalg.Monomial"}


def monomial_count(alg, degree: int) -> int:
    """Number of monomials of exactly `degree`, by the Hilbert-series
    recurrence: (1 + t^d) per exterior generator, 1/(1 - t^d) per polynomial
    one.  This is an input-size count: the eigenvalue oracle visits exactly
    this many leaves, and the pruned walks visit at most this many."""
    coeffs = [1] + [0] * degree
    for g in alg.generators:
        d = g.degree
        if g.parity == invalg.EXTERIOR:
            for k in range(degree, d - 1, -1):
                coeffs[k] += coeffs[k - d]
        else:
            for k in range(d, degree + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs[degree]


def leaf_count_mismatches(cases) -> list:
    """(spec, degree) pairs where the oracle's own leaf cap disagrees with
    `monomial_count`: with max_count = count it must finish, with one less
    it must trip."""
    bad = []
    for alg, degree in cases:
        count = monomial_count(alg, degree)
        try:
            invalg.invariant_monomials_oracle(alg, degree, max_count=count)
        except ResourceGuardError:
            bad.append((alg.spec_hash(), degree))
            continue
        if count == 0:
            continue
        try:
            invalg.invariant_monomials_oracle(alg, degree, max_count=count - 1)
        except ResourceGuardError:
            continue
        bad.append((alg.spec_hash(), degree))
    return bad


def _alg_degree(args, kwargs):
    alg = args[0] if args else kwargs["alg"]
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    return alg, degree


def _count_leaves(name):
    def hook(counters, args, kwargs, out):
        alg, degree = _alg_degree(args, kwargs)
        counters[name + ".leaves"] += monomial_count(alg, degree)
        counters["invalg.monomials_out"] += len(out)
    return hook


def _count_monomials_out(counters, args, kwargs, out):
    counters["invalg.monomials_out"] += len(out)


def _count_field_mults(counters, args, kwargs, out):
    counters["ffq.field_mults"] += args[0].n ** 3   # computed: n^3 per product


def _count_elements(counters, args, kwargs, out):
    counters["grgln.elements_checked"] += out["elements_checked"]


def _count_bytes(counters, args, kwargs, out):
    path = args[2] if len(args) > 2 else kwargs.get("out_path")
    if path:
        counters["cli.bytes_out"] += os.path.getsize(path)


# work counters derived from a call's arguments and result
HOOKS = {
    "invalg.enumerate_monomials": _count_leaves("invalg.enumerate_monomials"),
    "invalg.invariant_monomials_oracle":
        _count_leaves("invalg.invariant_monomials_oracle"),
    "invalg.invariant_monomials": _count_monomials_out,
    "ffq.FqMatrix.mul": _count_field_mults,
    "grgln.exponent_check": _count_elements,
    "cli.emit_report": _count_bytes,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket a pass."""

    def __init__(self):
        self.spans = []        # (id, parent id, name, start, end)
        self.names = [f"{layer}.{fname}" for layer, module in LAYERS.items()
                      for fname, _ in _public_functions(module)] \
            + list(METHODS)
        self.reset()
        self._patches = []     # (owner, attribute, original)
        self._next_id = 1

    def reset(self):
        """Start a fresh set of per-pass statistics (spans are kept)."""
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.errors = Counter()
        self.span_count = 0
        self._stack = [[None, 0.0]]   # [span id, time covered by children]

    def values(self) -> dict:
        """The last pass's per-layer numbers, keyed by metric name."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["invalg.Monomial.count"] = self.calls["invalg.Monomial"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        for name in ("invalg.monomials_out", "ffq.field_mults",
                     "grgln.elements_checked", "cli.bytes_out"):
            out[name] = self.counters[name]
        rates = [(f"{name}.leaves", name) for name in
                 ("invalg.invariant_monomials_oracle",
                  "invalg.enumerate_monomials")]
        rates.append(("ffq.field_mults", "ffq.FqMatrix.mul"))
        for counter, span in rates:
            out[counter] = self.counters[counter]
            busy = self.self_s[span]
            out[f"{counter}_per_s"] = self.counters[counter] / busy \
                if busy > 0 else 0.0
        out["trace.spans"] = self.span_count
        return out

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        store = name not in AGGREGATED
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1]
            sid = None
            if store:
                sid = self._next_id
                self._next_id += 1
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                parent[1] += t1 - t0
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[1]
                self.span_count += 1
                if store:
                    self.spans.append((sid, parent[0], name, t0, t1))
            if hook is not None:
                hook(self.counters, args, kwargs, out)
                # the hook's time is tracer overhead, not the parent's work
                parent[1] += perf_counter() - t1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        modules = list(LAYERS.values())
        for layer, module in LAYERS.items():
            for fname, fn in list(_public_functions(module)):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        for name, (cls, meth) in METHODS.items():
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
