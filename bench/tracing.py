"""Per-layer tracing by wrapping the program's public functions.

Nothing in the program is edited: `Tracer.install` replaces functions
and methods on the loaded tautcalc modules with wrappers, in every module
that binds them (names brought in with `from ... import` included).  A
span wrapper records name, start, end and parent span; a layer's self
time is its span minus the spans of its children.  Count wrappers only
count calls.  Wrappers do nothing while `active` is false, so the
benchmark's own checks are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, metric): timed spans; calls are counted as well
SPANS = [
    ("cli", "main", "cli.main"),
    ("exprparse", "parse", "exprparse.parse"),
    ("exprparse", "to_words", "exprparse.to_words"),
    ("tautring", "integrate_word", "tautring.integrate_word"),
    ("tautring", "expand_monomial", "tautring.expand_monomial"),
    ("tautring", "mul_gamma_diag", "tautring.mul_gamma_diag"),
    ("tautring", "mul_gamma_node", "tautring.mul_gamma_node"),
    ("tautring", "pullback", "tautring.pullback"),
    ("tautring", "pushforward", "tautring.pushforward"),
    ("staircase", "colength", "staircase.colength"),
    ("staircase", "buchberger", "staircase.buchberger"),
    ("polyoracle", "vdm_det", "polyoracle.vdm_det"),
    ("polyoracle", "check_chain", "polyoracle.checks"),
    ("polyoracle", "check_syzygy", "polyoracle.checks"),
    ("polyoracle", "eta_valuation", "polyoracle.valuation"),
    ("polyoracle", "arc_valuation", "polyoracle.valuation"),
    ("schubert", "pieri_mul", "schubert.pieri_mul"),
    ("schubert", "nsec3", "schubert.nsec3"),
    ("schubert", "nsec3_terms", "schubert.nsec3"),
]

# (module, class, method, metric): counted calls
COUNTS = [
    ("charpoly", "CharacterPolynomial", "__init__", "charpoly.new"),
    ("charpoly", "CharacterPolynomial", "__mul__", "charpoly.mul"),
    ("charpoly", "CharacterPolynomial", "__rmul__", "charpoly.mul"),
    ("charpoly", "CharacterPolynomial", "__add__", "charpoly.add"),
    ("charpoly", "CharacterPolynomial", "__radd__", "charpoly.add"),
    ("surface", "SurfaceGeometry", "pair", "surface.pair.calls"),
    ("polyoracle", "QuotPoly", "__mul__", "polyoracle.quotpoly_mul"),
    ("polyoracle", "QuotPoly", "__rmul__", "polyoracle.quotpoly_mul"),
]

# per-layer metrics in report order: (name, unit)
METRICS = (
    [("cli.startup.s", "s"), ("cli.main.s", "s"),
     ("exprparse.parse.s", "s"), ("exprparse.to_words.s", "s"),
     ("exprparse.words", "count"), ("exprparse.distinct_words", "count")]
    + [(f"tautring.{f}.{x}", "s" if x == "s" else "count")
       for f in ("integrate_word", "expand_monomial", "mul_gamma_diag",
                 "mul_gamma_node", "pullback", "pushforward")
       for x in ("s", "calls")]
    + [("tautring.gens_out", "count"), ("tautring.repeat_rewrites", "count"),
       ("charpoly.new", "count"), ("charpoly.mul", "count"),
       ("charpoly.add", "count"), ("surface.pair.calls", "count"),
       ("staircase.colength.s", "s"), ("staircase.colength.calls", "count"),
       ("staircase.buchberger.s", "s"), ("staircase.basis_elems", "count"),
       ("polyoracle.vdm_det.s", "s"), ("polyoracle.vdm_det.calls", "count"),
       ("polyoracle.repeat_vdm", "count"), ("polyoracle.checks.s", "s"),
       ("polyoracle.valuation.s", "s"), ("polyoracle.quotpoly_mul", "count"),
       ("schubert.pieri_mul.s", "s"), ("schubert.pieri_mul.calls", "count"),
       ("schubert.nsec3.s", "s"), ("trace.overhead", "ratio")]
)

MAX_SPANS = 200_000


def _generator_key(gen):
    # structural, so it survives a reload of the program's modules
    if type(gen).__name__ == "DiagMonomial":
        return ("diag", gen.m, gen.blocks)
    return ("node",) + gen.key()


class Tracer:
    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.stack = []  # [child seconds, span id, metric]
        self.spans = []
        self.next_id = 0
        self.words = set()
        self.new_program_state()

    def new_program_state(self):
        """Forget what the program could have cached: a cold start."""
        self.rewritten = set()
        self.vdm_seen = set()

    # -- wrappers -------------------------------------------------------

    def _span(self, metric, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            entry = [0.0, span_id, metric]
            stack.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.self_s[metric] += (t1 - t0) - entry[0]
                tracer.calls[metric] += 1
                if parent is not None:
                    parent[0] += t1 - t0
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, metric, t0, t1,
                                         parent[1] if parent else None))
            if after is not None:
                after(args, result, parent)
            return result

        return wrapper

    def _counter(self, metric, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters beyond calls and time ---------------------------------

    def _after_rewrite(self, args, result, parent):
        self.counts["tautring.gens_out"] += len(result.terms)
        key = _generator_key(args[0])
        if key in self.rewritten:
            self.counts["tautring.repeat_rewrites"] += 1
        else:
            self.rewritten.add(key)

    def _after_vdm(self, args, result, parent):
        if args[:2] in self.vdm_seen:
            self.counts["polyoracle.repeat_vdm"] += 1
        else:
            self.vdm_seen.add(args[:2])

    def _after_buchberger(self, args, result, parent):
        self.counts["staircase.basis_elems"] += len(result)

    def _after_to_words(self, args, result, parent):
        if parent is not None and parent[2] == "exprparse.to_words":
            return  # count the words of whole expressions only
        self.counts["exprparse.words"] += len(result)
        m = args[1]
        for _coeff, factors in result:
            self.words.add((m, tuple(sorted(repr(f) for f in factors))))

    # -- installation ---------------------------------------------------

    def install(self, modules: dict):
        """Wrap the layer boundaries of freshly loaded tautcalc modules."""
        after = {"mul_gamma_diag": self._after_rewrite,
                 "mul_gamma_node": self._after_rewrite,
                 "vdm_det": self._after_vdm,
                 "buchberger": self._after_buchberger,
                 "to_words": self._after_to_words}
        loaded = [mod for name, mod in sys.modules.items()
                  if name == "tautcalc" or name.startswith("tautcalc.")]
        for mod_name, fn_name, metric in SPANS:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._span(metric, original, after.get(fn_name))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, method, metric in COUNTS:
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, method, self._counter(metric, getattr(cls, method)))

    # -- report ---------------------------------------------------------

    def metrics(self, startup_s: float, overhead: float) -> dict:
        values = {"cli.startup.s": startup_s, "trace.overhead": overhead,
                  "exprparse.distinct_words": len(self.words)}
        for name, _unit in METRICS:
            base, _, suffix = name.rpartition(".")
            if name in values:
                continue
            if suffix == "s":
                values[name] = self.self_s.get(base, 0.0)
            elif suffix == "calls" and base in self.calls:
                values[name] = self.calls[base]
            else:
                values[name] = self.counts.get(name, 0)
        return values

    def write(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, handle)
