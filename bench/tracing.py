"""Per-layer tracing of the tensornorm modules, from outside the library.

:class:`Tracer` replaces chosen functions and methods of the
``tensornorm`` modules with wrappers while it is installed, and puts the
original objects back on :meth:`Tracer.restore`.  A function is replaced
wherever the package holds it -- every module global and class attribute
that *is* the original object -- so calls through import aliases
(``poly_gcd`` imported into ``function_fields``, ``coordinatize`` into
``tensor``) and through method aliases (``__rmul__ = __mul__``) are seen.

Layer boundaries get spans: (name, start, end, parent span, trial, info,
outermost), kept in memory.  ``info`` is a per-call figure such as the
input term count or whether a dependency was found; ``outermost`` is
false when a span of the same group encloses it (recursive gcds, nested
generator calls), so inclusive times do not count twice.  Hot leaf calls
(field and polynomial arithmetic) get counts only: a span there would
cost more than the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import lcm

# (module, attribute, span group, info(args, result) -> int)
SPANS = (
    ("tensor", "tensor_norm", "tensor.norm", lambda a, r: len(a[0].terms)),
    ("tensor", "eliminate_dependent", "tensor.eliminate", None),
    ("tensor", "orthogonalize_left", "tensor.sweep", None),
    ("tensor", "TensorElem.__mul__", "tensor.mul", None),
    ("tensor", "is_zero", "tensor.is_zero", None),
    ("function_fields", "coordinatize", "function_fields.coordinatize",
     lambda a, r: len(r.matrix) * len(r.basis)),
    ("function_fields", "min_coset_value", "function_fields.min_coset",
     lambda a, r: any(not c.is_zero for c in r[1])),
    ("polynomials", "poly_gcd", "polynomials.gcd", lambda a, r: not r.is_constant),
    ("polynomials", "poly_lcm", "polynomials.lcm", None),
    ("polynomials", "exact_div", "polynomials.exact_div", None),
    ("linalg", "first_dependency", "linalg.first_dependency", lambda a, r: r is not None),
    ("linalg", "IncrementalSystem.add_equation", "linalg.add_equation",
     lambda a, r: r == "ok"),
) + tuple(("generators", name, "generators.gen", None) for name in (
    "gen_tensor_elem", "gen_tower_elem", "gen_pure_elem", "gen_orthogonal_family",
    "perturb_family", "random_rewrite", "gen_base_scalar"))

# (module, attribute, count group)
COUNTS = (
    ("polynomials", "Polynomial.__mul__", "polynomials.mul"),
    ("closure", "ClosureElem.__add__", "closure.add"),
    ("closure", "ClosureElem.inv", "closure.inv"),
)

# the multiplication is counted at the level where it is carried out: the
# least common level of its operands (see ClosureElem._align)
MUL_LEVELS = (1, 2, 3, 4, 6, 12)
TRIAL = "suites.trial"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "tensornorm" or name.startswith("tensornorm.")]


def _resolve(module, attribute):
    """(owner, name, original object) for 'func' or 'Class.method'."""
    owner = sys.modules[f"tensornorm.{module}"]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()  # every wrapped call, keyed "module.attribute"
        self.mul_levels = Counter()  # (left level, right level) -> calls
        self.trial = -1
        self._stack = [-1]
        self._patches = []  # (owner, name, original)
        self.originals = {}  # "module.attribute" -> the replaced object

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, key, group, fn, info, depth):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            outermost = depth[0] == 0
            depth[0] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (group, start, clock(), parent, self.trial, -1, outermost)
                raise
            finally:
                stack.pop()
                depth[0] -= 1
            end = clock()
            spans[index] = (group, start, end, parent, self.trial,
                            int(info(args, result)) if info else 0, outermost)
            return result
        return wrapper

    def _count_wrapper(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _mul_wrapper(self, key, fn):
        calls, levels = self.calls, self.mul_levels

        def wrapper(a, b):
            calls[key] += 1
            levels[(a.level, getattr(b, "level", 1))] += 1
            return fn(a, b)
        return wrapper

    def _canon_wrapper(self, key, fn):
        """TowerElem.__init__: only non-canonical constructions get a span."""
        traced = self._span_wrapper(key, "function_fields.canon", fn, None, [0])
        calls = self.calls

        def wrapper(self_, descriptor, num, den, _canonical=False):
            if _canonical:
                calls[key] += 1
                return fn(self_, descriptor, num, den, True)
            return traced(self_, descriptor, num, den)
        return wrapper

    # -- installation -------------------------------------------------------------

    def _patch(self, key, original, wrapper, owner):
        """Replace every reference to ``original`` held by the package."""
        self.originals[key] = original
        owners = [owner] if isinstance(owner, type) else _modules()
        for target in owners:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, name, original))
                    setattr(target, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("a tracer is installed once")
        depths = {}
        for module, attribute, group, info in SPANS:
            owner, _, fn = _resolve(module, attribute)
            key = f"{module}.{attribute}"
            depth = depths.setdefault(group, [0])
            self._patch(key, fn, self._span_wrapper(key, group, fn, info, depth), owner)
        for module, attribute, _ in COUNTS:
            owner, _, fn = _resolve(module, attribute)
            key = f"{module}.{attribute}"
            self._patch(key, fn, self._count_wrapper(key, fn), owner)
        owner, _, fn = _resolve("closure", "ClosureElem.__mul__")
        key = "closure.ClosureElem.__mul__"
        self._patch(key, fn, self._mul_wrapper(key, fn), owner)
        owner, _, fn = _resolve("function_fields", "TowerElem.__init__")
        key = "function_fields.TowerElem.__init__"
        self._patch(key, fn, self._canon_wrapper(key, fn), owner)

    def restore(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def not_restored(self):
        """(owner, name) of each patched attribute that is not the original again."""
        return [(owner, name) for owner, name, original in self._patches
                if vars(owner).get(name) is not original]

    # -- trials -------------------------------------------------------------------

    def run_trial(self, trial, fn, *args):
        """Call one trial under a root span; returns (seconds, result)."""
        self.trial = trial
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (TRIAL, start, end, -1, trial, 0, True)
        return end - start, result

    # -- metrics --------------------------------------------------------------------

    def layer_metrics(self, trials):
        """Per-layer metrics, per traced trial (ratios are plain ratios)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls = Counter()
        outer = Counter()  # outermost spans only
        incl = Counter()  # time of the outermost spans
        self_time = Counter()
        info = Counter()
        folds = 0
        for i, s in enumerate(spans):
            if s is None:
                continue
            group, start, end, parent, _, inf, outermost = s
            calls[group] += 1
            if outermost:
                outer[group] += 1
                incl[group] += end - start
            self_time[group] += end - start - child[i]
            if inf > 0:
                info[group] += inf
            if (group == "linalg.first_dependency" and inf > 0 and parent >= 0
                    and spans[parent] is not None
                    and spans[parent][0] == "tensor.eliminate"):
                folds += 1

        def ratio(num, den):
            return num / den if den else 0.0

        mul_by_level = Counter()
        for (a, b), n in self.mul_levels.items():
            mul_by_level[lcm(a, b)] += n
        per = 1.0 / trials
        c = self.calls
        out = {
            "tensor.norm_calls": calls["tensor.norm"] * per,
            "tensor.norm_s": incl["tensor.norm"] * per,
            "tensor.norm_terms": info["tensor.norm"] * per,
            "tensor.eliminate_s": incl["tensor.eliminate"] * per,
            "tensor.eliminate_folds": folds * per,
            "tensor.sweep_self_s": self_time["tensor.sweep"] * per,
            "tensor.mul_s": incl["tensor.mul"] * per,
            "tensor.is_zero_calls": calls["tensor.is_zero"] * per,
            "tensor.is_zero_s": incl["tensor.is_zero"] * per,
            "function_fields.coordinatize_calls": calls["function_fields.coordinatize"] * per,
            "function_fields.coordinatize_s": incl["function_fields.coordinatize"] * per,
            "function_fields.coordinatize_cells": info["function_fields.coordinatize"] * per,
            "function_fields.min_coset_calls": calls["function_fields.min_coset"] * per,
            "function_fields.min_coset_s": incl["function_fields.min_coset"] * per,
            "function_fields.min_coset_moved_ratio": ratio(
                info["function_fields.min_coset"], calls["function_fields.min_coset"]),
            "function_fields.canon_calls": calls["function_fields.canon"] * per,
            "function_fields.canon_s": incl["function_fields.canon"] * per,
            "polynomials.gcd_calls": calls["polynomials.gcd"] * per,
            "polynomials.gcd_s": incl["polynomials.gcd"] * per,
            "polynomials.gcd_nontrivial_ratio": ratio(
                info["polynomials.gcd"], calls["polynomials.gcd"]),
            "polynomials.lcm_calls": calls["polynomials.lcm"] * per,
            "polynomials.lcm_s": incl["polynomials.lcm"] * per,
            "polynomials.exact_div_calls": calls["polynomials.exact_div"] * per,
            "polynomials.exact_div_s": incl["polynomials.exact_div"] * per,
            "polynomials.mul_calls": c["polynomials.Polynomial.__mul__"] * per,
            "linalg.first_dependency_calls": calls["linalg.first_dependency"] * per,
            "linalg.first_dependency_s": incl["linalg.first_dependency"] * per,
            "linalg.dependency_found_ratio": ratio(
                info["linalg.first_dependency"], calls["linalg.first_dependency"]),
            "linalg.add_equation_calls": calls["linalg.add_equation"] * per,
            "linalg.add_equation_s": incl["linalg.add_equation"] * per,
            "linalg.add_equation_ok_ratio": ratio(
                info["linalg.add_equation"], calls["linalg.add_equation"]),
        }
        for level in MUL_LEVELS:
            out[f"closure.mul_calls.lv{level}"] = mul_by_level[level] * per
        out["closure.add_calls"] = c["closure.ClosureElem.__add__"] * per
        out["closure.inv_calls"] = c["closure.ClosureElem.inv"] * per
        out["generators.gen_calls"] = outer["generators.gen"] * per
        out["generators.gen_s"] = incl["generators.gen"] * per
        out["suites.trial_self_s"] = self_time[TRIAL] * per
        return out

    def write_spans(self, path, trial_ids):
        """One line per span: name start end parent trial-id info outermost."""
        t0 = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\ttrial\tinfo\toutermost\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                group, start, end, parent, trial, info, outermost = s
                fh.write(f"{i}\t{group}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\t"
                         f"{trial_ids[trial]}\t{info}\t{int(outermost)}\n")
