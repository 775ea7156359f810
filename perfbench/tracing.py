"""Spans and exact counts recorded around the calls into each hcbounds module.

The package is not modified: ``Tracer.install`` replaces each traced public
function with a wrapper in every ``hcbounds`` module namespace that holds it
(modules import names with ``from .x import y``, so patching only the
defining module would miss the calls made from the others), and wraps three
methods on their classes as pure counters.  ``uninstall`` restores every
original object.

A span is ``[name, start, end, parent]``; spans stay in memory until the run
ends.  A span's self time is its duration minus the part of its interval
covered by its child spans.  Counts are derived from call arguments only, so
two runs over the same inputs report identical counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Functions that get a span, with the per-layer fields reported for each.
SPANNED = {
    "losses.eval_margin_loss": ("calls", "s", "self_s"),
    "hypotheses.score_range": ("calls", "s"),
    "hypotheses.attainable_adversarial_range": ("calls", "s"),
    "conditional.brute_force_inf": ("calls", "s", "self_s"),
    "conditional.min_conditional_risk": ("calls", "s"),
    "conditional.min_conditional_risk_adversarial": ("calls", "s"),
    "transforms.transform": ("calls", "s"),
    "transforms.transform_inverse": ("calls", "s"),
    "transforms.invert_numerically": ("calls", "s"),
    "distributions.sample": ("calls", "s"),
    "distributions.expectation": ("calls", "s"),
    "bounds.assemble_bound": ("calls", "s", "self_s"),
    "bounds.risk": ("calls", "s", "self_s"),
    "bounds.best_in_class_risk": ("calls", "s", "self_s"),
    "experiments.run_nonadversarial_sweep": ("calls", "s", "self_s"),
    "experiments.run_adversarial_sweep": ("calls", "s", "self_s"),
    "oracle_check.run_oracle_checks": ("calls", "s", "self_s"),
}

# (module, class, method, counter) methods wrapped as counters, without spans.
COUNTED_METHODS = (
    ("transforms", "PiecewiseTransform", "__call__", "transforms.evals"),
    ("distributions", "TruncNormal", "pdf", "distributions.pdf_calls"),
    ("distributions", "LabeledDistribution", "eta", "distributions.eta_calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._restore = []
        self.max_adv_bytes = 0

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, name, orig, before):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return orig(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, key, orig):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.count(key)
            # bisection calls the transform directly, so its span is on top
            if key == "transforms.evals" and stack and spans[stack[-1]][0] == "transforms.invert_numerically":
                self.count("transforms.invert_evals")
            return orig(*args, **kwargs)

        return wrapper

    # -- argument-derived counts --------------------------------------------

    def _before_hooks(self, pkg):
        conditional = sys.modules[pkg.__name__ + ".conditional"]
        bf_sig = inspect.signature(conditional.brute_force_inf)

        def eval_margin_loss(args, kwargs):
            alpha = args[1] if len(args) > 1 else kwargs["alpha"]
            self.count("losses.elems", int(getattr(alpha, "size", 1)))  # ndarray or scalar
            return args, kwargs

        def brute_force_inf(args, kwargs):
            bound = bf_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            grid_n, spec = int(bound.arguments["grid_n"]), bound.arguments["spec"]
            if spec.adversarial:
                self.count("conditional.grid_cells", grid_n * grid_n)
                rows = min(conditional._ADV_CHUNK, grid_n)
                # h_lo and h_hi: two float64 chunk buffers live at once
                self.max_adv_bytes = max(self.max_adv_bytes, 2 * rows * grid_n * 8)
            else:
                self.count("conditional.grid_cells", grid_n)
            return args, kwargs

        def sample(args, kwargs):
            n = args[1] if len(args) > 1 else kwargs["n"]
            self.count("distributions.samples", int(n))
            return args, kwargs

        def expectation(args, kwargs):
            args = list(args)
            integrand = args[1] if len(args) > 1 else kwargs["integrand"]

            def counted(x, e):
                self.count("distributions.integrand_evals")
                return integrand(x, e)

            if len(args) > 1:
                args[1] = counted
            else:
                kwargs = dict(kwargs, integrand=counted)
            return tuple(args), kwargs

        return {
            "losses.eval_margin_loss": eval_margin_loss,
            "conditional.brute_force_inf": brute_force_inf,
            "distributions.sample": sample,
            "distributions.expectation": expectation,
        }

    # -- installation ------------------------------------------------------

    def install(self, pkg):
        """Wrap the traced names of package ``pkg`` (the imported hcbounds)."""
        hooks = self._before_hooks(pkg)
        modules = [m for name, m in sys.modules.items() if m is not None and
                   (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))]
        for name in SPANNED:
            mod_name, fn_name = name.split(".")
            orig = getattr(sys.modules[f"{pkg.__name__}.{mod_name}"], fn_name)
            wrapper = self._span_wrapper(name, orig, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))
        for mod_name, cls_name, meth, key in COUNTED_METHODS:
            cls = getattr(sys.modules[f"{pkg.__name__}.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._count_wrapper(key, orig))
            self._restore.append((cls, meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """{name: (calls, inclusive_s, self_s)} over all recorded spans."""
        children = {}
        for idx, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(idx)
        out = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered = _covered(sorted((self.spans[c][1], self.spans[c][2]) for c in children.get(idx, ())))
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (end - start), self_s + (end - start - covered))
        return out


def _covered(intervals) -> float:
    """Total length of the union of sorted (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
