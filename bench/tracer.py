"""In-memory spans and counts around covertuav's public entry points.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every covertuav module namespace that holds it (``from .x import f`` copies
included), wraps the ``values``/``grads``/``hess`` methods of every
``ResidualFamily`` subclass, and puts a proxy in front of the solver's
``scipy.linalg`` module so its factorizations are timed. ``uninstall()``
restores every original. Nothing is written while a run is in flight; the
totals are read once with ``metrics()`` when the traced pass ends.

Spans are inclusive: time in ``exact_feasibility`` called from
``assemble_subproblem`` counts in both.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# (module, function, span name) for plain timed entry points
_SPANS = (
    ("scenario", "load_config", "scenario.load_config"),
    ("sca", "initial_point", "sca.initial_point"),
    ("convexify", "exact_feasibility", "sca.exact_feasibility"),
    ("convexify", "assemble_subproblem", "convexify.assemble"),
    ("validate", "empirical_outage", "validate.outage_mc"),
    ("validate", "empirical_willie_error", "validate.willie_mc"),
    ("validate", "ks_gaussian_approx", "validate.ks"),
    ("validate", "xi_bar_quadrature", "validate.quadrature"),
    ("detection", "min_total_error", "detection.min_total_error"),
    ("detection", "miss_detection", "detection.miss_detection"),
)

_LINALG_BANDED = ("solveh_banded",)
_LINALG_DENSE = ("cho_factor", "cho_solve", "solve")


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside cvxsolver; forwards all else."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        for name in _LINALG_BANDED + _LINALG_DENSE:
            setattr(self, name, tracer._wrap_linalg(getattr(real, name), name))

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._in_solve = 0
        self._anchor = None       # first non-empty family of the current solve
        self._anchor_open = None  # gathered input of its last values() call
        self._unmatched = 0

    # -- installation -------------------------------------------------------

    def install(self):
        from covertuav import convexify, cvxsolver, sca

        for mod, fn, span in _SPANS:
            orig = getattr(sys.modules[f"covertuav.{mod}"], fn)
            self._replace_everywhere(orig, self._wrap_span(orig, span))
        self._replace_everywhere(sca.run_jtp, self._wrap_planner(sca.run_jtp))
        self._replace_everywhere(sca.run_stp, self._wrap_planner(sca.run_stp))
        self._replace_everywhere(cvxsolver.solve, self._wrap_solve(cvxsolver.solve))
        self._set(cvxsolver, "sla", _LinalgProxy(cvxsolver.sla, self))
        for cls in _subclasses(convexify.ResidualFamily):
            for meth in ("values", "grads", "hess"):
                if meth in vars(cls):
                    self._set(cls, meth, self._wrap_family(vars(cls)[meth], meth))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "covertuav"
                                   or mod_name.startswith("covertuav.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap_span(self, fn, span):
        secs, counts = self.seconds, self.counts
        samples = span in ("validate.outage_mc", "validate.willie_mc")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[span] += _clock() - t0
                counts[span] += 1
                if samples:
                    plan, _cfg, mc = args[:3]
                    counts["validate.samples"] += len(plan.trajectory) * mc.num_samples
        return wrapper

    def _wrap_planner(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            plan, trace = fn(*args, **kwargs)
            self.counts["sca.outer_iterations"] += trace.subproblem_solves
            return plan, trace
        return wrapper

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            outer = (self._anchor, self._anchor_open, self._unmatched)
            self._anchor = next((f for f in problem.families if f.m > 0), None)
            self._anchor_open, self._unmatched = None, 0
            self._in_solve += 1
            t0 = _clock()
            try:
                res = fn(problem, *args, **kwargs)
            finally:
                self.seconds["cvxsolver.solve"] += _clock() - t0
                self._in_solve -= 1
            self.counts["cvxsolver.solve"] += 1
            self.counts["cvxsolver.newton_steps"] += res.iterations
            # every solve makes two values() rounds of its own: the start check
            # and the final KKT report; the rest are line-search merit values
            self.counts["cvxsolver.merit_evals"] += max(self._unmatched - 2, 0)
            self._anchor, self._anchor_open, self._unmatched = outer
            return res
        return wrapper

    def _wrap_family(self, meth, kind):
        secs, counts = self.seconds, self.counts
        span = f"convexify.{kind}"

        @functools.wraps(meth)
        def wrapper(fam, V):
            t0 = _clock()
            out = meth(fam, V)
            dt = _clock() - t0
            secs[span] += dt
            counts[span] += 1
            if self._in_solve:
                secs["cvxsolver.family_eval"] += dt
                if fam is self._anchor:
                    if kind == "values":
                        self._unmatched += 1
                        self._anchor_open = V
                    elif kind == "grads" and V is self._anchor_open:
                        self._unmatched -= 1
                        self._anchor_open = None
            return out
        return wrapper

    def _wrap_linalg(self, fn, name):
        group = "banded" if name in _LINALG_BANDED else "dense"
        secs, counts = self.seconds, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts[f"cvxsolver.{group}_failures"] += 1
                raise
            finally:
                secs[f"cvxsolver.{group}"] += _clock() - t0
                counts[f"cvxsolver.{group}"] += 1
        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        s, c = self.seconds, self.counts
        steps = c["cvxsolver.newton_steps"]
        self_s = (s["cvxsolver.solve"] - s["cvxsolver.family_eval"]
                  - s["cvxsolver.banded"] - s["cvxsolver.dense"])
        out = {
            "sca.outer_iterations": (c["sca.outer_iterations"], "count"),
            "sca.initial_point_s": (s["sca.initial_point"], "s"),
            "sca.exact_feasibility_s": (s["sca.exact_feasibility"], "s"),
            "convexify.assemble_s": (s["convexify.assemble"], "s"),
            "convexify.assemble_calls": (c["convexify.assemble"], "count"),
            "convexify.values_s": (s["convexify.values"], "s"),
            "convexify.values_calls": (c["convexify.values"], "count"),
            "convexify.grads_s": (s["convexify.grads"], "s"),
            "convexify.hess_s": (s["convexify.hess"], "s"),
            "cvxsolver.solves": (c["cvxsolver.solve"], "count"),
            "cvxsolver.solve_s": (s["cvxsolver.solve"], "s"),
            "cvxsolver.newton_steps": (steps, "count"),
            "cvxsolver.step_ms": (1e3 * s["cvxsolver.solve"] / steps if steps else 0.0, "ms"),
            "cvxsolver.merit_evals": (c["cvxsolver.merit_evals"], "count"),
            "cvxsolver.banded_solves": (c["cvxsolver.banded"], "count"),
            "cvxsolver.banded_solve_s": (s["cvxsolver.banded"], "s"),
            "cvxsolver.banded_failures": (c["cvxsolver.banded_failures"], "count"),
            "cvxsolver.dense_factors": (c["cvxsolver.dense"], "count"),
            "cvxsolver.dense_factor_s": (s["cvxsolver.dense"], "s"),
            "cvxsolver.self_s": (self_s if c["cvxsolver.solve"] else 0.0, "s"),
            "validate.outage_mc_s": (s["validate.outage_mc"], "s"),
            "validate.willie_mc_s": (s["validate.willie_mc"], "s"),
            "detection.min_total_error_s": (s["detection.min_total_error"], "s"),
            "detection.miss_detection_s": (s["detection.miss_detection"], "s"),
            "validate.ks_s": (s["validate.ks"], "s"),
            "validate.samples": (c["validate.samples"], "count"),
            "validate.quadrature_s": (s["validate.quadrature"], "s"),
            "scenario.load_config_s": (s["scenario.load_config"], "s"),
        }
        return out


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
