"""Timing wrappers for the package's public functions and methods, and the
audit that checks each traced episode from what the wrappers saw.

Nothing here edits the program's files: ``Tracer.install`` replaces module
and class attributes in the running process only.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

MODULES = ("delays", "environment", "estimator", "policies", "harness", "io", "cli")


class Tracer:
    """Per-key call count, total time and self time.

    The key of a function is ``module.name`` and that of a method
    ``module.method``, so one key covers a method across the classes of its
    module (``delays.sample`` over every delay distribution). A span's self
    time is its duration minus the time of the wrapped calls it made.
    Hook time is reported as ``hook_s`` and left out of every span's self
    time.
    """

    def __init__(self):
        self.stats: dict = {}          # key -> [calls, total_s, self_s]
        self._stack = [[0.0]]          # child time of each open span
        self.hook_s = 0.0

    def install(self, package: str, hooks: dict) -> None:
        """Wrap every public function and method of the listed modules.

        ``hooks`` maps a key to ``(before, after)``: ``before(*args)``
        returns a token, ``after(token, result, *args)`` runs on success.
        """
        modules = [sys.modules[f"{package}.{name}"] for name in MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{short}.{name}", obj, hooks)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, attr, self._wrap(f"{short}.{attr}", fn, hooks))
        # rebind every module-level reference, including names imported
        # from one module into another and into the package namespace
        for mod in [sys.modules[package]] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _wrap(self, key: str, fn, hooks: dict):
        before, after = hooks.get(key, (None, None))
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                h0 = clock()
                token = before(*args, **kwargs)
                self._hook(clock() - h0)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                stack[-1][0] += dt
            if after is not None:
                h0 = clock()
                after(token, result, *args, **kwargs)
                self._hook(clock() - h0)
            return result

        return wrapper

    def _hook(self, dt: float) -> None:
        self.hook_s += dt
        self._stack[-1][0] += dt


class Audit:
    """Checks every traced episode and coverage call from what the wrappers
    saw, against quantities computed here:

    * each round's regret is max_k a_k.theta - a_chosen.theta, with theta
      the benchmark's own (all coordinates 1/sqrt(d));
    * at the end, V = lambda I + sum of a a^T over the recorded actions,
      B = sum of the credited actions, and estimate() = solve(V, B);
    * each revealed conversion reaches the estimator once; every credited
      one has delay <= m, and every one with delay <= m - 1 is credited.

    A conversion counts as credited when ``record_conversion`` changed B.
    """

    def __init__(self, estimator_cls):
        self._estimate = estimator_cls.estimate   # unwrapped
        self.label = ""
        self.problems: list = []      # (label, run_id, message)
        self.episodes: dict = {}      # label -> (uniform-play regret, final regret)
        self.revealed = 0
        self.offered = 0
        self.credited = 0
        self._reset()

    def _reset(self):
        self._steps = []              # (t, chosen, actions, revealed rounds)
        self._ests = {}               # id -> (estimator, actions, conversions)

    def hooks(self) -> dict:
        return {
            "harness.run_episode": (self._begin, self._end_episode),
            "harness.concentration_coverage": (self._begin, self._end_coverage),
            "environment.step": (self._before_step, self._after_step),
            "estimator.record_action": (None, self._after_action),
            "estimator.record_conversion": (self._before_conversion, self._after_conversion),
        }

    def _problem(self, run_id, message):
        self.problems.append((self.label, run_id, message))

    def _begin(self, *args, **kwargs):
        self._reset()

    def _before_step(self, env, chosen, action_set):
        return env.t

    def _after_step(self, t, events, env, chosen, action_set):
        rounds = [ev.round_index for ev in events]
        self._steps.append((t, int(chosen), action_set.actions, rounds))
        self.revealed += len(rounds)

    def _entry(self, est):
        return self._ests.setdefault(id(est), (est, [], []))

    def _after_action(self, _token, _result, est, a):
        self._entry(est)[1].append(np.array(a, dtype=float))

    def _before_conversion(self, est, round_index):
        return est.B.copy()

    def _after_conversion(self, b_before, _result, est, round_index):
        credited = not np.array_equal(est.B, b_before)
        self._entry(est)[2].append((round_index, credited))
        self.offered += 1
        self.credited += credited

    def _end_episode(self, _token, trace, config, run_index, *args):
        theta = np.full(config.d, 1.0 / math.sqrt(config.d))
        regret, uniform, delays = [], 0.0, {}
        for t, chosen, actions, rounds in self._steps:
            values = actions @ theta
            best = values.max()
            regret.append(best - actions[chosen] @ theta)
            uniform += best - values.mean()
            for s in rounds:
                delays[s] = t - s
        cum = np.asarray(trace.cum_regret, dtype=float)
        self.episodes.setdefault(self.label, []).append(
            (uniform, float(cum[-1]) if cum.size else float("nan")))
        if len(regret) != config.T or cum.shape != (config.T,):
            self._problem(run_index, f"audit: {len(regret)} steps, {cum.size} trace rounds")
        else:
            err = np.abs(np.diff(cum, prepend=0.0) - np.array(regret))
            if err.max() > 1e-9:
                t = int(err.argmax()) + 1
                self._problem(run_index, f"audit: round {t} regret differs by {err.max():.3g}")
        for est, actions, conversions in self._ests.values():
            self._check_estimator(run_index, est, actions, conversions, delays)
        self._reset()

    def _end_coverage(self, _token, _coverage, *args):
        for rep, (est, actions, conversions) in enumerate(self._ests.values()):
            self._check_estimator(rep, est, actions, conversions, None)
        self._reset()

    def _check_estimator(self, run_id, est, actions, conversions, delays):
        X = np.array(actions).reshape(len(actions), est.d)
        V = est.lam * np.eye(est.d) + X.T @ X
        if np.abs(est.V - V).max() > 1e-9 * max(1.0, np.abs(V).max()):
            self._problem(run_id, "audit: V differs from lambda I + sum a a^T")
        B = X[[s - 1 for s, credited in conversions if credited]].sum(axis=0)
        if np.abs(est.B - B).max() > 1e-9 * max(1.0, np.abs(B).max()):
            self._problem(run_id, "audit: B differs from the sum of credited actions")
        want = np.linalg.solve(V, est.B)
        got = self._estimate(est)
        if np.abs(got - want).max() > 1e-8 * max(1.0, np.abs(want).max()):
            self._problem(run_id, f"audit: estimate() differs from solve(V, B) "
                                  f"by {np.abs(got - want).max():.3g}")
        if delays is None:
            return
        if sorted(s for s, _ in conversions) != sorted(delays):
            self._problem(run_id, "audit: revealed conversions and estimator "
                                  "conversions differ")
            return
        for s, credited in conversions:
            delay = delays[s]
            if credited and delay > est.m:
                self._problem(run_id, f"audit: round {s} credited with delay {delay} > m")
                return
            if not credited and delay <= est.m - 1:
                self._problem(run_id, f"audit: round {s} not credited, delay {delay} < m")
                return
