"""Time the package's layers from outside by wrapping their public functions.

A wrapper replaces a function in every ``transferhash`` module that holds
a reference to it, so calls made through module globals (``itq_train``
calling ``procrustes``, ``BinaryCodeMatrix`` calling ``pack_signs``) are
seen too.

Timings are scaled by a calibration kernel: a fixed numpy computation,
independent of the package, timed next to each measured call.  On a
shared machine the speed of the whole host drifts (a call can take twice
as long a minute later); dividing by the kernel's observed duration and
multiplying by its nominal one removes most of that drift, so the figures
read as seconds on an unloaded machine.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# The kernel's duration on the reference machine (2 vCPU x86-64, one BLAS
# thread) when no neighbour load slows it: about its 5th percentile.
KERNEL_NOMINAL_S = 0.0115


class Calibration:
    """A fixed mix, timed on demand: about a third small SVDs and a matmul,
    a third sorting and sweeping memory, a third popcounts and a Python loop
    over a set, like the package's training, ground-truth and ranking code."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._w = rng.standard_normal((64, 32))
        self._a = rng.standard_normal((512, 64))
        self._v = rng.standard_normal(20000)
        self._p = rng.integers(0, 2**63, size=(4000, 1), dtype=np.uint64)
        self._big = rng.standard_normal(2_000_000)
        self._ids = list(range(20000))
        self._set = set(range(0, 20000, 7))
        self.samples = []  # kernel durations, in the order taken
        self.spent = 0.0  # total time spent in the kernel

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(12):
            np.linalg.svd(self._w, full_matrices=False)
        self._a @ self._a.T
        np.argsort(self._v, kind="stable")
        for i in range(80):
            np.bitwise_count(self._p ^ self._p[i]).sum(axis=1)
        for _ in range(3):
            sum(1 for x in self._ids if x in self._set)
        self._big.sum()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        return elapsed

    @staticmethod
    def scale(samples) -> float:
        """Factor turning seconds measured next to these samples into nominal seconds."""
        return KERNEL_NOMINAL_S / (sum(samples) / len(samples))


class _Patcher:
    def __init__(self):
        self._patched = []  # (module, attribute, replaced value), in patch order

    def _replace(self, span: str, make_wrapper) -> None:
        """Replace ``transferhash.<module>.<function>`` wherever it is referenced."""
        module_name, func_name = span.rsplit(".", 1)
        original = getattr(sys.modules[f"transferhash.{module_name}"], func_name)
        wrapper = make_wrapper(original)
        wrapper.__name__ = func_name
        wrapper.__wrapped__ = original
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "transferhash"
                                      or name.startswith("transferhash.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def watch(self, span: str, on_result) -> None:
        """Run on_result(args, kwargs, result) after each return of span; no timing."""
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                on_result(args, kwargs, result)
                return result
            return wrapper

        self._replace(span, make_wrapper)

    def restore(self) -> None:
        """Put back every function this object replaced."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Recorder(_Patcher):
    """Traced spans: call counts, self time and per-call durations.

    Spans nest: a call's self time is its duration minus the time spent in
    wrapped calls it made, so each layer's time is counted once.
    """

    def __init__(self):
        super().__init__()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self._open = []  # time spent in wrapped children, one entry per open span

    def wrap(self, span: str) -> None:
        """Trace span "module.function"."""
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                self._open.append(0.0)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    children = self._open.pop()
                    self.calls[span] += 1
                    self.self_s[span] += elapsed - children
                    self.durations[span].append(elapsed)
                    if self._open:
                        self._open[-1] += elapsed
                return result
            return wrapper

        self._replace(span, make_wrapper)


class Probe(_Patcher):
    """Time whole calls, each between two calibration samples, in nominal seconds.

    The noise on a shared host changes within a second, so a call is scaled
    by the samples taken right before and after it, not by a longer window.
    A call shorter than repeat_s is run again with the same arguments, up
    to MAX_REPEATS times in all, each run followed by a sample, and the
    median of the scaled runs is reported; the first call's result is the
    one returned.  first_raw_s and first_nominal_s add up the first runs,
    so a round's wall time can be scaled the same way.
    """

    MAX_REPEATS = 30

    def __init__(self, calibration: Calibration, repeat: bool = True):
        super().__init__()
        self.calibration = calibration
        self.repeat = repeat
        self.repeated_s = 0.0  # measured time of the repeats
        self.first_raw_s = 0.0
        self.first_nominal_s = 0.0

    def wrap(self, span: str, on_call, repeat_s: float = 0.0) -> None:
        """on_call(args, kwargs, result, nominal_seconds) runs after each return."""
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                def run(before):
                    start = time.perf_counter()
                    result = original(*args, **kwargs)
                    raw = time.perf_counter() - start
                    after = self.calibration.sample()
                    return result, raw, raw * Calibration.scale((before, after)), after

                result, raw, nominal, last = run(self.calibration.sample())
                self.first_raw_s += raw
                self.first_nominal_s += nominal
                runs, spent = [nominal], raw
                while self.repeat and spent < repeat_s and len(runs) < self.MAX_REPEATS:
                    _, raw, nominal, last = run(last)
                    runs.append(nominal)
                    spent += raw
                    self.repeated_s += raw
                on_call(args, kwargs, result, statistics.median(runs))
                return result
            return wrapper

        self._replace(span, make_wrapper)
