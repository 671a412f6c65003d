"""Traced runs: wrap the package's public functions from the outside.

Every function below is replaced, for the length of a traced pass, in
every ``ratrec`` namespace that holds it (``ratrec.engine.iterate`` and
``ratrec.cli.iterate`` alike), so calls are seen wherever the name is
looked up.  Each call records calls, total time, self time (total minus
time in wrapped callees) and exceptions.  Calls of the functions in
``PER_CALL`` run once per step or per sample, so they are kept as
aggregates only; every other call also leaves a span (id, parent id,
request, name, start, end, error) that stays in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from functools import wraps
from typing import Dict, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli": ("load_config", "parse_config", "emit", "cmd_iterate", "cmd_closed",
            "cmd_verify", "cmd_symmetry"),
    "core": ("parse_rational", "format_rational", "CoefficientStream.at"),
    "engine": ("iterate", "step", "v_sequence"),
    "reduced": ("v_step",),
    "closed_form": ("x_closed", "x_closed_all", "x_closed_constant",
                    "x_closed_a_neg1", "prefactor"),
    "symmetry": ("residual_sweep", "symmetry_residual"),
    "verify": ("run_verification", "check_instance"),
}

PER_CALL = frozenset({
    "engine.step", "core.CoefficientStream.at", "reduced.v_step",
    "symmetry.symmetry_residual", "core.parse_rational", "core.format_rational",
})

# functions whose result height (bits of the larger of numerator and
# denominator; for a trajectory or a list, of its last value) is summed
OUT_BITS = ("engine.iterate", "closed_form.x_closed", "closed_form.x_closed_all",
            "closed_form.x_closed_constant", "closed_form.x_closed_a_neg1",
            "closed_form.prefactor")


def function_names() -> List[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def height(value) -> int:
    if hasattr(value, "values"):  # Trajectory
        value = value.values[-1]
    elif isinstance(value, list):
        value = value[-1]
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "error_s", "measure")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.error_s = 0.0
        self.measure = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in function_names()}
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self.request: Optional[int] = None
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._next_id = 0

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "ratrec" or n.startswith("ratrec.")]
        for name in function_names():
            module, _, attr = name.partition(".")
            owner = sys.modules.get("ratrec." + module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in [owner] + namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def remove(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = None if name in PER_CALL else self.spans
        measure = (height if name in OUT_BITS else
                   _digits if name == "core.format_rational" else None)
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if spans is None:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if error is not None:
                    stat.errors += 1
                    stat.error_s += elapsed
                if spans is not None:
                    spans.append((span_id, parent, self.request, name, start, end, error))
            if measure is not None:
                stat.measure += measure(result)
            return result

        return wrapper

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.total_s"] = stat.total
            out[f"{name}.self_s"] = stat.self_time
            out[f"{name}.errors"] = stat.errors
        out["core.format_rational.digits"] = self.stats["core.format_rational"].measure
        for name in OUT_BITS:
            out[f"{name}.out_bits"] = self.stats[name].measure
        checks = self.stats["verify.check_instance"]
        # base: verify.check_instance.calls; a call that raises is a skipped trial
        out["verify.useful_ratio"] = (
            (checks.calls - checks.errors) / checks.calls if checks.calls else 0.0)
        out["verify.check_instance.skip_s"] = checks.error_s
        out["trace.overhead_s"] = overhead_s
        return out


def _digits(text: str) -> int:
    return len(text) - text.count("/") - text.count("-")
