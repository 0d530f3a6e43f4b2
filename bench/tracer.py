"""Outside-in tracing of regretopt's layers.

The tracer replaces each traced function with a timing wrapper in every
``regretopt`` module that binds it by name, so calls between modules go
through the wrapper without any change to the program.  A span's self
time is its duration minus the time its wrapped children took.  After
patching, every module, class and default argument of the package is
scanned again; any reference to an unwrapped original is an error,
because a refactor that rebinds a function somewhere new would otherwise
silently drop that layer's time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "regretopt"

# (home module, attribute, span name, timed).  Untimed targets are only
# counted: they are too fine-grained for a wrapper's own cost to vanish.
TARGETS = (
    ("shortest_path", "dijkstra", "shortest_path.dijkstra", True),
    ("shortest_path", "constrained_sp", "shortest_path.constrained_sp", True),
    ("shortest_path", "two_unit_min_flow", "shortest_path.two_unit_min_flow", True),
    ("game", "solve_zero_sum", "game.solve_zero_sum", True),
    ("double_oracle", "run_double_oracle", "double_oracle.run_double_oracle", True),
    ("double_oracle", "br_c", "double_oracle.br_c", True),
    ("double_oracle", "max_regret", "double_oracle.max_regret", True),
    ("double_oracle", "ScenarioPool.ensure", "double_oracle.pool", True),
    ("bounds", "lb_kz", "bounds.lb_kz", True),
    ("bounds", "lb_cg", "bounds.lb_cg", True),
    ("bounds", "lb_mgd", "bounds.lb_mgd", True),
    ("branch_bound", "bb_solve", "branch_bound.bb_solve", True),
    ("branch_bound", "node_lower_bound", "branch_bound.node_lower_bound", True),
    ("core", "penalizing_scenario", "core.penalizing_scenario", False),
    ("core", "favoring_scenario", "core.favoring_scenario", False),
    ("harness.generators", "gen_instance", "harness.gen_instance", True),
)

# Modules whose spans make up each layer's share of a round.
LAYERS = ("shortest_path", "game", "double_oracle", "bounds", "branch_bound")


class TracerError(RuntimeError):
    """The program no longer matches the tracer's list of layer functions."""


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the layer functions while installed and accumulates their statistics."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.spans = {name: SpanStats() for _, _, name, _ in TARGETS}
        self.game_rows = 0
        self.game_cols = 0
        self.game_cols_max = 0
        self.game_failures = 0
        self.do_iterations = 0
        self.do_converged = 0
        self.pool_hits = 0
        self.pool_misses = 0
        self.nodes_expanded = 0

    # -- per-target observations -------------------------------------------------

    def _observe(self, name: str, args, result, before) -> None:
        if name == "double_oracle.run_double_oracle":
            self.do_iterations += result.iterations
            self.do_converged += int(result.converged)
        elif name == "branch_bound.bb_solve":
            self.nodes_expanded += result.nodes_expanded
        elif name == "double_oracle.pool":
            if len(args[0]) > before:
                self.pool_misses += 1
            else:
                self.pool_hits += 1

    def _before(self, name: str, args):
        if name == "game.solve_zero_sum":
            rows, cols = len(args[0]), len(args[0][0])
            self.game_rows += rows
            self.game_cols += cols
            self.game_cols_max = max(self.game_cols_max, cols)
        elif name == "double_oracle.pool":
            return len(args[0])
        return None

    def _wrap(self, original, name: str, timed: bool):
        stats = self.spans[name]
        if not timed:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                stats.calls += 1
                return original(*args, **kwargs)

            return counted

        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = self._before(name, args)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                if name == "game.solve_zero_sum":
                    self.game_failures += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            self._observe(name, args, result, before)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise TracerError("tracer already installed")
        modules = _package_modules()
        originals = {}
        for home, attr, name, timed in TARGETS:
            owner, leaf = _resolve(modules, home, attr)
            original = owner.__dict__[leaf]
            if not isinstance(original, types.FunctionType):
                raise TracerError("%s.%s.%s is not a plain function" % (PACKAGE, home, attr))
            originals[id(original)] = (original, self._wrap(original, name, timed))
        for module in modules.values():
            for holder in _holders(module):
                for key, value in list(vars(holder).items()):
                    hit = originals.get(id(value))
                    if hit is not None and value is hit[0]:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, hit[1])
        leftovers = _references(modules, {id(o) for o, _ in originals.values()})
        if leftovers:
            self.uninstall()
            raise TracerError("unwrapped references to traced functions remain: %s" % ", ".join(leftovers))

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self, rounds: int, round_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics; round_wall_s is the mean traced round time."""
        out: dict[str, tuple[float, str]] = {}
        s = self.spans

        def per_round(x: float) -> float:
            return x / rounds

        def calls_ms(name: str) -> None:
            out[name + ".calls"] = (per_round(s[name].calls), "count")
            out[name + ".ms"] = (per_round(s[name].total_s) * 1e3, "ms")

        for name in ("shortest_path.dijkstra", "shortest_path.constrained_sp", "shortest_path.two_unit_min_flow"):
            calls_ms(name)
        lp = s["game.solve_zero_sum"]
        calls_ms("game.solve_zero_sum")
        out["game.solve_zero_sum.rows_mean"] = (self.game_rows / lp.calls if lp.calls else 0.0, "count")
        out["game.solve_zero_sum.cols_mean"] = (self.game_cols / lp.calls if lp.calls else 0.0, "count")
        out["game.solve_zero_sum.cols_max"] = (float(self.game_cols_max), "count")
        out["game.solve_zero_sum.failures"] = (per_round(self.game_failures), "count")
        do = s["double_oracle.run_double_oracle"]
        calls_ms("double_oracle.run_double_oracle")
        out["double_oracle.run_double_oracle.self_ms"] = (per_round(do.self_s) * 1e3, "ms")
        out["double_oracle.iterations"] = (per_round(self.do_iterations), "count")
        out["double_oracle.converged_ratio"] = (self.do_converged / do.calls if do.calls else 0.0, "ratio")
        calls_ms("double_oracle.br_c")
        calls_ms("double_oracle.max_regret")
        out["double_oracle.pool.hits"] = (per_round(self.pool_hits), "count")
        out["double_oracle.pool.misses"] = (per_round(self.pool_misses), "count")
        for name in ("bounds.lb_kz", "bounds.lb_cg", "bounds.lb_mgd"):
            calls_ms(name)
        out["branch_bound.bb_solve.self_ms"] = (per_round(s["branch_bound.bb_solve"].self_s) * 1e3, "ms")
        calls_ms("branch_bound.node_lower_bound")
        out["branch_bound.nodes_expanded"] = (per_round(self.nodes_expanded), "count")
        out["core.penalizing_scenario.calls"] = (per_round(s["core.penalizing_scenario"].calls), "count")
        out["core.favoring_scenario.calls"] = (per_round(s["core.favoring_scenario"].calls), "count")
        covered = 0.0
        for layer in LAYERS:
            self_s = sum(st.self_s for name, st in s.items() if name.split(".")[0] == layer)
            covered += self_s
            out["split.%s.pct" % layer] = (100.0 * per_round(self_s) / round_wall_s, "%")
        out["split.untraced.pct"] = (100.0 - 100.0 * per_round(covered) / round_wall_s, "%")
        return out


def _package_modules() -> dict[str, types.ModuleType]:
    """Import every module of the package so each binding gets patched."""
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _resolve(modules, home: str, attr: str):
    module = modules.get("%s.%s" % (PACKAGE, home))
    if module is None:
        raise TracerError("module %s.%s is gone; update the tracer's targets" % (PACKAGE, home))
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError("%s.%s has no %s; update the tracer's targets" % (PACKAGE, home, attr))
    if leaf not in vars(owner):
        raise TracerError("%s.%s has no %s; update the tracer's targets" % (PACKAGE, home, attr))
    return owner, leaf


def _holders(module: types.ModuleType):
    """The module and the classes it defines: every namespace a traced function can sit in."""
    yield module
    for value in list(vars(module).values()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            yield value


def _references(modules, original_ids: set[int]) -> list[str]:
    """Places in the package that still hold an original, unwrapped function."""
    found = []
    for module in modules.values():
        for holder in _holders(module):
            label = holder.__name__ if holder is module else "%s.%s" % (module.__name__, holder.__name__)
            for key, value in vars(holder).items():
                if id(value) in original_ids:
                    found.append("%s.%s" % (label, key))
                if isinstance(value, types.FunctionType):
                    defaults = (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values())
                    if any(id(d) in original_ids for d in defaults):
                        found.append("default argument of %s.%s" % (label, key))
    return found
