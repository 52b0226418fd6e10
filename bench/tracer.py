"""In-memory span recorder for the benchmark's traced runs.

``install`` wraps each layer's public functions at every binding a caller
looks up (``catdom.mallows.run_csam`` as well as ``catdom.engine.run_csam``,
``catdom.cli.solve_spne``, ...) and the methods on ``Preference`` and
``PickingOrder``. Each wrapped call records a span (layer, start, end,
parent) and adds its duration to the layer's total and, minus the time its
child spans cover, to the layer's self time. Spans stay in memory; ``save``
writes them out once the run is over.

Nothing inside ``catdom`` is changed on disk: the wrappers live only in the
traced process, and ``install`` returns the function that removes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute, method or None). A method entry wraps
# that method on the class; a function entry wraps every module attribute in
# the package that is bound to the function.
LAYERS = (
    ("domain.Preference", "catdom.domain", "Preference", "__init__"),
    ("domain.Preference.rank_of", "catdom.domain", "Preference", "rank_of"),
    ("mallows.run_experiment", "catdom.mallows", "run_experiment", None),
    ("mallows.uniform_preference", "catdom.mallows", "uniform_preference", None),
    ("mallows.sample_mallows", "catdom.mallows", "sample_mallows", None),
    ("engine.run_csam", "catdom.engine", "run_csam", None),
    ("engine.optimistic_choice", "catdom.engine", "optimistic_choice", None),
    ("engine.pessimistic_comparison", "catdom.engine", "pessimistic_comparison", None),
    (
        "engine.direct_serial_dictatorship",
        "catdom.engine",
        "direct_serial_dictatorship",
        None,
    ),
    ("orders.PickingOrder", "catdom.orders", "PickingOrder", "__init__"),
    ("orders.analyze_order", "catdom.orders", "analyze_order", None),
    ("bounds.search_orders", "catdom.bounds", "search_orders", None),
    ("bounds.worst_case_report", "catdom.bounds", "worst_case_report", None),
    ("adversarial.worst_case_profile", "catdom.adversarial", "worst_case_profile", None),
    (
        "adversarial.near_optimal_allocation",
        "catdom.adversarial",
        "near_optimal_allocation",
        None,
    ),
    ("spne.solve_spne", "catdom.spne", "solve_spne", None),
    ("axioms.check_strategy_proofness", "catdom.axioms", "check_strategy_proofness", None),
    ("axioms.check_non_bossiness", "catdom.axioms", "check_non_bossiness", None),
    (
        "axioms.check_category_wise_neutrality",
        "catdom.axioms",
        "check_category_wise_neutrality",
        None,
    ),
    ("axioms.check_pareto_optimality", "catdom.axioms", "check_pareto_optimality", None),
    ("cli.main", "catdom.cli", "main", None),
)

LAYER_NAMES = tuple(layer[0] for layer in LAYERS)
# The benchmark's own span around each operation; every layer span of an
# operation descends from it.
ROOT = len(LAYERS)
ROOT_NAME = "bench.op"
# Spans kept in memory per run (24 bytes each); calls beyond it still count
# toward the per-layer totals.
MAX_SPANS = 1_000_000


class Recorder:
    """Spans in parallel arrays plus per-layer calls, total and self time.

    Times collect per op and join ``total_s`` and ``self_s`` at ``end_op``,
    multiplied by the op's speed scale (see ``worker.REFERENCE_S``).
    """

    def __init__(self):
        count = len(LAYERS) + 1
        self.calls = [0] * count
        self.total_s = [0.0] * count
        self.self_s = [0.0] * count
        self._op_total = [0.0] * count
        self._op_self = [0.0] * count
        self.dropped = 0
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        # open spans: [layer, start, time covered by children, span index]
        self._open: list[list] = []

    def enter(self, layer: int) -> None:
        t = perf_counter()
        span = len(self.start)
        if span < MAX_SPANS:
            self.start.append(t)
            self.end.append(0.0)
            self.layer.append(layer)
            self.parent.append(self._open[-1][3] if self._open else -1)
        else:
            span = -1
            self.dropped += 1
        self._open.append([layer, t, 0.0, span])

    def leave(self) -> None:
        t = perf_counter()
        layer, start, covered, span = self._open.pop()
        duration = t - start
        self.calls[layer] += 1
        self._op_total[layer] += duration
        self._op_self[layer] += duration - covered
        if self._open:
            self._open[-1][2] += duration
        if span >= 0:
            self.end[span] = t

    def end_op(self, scale: float) -> None:
        for layer, (total, own) in enumerate(zip(self._op_total, self._op_self)):
            self.total_s[layer] += total * scale
            self.self_s[layer] += own * scale
        count = len(self.calls)
        self._op_total = [0.0] * count
        self._op_self = [0.0] * count

    def wrap(self, layer: int, fn):
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def save(self, path) -> None:
        """Write the spans as arrays (``np.load`` reads them back)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(LAYER_NAMES + (ROOT_NAME,)),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(recorder: Recorder):
    """Wrap every layer that exists; returns the function that unwraps them.

    A layer whose function or method is gone is left unwrapped, so it reports
    zero calls rather than failing the run.
    """
    undo = []
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "catdom" or name.startswith("catdom.")
    ]
    for layer, (_, module_name, attr, method) in enumerate(LAYERS):
        owner = getattr(importlib.import_module(module_name), attr, None)
        if owner is None:
            continue
        if method is not None:
            original = owner.__dict__.get(method)
            if original is None:
                continue
            setattr(owner, method, recorder.wrap(layer, original))
            undo.append((owner, method, original))
            continue
        wrapper = recorder.wrap(layer, owner)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is owner:
                    setattr(module, key, wrapper)
                    undo.append((module, key, owner))

    def uninstall() -> None:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)

    return uninstall
