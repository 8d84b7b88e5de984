"""Cost-model-driven maintenance: one controller for every backend's triggers.

Every amortizing backend faces the same economic decision each update: keep
serving from stale-but-cheap cached state (Theorem 9 overlays, a cached
broadcast tree) or pay for a refresh (rebuild ``D``, snapshot the stream,
re-run the BFS flood).  Every trigger — the overlay budgets, the stale-tree
flag, the CONGEST as-built depth bound — has the same shape: *refresh once
the accumulated excess per-update cost catches up with the refresh cost*.

:class:`MaintenanceController` owns that decision once.  Backends report
:class:`CostSignal` observations after each update (overlay growth, whether
the committed tree moved, broadcast depth drift), each
signal is judged by a per-backend :class:`CostModel` against a budget — the
amortised refresh cost in the model's own unit — and
:class:`~repro.core.engine.UpdateEngine` consults the controller at every
policy decision:

* a **cadence** model (``forces=False``) drives the auto-tuned
  ``rebuild_every=None`` policy (e.g. the Theorem 9 overlay budget, or the
  committed tree having moved away from ``D``'s base tree);
* a **forcing** model (``forces=True``) vetoes overlay service under *any*
  policy, exactly like a backend :meth:`~repro.core.engine.Backend.must_rebuild`
  veto (e.g. accumulated broadcast depth-drift cost crossing the ``O(D)``
  rebuild cost).

Two model kinds cover every trigger in the repo:

* ``kind="level"`` — the latest observation is compared against the budget
  (overlay sizes: signals that already *are* a per-update cost level; the
  0/1 stale-tree flag);
* ``kind="excess"`` — observations accumulate until a refresh resets the
  account (depth-drift rounds: each update's excess cost is paid once and
  gone, so only the running total can be weighed against the refresh cost).

Controller-demanded refreshes are counted under ``cost_model_triggers``;
accumulated excess is metered under ``cost_model_excess``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.metrics.counters import MetricsRecorder

__all__ = ["CostSignal", "CostModel", "MaintenanceController"]


class CostSignal(NamedTuple):
    """One backend observation: the *value* of maintenance signal *name* for
    the update that just completed."""

    name: str
    value: float


class CostModel:
    """How one maintenance signal is weighed against the refresh cost.

    Parameters
    ----------
    name:
        Signal name; :class:`CostSignal` observations are routed by it.
    budget:
        Zero-argument callable returning the current budget — the modeled
        (amortised) refresh cost in the signal's unit.  Evaluated lazily at
        decision time, so budgets may track live state (graph size, as-built
        broadcast depth).
    kind:
        ``"level"`` — :meth:`due` compares the latest observation against the
        budget.  ``"excess"`` — observations accumulate; :meth:`due` compares
        the running total (reset by :meth:`reset`).
    forces:
        True for models that veto overlay service under any rebuild policy
        (depth drift); False for models that only drive the auto-tuned
        cadence (overlay budgets, the stale tree).
    inclusive:
        Due when ``value >= budget`` (the historical overlay-budget
        comparison) instead of the default strict ``value > budget``.
    """

    def __init__(
        self,
        name: str,
        budget: Callable[[], float],
        *,
        kind: str = "level",
        forces: bool = False,
        inclusive: bool = False,
    ) -> None:
        if kind not in ("level", "excess"):
            raise ValueError(f"unknown cost model kind {kind!r}")
        self.name = name
        self._budget = budget
        self.kind = kind
        self.forces = forces
        self.inclusive = inclusive
        self._value = 0.0

    def observe(self, value: float) -> None:
        """Fold one per-update observation into the model."""
        if self.kind == "excess":
            self._value += value
        else:
            self._value = value

    def value(self) -> float:
        """Latest level, or the accumulated excess since the last refresh."""
        return self._value

    def budget(self) -> float:
        """The current budget (modeled refresh cost), evaluated live."""
        return self._budget()

    def due(self) -> bool:
        """True when the signal has caught up with the refresh cost."""
        budget = self.budget()
        return self._value >= budget if self.inclusive else self._value > budget

    def reset(self) -> None:
        """Forget the account (called when the backend refreshed its state)."""
        self._value = 0.0


class MaintenanceController:
    """Routes backend :class:`CostSignal` reports into :class:`CostModel`\\ s
    and answers the engine's two policy questions: is a refresh *due* under
    the auto-tuned cadence, and is one *forced* regardless of policy.

    Models are evaluated in registration order: when several are due, the
    first one registered names the trigger.
    """

    def __init__(self, metrics: Optional[MetricsRecorder] = None) -> None:
        self._models: List[CostModel] = []
        self._by_name: Dict[str, CostModel] = {}
        self._metrics = metrics

    def add(self, model: CostModel) -> CostModel:
        """Register *model*; returns it for call-site chaining."""
        if model.name in self._by_name:
            raise ValueError(f"duplicate cost model {model.name!r}")
        self._models.append(model)
        self._by_name[model.name] = model
        return model

    def model(self, name: str) -> CostModel:
        """The registered model for signal *name* (KeyError when absent)."""
        return self._by_name[name]

    def has_model(self, name: str) -> bool:
        """True when a model is registered for signal *name*."""
        return name in self._by_name

    # ------------------------------------------------------------------ #
    # Reporting (backends, once per update)
    # ------------------------------------------------------------------ #
    def report(self, signal: CostSignal) -> None:
        """Fold one observation; signals without a registered model are
        ignored (a backend may emit a superset of what it budgets)."""
        model = self._by_name.get(signal.name)
        if model is None:
            return
        model.observe(signal.value)
        if self._metrics is not None and model.kind == "excess" and signal.value:
            self._metrics.inc("cost_model_excess", signal.value)

    def observe(self, name: str, value: float) -> None:
        """Convenience wrapper for :meth:`report`."""
        self.report(CostSignal(name, value))

    # ------------------------------------------------------------------ #
    # Policy decisions (UpdateEngine, once per update)
    # ------------------------------------------------------------------ #
    def cadence_due(self) -> Optional[str]:
        """Name of the first due *cadence* model (auto-tuned ``rebuild_every=None``
        policy), or None to keep serving from the cached state."""
        for model in self._models:
            if not model.forces and model.due():
                return model.name
        return None

    def forced_due(self) -> Optional[str]:
        """Name of the first due *forcing* model (vetoes overlay service under
        any policy), or None."""
        for model in self._models:
            if model.forces and model.due():
                return model.name
        return None

    def on_refresh(self) -> None:
        """Reset every model's account after the backend refreshed its state."""
        for model in self._models:
            model.reset()
