"""Serving resilience: deadlines, cancellation, admission.

The governance layer between the executor and the storage backend:

* :class:`Deadline` / :class:`CancelToken` / :class:`QueryContext` — the
  per-query execution context, checked cooperatively before every ref of
  the storage fold (:meth:`repro.columnstore.table.MasterRelation.fold`),
  between measure gathers (:mod:`repro.core.engine.interpreter`) and in
  executor batch loops; expiry raises :class:`~repro.errors.QueryTimeoutError`, a fired
  token raises :class:`~repro.errors.QueryCancelledError`;
* :class:`AdmissionController` — token-bucket + inflight gate
  that the daemon's tenant gates (:mod:`repro.serve.tenants`) are built
  from, rejecting with :class:`~repro.errors.AdmissionRejectedError` after
  a bounded wait.

The executor counts timeouts and cancellations, and an attached
:class:`repro.obs.MetricsRegistry` exports them as ``resilience.*``.
"""

from .admission import AdmissionController, AdmissionStats
from .context import CancelToken, Deadline, QueryContext

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CancelToken",
    "Deadline",
    "QueryContext",
]
