"""Per-tenant admission accounting for the daemon.

Every request names a tenant (the ``tenant`` body field or the
``X-Repro-Tenant`` header; ``"default"`` otherwise) and must pass *two*
gates to run: the tenant's own :class:`AdmissionController` and the
process-wide shared one.  The tenant gate is acquired first — a tenant
that has exhausted its budget is rejected before it can occupy a shared
slot, so one noisy tenant cannot starve the rest (the lifecycle suite
holds tenant B's throughput to this while tenant A is saturated).

Tenant controllers are created lazily from one template config, capped at
``max_tenants`` distinct ids so an attacker cycling random tenant names
cannot grow the map without bound.
"""

from __future__ import annotations

import re
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..resilience import AdmissionController

__all__ = ["TenantPolicy", "TenantGate", "BadTenantError"]

# Tenant ids are opaque tokens, not paths or header injection vectors.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

DEFAULT_TENANT = "default"


class BadTenantError(ValueError):
    """A tenant id the gate refuses to account for."""


@dataclass
class TenantPolicy:
    """Template for the lazily created per-tenant controllers."""

    max_inflight: int | None = None
    rate: float | None = None
    burst: float | None = None
    max_wait_s: float = 0.0
    max_bytes: int | None = None
    max_tenants: int = 1024

    @property
    def unlimited(self) -> bool:
        return (
            self.max_inflight is None
            and self.rate is None
            and self.max_bytes is None
        )

    def build(self) -> AdmissionController:
        return AdmissionController(
            max_inflight=self.max_inflight,
            rate=self.rate,
            burst=self.burst,
            max_wait_s=self.max_wait_s,
            max_bytes=self.max_bytes,
        )


class TenantGate:
    """The two-stage admission gate: per-tenant, then shared.

    ``shared`` may be None (no global gate); per-tenant controllers are
    only materialized when the policy actually limits something, so the
    ungoverned configuration costs one dict lookup per request.
    """

    def __init__(
        self,
        shared: AdmissionController | None = None,
        policy: TenantPolicy | None = None,
    ):
        self.shared = shared
        self.policy = policy or TenantPolicy()
        self._tenants: dict[str, AdmissionController] = {}
        self._lock = threading.Lock()

    @staticmethod
    def validate(tenant: str) -> str:
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise BadTenantError(
                f"invalid tenant id: {tenant!r} (want 1-64 chars of [A-Za-z0-9._-])"
            )
        return tenant

    def controller_for(self, tenant: str) -> AdmissionController | None:
        """The tenant's controller, created on first use; None when the
        policy is unlimited (nothing to account)."""
        if self.policy.unlimited:
            return None
        with self._lock:
            ctrl = self._tenants.get(tenant)
            if ctrl is None:
                if len(self._tenants) >= self.policy.max_tenants:
                    raise BadTenantError(
                        f"tenant table full ({self.policy.max_tenants} ids); "
                        f"refusing new tenant {tenant!r}"
                    )
                ctrl = self.policy.build()
                self._tenants[tenant] = ctrl
            return ctrl

    def _gates(self, tenant: str) -> list[AdmissionController]:
        """The gates a request must hold, tenant first."""
        ctrl = self.controller_for(self.validate(tenant))
        return [gate for gate in (ctrl, self.shared) if gate is not None]

    @contextmanager
    def admit(self, tenant: str, nbytes: int = 0) -> Iterator[None]:
        """Hold both gates for the duration of one query.

        Tenant first: an AdmissionRejectedError from the tenant gate is
        raised before the shared gate is touched, and the shared slot is
        released before the tenant slot on exit (strict nesting).
        """
        with ExitStack() as permit:
            for gate in self._gates(tenant):
                permit.enter_context(gate.admit(nbytes))
            yield

    def try_admit(self, tenant: str, nbytes: int = 0) -> ExitStack | None:
        """Take both gates now, or return None holding nothing (a tenant
        slot already taken is given back when the shared gate refuses).
        Closing the returned permit releases what it holds, shared first;
        an ungoverned gate returns an empty one."""
        permit = ExitStack()
        for gate in self._gates(tenant):
            if not gate.try_admit(nbytes):
                permit.close()
                return None
            permit.callback(gate.release, nbytes)
        return permit

    def inflight(self) -> int:
        """Total inflight across all gates — the leak probe the fuzz
        suite asserts returns to zero."""
        total = self.shared.stats.inflight if self.shared is not None else 0
        with self._lock:
            tenants = list(self._tenants.values())
        return total + sum(c.stats.inflight for c in tenants)

    def stats(self) -> dict:
        out: dict = {}
        if self.shared is not None:
            s = self.shared.stats
            out["shared"] = {
                "admitted": s.admitted,
                "rejected": s.rejected,
                "inflight": s.inflight,
                "bytes_inflight": s.bytes_inflight,
            }
        with self._lock:
            tenants = dict(self._tenants)
        out["tenants"] = {
            name: {
                "admitted": c.stats.admitted,
                "rejected": c.stats.rejected,
                "inflight": c.stats.inflight,
            }
            for name, c in sorted(tenants.items())
        }
        return out
