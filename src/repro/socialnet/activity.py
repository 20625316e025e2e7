"""Per-account activity logs.

The paper crawls honeypot activity logs to measure *outgoing* reputation
manipulation (Table 4's "Outgoing Activities" columns).  The platform keeps
an append-only log per account mirroring that data source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


# Not frozen: a frozen dataclass assigns every field through
# object.__setattr__, tripling construction cost on the hottest
# allocation in the platform write path.
@dataclass(slots=True)
class ActivityRecord:
    """One action performed by an account.

    ``verb`` is one of ``like``, ``comment`` or ``post``; ``target_kind``
    distinguishes likes on posts from likes on pages.
    """

    actor_id: str
    verb: str
    target_id: str
    target_kind: str
    target_owner_id: str
    created_at: int
    via_app_id: Optional[str] = None
    source_ip: Optional[str] = None


class ActivityLog:
    """Append-only store of :class:`ActivityRecord` indexed by actor."""

    def __init__(self) -> None:
        self._by_actor: Dict[str, List[ActivityRecord]] = {}
        self._total = 0

    def record(self, record: ActivityRecord) -> None:
        self._by_actor.setdefault(record.actor_id, []).append(record)
        self._total += 1

    def for_actor(self, actor_id: str) -> List[ActivityRecord]:
        """All activity by ``actor_id``, oldest first."""
        return list(self._by_actor.get(actor_id, ()))

    def for_actors(self, actor_ids: Iterable[str]) -> List[ActivityRecord]:
        """Merged activity across ``actor_ids``, sorted by time."""
        merged: List[ActivityRecord] = []
        for actor_id in actor_ids:
            merged.extend(self._by_actor.get(actor_id, ()))
        merged.sort(key=lambda r: r.created_at)
        return merged

    def __len__(self) -> int:
        return self._total
