"""Table 3 — applications exploited by popular collusion networks.

Paper result: HTC Sense (1M DAU, rank 40), Nokia Account (100K DAU, rank
249), Sony Xperia smartphone (10K DAU, rank 866), with MAU ranks 85, 213
and 1563.  Stats are retrieved through the Graph API, exactly as the
paper did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps.catalog import mau_bucket
from repro.collusion.profiles import HTC_SENSE, NOKIA_ACCOUNT, SONY_XPERIA
from repro.experiments.formats import format_table, humanize_count
from repro.graphapi.errors import GraphApiError
from repro.oauth.errors import InvalidTokenError
from repro.oauth.scopes import PermissionScope
from repro.oauth.server import AuthorizationRequest

#: The Table 3 applications, in the paper's row order.
TABLE3_APP_IDS = (HTC_SENSE, NOKIA_ACCOUNT, SONY_XPERIA)

#: Stats-call attempts before an injected failure (fault-plan runs
#: only) is allowed through.
_STATS_ATTEMPTS = 4


@dataclass
class Table3Row:
    app_id: str
    name: str
    dau: int
    dau_rank: int
    mau: int
    mau_rank: int


@dataclass
class Table3Result:
    rows: List[Table3Row]

    def render(self) -> str:
        return format_table(
            ["Application Identifier", "Application Name", "DAU",
             "DAU Rank", "MAU", "MAU Rank"],
            [(r.app_id, r.name, humanize_count(mau_bucket(r.dau)),
              r.dau_rank, humanize_count(mau_bucket(r.mau)), r.mau_rank)
             for r in self.rows],
            title="Table 3: applications used by popular collusion networks",
        )


def _rank_of(world, app_id: str, key: str) -> int:
    """1-based rank of ``app_id`` among all registered apps by ``key``."""
    values = sorted((getattr(app, key) for app in world.apps), reverse=True)
    target = getattr(world.apps.get(app_id), key)
    return values.index(target) + 1


def _probe_token(world, account_id: str) -> str:
    """Mint a basic-scope token through the first app's implicit flow,
    as a client would."""
    first_app = world.apps.get(TABLE3_APP_IDS[0])
    auth = world.auth_server.authorize(
        AuthorizationRequest(
            app_id=first_app.app_id,
            redirect_uri=first_app.redirect_uri,
            response_type="token",
            scope=PermissionScope.basic(),
        ),
        account_id,
    )
    return auth.token_from_fragment()


def run(world) -> Table3Result:
    """Fetch each exploited app's usage stats through the Graph API.

    Under a fault plan the stats call is retried like any resilient
    client would: transient errors and rate-limit jitter are retried on
    the same token, and a token killed mid-flight is replaced."""
    probe_account = world.platform.register_account(
        "Table3 Probe", is_honeypot=True)
    token = _probe_token(world, probe_account.account_id)
    rows: List[Table3Row] = []
    for app_id in TABLE3_APP_IDS:
        for attempt in range(1, _STATS_ATTEMPTS + 1):
            try:
                stats = world.api.get_app_stats(token, app_id).data
                break
            except GraphApiError as error:
                if not error.is_transient or attempt == _STATS_ATTEMPTS:
                    raise
            except InvalidTokenError:
                if attempt == _STATS_ATTEMPTS:
                    raise
                token = _probe_token(world, probe_account.account_id)
        rows.append(Table3Row(
            app_id=app_id,
            name=stats["name"],
            dau=stats["daily_active_users"],
            dau_rank=_rank_of(world, app_id, "daily_active_users"),
            mau=stats["monthly_active_users"],
            mau_rank=_rank_of(world, app_id, "monthly_active_users"),
        ))
    return Table3Result(rows=rows)
