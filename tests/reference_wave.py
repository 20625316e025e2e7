"""A reference model of :class:`~repro.graphapi.api.DeliveryWave`.

:class:`ReferenceWave` is a drop-in for ``api.delivery_wave(...)``
whose ``like`` / ``charge`` walk the public raising
:meth:`GraphApi.like_post` / :meth:`GraphApi.charge_like` one request
at a time and map each exception to the wave's result code.  Nothing
is memoized or buffered, so a study run through it is the per-request
oracle that wave runs must reproduce byte for byte (see
``tests/test_batch_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.graphapi.errors import (
    ApiTimeout,
    AppSecretRequiredError,
    BlockedSourceError,
    IpRateLimitError,
    PermissionDeniedError,
    RateLimitExceededError,
    TransientApiError,
)
from repro.oauth.errors import InvalidTokenError
from repro.socialnet.errors import SocialNetworkError

#: Exception -> wave result code.  ``ApiTimeout`` subclasses
#: ``TransientApiError``, so it must be matched first.
CODES = (
    (ApiTimeout, "timeout"),
    (TransientApiError, "transient"),
    (InvalidTokenError, "invalid_token"),
    (AppSecretRequiredError, "app_secret"),
    (PermissionDeniedError, "permission"),
    (BlockedSourceError, "blocked"),
    (RateLimitExceededError, "token_limit"),
    (IpRateLimitError, "ip_limit"),
    (SocialNetworkError, "platform_error"),
)


def _code_of(error: Exception) -> str:
    for kind, code in CODES:
        if isinstance(error, kind):
            return code
    raise error


class ReferenceWave:
    """One request per call through the raising ``GraphApi`` methods."""

    def __init__(self, api, post_id: Optional[str] = None,
                 calls: Optional[dict] = None) -> None:
        self.api = api
        self.post_id = post_id
        self.calls = calls if calls is not None else {}

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def like(self, access_token: str,
             source_ip: Optional[str]) -> Optional[str]:
        self._count("like")
        try:
            self.api.like_post(access_token, self.post_id,
                               source_ip=source_ip)
        except Exception as error:
            return _code_of(error)
        return None

    def charge(self, access_token: str,
               source_ip: Optional[str] = None) -> Optional[str]:
        self._count("charge")
        try:
            self.api.charge_like(access_token, source_ip=source_ip)
        except Exception as error:
            return _code_of(error)
        return None

    def finish(self) -> None:
        """Nothing is pending: every call already landed."""


def install(api) -> dict:
    """Route ``api.delivery_wave`` through :class:`ReferenceWave`;
    returns the shared per-method call counts."""
    calls: dict = {}

    def delivery_wave(post_id: Optional[str] = None) -> ReferenceWave:
        return ReferenceWave(api, post_id, calls)

    api.delivery_wave = delivery_wave
    return calls
