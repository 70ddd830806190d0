"""The system under test: the async front door over one deployment.

A :class:`Deployment` is one ``FacebookPSP`` and one in-memory
``CloudStorage`` behind a ``P3Gateway`` built with ``P3Config()``
defaults, fronted by an ``AsyncGateway``.  Two users share one album
(both hold its key), as a sender and a viewer would.  The provider's ``upload`` and
``download`` are wrapped on the instance, and nowhere else, so each
request's time inside the simulated provider can be subtracted from
its latency: what remains is P3's own cost.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from repro.core.config import P3Config
from repro.serve.async_gateway import AsyncGateway
from repro.system.gateway import USER_HEADER, P3Gateway
from repro.system.http import HttpRequest, HttpResponse
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage

ALBUM = "trip"
USERS = ("alice", "bob")
BASE_URL = "https://p3.example"


@dataclass
class ProviderClock:
    """Seconds each request spent inside the provider.

    Uploads are keyed by the photo ID the provider returns; downloads
    by ``(photo_id, requester)``, which is unique among in-flight
    requests because every client is one user with one request
    outstanding.  ``public_parts`` keeps the bytes each upload handed
    to the provider, for the lossless check.
    """

    uploads: dict[str, float] = field(default_factory=dict)
    downloads: dict[tuple[str, str], float] = field(default_factory=dict)
    public_parts: dict[str, bytes] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def wrap(self, psp: FacebookPSP) -> None:
        """Time ``psp``'s upload and download, on this instance only.

        The wrappers call through the class at call time, so a traced
        run's class-level spans still see these calls.
        """
        provider_class = type(psp)

        def upload(data, owner, viewers=None):
            start = time.perf_counter()
            photo_id = provider_class.upload(psp, data, owner, viewers)
            elapsed = time.perf_counter() - start
            with self.lock:
                self.uploads[photo_id] = elapsed
                self.public_parts[photo_id] = data
            return photo_id

        def download(photo_id, requester, resolution=None, crop_box=None):
            start = time.perf_counter()
            data = provider_class.download(
                psp, photo_id, requester, resolution, crop_box
            )
            elapsed = time.perf_counter() - start
            with self.lock:
                key = (photo_id, requester)
                self.downloads[key] = self.downloads.get(key, 0.0) + elapsed
            return data

        psp.upload = upload
        psp.download = download

    def take_download(self, photo_id: str, requester: str) -> float:
        with self.lock:
            return self.downloads.pop((photo_id, requester), 0.0)


class Deployment:
    """One provider, one blob store, one gateway, one front door."""

    def __init__(self) -> None:
        self.config = P3Config()
        self.psp = FacebookPSP()
        self.storage = CloudStorage()
        self.clock = ProviderClock()
        self.clock.wrap(self.psp)
        self.gateway = P3Gateway(self.psp, self.storage, self.config)
        for user in USERS:
            self.gateway.add_user(user)
        self.keyrings = {user: self.gateway.keyring_for(user) for user in USERS}
        self.keyrings[USERS[0]].create_album(ALBUM)
        self.gateway.share_album(USERS[0], ALBUM, *USERS[1:])
        self.front = AsyncGateway(self.gateway)

    def restarted_front(self) -> AsyncGateway:
        """A freshly built gateway over the same backends and keyrings:
        every cache tier starts empty, as after a restart.  The caller
        closes it."""
        gateway = P3Gateway(self.psp, self.storage, self.config)
        for user, keyring in self.keyrings.items():
            gateway.add_user(user, keyring)
        return AsyncGateway(gateway)

    def key(self, user: str, album: str) -> bytes:
        return self.keyrings[user].key_for(album)

    def close(self) -> None:
        self.front.close()


def upload_request(user: str, album: str, body: bytes) -> HttpRequest:
    viewers = ",".join(u for u in USERS if u != user)
    return HttpRequest(
        method="POST",
        url=f"{BASE_URL}/photos/upload?album={album}&viewers={viewers}",
        headers={USER_HEADER: user},
        body=body,
    )


def view_request(user: str, photo_id: str, size: int) -> HttpRequest:
    return HttpRequest(
        method="GET",
        url=f"{BASE_URL}/photos/{photo_id}?album={ALBUM}&size={size}",
        headers={USER_HEADER: user},
    )


async def upload_corpus(front: AsyncGateway, photos: list[bytes]) -> list[str]:
    """Upload ``photos`` to the shared album through the front door,
    one sender per user running concurrently; returns the photo IDs in
    input order."""
    ids: list[str] = [""] * len(photos)

    async def sender(offset: int) -> None:
        for index in range(offset, len(photos), len(USERS)):
            response: HttpResponse = await front.handle(
                upload_request(USERS[0], ALBUM, photos[index])
            )
            if response.status != 201:
                raise RuntimeError(
                    f"corpus upload failed: {response.status} "
                    f"{response.body[:200]!r}"
                )
            ids[index] = response.headers["x-photo-id"]

    await asyncio.gather(*(sender(i) for i in range(len(USERS))))
    return ids
