"""The workloads, their closed-loop load generator, and the output checks.

Each workload sends one request shape, so a percentile never falls
between two modes:

* ``upload`` -- every client is a sender POSTing 720 px camera JPEGs
  from the seeded pool.  Exercises the sender proxy (entropy decode,
  split, public-part encode, seal) and the provider's ingest.
* ``view_cold`` -- every request is ``size=720`` of a photo the
  gateway serving it has never served: each client views the corpus
  in passes, and every pass runs on a freshly built gateway over the
  same backends (a restart).  Exercises the recipient proxy's full
  reconstruction; no encode, split or seal code runs.
* ``view_warm`` -- clients on the event loop request a hot set of
  ``size=130`` thumbnails already in the variant cache.  Exercises the
  front door's dispatch and the cache-hit path; the codec is idle.

Outputs are checked after the clock stops.  Every distinct view body
is compared byte for byte with a cache-free reference (a raw provider
download plus a raw storage get, reconstructed by
``run_decrypt_task``); every upload must recombine losslessly to its
input's coefficients.  A request whose output fails a check counts as
failed.
"""

from __future__ import annotations

import asyncio
import hashlib
from array import array
import time
from dataclasses import dataclass, field

import numpy as np

from p3bench.deploy import (
    ALBUM,
    USERS,
    Deployment,
    upload_corpus,
    upload_request,
    view_request,
)
from p3bench.ledger import Ledger
from repro.api.pipeline import DecryptTask, run_decrypt_task
from repro.core.reconstruction import recombine
from repro.core.serialization import deserialize_secret
from repro.crypto.envelope import open_envelope
from repro.jpeg.codec import decode, decode_coefficients
from repro.serve.async_gateway import DEGRADED_HEADER, AsyncGateway
from repro.serve.keys import secret_blob_key
from repro.system.http import HttpRequest, HttpResponse

CLIENTS = len(USERS)
COLD_SIZE = 720
WARM_SIZE = 130


@dataclass
class Phase:
    """What one timed phase observed (seconds throughout)."""

    # Compact arrays: a warm run collects hundreds of thousands of
    # samples, and their memory must not show in the peak RSS.
    latencies: array = field(default_factory=lambda: array("d"))
    p3_latencies: array = field(default_factory=lambda: array("d"))
    #: Reply times since the phase started, one per latency.
    replies: array = field(default_factory=lambda: array("d"))
    lags: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    counters: dict[str, float] = field(default_factory=dict)


class BodyBook:
    """Distinct response bodies per request key, with request counts.

    Comparing a reply with the first body seen for its key is a memcmp;
    only a body that differs is kept as another distinct body.
    """

    def __init__(self) -> None:
        self.bodies: dict[tuple, list[list]] = {}

    def add(self, key: tuple, body: bytes, shape: str) -> None:
        entries = self.bodies.setdefault(key, [])
        for entry in entries:
            if entry[0] == body and entry[1] == shape:
                entry[2] += 1
                return
        entries.append([body, shape, 1])


class Workload:
    """Base: request generation, cheap per-reply checks, post checks."""

    name = ""

    def __init__(self, dep: Deployment, photos: list[bytes], corpus: list[str],
                 seed: int) -> None:
        self.dep = dep
        self.photos = photos
        self.corpus = corpus
        self.rng = np.random.default_rng(seed)
        self.sent = [0] * CLIENTS
        self._baselines: dict[int, tuple[AsyncGateway, dict[str, float]]] = {}
        self._retired: dict[str, float] = {}

    async def warm(self) -> None:
        """Work done before any clock starts."""

    def next_request(self, client: int) -> tuple[AsyncGateway, HttpRequest, tuple]:
        raise NotImplementedError

    def record(self, client: int, tag: tuple, response: HttpResponse) -> float | None:
        """Book a reply; returns seconds spent in the provider, or
        ``None`` when the reply is a failure."""
        raise NotImplementedError

    def check(self) -> int:
        """Post-clock output checks; returns requests that failed."""
        raise NotImplementedError

    def validate(self, counters: dict[str, float]) -> list[str]:
        """Workload premises the engine counters must confirm."""
        return []

    def close(self) -> None:
        """Release anything the workload built beyond the deployment."""

    # -- engine counters over a phase -----------------------------------------

    def _use(self, front: AsyncGateway) -> AsyncGateway:
        if id(front) not in self._baselines:
            self._baselines[id(front)] = (front, engine_counters(front))
        return front

    def _retire(self, front: AsyncGateway) -> None:
        """Fold a front's counters into the phase total and drop it."""
        _, before = self._baselines.pop(id(front))
        for key, value in engine_counters(front).items():
            self._retired[key] = self._retired.get(key, 0.0) + value - before[key]
        front.close()

    def start_phase(self) -> None:
        self._retired = {}
        self._baselines = {
            key: (front, engine_counters(front))
            for key, (front, _) in self._baselines.items()
        }

    def phase_counters(self) -> dict[str, float]:
        total = dict(self._retired)
        for front, before in self._baselines.values():
            for key, value in engine_counters(front).items():
                total[key] = total.get(key, 0.0) + value - before[key]
        return total


def engine_counters(front: AsyncGateway) -> dict[str, float]:
    """The engine's and the front end's monotonic counters."""
    engine = front.engine
    stats = engine.stats
    counters = {
        "requests": stats.requests,
        "variant_hits": stats.variant_hits,
        "reconstructions": stats.reconstructions,
        "coalesced": stats.coalesced,
        "shed": front.frontend.snapshot()["shed_total"],
        "degraded": front.frontend.degraded,
        "evictions": 0,
    }
    for tier, cache in (("secret", engine.secret_cache), ("envelope", engine.envelope_cache),
                        ("variant", engine.variant_cache)):
        counters[f"{tier}_hits"] = cache.stats.hits
        counters[f"{tier}_lookups"] = cache.stats.hits + cache.stats.misses
        counters["evictions"] += cache.stats.evictions
    return counters


class Upload(Workload):
    name = "upload"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.order = [self.rng.permutation(len(self.photos)) for _ in range(CLIENTS)]
        # (photo_id, input index, user, public bytes header, secret bytes header)
        self.uploads: list[tuple[str, int, str, int, int]] = []
        self._use(self.dep.front)

    def next_request(self, client):
        order = self.order[client]
        index = int(order[self.sent[client] % len(order)])
        self.sent[client] += 1
        user = USERS[client]
        return self.dep.front, upload_request(user, f"{user}-album", self.photos[index]), (index, user)

    def record(self, client, tag, response):
        if response.status != 201:
            return None
        photo_id = response.headers["x-photo-id"]
        index, user = tag
        self.uploads.append((
            photo_id, index, user,
            int(response.headers["x-public-bytes"]),
            int(response.headers["x-secret-bytes"]),
        ))
        with self.dep.clock.lock:
            return self.dep.clock.uploads[photo_id]

    def check(self) -> int:
        """Every upload is lossless: the public part as the provider
        received it plus the opened secret part recombine to exactly the
        input's quantized coefficients.  Identical (input, public part,
        secret container) triples are recombined once."""
        failed = 0
        verdicts: dict[tuple, bool] = {}
        originals: dict[int, object] = {}
        for photo_id, index, user, public_size, secret_size in self.uploads:
            album = f"{user}-album"
            public = self.dep.clock.public_parts[photo_id]
            envelope = self.dep.storage.get(secret_blob_key(album, photo_id))
            try:
                container = open_envelope(self.dep.key(user, album), envelope)
            except ValueError:
                failed += 1
                continue
            if (public_size, secret_size) != (len(public), len(envelope)):
                failed += 1
                continue
            group = (index, _digest(public), _digest(container))
            if group not in verdicts:
                if index not in originals:
                    originals[index] = decode_coefficients(self.photos[index])
                secret = deserialize_secret(container)
                combined = recombine(
                    decode_coefficients(public), secret.image, secret.threshold
                )
                verdicts[group] = same_coefficients(combined, originals[index])
            failed += not verdicts[group]
        return failed

    def validate(self, counters):
        if counters.get("requests", 0):
            return ["upload workload served views"]
        return []


class _Views(Workload):
    size = 0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.book = BodyBook()

    def record(self, client, tag, response):
        if response.status != 200:
            return None
        photo_id, user = tag
        degraded = DEGRADED_HEADER in response.headers
        self.book.add((photo_id, degraded), response.body, response.headers["x-image-shape"])
        return self.dep.clock.take_download(photo_id, user)

    def check(self) -> int:
        """Every distinct body equals the cache-free reference; a
        degraded preview must equal the public-only reference."""
        failed = 0
        for (photo_id, degraded), entries in self.book.bodies.items():
            reference = self.reference(photo_id, degraded)
            shape = ",".join(str(d) for d in reference.shape)
            expected = reference.tobytes()
            for body, body_shape, count in entries:
                if body != expected or body_shape != shape:
                    failed += count
        return failed

    def reference(self, photo_id: str, public_only: bool) -> np.ndarray:
        """Pixels rebuilt from raw backend reads, bypassing every cache."""
        dep = self.dep
        public = type(dep.psp).download(dep.psp, photo_id, USERS[0], self.size)
        engine = dep.config.effective_codec_engine
        if public_only:
            task = DecryptTask(key=None, public_jpeg=public, engine=engine)
        else:
            task = DecryptTask(
                key=dep.key(USERS[0], ALBUM),
                public_jpeg=public,
                secret_envelope=dep.storage.get(secret_blob_key(ALBUM, photo_id)),
                resolution=self.size,
                engine=engine,
            )
        return np.ascontiguousarray(run_decrypt_task(task))


class ViewCold(_Views):
    name = "view_cold"
    size = COLD_SIZE

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Clients start half a corpus apart, so they rarely reconstruct
        # the same photo at the same moment.
        self.offsets = [client * len(self.corpus) // CLIENTS for client in range(CLIENTS)]
        self.fronts: list[AsyncGateway | None] = [None] * CLIENTS

    def next_request(self, client):
        position = self.sent[client] % len(self.corpus)
        if position == 0 or self.fronts[client] is None:
            if self.fronts[client] is not None:
                self._retire(self.fronts[client])
            self.fronts[client] = self._use(self.dep.restarted_front())
        self.sent[client] += 1
        photo_id = self.corpus[(position + self.offsets[client]) % len(self.corpus)]
        user = USERS[client]
        return self.fronts[client], view_request(user, photo_id, self.size), (photo_id, user)

    def close(self) -> None:
        for front in self.fronts:
            if front is not None:
                front.close()

    def validate(self, counters):
        problems = []
        if counters["variant_hits"] or counters["coalesced"]:
            problems.append("view_cold request served from the cache")
        if counters["reconstructions"] != counters["requests"]:
            problems.append("view_cold request was not a reconstruction")
        return problems


class ViewWarm(_Views):
    name = "view_warm"
    size = WARM_SIZE

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.hot = [self.corpus[int(i)] for i in self.rng.permutation(len(self.corpus))]
        self._use(self.dep.front)

    async def warm(self) -> None:
        for photo_id in self.hot:
            response = await self.dep.front.handle(view_request(USERS[0], photo_id, self.size))
            if response.status != 200:
                raise RuntimeError(f"warm-up view failed: {response.status}")

    def next_request(self, client):
        photo_id = self.hot[(self.sent[client] + client) % len(self.hot)]
        self.sent[client] += 1
        user = USERS[client]
        return self.dep.front, view_request(user, photo_id, self.size), (photo_id, user)

    def validate(self, counters):
        if counters["variant_hits"] != counters["requests"]:
            return ["view_warm request missed the variant cache"]
        return []


WORKLOADS = {cls.name: cls for cls in (Upload, ViewCold, ViewWarm)}


async def drive(workload: Workload, seconds: float, min_samples: int,
                ledger: Ledger | None = None) -> Phase:
    """Run ``CLIENTS`` closed-loop clients for ``seconds``.

    A client sends its next request only after its previous reply.  The
    phase runs on past ``seconds`` (to at most twice that) until
    ``min_samples`` replies are in, so a percentile it must report is
    never refused for a short sample.
    """
    phase = Phase()
    workload.start_phase()
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = start + 2 * seconds

    def done(now: float) -> bool:
        if now >= hard_deadline:
            return True
        return now >= deadline and phase.attempted - phase.failed >= min_samples

    async def client(index: int) -> None:
        last_reply = None
        while not done(time.perf_counter()):
            front, request, tag = workload.next_request(index)
            opened = ledger.begin_request() if ledger is not None else None
            sent = time.perf_counter()
            if last_reply is not None:
                phase.lags.append(sent - last_reply)
            phase.attempted += 1
            response = await front.handle(request)
            replied = time.perf_counter()
            if opened is not None:
                ledger.end_request(opened)
            provider_s = workload.record(index, tag, response)
            if provider_s is None:
                phase.failed += 1
            else:
                latency = replied - sent
                phase.latencies.append(latency)
                phase.p3_latencies.append(latency - provider_s)
                phase.replies.append(replied - start)
            last_reply = time.perf_counter()
            # Cache hits complete without suspending; yield so every
            # client on the loop gets its turn.
            await asyncio.sleep(0)

    await asyncio.gather(*(client(i) for i in range(CLIENTS)))
    phase.counters = workload.phase_counters()
    return phase


def same_coefficients(a, b) -> bool:
    """Exact equality of two coefficient images' geometry, tables and
    quantized coefficients."""
    if (a.width, a.height, len(a.components)) != (b.width, b.height, len(b.components)):
        return False
    return all(
        (x.h_sampling, x.v_sampling) == (y.h_sampling, y.v_sampling)
        and np.array_equal(x.quant_table, y.quant_table)
        and np.array_equal(x.coefficients, y.coefficients)
        for x, y in zip(a.components, b.components)
    )


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


async def measure_quality(dep: Deployment, probes: list[bytes]) -> tuple[float, float]:
    """Upload the fixed probe set; returns (storage ratio, mean PSNR in
    dB of the provider's stored 720 variant against the original)."""
    ids = await upload_corpus(dep.front, probes)
    stored = original = 0
    psnrs = []
    for photo_id, jpeg in zip(ids, probes):
        public = dep.clock.public_parts[photo_id]
        envelope = dep.storage.get(secret_blob_key(ALBUM, photo_id))
        stored += len(public) + len(envelope)
        original += len(jpeg)
        served = decode(dep.psp.stored_variant(photo_id, COLD_SIZE)).astype(np.float64)
        truth = decode(jpeg).astype(np.float64)
        mse = float(np.mean((served - truth) ** 2))
        psnrs.append(10.0 * np.log10(255.0**2 / mse))
    return stored / original, float(np.mean(psnrs))
