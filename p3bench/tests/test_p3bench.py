"""Tests of the benchmark itself: its statistics, tracing, inputs and
the premises of its workloads.

Run from the repository root with ``python -m pytest p3bench/tests -q``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from p3bench import run  # noqa: E402
from p3bench.deploy import ALBUM, Deployment, upload_corpus  # noqa: E402
from p3bench.inputs import make_photos, probe_photos  # noqa: E402
from p3bench.ledger import COROUTINES, METHODS, Ledger  # noqa: E402
from p3bench.stats import TooFewSamples, Window, percentile, samples_needed, windows  # noqa: E402
from p3bench.workloads import WORKLOADS, drive  # noqa: E402
from repro.serve.keys import secret_blob_key  # noqa: E402


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert samples_needed(50) == 20
    assert samples_needed(75) == 40
    assert samples_needed(90) == 100
    assert percentile([float(i) for i in range(20)], 50) == 9.0
    assert percentile([float(i) for i in range(40)], 75) == 29.0
    with pytest.raises(TooFewSamples):
        percentile([float(i) for i in range(19)], 50)
    with pytest.raises(TooFewSamples):
        percentile([float(i) for i in range(99)], 90)


def test_windows_need_time_and_samples():
    # Two replies a second never fill a window: the whole run is one.
    assert windows([0.5 * i for i in range(1, 61)], 0.1, 40) == [Window(0, 60, 0.0, 30.0)]
    # Fast replies: one window per 0.1 s; windows short of samples drop.
    fast = [0.001 * i + 0.0005 for i in range(300)] + [0.35, 0.36]
    cuts = windows(fast, 0.1, 40)
    assert [(w.begin, w.end) for w in cuts] == [(0, 100), (100, 200), (200, 300)]
    assert cuts[1].opened == fast[99] and cuts[1].closed == fast[199]
    assert cuts[1].rate == pytest.approx(1000.0)
    assert windows([], 0.1, 40) == []


def test_same_seed_same_inputs():
    first = make_photos(11, 2)
    assert first == make_photos(11, 2)
    assert first != make_photos(12, 2)
    assert len(set(first)) == 2
    assert probe_photos() == probe_photos()


def _bindings() -> dict[str, int]:
    """id() of every attribute of every loaded repro module and of the
    classes the ledger patches."""
    import importlib

    found = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                found[f"{name}.{key}"] = id(value)
    for module_name, class_name, *_ in METHODS + COROUTINES:
        owner = getattr(importlib.import_module(module_name), class_name)
        for key, value in vars(owner).items():
            found[f"{module_name}.{class_name}.{key}"] = id(value)
    return found


def test_ledger_restores_every_original():
    import repro.jpeg.decoder
    import repro.jpeg.dct

    before = _bindings()
    original = repro.jpeg.dct.inverse_dct
    ledger = Ledger()
    ledger.install()
    try:
        assert repro.jpeg.decoder.inverse_dct is not original
        assert repro.jpeg.dct.inverse_dct is not original
        assert _bindings() != before
    finally:
        ledger.restore()
    assert repro.jpeg.decoder.inverse_dct is original
    assert _bindings() == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "p3bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture(scope="module")
def deployment():
    photos = make_photos(3, 2)
    dep = Deployment()
    ids = asyncio.run(upload_corpus(dep.front, photos))
    yield dep, photos, ids
    dep.close()


def _run(workload, seconds=1.0, min_samples=2, ledger=None):
    async def go():
        await workload.warm()
        try:
            return await drive(workload, seconds, min_samples, ledger)
        finally:
            workload.close()

    return asyncio.run(go())


def test_view_cold_is_all_reconstructions(deployment):
    dep, photos, ids = deployment
    workload = WORKLOADS["view_cold"](dep, photos, ids, 5)
    ledger = Ledger()
    ledger.install()
    try:
        phase = _run(workload, ledger=ledger)
    finally:
        ledger.restore()
    counters = phase.counters
    assert counters["requests"] == len(phase.latencies) >= 2
    assert counters["reconstructions"] == counters["requests"]
    assert counters["variant_hits"] == 0
    assert workload.validate(counters) == []
    rows = ledger.per_request()
    assert rows["jpeg.dct.inverse_dct.calls"] == 9
    assert ledger.coverage() >= run.COVERAGE_FLOOR
    assert workload.check() == 0
    # A served body that differs from the reference is a failed request.
    entries = next(iter(workload.book.bodies.values()))
    body, shape, count = entries[0]
    entries[0] = [bytes([body[0] ^ 1]) + body[1:], shape, count]
    assert workload.check() == count


def test_view_warm_is_all_variant_hits(deployment):
    dep, photos, ids = deployment
    workload = WORKLOADS["view_warm"](dep, photos, ids, 5)
    phase = _run(workload)
    counters = phase.counters
    assert counters["requests"] == len(phase.latencies) > 100
    assert counters["variant_hits"] == counters["requests"]
    assert workload.validate(counters) == []
    assert workload.check() == 0


def test_upload_is_checked_lossless(deployment):
    dep, photos, ids = deployment
    workload = WORKLOADS["upload"](dep, photos, ids, 5)
    phase = _run(workload)
    assert phase.failed == 0 and len(workload.uploads) >= 2
    assert workload.validate(phase.counters) == []
    assert workload.check() == 0
    photo_id, _, user, _, _ = workload.uploads[0]
    dep.storage.tamper(secret_blob_key(f"{user}-album", photo_id), 40, 1)
    assert workload.check() == 1


def test_quality_probe_is_deterministic(deployment):
    from p3bench.workloads import measure_quality

    dep = deployment[0]
    assert ALBUM in dep.keyrings["bob"]
    first = asyncio.run(measure_quality(dep, probe_photos()))
    assert first == asyncio.run(measure_quality(dep, probe_photos()))
    assert first[0] > 1.0 and 5.0 < first[1] < 30.0
