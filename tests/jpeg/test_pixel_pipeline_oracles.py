"""Differential tests: the pixel pipeline against its reference formulas.

The production DCT is one ``(n, 64) @ kron(C, C)`` matmul, the scan-end
search jumps between ``0xFF`` bytes with ``bytes.find`` and the colour
conversion writes each channel straight into a uint8 array.  The
straightforward formulations they replaced live here as oracles: the
three-operand einsum DCT, the per-byte marker scan and the
``stack``/``round``/``clip``/``astype`` colour conversion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.scenes import render_scene
from repro.jpeg import codec, decoder, markers
from repro.jpeg.blocks import plane_to_blocks
from repro.jpeg.color import ycbcr_to_rgb
from repro.jpeg.dct import DCT_BASIS, forward_dct, inverse_dct
from repro.jpeg.markers import RST0, RST7


# -- oracles ------------------------------------------------------------------


def oracle_forward_dct(blocks: np.ndarray) -> np.ndarray:
    c = DCT_BASIS
    return np.einsum("ij,...jk,lk->...il", c, blocks.astype(np.float64), c)


def oracle_inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    c = DCT_BASIS
    return np.einsum(
        "ji,...jk,kl->...il", c, coefficients.astype(np.float64), c
    )


def oracle_find_scan_end(data: bytes, position: int) -> int:
    while position < len(data) - 1:
        if data[position] == 0xFF:
            next_byte = data[position + 1]
            if next_byte == 0x00:
                position += 2
                continue
            if RST0 <= next_byte <= RST7:
                position += 2
                continue
            return position
        position += 1
    return len(data)


def oracle_ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    kr, kg, kb = 0.299, 0.587, 0.114
    y = ycbcr[..., 0].astype(np.float64)
    cb = ycbcr[..., 1].astype(np.float64) - 128.0
    cr = ycbcr[..., 2].astype(np.float64) - 128.0
    r = y + 2.0 * (1.0 - kr) * cr
    b = y + 2.0 * (1.0 - kb) * cb
    g = (y - kr * r - kb * b) / kg
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


# -- DCT ----------------------------------------------------------------------


def _adversarial_blocks() -> np.ndarray:
    rng = np.random.default_rng(11)
    checker = np.indices((8, 8)).sum(axis=0) % 2
    blocks = [
        np.zeros((8, 8)),
        np.full((8, 8), 1024.0),
        np.full((8, 8), -1024.0),
        np.full((8, 8), 0.5),
        np.where(checker, 1024.0, -1024.0),
        np.where(checker, -1024.0, 1024.0),
        rng.choice([-1024.0, 1024.0], size=(8, 8)),
        rng.integers(-1024, 1025, size=(8, 8)).astype(np.float64),
    ]
    impulses = np.zeros((64, 8, 8))
    impulses.reshape(64, 64)[np.arange(64), np.arange(64)] = 1024.0
    return np.concatenate([np.stack(blocks), impulses, -impulses])


class TestDctOracle:
    @pytest.mark.parametrize("shape", [(8, 8), (5, 8, 8), (3, 4, 8, 8)])
    def test_random_blocks_agree(self, shape):
        blocks = np.random.default_rng(3).uniform(-1024, 1024, shape)
        assert forward_dct(blocks).shape == shape
        np.testing.assert_allclose(
            forward_dct(blocks), oracle_forward_dct(blocks), rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            inverse_dct(blocks), oracle_inverse_dct(blocks), rtol=0, atol=1e-9
        )

    def test_adversarial_blocks_agree(self):
        blocks = _adversarial_blocks()
        np.testing.assert_allclose(
            forward_dct(blocks), oracle_forward_dct(blocks), rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            inverse_dct(blocks), oracle_inverse_dct(blocks), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("dtype", [np.int32, np.int16, np.float32])
    def test_non_float64_input(self, dtype):
        blocks = np.random.default_rng(5).integers(-1024, 1024, (6, 8, 8))
        blocks = blocks.astype(dtype)
        np.testing.assert_allclose(
            inverse_dct(blocks), oracle_inverse_dct(blocks), rtol=0, atol=1e-9
        )
        assert inverse_dct(blocks).dtype == np.float64

    def test_non_contiguous_input(self):
        blocks = np.random.default_rng(6).normal(size=(4, 6, 8, 8))
        view = blocks.swapaxes(0, 1)[::2]
        np.testing.assert_allclose(
            forward_dct(view), oracle_forward_dct(view), rtol=0, atol=1e-9
        )

    def test_input_not_modified(self):
        blocks = np.random.default_rng(8).normal(size=(3, 8, 8))
        before = blocks.copy()
        forward_dct(blocks)
        inverse_dct(blocks)
        assert np.array_equal(blocks, before)

    def test_empty_stack(self):
        assert inverse_dct(np.zeros((0, 8, 8))).shape == (0, 8, 8)

    def test_rejects_non_block_shape(self):
        with pytest.raises(ValueError):
            forward_dct(np.zeros((8, 7)))
        with pytest.raises(ValueError):
            inverse_dct(np.zeros((4, 8)))


_SCENES = [render_scene(seed, 72, 88) for seed in range(4)]


@pytest.fixture
def oracle_dct(monkeypatch):
    """Route the codec's DCT calls through the einsum oracles."""

    def install():
        monkeypatch.setattr(codec, "forward_dct", oracle_forward_dct)
        monkeypatch.setattr(decoder, "inverse_dct", oracle_inverse_dct)

    return install


def _assert_flips_only_at_ties(new, old, planes):
    """Quantised coefficients may differ only on exact rounding ties.

    A coefficient whose true value lies on a quantisation tie rounds by
    the last bit of float error, and the einsum and the matmul spend
    that bit differently.  Ties need rational coefficients: integer
    gray blocks at the DC, (0, 4), (4, 0) and (4, 4) positions, or any
    block at quality 100, where every step is 1.  Each flip must be one
    step and sit within 1e-9 of a tie.
    """
    for plane, a, b in zip(planes, new.components, old.components):
        differs = a.coefficients != b.coefficients
        if not differs.any():
            continue
        assert np.abs(a.coefficients - b.coefficients).max() == 1
        scaled = oracle_forward_dct(plane_to_blocks(plane - 128.0))
        scaled /= b.quant_table
        distance = np.abs(np.abs(scaled) % 1.0 - 0.5)
        assert (distance[differs] < 1e-9).all()


def _component_planes(rgb, subsampling):
    from repro.jpeg.color import rgb_to_ycbcr, subsample_plane

    ycbcr = rgb_to_ycbcr(rgb)
    h, v = codec.SUBSAMPLING_FACTORS[subsampling]
    return [ycbcr[..., 0]] + [
        subsample_plane(ycbcr[..., c], v, h) for c in (1, 2)
    ]


class TestDctOracleOverScenes:
    @pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:0"])
    @pytest.mark.parametrize("quality", [50, 85, 95])
    def test_quantised_coefficients_identical(
        self, oracle_dct, subsampling, quality
    ):
        new = [codec.rgb_to_coefficients(s, quality, subsampling) for s in _SCENES]
        oracle_dct()
        old = [codec.rgb_to_coefficients(s, quality, subsampling) for s in _SCENES]
        for a, b in zip(new, old):
            for ca, cb in zip(a.components, b.components):
                assert np.array_equal(ca.coefficients, cb.coefficients)

    @pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:0"])
    def test_quality_100_differs_only_at_ties(self, oracle_dct, subsampling):
        new = [codec.rgb_to_coefficients(s, 100, subsampling) for s in _SCENES]
        oracle_dct()
        for scene, a in zip(_SCENES, new):
            b = codec.rgb_to_coefficients(scene, 100, subsampling)
            _assert_flips_only_at_ties(a, b, _component_planes(scene, subsampling))

    @pytest.mark.parametrize("quality", [50, 85, 95, 100])
    def test_integer_gray_differs_only_at_ties(self, oracle_dct, quality):
        planes = [s[..., 1].astype(np.float64) for s in _SCENES]
        new = [codec.gray_to_coefficients(p, quality) for p in planes]
        oracle_dct()
        for plane, a in zip(planes, new):
            b = codec.gray_to_coefficients(plane, quality)
            _assert_flips_only_at_ties(a, b, [plane])

    @pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:0"])
    @pytest.mark.parametrize("quality", [50, 85, 95, 100])
    def test_decoded_pixels_identical(self, oracle_dct, subsampling, quality):
        streams = [
            codec.encode_rgb(s, quality=quality, subsampling=subsampling)
            for s in _SCENES
        ]
        streams.append(
            codec.encode_gray(_SCENES[0][..., 1].astype(np.float64), quality)
        )
        new = [codec.decode(data) for data in streams]
        oracle_dct()
        old = [codec.decode(data) for data in streams]
        for a, b in zip(new, old):
            # Gray decodes stay float planes: compare them to 1e-9 and
            # as the rounded uint8 pixels every writer stores.
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
            assert np.array_equal(
                np.round(a).astype(np.uint8), np.round(b).astype(np.uint8)
            )


# -- scan-end search ------------------------------------------------------------

_SCAN_BYTES = st.lists(
    st.one_of(
        st.sampled_from([0xFF, 0xFF, 0xFF, 0x00, 0xD0, 0xD7, 0xD8, 0xD9]),
        st.sampled_from([0xC4, 0xDA, 0xFE, 0xCF, 0xD6, 0x01]),
        st.integers(0, 255),
    ),
    max_size=64,
).map(bytes)


class TestFindScanEndOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=_SCAN_BYTES, start=st.integers(0, 70))
    def test_matches_per_byte_scan(self, data, start):
        assert markers._find_scan_end(data, start) == oracle_find_scan_end(
            data, start
        )

    @pytest.mark.parametrize(
        "data, start, expected",
        [
            (b"", 0, 0),
            (b"\xff", 0, 1),  # a lone trailing 0xFF is entropy data
            (b"\x12\xff\x00\x34", 0, 4),  # stuffing stays in the scan
            (b"\x12\xff\xd3\x34\xff\xd9", 0, 4),  # RST skipped, EOI ends it
            (b"\xff\xff\xd9", 0, 0),  # a fill byte is a marker prefix
            (b"\x00\xff\xd0\xff", 0, 4),  # RST then trailing 0xFF
            (b"\xff\xd9\x00\xff\xc4", 2, 3),  # search starts at `start`
            (b"\x01\x02", 5, 2),  # start beyond the end
        ],
    )
    def test_edge_cases(self, data, start, expected):
        assert markers._find_scan_end(data, start) == expected
        assert oracle_find_scan_end(data, start) == expected

    def test_parse_segments_splits_scan_at_marker(self):
        entropy = b"\x12\xff\x00\x34\xff\xd5\x56"
        stream = (
            b"\xff\xd8"
            + b"\xff\xda\x00\x08\x01\x01\x00\x00\x3f\x00"
            + entropy
            + b"\xff\xd9"
        )
        segments = markers.parse_segments(stream)
        assert [s.name for s in segments] == ["SOI", "SOS", "EOI"]
        assert segments[1].entropy_data == entropy


# -- colour conversion ----------------------------------------------------------


class TestYcbcrToRgbOracle:
    def test_random_and_out_of_range(self):
        rng = np.random.default_rng(9)
        ycbcr = rng.uniform(-80.0, 340.0, (37, 53, 3))
        assert np.array_equal(ycbcr_to_rgb(ycbcr), oracle_ycbcr_to_rgb(ycbcr))

    def test_rounding_ties(self):
        # Neutral chroma makes R = G = B = Y (up to float error around
        # the tie), so half-integer lumas probe round-half-to-even.
        y = np.arange(-2.5, 258.0, 0.5)
        ycbcr = np.stack([y, np.full_like(y, 128.0), np.full_like(y, 128.0)], -1)
        ycbcr = ycbcr.reshape(1, -1, 3)
        assert np.array_equal(ycbcr_to_rgb(ycbcr), oracle_ycbcr_to_rgb(ycbcr))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32])
    def test_other_dtypes(self, dtype):
        rng = np.random.default_rng(10)
        ycbcr = rng.uniform(0.0, 255.0, (16, 24, 3)).astype(dtype)
        assert np.array_equal(ycbcr_to_rgb(ycbcr), oracle_ycbcr_to_rgb(ycbcr))

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(12)
        ycbcr = rng.uniform(0.0, 255.0, (40, 30, 3)).swapaxes(0, 1)[::3]
        out = ycbcr_to_rgb(ycbcr)
        assert out.flags.c_contiguous
        assert np.array_equal(out, oracle_ycbcr_to_rgb(ycbcr))

    def test_decoded_scene(self):
        planes = decoder.coefficients_to_planes(
            codec.rgb_to_coefficients(_SCENES[1], 85, "4:2:0")
        )
        ycbcr = np.stack(planes, axis=-1)
        before = ycbcr.copy()
        assert np.array_equal(ycbcr_to_rgb(ycbcr), oracle_ycbcr_to_rgb(ycbcr))
        assert np.array_equal(ycbcr, before)
