"""Tests for Eq. 2: reconstruction under linear server-side transforms."""

import numpy as np
import pytest

from repro.core.linear import (
    planes_to_image,
    reconstruct_transformed_planes,
    secret_difference_planes,
)
from repro.core.splitting import split_image
from repro.jpeg.codec import decode_coefficients, encode_gray
from repro.jpeg.decoder import coefficients_to_planes
from repro.transforms.crop import Crop
from repro.transforms.operators import Compose, FunctionOperator, Identity
from repro.transforms.resize import Resize
from repro.vision.metrics import psnr


@pytest.fixture(scope="module")
def split_setup(gray_image):
    image = decode_coefficients(encode_gray(gray_image, quality=88))
    threshold = 12
    split = split_image(image, threshold)
    original_planes = coefficients_to_planes(image, level_shift=True)
    public_planes = coefficients_to_planes(split.public, level_shift=True)
    return image, split, threshold, original_planes, public_planes


def _reconstruct(split_setup, operator):
    image, split, threshold, original_planes, public_planes = split_setup
    transformed_public = [operator(p) for p in public_planes]
    reconstructed = reconstruct_transformed_planes(
        transformed_public, split.secret, threshold, operator
    )
    target = [operator(p) for p in original_planes]
    return reconstructed, target


class TestIdentityOperator:
    def test_exact_reconstruction(self, split_setup):
        reconstructed, target = _reconstruct(split_setup, Identity())
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestCrop:
    def test_block_aligned_crop_exact(self, split_setup):
        crop = Crop(top=16, left=24, height=48, width=64)
        reconstructed, target = _reconstruct(split_setup, crop)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)

    def test_unaligned_crop_exact(self, split_setup):
        # Any crop is linear; 8x8 alignment only matters for
        # coefficient-domain shortcuts, not the pixel-domain path.
        crop = Crop(top=5, left=3, height=50, width=41)
        reconstructed, target = _reconstruct(split_setup, crop)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestResize:
    @pytest.mark.parametrize("kernel", ["box", "bilinear", "bicubic", "lanczos"])
    def test_resize_exact_per_kernel(self, split_setup, kernel):
        operator = Resize(64, 64, kernel)
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)

    def test_upscale_exact(self, split_setup):
        operator = Resize(192, 160, "bilinear")
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)

    def test_compose_resize_crop(self, split_setup):
        operator = Compose(
            operators=(Resize(96, 96, "bicubic"), Crop(8, 8, 64, 64))
        )
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestArbitraryLinearOperator:
    def test_row_averaging_operator(self, split_setup):
        matrix_rng = np.random.default_rng(4)
        mixing = matrix_rng.uniform(0, 1, (32, 128))
        mixing /= mixing.sum(axis=1, keepdims=True)
        operator = FunctionOperator(
            function=lambda plane: mixing @ plane,
            shape_map=lambda shape: (32, shape[1]),
        )
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestRealisticLossPath:
    def test_requantized_public_still_high_psnr(self, split_setup):
        """When the transformed public part goes through a real JPEG
        re-encode (the PSP serving path), reconstruction is no longer
        exact but stays perceptually lossless (paper: ~49 dB known
        transforms)."""
        from repro.jpeg.codec import decode_coefficients as dc
        from repro.jpeg.codec import encode_gray as eg

        image, split, threshold, original_planes, public_planes = split_setup
        operator = Resize(64, 64, "bilinear")
        served_pixels = np.clip(operator(public_planes[0]), 0, 255)
        served_jpeg = eg(served_pixels, quality=95)
        served_planes = coefficients_to_planes(
            dc(served_jpeg), level_shift=True
        )
        reconstructed = reconstruct_transformed_planes(
            served_planes, split.secret, threshold, operator
        )
        target = operator(original_planes[0])
        assert psnr(target, reconstructed[0]) > 40.0

    def test_shape_mismatch_detected(self, split_setup):
        image, split, threshold, _, public_planes = split_setup
        with pytest.raises(ValueError):
            reconstruct_transformed_planes(
                public_planes, split.secret, threshold, Resize(10, 10)
            )


class TestSecretDifferencePlanes:
    def test_zero_centred(self, split_setup):
        image, split, threshold, _, _ = split_setup
        planes = secret_difference_planes(split.secret, threshold)
        # Difference images are roughly zero-mean apart from DC content.
        assert planes[0].shape == (image.height, image.width)

    def test_planes_to_image_gray(self, split_setup):
        image, split, threshold, original_planes, _ = split_setup
        out = planes_to_image([original_planes[0]])
        assert out.ndim == 2
        assert out.min() >= 0.0 and out.max() <= 255.0


# -- the fused secret + correction rendering ----------------------------------


def two_pass_difference_planes(secret, threshold):
    """Oracle: render the secret and the correction image separately."""
    from repro.core.reconstruction import correction_image

    secret_planes = coefficients_to_planes(secret, level_shift=False)
    correction_planes = coefficients_to_planes(
        correction_image(secret, threshold), level_shift=False
    )
    return [s + c for s, c in zip(secret_planes, correction_planes)]


@pytest.fixture(scope="module")
def color_split():
    from repro.datasets.scenes import render_scene
    from repro.jpeg.codec import rgb_to_coefficients

    image = rgb_to_coefficients(
        render_scene(5, 100, 76), quality=85, subsampling="4:2:0"
    )
    return split_image(image, 10), 10


class TestFusedDifferencePlanes:
    def test_gray_matches_two_pass(self, split_setup):
        _, split, threshold, _, _ = split_setup
        fused = secret_difference_planes(split.secret, threshold)
        for a, b in zip(fused, two_pass_difference_planes(split.secret, threshold)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_color_420_matches_two_pass(self, color_split):
        split, threshold = color_split
        fused = secret_difference_planes(split.secret, threshold)
        oracle = two_pass_difference_planes(split.secret, threshold)
        assert len(fused) == 3
        for a, b in zip(fused, oracle):
            assert a.shape == b.shape == (100, 76)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_one_render_per_component(self, color_split, monkeypatch):
        import repro.core.linear as linear

        calls = []

        def counting(image, level_shift=True):
            calls.append(len(image.components))
            return coefficients_to_planes(image, level_shift=level_shift)

        monkeypatch.setattr(linear, "coefficients_to_planes", counting)
        split, threshold = color_split
        secret_difference_planes(split.secret, threshold)
        assert calls == [3]

    def test_secret_not_modified(self, color_split):
        split, threshold = color_split
        before = [c.coefficients.copy() for c in split.secret.components]
        secret_difference_planes(split.secret, threshold)
        for component, saved in zip(split.secret.components, before):
            assert np.array_equal(component.coefficients, saved)


@pytest.fixture(scope="module")
def served_photo():
    """A 720x720 photo split, published to a Facebook-like provider."""
    from repro.core.config import P3Config
    from repro.core.encryptor import P3Encryptor
    from repro.core.serialization import SecretPart
    from repro.datasets.scenes import render_scene
    from repro.system.psp import FacebookPSP

    config = P3Config(subsampling="4:2:0")
    encryptor = P3Encryptor(b"\x07" * 32, config)
    split = encryptor.split_pixels(render_scene(3, 720, 720))
    psp = FacebookPSP()
    photo_id = psp.upload(encryptor.public_jpeg_bytes(split), owner="alice")
    secret = SecretPart(
        threshold=config.threshold,
        width=split.secret.width,
        height=split.secret.height,
        image=split.secret,
    )
    return psp, photo_id, secret


class TestReconstructServedMatchesTwoPass:
    @pytest.mark.parametrize(
        "resolution, crop_box",
        [(720, None), (360, None), (130, None), (360, (40, 24, 200, 160))],
    )
    def test_pixels_identical(self, served_photo, monkeypatch, resolution, crop_box):
        import repro.core.linear as linear
        from repro.serve.reconstruct import reconstruct_served

        psp, photo_id, secret = served_photo
        served = psp.download(photo_id, "alice", resolution=resolution, crop_box=crop_box)
        fused = reconstruct_served(
            served, secret, resolution=resolution, crop_box=crop_box
        )
        monkeypatch.setattr(
            linear, "secret_difference_planes", two_pass_difference_planes
        )
        two_pass = reconstruct_served(
            served, secret, resolution=resolution, crop_box=crop_box
        )
        assert fused.dtype == np.uint8
        if crop_box is None:
            assert fused.shape == (resolution, resolution, 3)
        else:
            assert fused.shape == (crop_box[2], crop_box[3], 3)
        assert np.array_equal(fused, two_pass)


# -- the identity-resize skip -------------------------------------------------


class TestIdentityResizeSkip:
    @pytest.mark.parametrize("kernel", ["box", "bilinear", "bicubic"])
    def test_scale_one_returns_the_dense_product(self, kernel):
        from repro.transforms.resize import _is_identity, _weight_matrix, resize_plane

        plane = np.random.default_rng(1).uniform(-300.0, 300.0, (40, 56))
        rows = _weight_matrix(40, 40, kernel)
        cols = _weight_matrix(56, 56, kernel)
        assert _is_identity(40, 40, kernel) and _is_identity(56, 56, kernel)
        out = resize_plane(plane, 40, 56, kernel)
        assert np.array_equal(out, rows @ plane @ cols.T)
        assert out is not plane and not np.shares_memory(out, plane)

    def test_integer_plane_comes_back_float64(self):
        from repro.transforms.resize import resize_plane

        plane = np.arange(48, dtype=np.uint8).reshape(6, 8)
        out = resize_plane(plane, 6, 8, "bilinear")
        assert out.dtype == np.float64
        assert np.array_equal(out, plane.astype(np.float64))

    def test_lanczos_takes_the_matmul_path(self):
        import repro.transforms.resize as resize

        assert not resize._is_identity(40, 40, "lanczos")
        plane = np.random.default_rng(2).uniform(0.0, 255.0, (40, 40))
        dense = resize._weight_matrix(40, 40, "lanczos")
        assert np.array_equal(
            resize.resize_plane(plane, 40, 40, "lanczos"), dense @ plane @ dense.T
        )

    def test_one_axis_at_scale_one_still_resizes(self):
        from repro.transforms.resize import _weight_matrix, resize_plane

        plane = np.random.default_rng(3).uniform(0.0, 255.0, (32, 48))
        cols = _weight_matrix(48, 24, "bilinear")
        out = resize_plane(plane, 32, 24, "bilinear")
        assert out.shape == (32, 24)
        assert np.array_equal(out, _weight_matrix(32, 32, "bilinear") @ plane @ cols.T)
