"""Color-space conversion and chroma subsampling (JFIF / BT.601).

The first stage of the JPEG pipeline (paper Section 2.1): RGB is mapped to
YCbCr and the two chrominance channels are optionally represented at lower
resolution than luminance.
"""

from __future__ import annotations

import numpy as np

# BT.601 full-range coefficients as used by JFIF.
_KR = 0.299
_KG = 0.587
_KB = 0.114


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an ``(h, w, 3)`` uint8/float RGB image to float YCbCr.

    Output channels are Y in [0, 255] and Cb/Cr in [0, 255] with a 128
    offset, per JFIF.
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {rgb.shape}")
    rgb = rgb.astype(np.float64)
    r = rgb[..., 0]
    g = rgb[..., 1]
    b = rgb[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = 128.0 + (b - y) / (2.0 * (1.0 - _KB))
    cr = 128.0 + (r - y) / (2.0 * (1.0 - _KR))
    return np.stack([y, cb, cr], axis=-1)


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """Convert float YCbCr back to uint8 RGB, clipping to [0, 255]."""
    if ycbcr.ndim != 3 or ycbcr.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {ycbcr.shape}")
    # In-place arithmetic on as few full-size temporaries as possible;
    # every value sees the same IEEE operations as the textbook formula
    # r = y + 2(1 - kr) cr, b = y + 2(1 - kb) cb,
    # g = (y - kr r - kb b) / kg.
    y = np.asarray(ycbcr[..., 0], dtype=np.float64)
    r = np.subtract(ycbcr[..., 2], 128.0, dtype=np.float64)
    r *= 2.0 * (1.0 - _KR)
    r += y
    b = np.subtract(ycbcr[..., 1], 128.0, dtype=np.float64)
    b *= 2.0 * (1.0 - _KB)
    b += y
    g = np.multiply(r, _KR)
    np.subtract(y, g, out=g)
    kb_b = np.multiply(b, _KB)
    g -= kb_b
    g /= _KG
    rgb = np.empty(ycbcr.shape, dtype=np.uint8)
    for channel, values in enumerate((r, g, b)):
        np.round(values, out=values)
        np.clip(values, 0, 255, out=values)
        rgb[..., channel] = values
    return rgb


def subsample_plane(plane: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Downsample a single plane by integer factors using box averaging.

    This is the antialiased averaging used by libjpeg's h2v2 downsampler.
    Odd-sized planes are edge-padded to a multiple of the factor first.
    """
    if factor_y == 1 and factor_x == 1:
        return plane.astype(np.float64)
    height, width = plane.shape
    pad_y = (-height) % factor_y
    pad_x = (-width) % factor_x
    if pad_y or pad_x:
        plane = np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")
    height, width = plane.shape
    view = plane.reshape(
        height // factor_y, factor_y, width // factor_x, factor_x
    )
    return view.astype(np.float64).mean(axis=(1, 3))


def upsample_plane(
    plane: np.ndarray, factor_y: int, factor_x: int, out_shape: tuple[int, int]
) -> np.ndarray:
    """Upsample a plane by pixel replication and crop to ``out_shape``.

    Replication matches the "fancy upsampling disabled" path of libjpeg;
    it is exact for the box downsampler on constant regions and keeps the
    codec's round trip simple to reason about.
    """
    if factor_y == 1 and factor_x == 1:
        up = plane
    else:
        up = np.repeat(np.repeat(plane, factor_y, axis=0), factor_x, axis=1)
    return up[: out_shape[0], : out_shape[1]]
