"""Seeded camera-like JPEG inputs.

Every photo is a 720x720 RGB scene encoded as a 4:2:0, quality-90
baseline JPEG, the shape a phone camera hands the sender proxy.  Scenes
are built from the same recipe every time (sky gradient, soft colour
fields, textured ground, hard-edged objects, sensor noise) with only
positions and colours drawn from the seed, so every seed yields photos
of about the same coding cost: a run's medians then move with the
program, not with the draw.  A photo renders and encodes in about
0.3 s on 2 vCPUs, well under the 0.9 s of the corpus generator in
``repro.datasets``.

The inputs are bytes handed to the program; they are made by the
repository's own baseline encoder because the project depends on no
other JPEG encoder.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.codec import encode_rgb

SIZE = 720
QUALITY = 90
SUBSAMPLING = "4:2:0"

#: Seed of the quality probe set; never derived from ``--seed``.
PROBE_SEED = 0x5EC53
PROBE_COUNT = 2


def _smooth_field(rng: np.random.Generator, grid: int, size: int) -> np.ndarray:
    """A ``grid`` x ``grid`` random lattice, bilinearly upsampled to
    ``size`` x ``size`` (values in [0, 1])."""
    coarse = rng.uniform(size=(grid, grid))
    positions = np.linspace(0.0, grid - 1.0, size)
    low = np.minimum(positions.astype(int), grid - 2)
    frac = positions - low
    weights = np.zeros((size, grid))
    weights[np.arange(size), low] = 1.0 - frac
    weights[np.arange(size), low + 1] = frac
    return weights @ coarse @ weights.T


def camera_scene(seed: int, size: int = SIZE) -> np.ndarray:
    """Render one ``(size, size, 3)`` uint8 scene from ``seed``."""
    rng = np.random.default_rng(seed)
    rows = np.linspace(0.0, 1.0, size)[:, None, None]
    top = rng.uniform(0.45, 0.95, size=3)
    bottom = rng.uniform(0.1, 0.6, size=3)
    canvas = top * (1.0 - rows) + bottom * rows
    canvas = canvas * np.ones((1, size, 1))
    for grid, strength in ((6, 0.25), (24, 0.12)):
        for channel in range(3):
            field = _smooth_field(rng, grid, size) - 0.5
            canvas[..., channel] += strength * field
    # Textured ground: fine-grained lattice below a wavy horizon.
    horizon = size * rng.uniform(0.45, 0.65) + 30.0 * (
        _smooth_field(rng, 4, size)[0] - 0.5
    )
    ground = np.arange(size)[:, None] > horizon[None, :]
    texture = _smooth_field(rng, 180, size) - 0.5
    tint = rng.uniform(0.2, 0.7, size=3)
    canvas[ground] = 0.5 * canvas[ground] + 0.5 * tint
    canvas += (0.22 * texture * ground)[..., None]
    # Hard-edged objects: rectangles and discs.
    ys, xs = np.mgrid[0:size, 0:size]
    for shape in range(6):
        color = rng.uniform(0.05, 0.95, size=3)
        cy, cx = rng.uniform(0.15, 0.85, size=2) * size
        radius = rng.uniform(0.04, 0.12) * size
        if shape % 2:
            mask = (np.abs(ys - cy) < radius) & (np.abs(xs - cx) < 1.4 * radius)
        else:
            mask = (ys - cy) ** 2 + (xs - cx) ** 2 < radius * radius
        canvas[mask] = color
    pixels = canvas * 255.0 + rng.normal(0.0, 2.5, size=canvas.shape)
    return np.clip(np.round(pixels), 0, 255).astype(np.uint8)


def camera_jpeg(seed: int) -> bytes:
    """One camera-like JPEG (the scene for ``seed``, encoded)."""
    return encode_rgb(
        camera_scene(seed), quality=QUALITY, subsampling=SUBSAMPLING
    )


def make_photos(seed: int, count: int) -> list[bytes]:
    """``count`` distinct photos for a run; the same seed gives the
    same bytes."""
    base = np.random.default_rng(seed).integers(0, 2**31, size=count)
    return [camera_jpeg(int(s)) for s in base]


def probe_photos() -> list[bytes]:
    """The fixed quality probe set: independent of the seed and of the
    run length, so quality metrics repeat exactly on the same code."""
    return make_photos(PROBE_SEED, PROBE_COUNT)
