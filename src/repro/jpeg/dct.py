"""8x8 forward and inverse DCT-II used by JPEG (ITU-T T.81 Annex A.3.3).

The transform is expressed in matrix form:  ``Y = C X C^T`` where ``C`` is
the orthonormal 8-point DCT basis.  On a row-major flattened block that
separable product is one 64x64 matrix, ``kron(C, C)``, so a whole stack
of blocks transforms as a single ``(n, 64) @ (64, 64)`` BLAS matmul.
"""

from __future__ import annotations

import numpy as np


def _dct_basis() -> np.ndarray:
    """Return the orthonormal 8x8 DCT-II basis matrix ``C``.

    ``C[k, n] = a(k) * cos((2n + 1) k pi / 16)`` with ``a(0) = sqrt(1/8)``
    and ``a(k>0) = sqrt(2/8)``, so that ``C @ C.T == I``.
    """
    k = np.arange(8).reshape(8, 1).astype(np.float64)
    n = np.arange(8).reshape(1, 8).astype(np.float64)
    basis = np.cos((2.0 * n + 1.0) * k * np.pi / 16.0)
    basis *= np.sqrt(2.0 / 8.0)
    basis[0, :] = np.sqrt(1.0 / 8.0)
    return basis


#: The orthonormal 8-point DCT basis; ``DCT_BASIS @ DCT_BASIS.T`` is identity.
DCT_BASIS: np.ndarray = _dct_basis()

# Flattened-block operators: ``coefficients.reshape(n, 64) @ _INVERSE``
# is ``C^T X C`` per block, and ``pixels.reshape(n, 64) @ _FORWARD`` is
# ``C X C^T``.
_INVERSE: np.ndarray = np.kron(DCT_BASIS, DCT_BASIS)
_FORWARD: np.ndarray = np.ascontiguousarray(_INVERSE.T)


def _apply(blocks: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    if blocks.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing 8x8 blocks, got {blocks.shape}")
    flat = np.asarray(blocks, dtype=np.float64).reshape(-1, 64)
    return (flat @ matrix).reshape(blocks.shape)


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Apply the 2-D DCT-II to a stack of 8x8 blocks.

    ``blocks`` has shape ``(..., 8, 8)`` of (level-shifted) pixel values;
    returns float64 coefficients with the same shape.  The DC coefficient
    of a flat block of value ``v`` is ``8 v``.
    """
    return _apply(blocks, _FORWARD)


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Apply the 2-D inverse DCT (DCT-III) to a stack of 8x8 blocks.

    Exact inverse of :func:`forward_dct` up to float rounding.
    """
    return _apply(coefficients, _INVERSE)
