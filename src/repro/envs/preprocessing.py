"""Image preprocessing primitives: grayscale conversion and resizing.

Pure-NumPy implementations of the two image operations the DeepMind Atari
pipeline needs (luminance extraction and 84x84 bilinear resize), so the
preprocessing path the paper's agents run on the host is exercised for real.
:class:`BatchPreprocessor` is the one resize implementation; the
single-image functions build one per call.
"""

from __future__ import annotations

import numpy as np

from repro.perf.hotpath import hot_path

# ITU-R BT.601 luma coefficients, as used by ALE/OpenCV grayscale.
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32)


def rgb_to_grayscale(frame: np.ndarray) -> np.ndarray:
    """Convert an ``(H, W, 3)`` uint8/float RGB frame to ``(H, W)`` float32
    luminance in [0, 255]."""
    if frame.ndim != 3 or frame.shape[-1] != 3:
        raise ValueError(f"expected (H, W, 3) RGB frame, got {frame.shape}")
    return frame.astype(np.float32) @ _LUMA


class BatchPreprocessor:
    """Batched grayscale + bilinear resize + [0, 1] scaling.

    The resize uses the half-pixel-centres convention
    (align_corners=False), matching OpenCV's ``INTER_LINEAR`` used by the
    standard Atari wrappers.  The gather indices and float32 weights are
    computed once, at construction, for one input and output shape.
    """

    def __init__(self, in_height: int, in_width: int,
                 out_height: int, out_width: int):
        self.out_shape = (out_height, out_width)
        self._identity = (in_height, in_width) == (out_height, out_width)
        if self._identity:
            return
        row_pos = (np.arange(out_height) + 0.5) * (in_height / out_height) \
            - 0.5
        col_pos = (np.arange(out_width) + 0.5) * (in_width / out_width) \
            - 0.5
        row_pos = np.clip(row_pos, 0, in_height - 1)
        col_pos = np.clip(col_pos, 0, in_width - 1)
        r0 = np.floor(row_pos).astype(np.intp)
        c0 = np.floor(col_pos).astype(np.intp)
        self._r0 = r0
        self._c0 = c0
        self._r1 = np.minimum(r0 + 1, in_height - 1)
        self._c1 = np.minimum(c0 + 1, in_width - 1)
        wr = (row_pos - r0).astype(np.float32)
        wc = (col_pos - c0).astype(np.float32)
        self._wr = wr[None, :, None]
        self._wc = wc[None, None, :]
        self._omwr = 1 - self._wr
        self._omwc = 1 - self._wc

    @hot_path
    def resize(self, images: np.ndarray) -> np.ndarray:
        """Bilinearly resize ``(N, H, W)`` float32 images to
        ``(N, out_h, out_w)``."""
        if self._identity:
            return images
        g0 = images[:, self._r0]
        g1 = images[:, self._r1]
        top = g0[:, :, self._c0] * self._omwc + g0[:, :, self._c1] * self._wc
        bottom = g1[:, :, self._c0] * self._omwc + \
            g1[:, :, self._c1] * self._wc
        return top * self._omwr + bottom * self._wr

    @hot_path
    def __call__(self, frames: np.ndarray) -> np.ndarray:
        """Process ``(N, H, W, 3)`` uint8 frames to ``(N, out_h, out_w)``
        float32 in [0, 1]."""
        return self.resize(frames.astype(np.float32) @ _LUMA) / 255.0


def bilinear_resize(image: np.ndarray, out_height: int,
                    out_width: int) -> np.ndarray:
    """Bilinearly resize a 2-D float image to ``(out_height, out_width)``
    (see :class:`BatchPreprocessor`)."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    resize = BatchPreprocessor(*image.shape, out_height, out_width).resize
    return resize(image.astype(np.float32)[None])[0]


def preprocess_frame(frame: np.ndarray, out_height: int = 84,
                     out_width: int = 84) -> np.ndarray:
    """Full per-frame pipeline: grayscale, resize, scale to [0, 1]."""
    gray = rgb_to_grayscale(frame) if frame.ndim == 3 else \
        frame.astype(np.float32)
    resized = bilinear_resize(gray, out_height, out_width)
    return resized / 255.0
