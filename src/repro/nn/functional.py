"""Stateless numerical primitives: convolution, dense, and activations.

Every convolution stage (FW, BW, GC) gathers its patch matrix once,
straight into the C-contiguous layout its GEMM consumes, and issues that
GEMM with ``@`` — one multiply-accumulate stream over the I*K*K
reduction axis, the structure the FA3C processing elements execute
(paper Section 4.2.1).  The operands are exactly the ones
``einsum(..., optimize=True)`` handed to BLAS in earlier versions,
so every stage is bit-identical to that formulation
(``tests/test_nn_functional.py`` keeps it as the reference).

Array conventions:

* feature maps: ``(N, C, H, W)`` float32
* convolution weights: ``(O, I, K, K)`` float32, bias ``(O,)``
* dense weights: ``(out_features, in_features)``, bias ``(out_features,)``
"""

from __future__ import annotations

import typing

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int) -> int:
    """Spatial output size of a VALID convolution."""
    if size < kernel:
        raise ValueError(f"input size {size} smaller than kernel {kernel}")
    return (size - kernel) // stride + 1


def _windows(x: np.ndarray, kernel: int, stride: int,
             order: str) -> typing.Tuple[np.ndarray, typing.Tuple[int, int]]:
    """A read-only strided view of every ``K x K`` window of ``x``.

    ``order`` names the axes of the view: ``n`` (batch), ``c``
    (channel), ``i``/``j`` (kernel row/column) and ``h``/``w`` (output
    row/column); a letter left out of ``order`` fixes that axis at 0.
    Reshaping the view to 2-D is the one gather copy.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride)
    ow = conv_output_size(w, kernel, stride)
    sn, sc, sh, sw = x.strides
    axes = {"n": (n, sn), "c": (c, sc), "i": (kernel, sh),
            "j": (kernel, sw), "h": (oh, sh * stride),
            "w": (ow, sw * stride)}
    view = np.lib.stride_tricks.as_strided(
        x, shape=tuple(axes[a][0] for a in order),
        strides=tuple(axes[a][1] for a in order), writeable=False)
    return view, (oh, ow)


def im2col(x: np.ndarray, kernel: int,
           stride: int) -> typing.Tuple[np.ndarray, typing.Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into patch rows ``(N*OH*OW, C*K*K)``.

    One row per output position, in ``(c, ki, kj)`` order: the
    C-contiguous left operand of the FW GEMM.  Returns the patch matrix
    and the output spatial shape ``(OH, OW)``.

    Each kernel row of a window is ``K`` adjacent values of the
    C-contiguous input, so the gather copies it as one ``np.void`` item
    of ``K * itemsize`` bytes: the copy loop runs once per kernel row,
    not once per value, and the bytes it moves are the same.
    """
    x = np.ascontiguousarray(x)
    starts, (oh, ow) = _windows(x, kernel, stride, "nhwci")
    run = kernel * x.itemsize
    runs = np.lib.stride_tricks.as_strided(
        x.view(np.uint8), shape=starts.shape + (run,),
        strides=starts.strides + (1,), writeable=False)
    rows = runs.view(np.dtype((np.void, run))).reshape(
        -1, x.shape[1] * kernel)
    return rows.view(x.dtype), (oh, ow)


def im2col_transposed(x: np.ndarray, kernel: int,
                      stride: int) -> np.ndarray:
    """The patch matrix transposed, ``(C*K*K, N*OH*OW)``, C-contiguous.

    The left operand of the GC GEMM, gathered straight from ``x``.  It
    holds the values of ``im2col(x).T``, but that transposed *view* is
    not a substitute: BLAS may accumulate a transposed operand in a
    different order, which changes low bits at small odd shapes.
    """
    view, _ = _windows(x, kernel, stride, "cijnhw")
    return view.reshape(x.shape[1] * kernel * kernel, -1)


def col2im(rows: np.ndarray, input_shape: typing.Tuple[int, int, int, int],
           kernel: int, stride: int) -> np.ndarray:
    """Fold patch rows ``(N*OH*OW, C*K*K)`` back to ``(N, C, H, W)``.

    Overlapping positions accumulate, one ``(ki, kj)`` offset at a time
    in row-major order — this is the adjoint of :func:`im2col` and the
    core of backward propagation through a convolution.  The sum runs
    in a channels-last buffer, where every strided add moves whole
    channel vectors, and the result is returned C-contiguous.
    """
    n, c, h, w = input_shape
    oh = conv_output_size(h, kernel, stride)
    ow = conv_output_size(w, kernel, stride)
    rows = rows.reshape(n, oh, ow, c, kernel, kernel)
    out = np.zeros((n, h, w, c), dtype=rows.dtype)
    for ki in range(kernel):
        row_end = ki + stride * oh
        for kj in range(kernel):
            col_end = kj + stride * ow
            out[:, ki:row_end:stride, kj:col_end:stride, :] += \
                rows[:, :, :, :, ki, kj]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _dy_rows(dy: np.ndarray) -> np.ndarray:
    """``(N, O, OH, OW)`` gradients as C-contiguous rows ``(N*OH*OW, O)``."""
    return dy.transpose(0, 2, 3, 1).reshape(-1, dy.shape[1])


def conv_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 stride: int, policy=None, key: str = ""
                 ) -> typing.Tuple[np.ndarray, np.ndarray]:
    """FW stage of a convolution layer.

    Returns ``(y, rows)``: the C-contiguous output and the
    :func:`im2col` patch rows it multiplied.  The GEMM is
    ``rows @ weight.reshape(O, -1).T``.

    ``policy`` is an optional :class:`~repro.nn.quant.PrecisionPolicy`
    coercing the *parameters* to their storage precision (activations are
    coerced by the layer, which owns the forward cache); at fp32 the
    policy is ``None`` and no extra call happens.
    """
    o, i, k, _ = weight.shape
    if x.shape[1] != i:
        raise ValueError(f"input channels {x.shape[1]} != weight {i}")
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
        bias = policy(bias, f"{key}.bias")
    rows, (oh, ow) = im2col(x, k, stride)
    y = rows @ weight.reshape(o, i * k * k).T
    y += bias
    y = y.reshape(x.shape[0], oh, ow, o).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(y), rows


def conv_backward_input(dy: np.ndarray, weight: np.ndarray, stride: int,
                        input_shape: typing.Tuple[int, int, int, int],
                        policy=None, key: str = "") -> np.ndarray:
    """BW stage: gradients of the input feature map.

    ``dy`` has shape ``(N, O, OH, OW)``.  The GEMM is
    ``dy_rows @ weight.reshape(O, -1)`` with ``dy_rows`` C-contiguous
    ``(N*OH*OW, O)``; :func:`col2im` folds the product back.
    ``policy`` re-coerces the weight to the same stored values the FW
    stage multiplied by (straight-through estimation: gradients flow in
    fp32 through the quantized parameters).
    """
    o = dy.shape[1]
    k = weight.shape[2]
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
    drows = _dy_rows(dy) @ weight.reshape(o, -1)
    return col2im(drows, input_shape, k, stride)


def conv_grad_params(x: np.ndarray, dy: np.ndarray, weight_shape:
                     typing.Tuple[int, int, int, int], stride: int
                     ) -> typing.Tuple[np.ndarray, np.ndarray]:
    """GC stage: gradients of the convolution weights and bias.

    ``x`` is the layer input the FW stage multiplied (FA3C likewise
    keeps forward feature maps in DRAM for the training task, Section
    4.3).  The GEMM is ``im2col_transposed(x) @ dy_rows``.
    """
    o, _, k, _ = weight_shape
    n = dy.shape[0]
    dw = im2col_transposed(x, k, stride) @ _dy_rows(dy)
    db = dy.reshape(n, o, -1).sum(axis=(0, 2))
    return dw.T.reshape(weight_shape), db


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  policy=None, key: str = "") -> np.ndarray:
    """FW stage of a fully-connected layer; ``x`` is ``(N, in_features)``.

    ``policy`` optionally coerces the parameters to storage precision.
    """
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
        bias = policy(bias, f"{key}.bias")
    return x @ weight.T + bias


def dense_backward_input(dy: np.ndarray, weight: np.ndarray,
                         policy=None, key: str = "") -> np.ndarray:
    """BW stage of a fully-connected layer (straight-through weights)."""
    if policy is not None:
        weight = policy(weight, f"{key}.weight")
    return dy @ weight


def dense_grad_params(x: np.ndarray, dy: np.ndarray
                      ) -> typing.Tuple[np.ndarray, np.ndarray]:
    """GC stage of a fully-connected layer.

    The reduction axis is the batch — the paper's point that the
    accumulation frequency of GC equals the batch size (Section 4.2.1).
    """
    return dy.T @ x, dy.sum(axis=0)


def relu_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pass gradients only where the forward input was positive."""
    return dy * (x > 0)
