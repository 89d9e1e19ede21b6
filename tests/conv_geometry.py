"""Hypothesis strategies drawing small, valid convolution geometries.

Each strategy yields the operand shapes, the op's keyword arguments
(stride, dilation, padding) and a seed for the operand values, so property
tests can compare the fast kernels with the loop oracles under random
geometry instead of a few fixed shapes. The keyword names are shared by
``ftnet.tensor`` and the oracles.
"""

import numpy as np
from hypothesis import strategies as st


def operands(geo):
    """Seeded standard-normal input, weight and bias for a drawn geometry."""
    rng = np.random.default_rng(geo["seed"])
    return tuple(rng.standard_normal(shape) for shape in geo["shapes"])


@st.composite
def conv1d_geometry(draw):
    kernel = draw(st.integers(1, 5))
    dilation = draw(st.integers(1, 3))
    pad_left = draw(st.integers(0, 4))
    pad_right = draw(st.integers(0, 4))
    span = dilation * (kernel - 1) + 1
    length = draw(st.integers(max(1, span - pad_left - pad_right), span + 8))
    batch, in_ch, out_ch = (draw(st.integers(1, n)) for n in (2, 3, 3))
    return {
        "shapes": ((batch, in_ch, length), (out_ch, in_ch, kernel), (1, out_ch, 1)),
        "kwargs": {
            "stride": draw(st.integers(1, 3)),
            "dilation": dilation,
            "pad_left": pad_left,
            "pad_right": pad_right,
        },
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@st.composite
def conv1d_transpose_geometry(draw):
    kernel = draw(st.integers(1, 6))
    stride = draw(st.integers(1, 3))
    output_pad = draw(st.integers(0, stride - 1))
    length = draw(st.integers(1, 8))
    # The largest symmetric crop that still leaves one output sample.
    max_pad = ((length - 1) * stride + kernel + output_pad - 1) // 2
    batch, in_ch, out_ch = (draw(st.integers(1, n)) for n in (2, 3, 3))
    return {
        "shapes": ((batch, in_ch, length), (in_ch, out_ch, kernel), (1, out_ch, 1)),
        "kwargs": {
            "stride": stride,
            "pad": draw(st.integers(0, min(4, max_pad))),
            "output_pad": output_pad,
        },
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
