"""Hypothesis strategies drawing small, valid convolution geometries.

Each strategy yields the operand shapes, the op's keyword arguments
(stride, dilation, padding), a seed for the operand values and a memory
layout, so property tests can compare the fast kernels with the loop
oracles under random geometry instead of a few fixed shapes, on views as
well as on contiguous arrays. The keyword names are shared by
``ftnet.tensor`` and the oracles.
"""

import numpy as np
from hypothesis import strategies as st

LAYOUTS = ("contiguous", "channel-strided", "reversed-length")


def operands(geo):
    """Seeded standard-normal input, weight and bias for a drawn geometry.

    The values do not depend on the layout. A channel-strided operand is
    every other channel of a twice-as-wide array; a reversed-length one is
    a backwards view of a reversed copy.
    """
    rng = np.random.default_rng(geo["seed"])
    arrays = tuple(rng.standard_normal(shape) for shape in geo["shapes"])
    if geo["layout"] == "channel-strided":
        return tuple(np.repeat(a, 2, axis=1)[:, ::2] for a in arrays)
    if geo["layout"] == "reversed-length":
        return tuple(np.ascontiguousarray(a[:, :, ::-1])[:, :, ::-1] for a in arrays)
    return arrays


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
        "layout": draw(st.sampled_from(LAYOUTS)),
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
        "layout": draw(st.sampled_from(LAYOUTS)),
    }
