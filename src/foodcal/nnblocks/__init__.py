"""Reference forward passes, gradients, and FLOP counts for the detector's
building blocks: plain convolution, coordinate convolution, CBAM attention,
and the composite C2f_CD block."""

from foodcal.nnblocks.blocks import (
    C2fCdParams,
    CbamParams,
    cbam,
    cbam_channel_attention,
    cbam_spatial_attention,
    c2f_cd,
)
from foodcal.nnblocks.flops import (
    C2fConfig,
    cbam_flops,
    conv_flops,
    coordconv_flops,
    c2f_cd_flops,
    c2f_flops,
)
from foodcal.nnblocks.gradcheck import BLOCK_NAMES, gradcheck
from foodcal.nnblocks.ops import ConvParams, conv2d, coord_channels, coordconv

__all__ = [
    "BLOCK_NAMES",
    "C2fCdParams",
    "C2fConfig",
    "CbamParams",
    "ConvParams",
    "cbam",
    "cbam_channel_attention",
    "cbam_flops",
    "cbam_spatial_attention",
    "conv2d",
    "conv_flops",
    "coord_channels",
    "coordconv",
    "coordconv_flops",
    "c2f_cd",
    "c2f_cd_flops",
    "c2f_flops",
    "gradcheck",
]
