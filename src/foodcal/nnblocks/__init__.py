"""Reference forward passes, gradients, and FLOP counts for the detector's
building blocks: plain convolution, coordinate convolution, CBAM attention,
and the composite C2f_CD block."""
