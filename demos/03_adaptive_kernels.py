"""What "adaptive kernel" means: weights are generated per edge, not stored.

A fixed convolution applies the same matrix everywhere. Here a small shared
MLP reads each edge's geometry and defines a fresh C_out x C_in matrix per
head for that edge, so the effective filter bends around the local point
layout. The MLP's last layer is affine in its mid-width output y, so head h's
kernel on an edge is A_h y + b_h. The operator never forms these matrices;
it folds the heads into sum_h A_h and sum_h b_h and applies them to the
features and y together.
"""

import numpy as np

from adaptgraph.kernels import MakConfig, MultiHeadAdaptiveKernel, apply_heads
from adaptgraph.tensor import Tensor

rng = np.random.default_rng(3)
cfg = MakConfig(in_channels=4, out_channels=4, gen_in_channels=8,
                num_heads=2, mid_channels=8)
op = MultiHeadAdaptiveKernel(cfg, rng)
op.eval()

b, n, k = 1, 5, 3
geo = Tensor(rng.normal(size=(b, 8, n, k)).astype(np.float32))
feat = Tensor(rng.normal(size=(b, 4, n, k)).astype(np.float32))

coeffs = op.generate_kernels(geo)
print("kernel coefficients y, shape (B, mid, N, k):", coeffs.shape)

# conv1 row (o * C_in + i) * H + h holds head h's entry (o, i): regroup as
# A (C_out, C_in, H, mid) and b (C_out, C_in, H)
c_out, c_in, heads, mid = 4, 4, 2, 8
A = op.gen.conv1.weight.value.data.reshape(c_out, c_in, heads, mid)
bias = op.gen.conv1.bias.value.data.reshape(c_out, c_in, heads)


def edge_kernel(point, neighbor):
    """sum_h (A_h y + b_h) for one edge: its C_out x C_in filter."""
    y = coeffs.data[0, :, point, neighbor]
    return sum(A[:, :, h] @ y + bias[:, :, h] for h in range(heads))


w_edge0 = edge_kernel(0, 0)
w_edge1 = edge_kernel(0, 1)
print("\nkernel on edge (point 0, neighbor 0), summed over both heads:")
print(np.array_str(w_edge0, precision=3, suppress_small=True))
print("same point, neighbor 1 sees a different kernel, max |delta| =",
      f"{np.abs(w_edge0 - w_edge1).max():.3f}")

# apply_heads folds the heads into one basis and describes every edge's
# response W_edge @ x without forming it; the stage's batch norm, leaky ReLU
# and pooling read the responses block by block
responses = apply_heads(coeffs, feat, op.gen.conv1.weight.value,
                        op.gen.conv1.bias.value, heads, c_out)
print("\nedge responses described, not formed, shape (B, C_out, N, k):", responses.shape)

out = op(geo, feat)
print("operator output (B, C_out, N, k):", out.shape)
# edge features are their own neighbourhoods: in eval mode edge (0, 0)'s
# output is leaky(bn_out(W_edge @ x + x)), the identity residual added
x0 = feat.data[0, :, 0, 0]
bn = op.bn_out
rm, rv = bn._buffers["running_mean"], bn._buffers["running_var"]
z = ((w_edge0 @ x0 + x0 - rm) / np.sqrt(rv + bn.epsilon)
     * bn.gamma.value.data + bn.beta.value.data)
print("the operator on that edge equals leaky(bn(W_edge @ x + x)):",
      np.allclose(out.data[0, :, 0, 0], np.where(z >= 0, z, op.slope * z),
                  rtol=1e-4, atol=1e-5))

# identical geometry must produce identical kernels: copy edge 0 onto edge 2
geo2 = geo.data.copy()
geo2[0, :, 0, 2] = geo2[0, :, 0, 0]
coeffs2 = op.generate_kernels(Tensor(geo2))
tied = np.array_equal(coeffs2.data[0, :, 0, 2], coeffs2.data[0, :, 0, 0])
print("equal geometry, equal kernels:", tied)

six = MultiHeadAdaptiveKernel(
    MakConfig(4, 4, 8, num_heads=6, mid_channels=8), np.random.default_rng(3))
one = MultiHeadAdaptiveKernel(
    MakConfig(4, 4, 8, num_heads=1, mid_channels=8), np.random.default_rng(3))
extra = sum(p.value.size for _, p in six.named_parameters()) \
    - sum(p.value.size for _, p in one.named_parameters())
print(f"going from 1 to 6 heads costs {extra} parameters, all in the last "
      f"generator stage, and no activation memory")
