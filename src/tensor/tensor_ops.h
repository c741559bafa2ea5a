// Raw numeric kernels over Tensor: GEMM, convolution, im2col/col2im,
// reductions.
//
// These are the non-differentiable building blocks; gradient bookkeeping is
// layered on top in src/nn. matmul / matmul_into / matmul_accumulate and
// the forward conv2d share one tiled GEMM: C is cut into 16-column strips
// (the parallel axis), each strip's B columns are packed into an L1-sized
// panel, and the dispatched register-tile micro-kernel
// (simd::Kernels::gemm_tile, 6 x 16) sweeps every 6-row block of A over
// it. conv2d packs its panels straight from the [N,C,H,W] image (implicit
// im2col), so no column matrix or GEMM buffer is materialised. The
// remaining kernels run row-parallel on the process-wide compute pool
// (src/tensor/parallel.h) through the same kernel tier (src/tensor/simd.h:
// scalar, AVX2/FMA, NEON). Every kernel keeps the canonical fused
// accumulation order defined by the scalar backend — for the GEMMs, each
// C[i,j] is one k-ascending fma chain that skips exact-zero A[i,k] — so
// results are byte-identical for any thread count and any backend. The
// original single-threaded mul-then-add kernels are retained under
// tensor::reference as the test oracle; the canonical fused kernels agree
// with them within a small ULP bound (tests/test_simd_kernels.cpp), not
// bitwise.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace diffpattern::tensor {

/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[M,N] = A[M,K] * B[K,N] written into `out` (shape-checked, zeroed
/// first) — the allocation-free form for scratch-buffer reuse.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);

/// C[M,N] += A[M,K] * B[K,N] accumulated into `out` (shapes must match).
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out);

/// C[K,N] = A[M,K]^T * B[M,N].
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C[M,K] = A[M,N] * B[K,N]^T.
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  std::int64_t out_h() const {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
  std::int64_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

/// Unrolls one image [C,H,W] into columns [C*kh*kw, OH*OW]. Out-of-bounds
/// (padding) positions contribute zeros.
Tensor im2col(const Tensor& image, const Conv2dGeometry& geom);

/// Batch-wide unroll: [N,C,H,W] -> [C*kh*kw, N*OH*OW] (N >= 1),
/// sample-major columns (sample n owns columns [n*OH*OW, (n+1)*OH*OW));
/// each column block is byte-identical to im2col of that sample. The conv
/// backward rebuilds its weight-gradient operand with it.
Tensor im2col_batch(const Tensor& images, const Conv2dGeometry& geom);

/// Allocation-free im2col_batch: resizes `cols` (reusing its storage across
/// denoising rounds) and overwrites every entry.
void im2col_batch_into(const Tensor& images, const Conv2dGeometry& geom,
                       Tensor& cols);

/// Forward convolution, [N,C,H,W] * weight [O,C,kh,kw] + bias [O] ->
/// [N,O,OH,OW] (N >= 1). Bitwise equal to im2col_batch followed by
/// matmul against the flattened weight and `x + bias[o]` on every output
/// — per element, the same fma chain over (c, ky, kx) ascending, then one
/// add — without materialising either intermediate.
Tensor conv2d(const Tensor& images, const Tensor& weight, const Tensor& bias,
              const Conv2dGeometry& geom);

/// Adjoint of im2col: folds columns [C*kh*kw, OH*OW] back into an image
/// [C,H,W], accumulating overlapping contributions.
Tensor col2im(const Tensor& columns, const Conv2dGeometry& geom);

/// Adjoint of im2col_batch: folds [C*kh*kw, N*OH*OW] back into [N,C,H,W],
/// one independent (parallel) fold per sample.
Tensor col2im_batch(const Tensor& columns, const Conv2dGeometry& geom,
                    std::int64_t batch);

/// Sum of all elements (sequential double accumulation — deterministic).
double sum(const Tensor& t);

/// Maximum element (requires non-empty tensor).
float max_value(const Tensor& t);

/// out[i] = a[i] + b[i] (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// out[i] = a[i] * b[i] (shapes must match).
Tensor mul(const Tensor& a, const Tensor& b);

/// out[i] = a[i] * s.
Tensor scale(const Tensor& a, float s);

/// Numerically stable row-wise softmax over the last axis of a 2-D tensor.
Tensor softmax_rows(const Tensor& logits);

/// Retained naive single-threaded kernels: the oracle for the
/// blocked/parallel implementations above (tests assert agreement within a
/// tight ULP bound — the dispatched kernels accumulate with fused
/// multiply-adds, these keep separate mul/add roundings), and a readable
/// spec of the arithmetic.
namespace reference {
Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out);
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);
Tensor softmax_rows(const Tensor& logits);
}  // namespace reference

}  // namespace diffpattern::tensor
