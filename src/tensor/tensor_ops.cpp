#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "tensor/parallel.h"
#include "tensor/simd.h"

namespace diffpattern::tensor {

namespace {

void require_matrix(const Tensor& t, const char* name) {
  DP_REQUIRE(t.rank() == 2, std::string(name) + ": expected rank-2 tensor, got " +
                                t.shape_string());
}

/// Minimum multiply-accumulates per parallel chunk; rows are cheap enough
/// below this that pool dispatch dominates.
constexpr std::int64_t kGemmGrainFlops = 32 * 1024;

std::int64_t row_grain(std::int64_t flops_per_row) {
  return std::max<std::int64_t>(1,
                                kGemmGrainFlops / std::max<std::int64_t>(
                                                      1, flops_per_row));
}

constexpr std::int64_t kMr = simd::kGemmMr;
constexpr std::int64_t kNr = simd::kGemmNr;

/// K-block depth of one packed B panel: kKc x kNr floats (16 KiB) live on
/// the task's stack and stay in L1 while every row block of A sweeps them.
/// Splitting K only stores the C tile after one block and reloads it for
/// the next, so each element's fma chain is unchanged.
constexpr std::int64_t kKc = 256;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Where one kNr-column strip of C lives: row i starts at c + i * ldc and
/// the first nr columns are live.
struct StripView {
  float* c;
  std::int64_t ldc;
  std::int64_t nr;
};

/// C += A[M,K] * B over `strips` column strips of C, plus `bias[i]` on row i
/// when bias is non-null. `locate(s)` gives strip s's StripView;
/// `pack(s, k0, kc, panel)` writes rows [k0, k0 + kc) of strip s's B
/// columns into panel[p * kNr + j], zero-padded past nr. The strips are the
/// parallel axis: a strip's elements are owned by exactly one task, and
/// neither the K blocking nor the row blocking reorders any element's
/// chain, so the result is the same for every thread count and chunking.
template <typename Locate, typename Pack>
void tiled_gemm(const float* a, std::int64_t m, std::int64_t k,
                std::int64_t strips, const Locate& locate, const Pack& pack,
                const float* bias) {
  if (m == 0 || strips == 0) {
    return;
  }
  const auto& kern = simd::active();
  // Row blocks holding an exact zero take the kernel's skipping variant.
  // No early exit: the flat compare-and-or loop vectorizes.
  std::vector<std::uint8_t> has_zero(
      static_cast<std::size_t>(ceil_div(m, kMr)), 0);
  for (std::int64_t i0 = 0; i0 < m; i0 += kMr) {
    const float* block = a + i0 * k;
    const auto count = std::min(kMr, m - i0) * k;
    bool zero = false;
    for (std::int64_t e = 0; e < count; ++e) {
      zero |= block[e] == 0.0F;
    }
    has_zero[static_cast<std::size_t>(i0 / kMr)] = zero ? 1 : 0;
  }
  const auto k_blocks = std::max<std::int64_t>(1, ceil_div(k, kKc));
  parallel_for(
      0, strips,
      [&](std::int64_t s_begin, std::int64_t s_end) {
        alignas(32) float panel[kKc * kNr];
        for (std::int64_t s = s_begin; s < s_end; ++s) {
          const StripView strip = locate(s);
          for (std::int64_t kb = 0; kb < k_blocks; ++kb) {
            const auto k0 = kb * kKc;
            const auto kc = std::min(kKc, k - k0);
            pack(s, k0, kc, panel);
            const bool last = kb + 1 == k_blocks;
            for (std::int64_t i0 = 0; i0 < m; i0 += kMr) {
              kern.gemm_tile(a + i0 * k + k0, k, panel, kc,
                             strip.c + i0 * strip.ldc, strip.ldc,
                             std::min(kMr, m - i0), strip.nr,
                             has_zero[static_cast<std::size_t>(i0 / kMr)] != 0,
                             last && bias != nullptr ? bias + i0 : nullptr);
            }
          }
        }
      },
      row_grain(m * k * kNr));
}

}  // namespace

// ---- GEMM family ------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul(a)");
  require_matrix(b, "matmul(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == k, "matmul: inner dimension mismatch " +
                                a.shape_string() + " x " + b.shape_string());
  const auto n = b.dim(1);
  Tensor out({m, n}, 0.0F);
  matmul_accumulate(a, b, out);
  return out;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require_matrix(a, "matmul_into(a)");
  require_matrix(b, "matmul_into(b)");
  DP_REQUIRE(a.dim(1) == b.dim(0), "matmul_into: inner dimension mismatch " +
                                       a.shape_string() + " x " +
                                       b.shape_string());
  DP_REQUIRE(out.rank() == 2 && out.dim(0) == a.dim(0) &&
                 out.dim(1) == b.dim(1),
             "matmul_into: bad output shape " + out.shape_string());
  out.fill(0.0F);
  matmul_accumulate(a, b, out);
}

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  require_matrix(a, "matmul_accumulate(a)");
  require_matrix(b, "matmul_accumulate(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(b.dim(0) == k, "matmul_accumulate: inner dimension mismatch " +
                                a.shape_string() + " x " + b.shape_string());
  DP_REQUIRE(out.rank() == 2 && out.dim(0) == m && out.dim(1) == n,
             "matmul_accumulate: bad output shape");
  const float* pb = b.data();
  float* pc = out.data();
  const auto locate = [&](std::int64_t s) {
    return StripView{pc + s * kNr, n, std::min(kNr, n - s * kNr)};
  };
  const auto pack = [&](std::int64_t s, std::int64_t k0, std::int64_t kc,
                        float* panel) {
    const auto j0 = s * kNr;
    const auto nr = std::min(kNr, n - j0);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = pb + (k0 + p) * n + j0;
      float* dst = panel + p * kNr;
      std::copy(src, src + nr, dst);
      std::fill(dst + nr, dst + kNr, 0.0F);
    }
  };
  tiled_gemm(a.data(), m, k, ceil_div(n, kNr), locate, pack, nullptr);
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_a(a)");
  require_matrix(b, "matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "matmul_transpose_a: row mismatch");
  const auto n = b.dim(1);
  Tensor out({k, n}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  const auto& kern = simd::active();
  // Each task owns whole output rows (a column of A); the per-element
  // fused accumulation order over i is the same for every backend.
  parallel_for(
      0, k,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t kk = row_begin; kk < row_end; ++kk) {
          float* crow = pc + kk * n;
          for (std::int64_t i = 0; i < m; ++i) {
            const float av = pa[i * k + kk];
            if (av == 0.0F) {
              continue;
            }
            kern.axpy(av, pb + i * n, crow, n);
          }
        }
      },
      row_grain(m * n));
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_b(a)");
  require_matrix(b, "matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  const auto& kern = simd::active();
  parallel_for(
      0, m,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t i = row_begin; i < row_end; ++i) {
          const float* arow = pa + i * n;
          float* crow = pc + i * k;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            crow[kk] = kern.dot(arow, pb + kk * n, n);
          }
        }
      },
      row_grain(k * n));
  return out;
}

// ---- im2col / col2im ------------------------------------------------------

namespace {

/// Unrolls sample `image` into the column block starting at column `col0`
/// of `cols` (row stride `ncols`), overwriting the whole block. The block's
/// contents are independent of the other samples, so batch unrolls can run
/// one sample per task.
void im2col_block(const float* src, const Conv2dGeometry& geom, float* dst,
                  std::int64_t col0, std::int64_t ncols) {
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  const auto n_out = oh * ow;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
        const auto row = (c * geom.kernel_h + ky) * geom.kernel_w + kx;
        float* drow = dst + row * ncols + col0;
        std::fill(drow, drow + n_out, 0.0F);  // Padding contributes zeros.
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const auto iy = oy * geom.stride - geom.padding + ky;
          if (iy < 0 || iy >= geom.in_h) {
            continue;
          }
          const float* srow = src + (c * geom.in_h + iy) * geom.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const auto ix = ox * geom.stride - geom.padding + kx;
            if (ix < 0 || ix >= geom.in_w) {
              continue;
            }
            drow[oy * ow + ox] = srow[ix];
          }
        }
      }
    }
  }
}

/// Adjoint of im2col_block: folds one sample's column block back into its
/// image slice (pre-zeroed by the caller).
void col2im_block(const float* src, const Conv2dGeometry& geom, float* dst,
                  std::int64_t col0, std::int64_t ncols) {
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
        const auto row = (c * geom.kernel_h + ky) * geom.kernel_w + kx;
        const float* srow = src + row * ncols + col0;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const auto iy = oy * geom.stride - geom.padding + ky;
          if (iy < 0 || iy >= geom.in_h) {
            continue;
          }
          float* drow = dst + (c * geom.in_h + iy) * geom.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const auto ix = ox * geom.stride - geom.padding + kx;
            if (ix < 0 || ix >= geom.in_w) {
              continue;
            }
            drow[ix] += srow[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& image, const Conv2dGeometry& geom) {
  DP_REQUIRE(image.rank() == 3, "im2col: expected [C,H,W]");
  DP_REQUIRE(image.dim(0) == geom.in_channels && image.dim(1) == geom.in_h &&
                 image.dim(2) == geom.in_w,
             "im2col: geometry mismatch with image " + image.shape_string());
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(oh > 0 && ow > 0, "im2col: empty output window");
  Tensor cols({geom.patch_size(), oh * ow});
  im2col_block(image.data(), geom, cols.data(), 0, oh * ow);
  return cols;
}

void im2col_batch_into(const Tensor& images, const Conv2dGeometry& geom,
                       Tensor& cols) {
  DP_REQUIRE(images.rank() == 4, "im2col_batch: expected [N,C,H,W]");
  DP_REQUIRE(images.dim(1) == geom.in_channels &&
                 images.dim(2) == geom.in_h && images.dim(3) == geom.in_w,
             "im2col_batch: geometry mismatch with batch " +
                 images.shape_string());
  const auto batch = images.dim(0);
  DP_REQUIRE(batch >= 1, "im2col_batch: batch must be >= 1");
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(n_out > 0, "im2col_batch: empty output window");
  const auto ncols = batch * n_out;
  cols.resize({geom.patch_size(), ncols});
  const auto per_sample = images.numel() / batch;
  const float* src = images.data();
  float* dst = cols.data();
  parallel_for(0, batch, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      im2col_block(src + n * per_sample, geom, dst, n * n_out, ncols);
    }
  });
}

Tensor im2col_batch(const Tensor& images, const Conv2dGeometry& geom) {
  Tensor cols;
  im2col_batch_into(images, geom, cols);
  return cols;
}

Tensor col2im(const Tensor& columns, const Conv2dGeometry& geom) {
  DP_REQUIRE(columns.rank() == 2, "col2im: expected rank-2 columns");
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(columns.dim(0) == geom.patch_size() &&
                 columns.dim(1) == oh * ow,
             "col2im: column shape mismatch");
  Tensor image({geom.in_channels, geom.in_h, geom.in_w}, 0.0F);
  col2im_block(columns.data(), geom, image.data(), 0, oh * ow);
  return image;
}

Tensor col2im_batch(const Tensor& columns, const Conv2dGeometry& geom,
                    std::int64_t batch) {
  DP_REQUIRE(columns.rank() == 2, "col2im_batch: expected rank-2 columns");
  DP_REQUIRE(batch >= 1, "col2im_batch: batch must be >= 1");
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(columns.dim(0) == geom.patch_size() &&
                 columns.dim(1) == batch * n_out,
             "col2im_batch: column shape mismatch");
  Tensor images({batch, geom.in_channels, geom.in_h, geom.in_w}, 0.0F);
  const auto per_sample = images.numel() / batch;
  const float* src = columns.data();
  float* dst = images.data();
  parallel_for(0, batch, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      col2im_block(src, geom, dst + n * per_sample, n * n_out,
                   batch * n_out);
    }
  });
  return images;
}

Tensor conv2d(const Tensor& images, const Tensor& weight, const Tensor& bias,
              const Conv2dGeometry& geom) {
  DP_REQUIRE(images.rank() == 4, "conv2d: images must be [N,C,H,W]");
  DP_REQUIRE(images.dim(1) == geom.in_channels &&
                 images.dim(2) == geom.in_h && images.dim(3) == geom.in_w,
             "conv2d: geometry mismatch with batch " + images.shape_string());
  const auto batch = images.dim(0);
  DP_REQUIRE(batch >= 1, "conv2d: batch must be >= 1");
  DP_REQUIRE(weight.rank() == 4 && weight.dim(1) == geom.in_channels &&
                 weight.dim(2) == geom.kernel_h &&
                 weight.dim(3) == geom.kernel_w,
             "conv2d: weight shape mismatch " + weight.shape_string());
  const auto out_ch = weight.dim(0);
  DP_REQUIRE(bias.rank() == 1 && bias.dim(0) == out_ch,
             "conv2d: bias shape mismatch");
  DP_REQUIRE(geom.kernel_h >= 1 && geom.kernel_w >= 1,
             "conv2d: kernel must be at least 1x1");
  DP_REQUIRE(geom.stride >= 1 && geom.padding >= 0,
             "conv2d: bad stride/padding");
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(oh > 0 && ow > 0, "conv2d: output would be empty");

  const auto n_out = oh * ow;
  const auto strips_per_sample = ceil_div(n_out, kNr);
  const auto taps = geom.kernel_h * geom.kernel_w;
  Tensor out({batch, out_ch, oh, ow});
  float* dst = out.data();

  // Strips never cross a sample: strip s covers output positions
  // [p0, p0 + nr) of sample s / strips_per_sample, one contiguous run of
  // every output plane, so the tile stores straight into [N,O,OH,OW].
  const auto locate = [&](std::int64_t s) {
    const auto n = s / strips_per_sample;
    const auto p0 = (s % strips_per_sample) * kNr;
    return StripView{dst + n * out_ch * n_out + p0, n_out,
                     std::min(kNr, n_out - p0)};
  };
  // The pixel a tap reads for each strip column depends only on the strip's
  // place within its sample and the tap (ky, kx), not on the sample or the
  // channel: gather[(q * taps + t) * kNr + j] is the in-plane offset tap t
  // reads for column j of within-sample strip q, or -1 where it reads
  // padding (or j is past the strip's end).
  const auto plane = geom.in_h * geom.in_w;
  std::vector<std::int64_t> gather(
      static_cast<std::size_t>(strips_per_sample * taps * kNr), -1);
  for (std::int64_t oy = 0, pos = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox, ++pos) {
      auto e = (pos / kNr) * taps * kNr + pos % kNr;
      for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
        const auto iy = oy * geom.stride - geom.padding + ky;
        for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx, e += kNr) {
          const auto ix = ox * geom.stride - geom.padding + kx;
          if (iy >= 0 && iy < geom.in_h && ix >= 0 && ix < geom.in_w) {
            gather[static_cast<std::size_t>(e)] = iy * geom.in_w + ix;
          }
        }
      }
    }
  }
  // Implicit im2col: panel row r = (c, ky, kx) holds, for each output
  // position of the strip, the input pixel that tap reads (+0 in padding) —
  // the entries im2col_batch would have put in those columns.
  const float* src = images.data();
  const auto pack = [&](std::int64_t s, std::int64_t k0, std::int64_t kc,
                        float* panel) {
    const float* image =
        src + (s / strips_per_sample) * geom.in_channels * plane;
    const std::int64_t* strip_gather =
        gather.data() + (s % strips_per_sample) * taps * kNr;
    auto c = k0 / taps;
    auto t = k0 % taps;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* channel = image + c * plane;
      const std::int64_t* idx = strip_gather + t * kNr;
      float* row = panel + p * kNr;
      for (std::int64_t j = 0; j < kNr; ++j) {
        const float v = channel[std::max<std::int64_t>(idx[j], 0)];
        row[j] = idx[j] >= 0 ? v : 0.0F;
      }
      if (++t == taps) {
        t = 0;
        ++c;
      }
    }
  };
  tiled_gemm(weight.data(), out_ch, geom.patch_size(),
             batch * strips_per_sample, locate, pack, bias.data());
  return out;
}

// ---- reductions / elementwise ---------------------------------------------

double sum(const Tensor& t) {
  // Sequential double accumulation: the fixed order keeps the value
  // independent of thread count (this is a cold path next to the GEMMs).
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    acc += t[i];
  }
  return acc;
}

float max_value(const Tensor& t) {
  DP_REQUIRE(!t.empty(), "max_value: empty tensor");
  float m = t[0];
  for (std::int64_t i = 1; i < t.numel(); ++i) {
    m = std::max(m, t[i]);
  }
  return m;
}

Tensor add(const Tensor& a, const Tensor& b) {
  DP_REQUIRE(a.same_shape(b), "add: shape mismatch " + a.shape_string() +
                                  " vs " + b.shape_string());
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.add(po + i0, pb + i0, i1 - i0);
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  DP_REQUIRE(a.same_shape(b), "mul: shape mismatch " + a.shape_string() +
                                  " vs " + b.shape_string());
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.mul(po + i0, pb + i0, i1 - i0);
  });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  float* po = out.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.scale(po + i0, s, i1 - i0);
  });
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  const auto& kern = simd::active();
  // Row-parallel: the max and final scale go through the dispatched
  // kernels (exact for every backend); the exp/denominator loop keeps its
  // fixed sequential double accumulation so the value is independent of
  // thread count and backend alike.
  parallel_for(
      0, rows,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t i = row_begin; i < row_end; ++i) {
          float* row = out.data() + i * cols;
          const float m = kern.max(row, cols);
          double denom = 0.0;
          for (std::int64_t j = 0; j < cols; ++j) {
            row[j] = std::exp(row[j] - m);
            denom += row[j];
          }
          const auto inv = static_cast<float>(1.0 / denom);
          kern.scale(row, inv, cols);
        }
      },
      std::max<std::int64_t>(1, kElementwiseGrain / std::max<std::int64_t>(
                                                        1, cols)));
  return out;
}

// ---- retained naive reference kernels -------------------------------------

namespace reference {

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(out.dim(0) == m && out.dim(1) == n,
             "reference::matmul_accumulate: bad output shape");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul(a)");
  require_matrix(b, "reference::matmul(b)");
  DP_REQUIRE(b.dim(0) == a.dim(1), "reference::matmul: inner mismatch");
  Tensor out({a.dim(0), b.dim(1)}, 0.0F);
  reference::matmul_accumulate(a, b, out);
  return out;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_a(a)");
  require_matrix(b, "reference::matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "reference::matmul_transpose_a: row mismatch");
  const auto n = b.dim(1);
  Tensor out({k, n}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      float* crow = pc + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_b(a)");
  require_matrix(b, "reference::matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "reference::matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n;
      float acc = 0.0F;
      for (std::int64_t j = 0; j < n; ++j) {
        acc += arow[j] * brow[j];
      }
      crow[kk] = acc;
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "reference::softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = out.data() + i * cols;
    float m = row[0];
    for (std::int64_t j = 1; j < cols; ++j) {
      m = std::max(m, row[j]);
    }
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - m);
      denom += row[j];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] *= inv;
    }
  }
  return out;
}

}  // namespace reference

}  // namespace diffpattern::tensor
