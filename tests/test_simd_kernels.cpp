// SIMD kernel tier tests: runtime dispatch plumbing, bitwise parity between
// the scalar (canonical) backend and every vector backend this host can
// run, bitwise equality of every GEMM and convolution with the canonical
// fma chain written out as a triple loop, and ULP-bounded equivalence
// against the retained tensor::reference oracle — at sizes chosen to
// exercise every remainder/tail path (non-multiples of the 8-float /
// 4-double lane widths and of the 6 x 16 GEMM tile, 1x1 convolutions, odd
// channel counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "ulp_test_util.h"

namespace dc = diffpattern::common;
namespace dt = diffpattern::tensor;
namespace dn = diffpattern::nn;
namespace du = diffpattern::testutil;
using dt::KernelBackend;
using dt::Tensor;

namespace {

using du::BackendGuard;

/// Every backend this host can run, scalar first (the canonical one).
std::vector<KernelBackend> backends_under_test() {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  for (const auto candidate : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (dt::kernel_backend_supported(candidate)) {
      backends.push_back(candidate);
    }
  }
  return backends;
}

/// Element counts covering full-vector blocks, every tail length of the
/// 8-float and 4-double lane widths, and the degenerate n=1 case.
const std::int64_t kTailSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  11,
                                   12, 13, 15, 16, 17, 23, 24, 31, 32, 33,
                                   63, 64, 65, 100};

Tensor random_tensor(dt::Shape shape, dc::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

::testing::AssertionResult bitwise_equal(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure()
           << "shape mismatch " << a.shape_string() << " vs "
           << b.shape_string();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tensors differ bitwise";
  }
  return ::testing::AssertionSuccess();
}

/// The canonical GEMM chain written out: C[i,j] takes one std::fma per k,
/// ascending, from its current value, skipping exact-zero A[i,k]. Every
/// backend, thread count and tiling must reproduce it bit for bit.
void oracle_gemm_accumulate(const Tensor& a, const Tensor& b, Tensor& c) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = a[i * k + p];
        if (av == 0.0F) {
          continue;
        }
        acc = std::fma(av, b[p * n + j], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

/// GEMM operands that punish a dropped zero-skip: A has scattered exact
/// zeros (+0 and -0), its last row is all zero (so that row of C must keep
/// its starting value, -0 included), and for K >= 2 its last column is all
/// zero with +inf, -inf and NaN in the matching row of B. Skipping keeps
/// every non-finite value out of C; fma(0, inf, c) would not.
std::pair<Tensor, Tensor> zero_skip_operands(std::int64_t m, std::int64_t k,
                                             std::int64_t n, dc::Rng& rng) {
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      if ((i + 2 * p) % 5 == 0 || (m > 1 && i == m - 1) ||
          (k >= 2 && p == k - 1)) {
        a[i * k + p] = (i + p) % 2 == 0 ? 0.0F : -0.0F;
      }
    }
  }
  if (k >= 2) {
    const float poison[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
    for (std::int64_t j = 0; j < n; ++j) {
      b[(k - 1) * n + j] = poison[j % 3];
    }
  }
  return {std::move(a), std::move(b)};
}

/// Restores the auto-sized compute pool when a test that resizes it ends.
struct ThreadsGuard {
  ThreadsGuard() = default;
  ~ThreadsGuard() { EXPECT_TRUE(dc::set_global_compute_threads(-1).ok()); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;
};

/// ULP bound for one fused-vs-split rounding difference per accumulation
/// step, summed over the inner dimensions used below. Observed distances
/// are single digits; the slack guards against unlucky cancellation, not
/// against real bugs (those show up thousands of ULPs away or as shape
/// garbage).
constexpr std::int64_t kGemmUlpBound = 128;

/// Absolute escape hatch for accumulations that cancel towards zero: a
/// fixed absolute drift (~inner_dim * eps * operand scale) is a huge ULP
/// distance on a near-zero result without being any less correct.
constexpr float kGemmAtol = 1e-5F;

}  // namespace

// --------------------------------------------------------------- dispatch

TEST(SimdKernels, ScalarBackendIsAlwaysAvailable) {
  EXPECT_TRUE(dt::kernel_backend_supported(KernelBackend::kScalar));
  ASSERT_NE(dt::simd::table_for(KernelBackend::kScalar), nullptr);
  const auto names = dt::supported_kernel_backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
}

TEST(SimdKernels, ActiveTableMatchesReportedBackend) {
  BackendGuard guard;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    EXPECT_EQ(dt::kernel_backend(), backend);
    EXPECT_EQ(dt::kernel_backend_name(), dt::kernel_backend_label(backend));
    EXPECT_EQ(dt::simd::active().backend, backend);
  }
}

TEST(SimdKernels, ParseRejectsUnknownNamesWithInvalidArgument) {
  for (const char* bad : {"warp9", "", "AVX2", "sse", "scalar "}) {
    const auto parsed = dt::parse_kernel_backend(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' parsed";
    EXPECT_EQ(parsed.status().code(), dc::StatusCode::kInvalidArgument);
    const auto status = dt::set_kernel_backend_name(bad);
    EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  }
}

TEST(SimdKernels, AutoResolvesToDetectedBackend) {
  BackendGuard guard;
  const auto parsed = dt::parse_kernel_backend("auto");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, dt::detected_kernel_backend());
  ASSERT_TRUE(dt::set_kernel_backend_name("auto").ok());
  EXPECT_EQ(dt::kernel_backend(), dt::detected_kernel_backend());
}

TEST(SimdKernels, UnsupportedIsaAnswersInvalidArgumentAndKeepsDispatch) {
  std::string unsupported;
  for (const auto candidate : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (!dt::kernel_backend_supported(candidate)) {
      unsupported = dt::kernel_backend_label(candidate);
      break;
    }
  }
  if (unsupported.empty()) {
    GTEST_SKIP() << "host supports every compiled backend";
  }
  const auto before = dt::kernel_backend();
  const auto status = dt::set_kernel_backend_name(unsupported);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("not supported on this host"),
            std::string::npos);
  EXPECT_EQ(dt::kernel_backend(), before);  // Dispatch untouched.
}

// ------------------------------------------------- raw kernel table parity

TEST(SimdKernels, AxpyBackendParityAndTailCoverage) {
  dc::Rng rng(101);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    ASSERT_NE(table, nullptr);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor y0 = random_tensor({n}, rng);
      const float a = static_cast<float>(rng.normal());
      Tensor want = y0;
      scalar->axpy(a, x.data(), want.data(), n);
      Tensor got = y0;
      table->axpy(a, x.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, want))
          << dt::kernel_backend_label(backend) << " n=" << n;
      // One fused rounding vs mul+add: within a couple of ULPs of naive.
      for (std::int64_t i = 0; i < n; ++i) {
        const float naive = y0[i] + a * x[i];
        EXPECT_TRUE(du::ulp_distance(got[i], naive) <= 2 ||
                    std::abs(got[i] - naive) <= 2e-6F)
            << "n=" << n << " i=" << i << ": " << got[i] << " vs " << naive;
      }
    }
  }
}

TEST(SimdKernels, GemmTileEqualsCanonicalChainOnEveryTileShape) {
  constexpr std::int64_t kNr = dt::simd::kGemmNr;
  constexpr std::int64_t kLdc = kNr + 3;
  constexpr float kSentinel = 12345.0F;
  dc::Rng rng(173);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    ASSERT_NE(table, nullptr);
    for (const std::int64_t k : {0, 1, 7}) {
      for (std::int64_t mr = 1; mr <= dt::simd::kGemmMr; ++mr) {
        for (std::int64_t nr = 1; nr <= kNr; ++nr) {
          for (const bool with_bias : {false, true}) {
            for (const bool with_zeros : {false, true}) {
              SCOPED_TRACE(::testing::Message()
                           << dt::kernel_backend_label(backend) << " k=" << k
                           << " mr=" << mr << " nr=" << nr
                           << " bias=" << with_bias
                           << " zeros=" << with_zeros);
              Tensor a = random_tensor({mr, std::max<std::int64_t>(k, 1)},
                                       rng);
              const auto lda = a.dim(1);
              // Panel columns past nr hold values that must never reach C.
              Tensor panel = random_tensor({std::max<std::int64_t>(k, 1),
                                            kNr}, rng);
              for (std::int64_t p = 0; p < k; ++p) {
                for (std::int64_t j = nr; j < kNr; ++j) {
                  panel[p * kNr + j] = 1e30F;
                }
              }
              if (with_zeros) {
                // Scattered zeros, plus an all-zero column 0 of A over an
                // infinite panel row: only the skip keeps C finite.
                for (std::int64_t e = 0; e < a.numel(); e += 3) {
                  a[e] = 0.0F;
                }
                for (std::int64_t i = 0; i < mr; ++i) {
                  a[i * lda] = -0.0F;
                }
                for (std::int64_t j = 0; j < kNr; ++j) {
                  panel[j] = std::numeric_limits<float>::infinity();
                }
              }
              const Tensor bias = random_tensor({mr}, rng);
              // C rows are kLdc wide; columns >= nr and row mr are
              // sentinels. Row 0 starts at -0, which fma(0, b, c) loses.
              Tensor c0 = random_tensor({mr + 1, kLdc}, rng);
              for (std::int64_t i = 0; i <= mr; ++i) {
                for (std::int64_t j = 0; j < kLdc; ++j) {
                  if (i == mr || j >= nr) {
                    c0[i * kLdc + j] = kSentinel;
                  } else if (i == 0) {
                    c0[j] = -0.0F;
                  }
                }
              }
              Tensor want = c0;
              for (std::int64_t i = 0; i < mr; ++i) {
                for (std::int64_t j = 0; j < nr; ++j) {
                  float acc = want[i * kLdc + j];
                  for (std::int64_t p = 0; p < k; ++p) {
                    const float av = a[i * lda + p];
                    if (av != 0.0F) {
                      acc = std::fma(av, panel[p * kNr + j], acc);
                    }
                  }
                  want[i * kLdc + j] = with_bias ? acc + bias[i] : acc;
                }
              }
              // The zero hint is exact here; without zeros both variants
              // must agree as well.
              for (const bool hint : {with_zeros, true}) {
                Tensor got = c0;
                table->gemm_tile(a.data(), lda, panel.data(), k, got.data(),
                                 kLdc, mr, nr, hint,
                                 with_bias ? bias.data() : nullptr);
                EXPECT_TRUE(bitwise_equal(got, want)) << "hint=" << hint;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, DotBackendParityAndDoubleReference) {
  dc::Rng rng(103);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto n : kTailSizes) {
    const Tensor x = random_tensor({n}, rng);
    const Tensor y = random_tensor({n}, rng);
    const float want = scalar->dot(x.data(), y.data(), n);
    double exact = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      exact += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    EXPECT_TRUE(du::ulp_distance(want, static_cast<float>(exact)) <=
                    kGemmUlpBound ||
                std::abs(want - static_cast<float>(exact)) <= kGemmAtol)
        << "n=" << n << ": " << want << " vs " << exact;
    for (const auto backend : backends_under_test()) {
      const auto* table = dt::simd::table_for(backend);
      const float got = table->dot(x.data(), y.data(), n);
      EXPECT_EQ(du::ulp_distance(got, want), 0)
          << dt::kernel_backend_label(backend) << " n=" << n << ": " << got
          << " vs " << want;
    }
  }
}

TEST(SimdKernels, ElementwiseKernelsExactAcrossBackends) {
  dc::Rng rng(107);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor y0 = random_tensor({n}, rng);
      const float s = static_cast<float>(rng.normal());

      Tensor got = y0;
      table->add(got.data(), x.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] + x[i]) << "add n=" << n;
      }
      got = y0;
      table->mul(got.data(), x.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] * x[i]) << "mul n=" << n;
      }
      got = y0;
      table->scale(got.data(), s, n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] * s) << "scale n=" << n;
      }
      Tensor shifted({n});
      table->shift(shifted.data(), x.data(), s, n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(shifted[i], x[i] + s) << "shift n=" << n;
      }
      got = y0;
      table->relu(got.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] > 0.0F ? y0[i] : 0.0F) << "relu n=" << n;
      }
    }
  }
}

TEST(SimdKernels, MaxKernelExactAcrossBackends) {
  dc::Rng rng(109);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      float want = x[0];
      for (std::int64_t i = 1; i < n; ++i) {
        want = std::max(want, x[i]);
      }
      EXPECT_EQ(table->max(x.data(), n), want)
          << dt::kernel_backend_label(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernels, MomentKernelsBackendParityAndDoubleReference) {
  dc::Rng rng(113);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto n : kTailSizes) {
    const Tensor x = random_tensor({n}, rng);
    const double sum_want = scalar->sum(x.data(), n);
    double exact = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      exact += static_cast<double>(x[i]);
    }
    EXPECT_NEAR(sum_want, exact, 1e-9 * std::max(1.0, std::abs(exact)));
    const double mean = sum_want / static_cast<double>(n);
    const double sq_want = scalar->sumsq_centered(x.data(), mean, n);
    for (const auto backend : backends_under_test()) {
      const auto* table = dt::simd::table_for(backend);
      // Double lanes reduce in a fixed tree: bitwise across backends.
      EXPECT_EQ(table->sum(x.data(), n), sum_want)
          << dt::kernel_backend_label(backend) << " n=" << n;
      EXPECT_EQ(table->sumsq_centered(x.data(), mean, n), sq_want)
          << dt::kernel_backend_label(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernels, NormalizeAffineBackendParity) {
  dc::Rng rng(127);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor gamma = random_tensor({n}, rng);
      const Tensor beta = random_tensor({n}, rng);
      const float mean = static_cast<float>(rng.normal());
      const float istd = std::abs(static_cast<float>(rng.normal())) + 0.5F;

      Tensor want_xhat({n});
      Tensor want_y({n});
      scalar->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                               want_xhat.data(), want_y.data(), n);
      Tensor got_xhat({n});
      Tensor got_y({n});
      table->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                              got_xhat.data(), got_y.data(), n);
      EXPECT_TRUE(bitwise_equal(got_xhat, want_xhat)) << "n=" << n;
      EXPECT_TRUE(bitwise_equal(got_y, want_y)) << "n=" << n;

      scalar->normalize_affine_rows(x.data(), mean, istd, gamma.data(),
                                    beta.data(), want_xhat.data(),
                                    want_y.data(), n);
      table->normalize_affine_rows(x.data(), mean, istd, gamma.data(),
                                   beta.data(), got_xhat.data(),
                                   got_y.data(), n);
      EXPECT_TRUE(bitwise_equal(got_xhat, want_xhat)) << "rows n=" << n;
      EXPECT_TRUE(bitwise_equal(got_y, want_y)) << "rows n=" << n;
    }
  }
}

// ------------------------------------------- tensor-op level equivalence

TEST(SimdKernels, MatmulFamilyBackendInvariantAndUlpCloseToReference) {
  BackendGuard guard;
  dc::Rng rng(131);
  // Odd inner/outer sizes defeat lane alignment; zeros exercise the sparse
  // skip path identically in every backend.
  Tensor a = random_tensor({65, 47}, rng);
  const Tensor b = random_tensor({47, 83}, rng);
  for (std::int64_t i = 0; i < a.numel(); i += 7) {
    a[i] = 0.0F;
  }
  const Tensor ta = random_tensor({65, 83}, rng);  // For transpose_a.
  const Tensor tb = random_tensor({29, 47}, rng);  // For transpose_b.

  Tensor mm_base;
  Tensor mta_base;
  Tensor mtb_base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor mm = dt::matmul(a, b);
    const Tensor mta = dt::matmul_transpose_a(a, ta);
    const Tensor mtb = dt::matmul_transpose_b(a, tb);
    if (mm_base.empty()) {
      mm_base = mm;
      mta_base = mta;
      mtb_base = mtb;
    } else {
      EXPECT_TRUE(bitwise_equal(mm, mm_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(mta, mta_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(mtb, mtb_base))
          << dt::kernel_backend_label(backend);
    }
  }
  EXPECT_TRUE(du::ulp_close(mm_base, dt::reference::matmul(a, b),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(mta_base, dt::reference::matmul_transpose_a(a, ta),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(mtb_base, dt::reference::matmul_transpose_b(a, tb),
                            kGemmUlpBound, kGemmAtol));
}

TEST(SimdKernels, MatmulSingleColumnAndSingleElementShapes) {
  BackendGuard guard;
  dc::Rng rng(137);
  // N=1 puts every axpy on the tail path; 1x1x1 is the degenerate GEMM.
  const Tensor a = random_tensor({9, 13}, rng);
  const Tensor b = random_tensor({13, 1}, rng);
  const Tensor a1 = random_tensor({1, 1}, rng);
  const Tensor b1 = random_tensor({1, 1}, rng);
  Tensor col_base;
  Tensor one_base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor col = dt::matmul(a, b);
    const Tensor one = dt::matmul(a1, b1);
    if (col_base.empty()) {
      col_base = col;
      one_base = one;
    } else {
      EXPECT_TRUE(bitwise_equal(col, col_base));
      EXPECT_TRUE(bitwise_equal(one, one_base));
    }
  }
  EXPECT_TRUE(du::ulp_close(col_base, dt::reference::matmul(a, b),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(one_base, dt::reference::matmul(a1, b1), 2));
}

TEST(SimdKernels, MatmulBitwiseEqualsCanonicalChainOnEveryBackendAndThreads) {
  BackendGuard backend_guard;
  ThreadsGuard threads_guard;
  dc::Rng rng(179);
  // M covers every remainder of the 6-row tile, N every side of the
  // 16-column strip, K = 257 crosses the 256-deep panel block.
  struct Case {
    Tensor a, b, want, want_acc;
  };
  std::vector<Case> cases;
  for (std::int64_t m = 1; m <= 13; ++m) {
    for (const std::int64_t n : {1, 15, 16, 17, 33}) {
      for (const std::int64_t k : {0, 1, 5, 257}) {
        auto [a, b] = zero_skip_operands(m, k, n, rng);
        Tensor want({m, n}, 0.0F);
        oracle_gemm_accumulate(a, b, want);
        Tensor want_acc({m, n}, -0.0F);
        oracle_gemm_accumulate(a, b, want_acc);
        cases.push_back({std::move(a), std::move(b), std::move(want),
                         std::move(want_acc)});
      }
    }
  }
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    for (const std::int64_t threads : {1, 2, 8}) {
      ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
      for (const auto& c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << dt::kernel_backend_label(backend)
                     << " threads=" << threads << " a=" << c.a.shape_string()
                     << " b=" << c.b.shape_string());
        EXPECT_TRUE(bitwise_equal(dt::matmul(c.a, c.b), c.want));
        Tensor into(c.want.shape(), std::numeric_limits<float>::quiet_NaN());
        dt::matmul_into(c.a, c.b, into);
        EXPECT_TRUE(bitwise_equal(into, c.want));
        Tensor acc(c.want.shape(), -0.0F);
        dt::matmul_accumulate(c.a, c.b, acc);
        EXPECT_TRUE(bitwise_equal(acc, c.want_acc));
      }
    }
  }
  // The all-zero last row of A keeps its -0 start: a dropped skip would
  // have turned it into +0 (or NaN under the poisoned B row).
  const auto [a, b] = zero_skip_operands(4, 9, 17, rng);
  Tensor acc({4, 17}, -0.0F);
  dt::matmul_accumulate(a, b, acc);
  for (std::int64_t j = 0; j < 17; ++j) {
    EXPECT_TRUE(std::signbit(acc[3 * 17 + j]) && acc[3 * 17 + j] == 0.0F);
  }
}

TEST(SimdKernels, SoftmaxRowsBackendInvariant) {
  BackendGuard guard;
  dc::Rng rng(139);
  const Tensor logits = random_tensor({33, 37}, rng);  // Odd row width.
  Tensor base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor out = dt::softmax_rows(logits);
    if (base.empty()) {
      base = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, base))
          << dt::kernel_backend_label(backend);
    }
  }
  // Max and the final scale are exact in every backend; the whole op stays
  // bitwise equal to the reference.
  EXPECT_TRUE(bitwise_equal(base, dt::reference::softmax_rows(logits)));
}

namespace {

/// Per-sample conv reference composed from the retained naive kernels
/// (reference GEMM over per-sample im2col), the oracle bench_kernels uses.
Tensor conv_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::int64_t stride, std::int64_t padding) {
  dt::Conv2dGeometry geom;
  geom.in_channels = x.dim(1);
  geom.in_h = x.dim(2);
  geom.in_w = x.dim(3);
  geom.kernel_h = w.dim(2);
  geom.kernel_w = w.dim(3);
  geom.stride = stride;
  geom.padding = padding;
  const auto batch = x.dim(0);
  const auto out_ch = w.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  const Tensor w2d = w.reshaped({out_ch, geom.patch_size()});
  Tensor out({batch, out_ch, geom.out_h(), geom.out_w()});
  for (std::int64_t n = 0; n < batch; ++n) {
    Tensor image({x.dim(1), x.dim(2), x.dim(3)});
    std::copy(x.data() + n * image.numel(),
              x.data() + (n + 1) * image.numel(), image.data());
    const Tensor y = dt::reference::matmul(w2d, dt::im2col(image, geom));
    for (std::int64_t o = 0; o < out_ch; ++o) {
      for (std::int64_t p = 0; p < n_out; ++p) {
        out[(n * out_ch + o) * n_out + p] = y[o * n_out + p] + b[o];
      }
    }
  }
  return out;
}

/// conv2d spelled as the formulation it replaced: im2col_batch, the
/// canonical chain against the flattened weight from +0, then `+ bias[o]`
/// scattered to [N,O,OH,OW]. The implicit-im2col conv must equal it bit
/// for bit.
Tensor conv_via_columns(const Tensor& x, const Tensor& w, const Tensor& b,
                        std::int64_t stride, std::int64_t padding) {
  dt::Conv2dGeometry geom;
  geom.in_channels = x.dim(1);
  geom.in_h = x.dim(2);
  geom.in_w = x.dim(3);
  geom.kernel_h = w.dim(2);
  geom.kernel_w = w.dim(3);
  geom.stride = stride;
  geom.padding = padding;
  const auto batch = x.dim(0);
  const auto out_ch = w.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  const Tensor cols = dt::im2col_batch(x, geom);
  Tensor y({out_ch, batch * n_out}, 0.0F);
  oracle_gemm_accumulate(w.reshaped({out_ch, geom.patch_size()}), cols, y);
  Tensor out({batch, out_ch, geom.out_h(), geom.out_w()});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t o = 0; o < out_ch; ++o) {
      for (std::int64_t p = 0; p < n_out; ++p) {
        out[(n * out_ch + o) * n_out + p] =
            y[o * batch * n_out + n * n_out + p] + b[o];
      }
    }
  }
  return out;
}

}  // namespace

TEST(SimdKernels, ConvolutionTailShapesBackendInvariantAndUlpClose) {
  BackendGuard guard;
  dc::Rng rng(149);
  struct Case {
    dt::Shape x;
    dt::Shape w;
    std::int64_t stride;
    std::int64_t padding;
  };
  // Odd channel counts, 1x1 kernels, and widths straddling the 8-lane
  // boundary — the shapes whose tails hide out-of-bounds bugs.
  const Case cases[] = {
      {{2, 3, 5, 7}, {5, 3, 3, 3}, 1, 1},   // Odd channels, W=7 tail.
      {{1, 1, 8, 9}, {3, 1, 1, 1}, 1, 0},   // 1x1 conv, single channel.
      {{3, 5, 4, 4}, {7, 5, 1, 1}, 1, 0},   // 1x1 conv, odd channels.
      {{2, 2, 9, 9}, {4, 2, 3, 3}, 2, 1},   // Strided, odd output width.
      {{1, 4, 3, 3}, {2, 4, 3, 3}, 1, 0},   // Output collapses to 1x1.
      // 5x5 outputs: a 16-column strip of the batch-wide columns would
      // straddle samples; each sample's 25 positions end in a 9-wide tail.
      {{3, 3, 7, 7}, {5, 3, 3, 3}, 2, 2},
      // C*kh*kw = 270: the chain spans two 256-deep panel blocks, and the
      // bias lands once, after the last.
      {{2, 30, 4, 4}, {7, 30, 3, 3}, 1, 1},
  };
  for (const auto& c : cases) {
    dc::Rng data_rng(151);
    const Tensor x = random_tensor(c.x, data_rng);
    const Tensor w = random_tensor(c.w, data_rng);
    const Tensor b = random_tensor({c.w[0]}, data_rng);
    Tensor base;
    for (const auto backend : backends_under_test()) {
      ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
      dn::NoGradGuard no_grad;
      const Tensor out =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), c.stride, c.padding)
              .value();
      if (base.empty()) {
        base = out;
      } else {
        EXPECT_TRUE(bitwise_equal(out, base))
            << dt::kernel_backend_label(backend);
      }
    }
    EXPECT_TRUE(bitwise_equal(
        base, conv_via_columns(x, w, b, c.stride, c.padding)));
    // The autograd forward (graph recorded) is the same computation.
    const Tensor graphed =
        dn::conv2d(dn::Var(x, true), dn::Var(w, true), dn::Var(b, true),
                   c.stride, c.padding)
            .value();
    EXPECT_TRUE(bitwise_equal(graphed, base));
    EXPECT_TRUE(du::ulp_close(base, conv_reference(x, w, b, c.stride,
                                                   c.padding),
                              kGemmUlpBound, kGemmAtol));
  }
}

TEST(SimdKernels, NormalizationOpsBackendInvariant) {
  BackendGuard guard;
  dc::Rng rng(157);
  // Plane of 3x3 = 9 elements and 37-wide rows keep every normalize call on
  // a tail path.
  const Tensor x4 = random_tensor({2, 6, 3, 3}, rng);
  const Tensor gamma = random_tensor({6}, rng);
  const Tensor beta = random_tensor({6}, rng);
  const Tensor x2 = random_tensor({5, 37}, rng);
  const Tensor lg = random_tensor({37}, rng);
  const Tensor lb = random_tensor({37}, rng);
  Tensor gn_base;
  Tensor ln_base;
  Tensor relu_base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor gn =
        dn::group_norm(dn::Var(x4), dn::Var(gamma), dn::Var(beta),
                       /*groups=*/3, /*eps=*/1e-5F)
            .value();
    const Tensor ln =
        dn::layer_norm(dn::Var(x2), dn::Var(lg), dn::Var(lb), 1e-5F).value();
    const Tensor re = dn::relu(dn::Var(x2)).value();
    if (gn_base.empty()) {
      gn_base = gn;
      ln_base = ln;
      relu_base = re;
    } else {
      EXPECT_TRUE(bitwise_equal(gn, gn_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(ln, ln_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(re, relu_base))
          << dt::kernel_backend_label(backend);
    }
  }
}

TEST(SimdKernels, ForcedScalarDispatchServesTheWholeGemmPath) {
  // Forced-scalar parity on the same build: the portable code path must
  // produce the same bytes the vector backend produces (it is the
  // canonical semantics, not a second implementation).
  BackendGuard guard;
  dc::Rng rng(163);
  const Tensor a = random_tensor({17, 31}, rng);
  const Tensor b = random_tensor({31, 9}, rng);
  ASSERT_TRUE(dt::set_kernel_backend(KernelBackend::kScalar).ok());
  const Tensor scalar_out = dt::matmul(a, b);
  const auto detected = dt::detected_kernel_backend();
  if (detected == KernelBackend::kScalar) {
    GTEST_SKIP() << "host has no vector backend to compare against";
  }
  ASSERT_TRUE(dt::set_kernel_backend(detected).ok());
  EXPECT_TRUE(bitwise_equal(dt::matmul(a, b), scalar_out));
}
