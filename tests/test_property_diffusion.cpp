// Parameterized properties of the diffusion schedule, the strided sampler
// (including its argument contract), and the EMA helper.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "diffusion/diffusion.h"
#include "sampler_test_util.h"
#include "tensor/tensor_ops.h"

namespace dd = diffpattern::diffusion;
namespace du = diffpattern::unet;
namespace dc = diffpattern::common;
namespace nn = diffpattern::nn;
using diffpattern::testutil::sample_split_streams;
using diffpattern::testutil::SplitStreams;
using diffpattern::tensor::Tensor;

// ---- schedule sweep ---------------------------------------------------------

class ScheduleSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScheduleSweep, StationaryAndMonotone) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  double prev = 0.0;
  for (std::int64_t k = 1; k <= GetParam(); ++k) {
    const double flip = s.cumulative_flip(k);
    EXPECT_GE(flip, prev - 1e-15);
    EXPECT_LE(flip, 0.5 + 1e-12);
    prev = flip;
  }
  if (GetParam() >= 5) {
    EXPECT_NEAR(s.cumulative_flip(GetParam()), 0.5, 1e-3);
  }
}

TEST_P(ScheduleSweep, PosteriorsAreProbabilities) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  for (std::int64_t k = 1; k <= GetParam(); ++k) {
    for (int xk = 0; xk <= 1; ++xk) {
      for (int x0 = 0; x0 <= 1; ++x0) {
        const double p = s.posterior_prob1(k, xk, x0);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
      }
    }
  }
}

TEST_P(ScheduleSweep, FlipBetweenComposesConsistently) {
  // Qbar_to = Qbar_from * Q_{from->to}: the flip probabilities must satisfy
  // the composition rule c_to = c_from + s - 2 c_from s.
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  const auto k_max = GetParam();
  for (std::int64_t from = 0; from < k_max; from += std::max<std::int64_t>(1, k_max / 7)) {
    for (std::int64_t to = from + 1; to <= k_max;
         to += std::max<std::int64_t>(1, k_max / 5)) {
      const double a = s.cumulative_flip(from);
      const double step = s.flip_between(from, to);
      const double composed = a + step - 2.0 * a * step;
      EXPECT_NEAR(composed, s.cumulative_flip(to), 1e-9)
          << "from=" << from << " to=" << to;
      EXPECT_GE(step, -1e-12);
      EXPECT_LE(step, 0.5 + 1e-12);
    }
  }
}

TEST_P(ScheduleSweep, AdjacentJumpPosteriorEqualsClassicPosterior) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = GetParam()});
  for (std::int64_t k = 1; k <= GetParam();
       k += std::max<std::int64_t>(1, GetParam() / 9)) {
    for (int xk = 0; xk <= 1; ++xk) {
      for (int x0 = 0; x0 <= 1; ++x0) {
        EXPECT_DOUBLE_EQ(s.posterior_prob1_between(k - 1, k, xk, x0),
                         s.posterior_prob1(k, xk, x0));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StepCounts, ScheduleSweep,
                         ::testing::Values(1, 2, 5, 10, 40, 100, 1000));

// ---- q_sample marginals -----------------------------------------------------

class QSampleSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(QSampleSweep, MarginalMatchesCumulativeFlip) {
  dd::BinarySchedule s(dd::ScheduleConfig{.steps = 20});
  const auto k = GetParam();
  dc::Rng rng(k);
  const std::int64_t n = 48;
  Tensor x0({n, 1, 8, 8}, 0.0F);
  std::vector<std::int64_t> ks(static_cast<std::size_t>(n), k);
  const Tensor xk = dd::q_sample(s, x0, ks, rng);
  const double observed = diffpattern::tensor::sum(xk) /
                          static_cast<double>(xk.numel());
  EXPECT_NEAR(observed, s.cumulative_flip(k), 0.04) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Steps, QSampleSweep,
                         ::testing::Values(1, 3, 7, 12, 20));

// ---- strided sampler --------------------------------------------------------

namespace {

du::UNetConfig micro_config() {
  du::UNetConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.model_channels = 8;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {};
  cfg.dropout = 0.0F;
  return cfg;
}

Tensor toy_batch(dc::Rng& rng, std::int64_t n) {
  Tensor x({n, 1, 4, 4}, 0.0F);
  for (std::int64_t i = 0; i < n; ++i) {
    const bool left = rng.bernoulli(0.5);
    for (std::int64_t r = 0; r < 4; ++r) {
      for (std::int64_t c = 0; c < 4; ++c) {
        x.at({i, 0, r, c}) = (left ? c < 2 : c >= 2) ? 1.0F : 0.0F;
      }
    }
  }
  return x;
}

}  // namespace

class StridedSampler : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(StridedSampler, ProducesBinaryOutputAndVisitsExpectedSteps) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 12});
  du::UNet model(micro_config(), 3);
  dc::Rng rng(9);
  std::vector<std::int64_t> visited;
  const auto stride = GetParam();
  Tensor s = sample_split_streams(
      model, schedule, 2, 4, 4, stride, rng,
      [&](std::int64_t k, const Tensor&) { visited.push_back(k); });
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_TRUE(s[i] == 0.0F || s[i] == 1.0F);
  }
  // Chain starts at K, strictly decreases by at most `stride`, ends at 0.
  ASSERT_GE(visited.size(), 2U);
  EXPECT_EQ(visited.front(), 12);
  EXPECT_EQ(visited.back(), 0);
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i], visited[i - 1]);
    EXPECT_LE(visited[i - 1] - visited[i], stride);
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, StridedSampler,
                         ::testing::Values(1, 2, 3, 5, 12));

TEST(StridedSampler, StrideOneVisitsEveryStep) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 6});
  du::UNet model(micro_config(), 3);
  dc::Rng rng(4);
  std::vector<std::int64_t> visited;
  sample_split_streams(model, schedule, 1, 4, 4, /*stride=*/1, rng,
                       [&](std::int64_t k, const Tensor&) {
                         visited.push_back(k);
                       });
  EXPECT_EQ(visited.size(), 7U);  // 6, 5, ..., 0.
}

// Mixed strides {1, 3, 4} on K = 12: the observer tracks the largest step
// any slot still has to run, so it sees K first, strictly decreasing steps,
// and 0 last, once on the prior and once per executed round. Observing
// never changes the sampled bytes.
TEST(StridedSampler, MixedStrideObserverTracksLargestRemainingStep) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 12});
  du::UNet model(micro_config(), 3);
  const std::vector<std::int64_t> strides = {1, 3, 4};
  const auto run = [&](const dd::RoundHook& hook,
                       const dd::SampleObserver& observer) {
    dc::Rng rng(31);
    const SplitStreams streams(rng, strides.size());
    return dd::sample_streams_strided(model, schedule, 4, 4,
                                      dd::SamplerConfig{}, streams.ptrs(),
                                      strides, hook, observer);
  };
  std::int64_t rounds = 0;
  std::vector<std::int64_t> seen;
  const Tensor observed = run(
      [&](std::int64_t, std::int64_t) { ++rounds; },
      [&](std::int64_t k, const Tensor&) { seen.push_back(k); });
  const Tensor plain = run(nullptr, nullptr);

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(rounds + 1));
  EXPECT_EQ(seen.front(), 12);
  EXPECT_EQ(seen.back(), 0);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i], seen[i - 1]);
  }
  ASSERT_TRUE(observed.same_shape(plain));
  for (std::int64_t i = 0; i < plain.numel(); ++i) {
    ASSERT_EQ(observed[i], plain[i]) << "observer changed sampled entry " << i;
  }
}

TEST(StridedSampler, TrainedModelStillHitsModesWithStride) {
  // The fast sampler must preserve the learned distribution reasonably: on
  // the two-mode toy task a stride of 2 should still produce mostly
  // mode-consistent columns.
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 8});
  du::UNet model(micro_config(), 21);
  diffpattern::nn::AdamConfig adam;
  adam.learning_rate = 2e-3F;
  dd::DiffusionTrainer trainer(model, schedule, dd::LossConfig{}, adam);
  dc::Rng rng(22);
  for (int it = 0; it < 220; ++it) {
    Tensor x0 = toy_batch(rng, 8);
    trainer.step(x0, rng);
  }
  Tensor samples =
      sample_split_streams(model, schedule, 16, 4, 4, /*stride=*/2, rng);
  int mode_like = 0;
  for (std::int64_t i = 0; i < 16; ++i) {
    // A mode-like sample has uniform columns: count column-consistency.
    int consistent_cols = 0;
    for (std::int64_t c = 0; c < 4; ++c) {
      const float top = samples[i * 16 + c];
      bool same = true;
      for (std::int64_t r = 1; r < 4; ++r) {
        same = same && samples[i * 16 + r * 4 + c] == top;
      }
      consistent_cols += same;
    }
    mode_like += consistent_cols >= 3;
  }
  EXPECT_GE(mode_like, 9) << "strided samples lost the learned structure";
}

// ---- sampler contract -------------------------------------------------------

// The sampler's argument checks: every malformed call is rejected up front
// with std::invalid_argument instead of being clamped or silently accepted.
TEST(SamplerContract, RejectsMalformedArguments) {
  dd::BinarySchedule schedule(dd::ScheduleConfig{.steps = 12});
  du::UNet model(micro_config(), 3);
  dc::Rng rng(5);
  const SplitStreams streams(rng, 2);
  const auto call = [&](const std::vector<dc::Rng*>& ptrs,
                        const std::vector<std::int64_t>& strides) {
    dd::sample_streams_strided(model, schedule, 4, 4, dd::SamplerConfig{},
                               ptrs, strides);
  };
  EXPECT_THROW(call(streams.ptrs(), {1, 0}), std::invalid_argument)
      << "stride 0";
  EXPECT_THROW(call(streams.ptrs(), {1, 13}), std::invalid_argument)
      << "stride > K";
  EXPECT_THROW(call({streams.ptrs()[0], nullptr}, {1, 1}),
               std::invalid_argument)
      << "null stream";
  EXPECT_THROW(call(streams.ptrs(), {1}), std::invalid_argument)
      << "fewer strides than streams";
  EXPECT_THROW(call(streams.ptrs(), {1, 1, 1}), std::invalid_argument)
      << "more strides than streams";
}

// ---- EMA ---------------------------------------------------------------------

TEST(Ema, TracksParametersTowardCurrentValues) {
  nn::ParamRegistry reg;
  nn::Var p = reg.add("p", Tensor({2}, 0.0F));
  dd::Ema ema(reg, 0.5);
  p.mutable_value()[0] = 8.0F;
  p.mutable_value()[1] = -4.0F;
  ema.update();  // shadow = 0.5*0 + 0.5*current
  ema.swap_in();
  EXPECT_FLOAT_EQ(p.value()[0], 4.0F);
  EXPECT_FLOAT_EQ(p.value()[1], -2.0F);
  ema.swap_out();
  EXPECT_FLOAT_EQ(p.value()[0], 8.0F);
}

TEST(Ema, SwapInRestoresExactTrainingWeights) {
  dc::Rng rng(5);
  nn::ParamRegistry reg;
  nn::Linear lin(reg, rng, "lin", 3, 2);
  dd::Ema ema(reg, 0.9);
  const Tensor before = reg.params()[0].value();
  // Perturb, update, round-trip.
  for (auto p : reg.params()) {
    for (std::int64_t i = 0; i < p.numel(); ++i) {
      p.mutable_value()[i] += 1.0F;
    }
  }
  ema.update();
  const Tensor training = reg.params()[0].value();
  ema.swap_in();
  EXPECT_TRUE(ema.active());
  // EMA value = 0.9 * init + 0.1 * (init + 1).
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(reg.params()[0].value()[i], before[i] + 0.1F, 1e-5F);
  }
  ema.swap_out();
  for (std::int64_t i = 0; i < training.numel(); ++i) {
    EXPECT_FLOAT_EQ(reg.params()[0].value()[i], training[i]);
  }
}

TEST(Ema, GuardsAgainstMisuse) {
  nn::ParamRegistry reg;
  reg.add("p", Tensor({1}, 0.0F));
  EXPECT_THROW(dd::Ema(reg, 0.0), std::invalid_argument);
  EXPECT_THROW(dd::Ema(reg, 1.0), std::invalid_argument);
  dd::Ema ema(reg, 0.9);
  EXPECT_THROW(ema.swap_out(), std::invalid_argument);
  ema.swap_in();
  EXPECT_THROW(ema.swap_in(), std::invalid_argument);
  EXPECT_THROW(ema.update(), std::invalid_argument);
}
