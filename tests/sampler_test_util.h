// Per-slot RNG streams for the sampler suites: the sampler draws slot i
// only from its own stream, so tests that start from one seeded Rng split a
// stream off it for every slot.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "diffusion/diffusion.h"
#include "tensor/tensor.h"
#include "unet/unet.h"

namespace diffpattern::testutil {

/// `n` independent streams split off `rng` in slot order. Not copyable:
/// ptrs() points into the owned streams.
class SplitStreams {
 public:
  SplitStreams(common::Rng& rng, std::size_t n) {
    owned_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      owned_.push_back(rng.split());
    }
    for (auto& stream : owned_) {
      ptrs_.push_back(&stream);
    }
  }
  SplitStreams(const SplitStreams&) = delete;
  SplitStreams& operator=(const SplitStreams&) = delete;

  const std::vector<common::Rng*>& ptrs() const { return ptrs_; }

 private:
  std::vector<common::Rng> owned_;
  std::vector<common::Rng*> ptrs_;
};

/// Samples `batch` topologies, every slot at the same `stride`, with
/// per-slot streams split off `rng`.
inline tensor::Tensor sample_split_streams(
    unet::UNet& model, const diffusion::BinarySchedule& schedule,
    std::int64_t batch, std::int64_t height, std::int64_t width,
    std::int64_t stride, common::Rng& rng,
    const diffusion::SampleObserver& observer = nullptr) {
  const SplitStreams streams(rng, static_cast<std::size_t>(batch));
  return diffusion::sample_streams_strided(
      model, schedule, height, width, diffusion::SamplerConfig{},
      streams.ptrs(),
      std::vector<std::int64_t>(static_cast<std::size_t>(batch), stride),
      /*round_hook=*/nullptr, observer);
}

}  // namespace diffpattern::testutil
