#include "layers.h"

#include <algorithm>
#include <iostream>
#include <memory>

#include "common/rng.h"
#include "drc/checker.h"
#include "legalize/constraints.h"
#include "legalize/solver.h"
#include "nn/autograd.h"
#include "tensor/arena.h"
#include "tensor/tensor_ops.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kProbeTag = 0x50524F42;  // "PROB"
constexpr int kSamplerReps = 3;

/// Median of `reps` timed calls of `fn` (ms), after two untimed warm-ups.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  fn();
  fn();
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(ms_since(t0));
  }
  return quantile(times, 0.5);
}

dp::tensor::Tensor random_tensor(const dp::tensor::Shape& shape,
                                 dp::common::Rng& rng, bool binary) {
  dp::tensor::Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = binary ? (rng.bernoulli(0.5) ? 1.0F : 0.0F)
                  : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

}  // namespace

std::vector<ConvShape> unet_conv_shapes(const dp::unet::UNetConfig& config,
                                        std::int64_t side) {
  std::vector<ConvShape> shapes;
  const auto mc = config.model_channels;
  const auto conv = [&](const std::string& name, std::int64_t in,
                        std::int64_t out, std::int64_t kernel,
                        std::int64_t stride) {
    shapes.push_back({name, in, out, kernel, stride, side});
  };
  const auto res_block = [&](const std::string& name, std::int64_t in,
                             std::int64_t out) {
    conv(name + ".conv1", in, out, 3, 1);
    conv(name + ".conv2", out, out, 3, 1);
    if (in != out) {
      conv(name + ".skip", in, out, 1, 1);
    }
  };
  const auto attention = [&](const std::string& name, std::int64_t ch) {
    conv(name + ".qkv", ch, 3 * ch, 1, 1);
    conv(name + ".proj", ch, ch, 1, 1);
  };

  conv("stem", config.in_channels, mc, 3, 1);
  std::vector<std::int64_t> skips = {mc};
  std::int64_t ch = mc;
  for (std::int64_t level = 0; level < config.levels(); ++level) {
    const auto out = mc * config.channel_mult[static_cast<std::size_t>(level)];
    for (std::int64_t i = 0; i < config.num_res_blocks; ++i) {
      const auto name =
          "down." + std::to_string(level) + ".res" + std::to_string(i);
      res_block(name, ch, out);
      if (config.attention_levels.count(level) > 0) {
        attention(name + ".attn", out);
      }
      ch = out;
      skips.push_back(ch);
    }
    if (level + 1 < config.levels()) {
      conv("down." + std::to_string(level) + ".downsample", ch, ch, 3, 2);
      side /= 2;
      skips.push_back(ch);
    }
  }
  res_block("mid.res1", ch, ch);
  attention("mid.attn", ch);
  res_block("mid.res2", ch, ch);
  for (std::int64_t level = config.levels() - 1; level >= 0; --level) {
    const auto out = mc * config.channel_mult[static_cast<std::size_t>(level)];
    for (std::int64_t i = 0; i <= config.num_res_blocks; ++i) {
      const auto skip = skips.back();
      skips.pop_back();
      const auto name =
          "up." + std::to_string(level) + ".res" + std::to_string(i);
      res_block(name, ch + skip, out);
      if (config.attention_levels.count(level) > 0) {
        attention(name + ".attn", out);
      }
      ch = out;
    }
    if (level > 0) {
      side *= 2;
      conv("up." + std::to_string(level) + ".upsample", ch, ch, 3, 1);
    }
  }
  conv("head.conv", ch, config.out_channels, 3, 1);
  return shapes;
}

KernelProbe probe_conv_kernels(const std::vector<ConvShape>& shapes,
                               std::int64_t batch) {
  KernelProbe probe;
  dp::common::Rng rng(kProbeTag);
  const int reps = batch >= 16 ? 15 : 200;
  dp::tensor::Tensor cols;
  dp::tensor::Tensor out;
  for (const auto& s : shapes) {
    dp::tensor::Conv2dGeometry geom;
    geom.in_channels = s.in_channels;
    geom.in_h = s.side;
    geom.in_w = s.side;
    geom.kernel_h = s.kernel;
    geom.kernel_w = s.kernel;
    geom.stride = s.stride;
    geom.padding = s.kernel / 2;
    const auto images =
        random_tensor({batch, s.in_channels, s.side, s.side}, rng, false);
    const auto weight =
        random_tensor({s.out_channels, geom.patch_size()}, rng, false);
    const auto ncols = batch * geom.out_h() * geom.out_w();
    probe.im2col_ms += median_ms(reps, [&] {
      dp::tensor::im2col_batch_into(images, geom, cols);
    });
    out.resize({s.out_channels, ncols});
    probe.gemm_ms += median_ms(reps, [&] {
      dp::tensor::matmul_into(weight, cols, out);
    });
    const auto k = static_cast<double>(geom.patch_size());
    const auto m = static_cast<double>(s.out_channels);
    const auto n = static_cast<double>(ncols);
    probe.flops += 2.0 * m * k * n;
    // im2col reads the image and writes the columns; the GEMM reads the
    // weight and the columns and writes the output.
    probe.bytes += 4.0 * (static_cast<double>(images.numel()) + k * n +
                          m * k + k * n + m * n);
  }
  return probe;
}

double probe_unet_forward_ms(dp::unet::UNet& model, std::int64_t batch,
                             std::int64_t side, std::int64_t steps) {
  dp::common::Rng rng(kProbeTag + static_cast<std::uint64_t>(batch));
  const auto x = random_tensor(
      {batch, model.config().in_channels, side, side}, rng, true);
  std::vector<std::int64_t> k;
  for (std::int64_t i = 0; i < batch; ++i) {
    k.push_back(1 + (i * 7) % steps);
  }
  const dp::nn::NoGradGuard no_grad;
  const int reps = batch >= 64 ? 12 : (batch >= 8 ? 30 : 60);
  return median_ms(reps, [&] {
    const dp::tensor::ArenaScope arena(model.plan_cache(), x.shape());
    const auto logits = model.forward(x, k, /*training=*/false, rng);
    (void)logits;
  });
}

SamplerProbe probe_sampler(const TrainedModel& model,
                           const std::vector<std::int64_t>& strides,
                           std::uint64_t seed) {
  SamplerProbe probe;
  if (strides.empty()) {
    return probe;
  }
  auto& unet = *model.model;
  const auto side = model.config.folded_side().value();
  // Median of three calls; the RoundHook reports each round's shape.
  std::vector<std::pair<std::int64_t, std::int64_t>> rounds;  // (k, batch)
  std::vector<double> walls;
  for (int rep = 0; rep < kSamplerReps; ++rep) {
    std::vector<dp::common::Rng> streams;
    std::vector<dp::common::Rng*> stream_ptrs;
    streams.reserve(strides.size());
    for (std::size_t i = 0; i < strides.size(); ++i) {
      streams.emplace_back(dp::common::derive_seed(seed, kProbeTag, i));
      stream_ptrs.push_back(&streams.back());
    }
    rounds.clear();
    const auto t0 = Clock::now();
    const auto samples = dp::diffusion::sample_streams_strided(
        unet, *model.schedule, side, side, dp::diffusion::SamplerConfig{},
        stream_ptrs, strides, [&rounds](std::int64_t k, std::int64_t batch) {
          rounds.emplace_back(k, batch);
        });
    walls.push_back(ms_since(t0));
    (void)samples;
  }
  probe.wall_ms = quantile(walls, 0.5);
  probe.rounds = static_cast<std::int64_t>(rounds.size());
  for (const auto& r : rounds) {
    probe.net_evals += r.second;
  }
  probe.ms_per_net_eval =
      probe.wall_ms /
      static_cast<double>(std::max<std::int64_t>(1, probe.net_evals));

  // Replay: one UNet::forward per reported round at its batch shape, back
  // to back like the sampler runs them; also the median of three passes.
  dp::common::Rng rng(seed);
  std::vector<dp::tensor::Tensor> inputs;
  std::vector<std::vector<std::int64_t>> steps;
  for (const auto& [k, batch] : rounds) {
    inputs.push_back(random_tensor(
        {batch, unet.config().in_channels, side, side}, rng, true));
    steps.emplace_back(static_cast<std::size_t>(batch),
                       std::max<std::int64_t>(1, k));
  }
  const dp::nn::NoGradGuard no_grad;
  std::vector<double> replays;
  for (int rep = 0; rep < kSamplerReps; ++rep) {
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const dp::tensor::ArenaScope arena(unet.plan_cache(), inputs[i].shape());
      const auto logits =
          unet.forward(inputs[i], steps[i], /*training=*/false, rng);
      (void)logits;
    }
    replays.push_back(ms_since(r0));
  }
  probe.unet_share = quantile(replays, 0.5) / probe.wall_ms;
  return probe;
}

LegalizeProbe probe_legalize(
    dp::service::PatternService& service, const TrainedModel& model,
    const std::vector<dp::geometry::BinaryGrid>& topologies,
    const std::vector<std::string>& decks, std::int64_t geometries,
    std::uint64_t seed) {
  LegalizeProbe probe;
  const auto& cfg = model.config;
  const auto* library =
      model.dataset.library.empty() ? nullptr : &model.dataset.library;
  for (std::size_t d = 0; d < decks.size(); ++d) {
    const auto rules = service.rule_set(decks[d]);
    if (!rules.ok()) {
      std::cerr << "perfbench: rule_set " << decks[d] << ": "
                << rules.status().to_string() << "\n";
      std::exit(1);
    }
    dp::service::LegalizeTopologiesRequest req;
    req.model = kModelName;
    req.topologies = topologies;
    req.geometries_per_topology = geometries;
    req.rule_set = decks[d];
    req.seed = dp::common::derive_seed(seed, kProbeTag, d);
    auto t0 = Clock::now();
    const auto served = service.legalize_topologies(req);
    probe.service_ms += ms_since(t0);
    if (!served.ok()) {
      std::cerr << "perfbench: legalize_topologies: "
                << served.status().to_string() << "\n";
      std::exit(1);
    }

    std::vector<dp::layout::SquishPattern> patterns;
    for (std::size_t i = 0; i < topologies.size(); ++i) {
      const auto& topology = topologies[i];
      ++probe.topologies;
      dp::common::Rng rng(dp::common::derive_seed(req.seed, kProbeTag, i));
      t0 = Clock::now();
      if (dp::legalize::prefilter_topology(topology) !=
          dp::legalize::PrefilterVerdict::ok) {
        probe.many_ms += ms_since(t0);
        ++probe.prefilter_rejected;
        continue;
      }
      auto many = dp::legalize::legalize_topology_many(
          topology, *rules, cfg.tile, cfg.tile, cfg.solver, geometries, rng,
          library);
      probe.many_ms += ms_since(t0);
      probe.patterns += static_cast<std::int64_t>(many.size());
      patterns.insert(patterns.end(), many.begin(), many.end());

      const auto single = dp::legalize::legalize_topology(
          topology, *rules, cfg.tile, cfg.tile, cfg.solver, rng, library);
      probe.solved += single.success ? 1 : 0;
      probe.solve_rounds += single.stats.rounds;
    }
    t0 = Clock::now();
    std::int64_t clean = 0;
    for (const auto& p : patterns) {
      clean += dp::drc::check_pattern(p, *rules).clean() ? 1 : 0;
    }
    probe.drc_ms += ms_since(t0);
    if (clean != static_cast<std::int64_t>(patterns.size())) {
      std::cerr << "perfbench: legalize probe produced a DRC-dirty pattern\n";
      std::exit(1);
    }
  }
  return probe;
}

}  // namespace perfbench
