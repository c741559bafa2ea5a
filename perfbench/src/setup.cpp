#include "setup.h"

#include <cstdlib>
#include <iostream>

#include "common/rng.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kTrainSeed = 2023;
constexpr std::int64_t kDatasetTiles = 96;
constexpr std::int64_t kTrainIterations = 900;
constexpr std::int64_t kTrainBatch = 8;

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TrainedModel train_model() {
  TrainedModel out;
  auto& cfg = out.config;
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule = {.steps = 40, .beta_start = 0.01, .beta_end = 0.5};
  cfg.model_channels = 16;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {1};
  cfg.dropout = 0.1F;

  dp::datagen::DatagenConfig data_cfg;
  data_cfg.quantum = 64;
  data_cfg.min_shapes = 4;
  data_cfg.max_shapes = 9;
  data_cfg.extend_probability = 0.5;
  cfg.tile = data_cfg.tile;
  cfg.rules = data_cfg.rules;

  dp::common::Rng rng(kTrainSeed);
  out.model = std::make_unique<dp::unet::UNet>(cfg.unet_config(),
                                               rng.split().engine()());
  out.schedule = std::make_unique<dp::diffusion::BinarySchedule>(cfg.schedule);

  auto t0 = std::chrono::steady_clock::now();
  dp::common::Rng data_rng = rng.split();
  out.dataset = dp::datagen::build_dataset(data_cfg, kDatasetTiles,
                                           cfg.grid_side, cfg.channels,
                                           /*test_fraction=*/0.2, data_rng);
  out.dataset_s = since(t0);

  t0 = std::chrono::steady_clock::now();
  dp::diffusion::DiffusionTrainer trainer(
      *out.model, *out.schedule, dp::diffusion::LossConfig{},
      dp::nn::AdamConfig{.learning_rate = 1e-3F, .grad_clip_norm = 1.0F});
  dp::common::Rng train_rng = rng.split();
  for (std::int64_t it = 0; it < kTrainIterations; ++it) {
    trainer.step(out.dataset.sample_training_batch(kTrainBatch, train_rng),
                 train_rng);
  }
  out.train_s = since(t0);
  return out;
}

void register_model(dp::service::ModelRegistry& registry,
                    const TrainedModel& trained) {
  const auto status =
      registry.register_model(kModelName, trained.config,
                              trained.model->registry(),
                              trained.dataset.library);
  if (!status.ok()) {
    std::cerr << "perfbench: register_model failed: " << status.to_string()
              << "\n";
    std::exit(1);
  }
}

}  // namespace perfbench
