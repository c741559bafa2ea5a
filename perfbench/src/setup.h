// Benchmark set-up: synthetic dataset + quick-scale diffusion model trained
// from scratch on every run (never loaded from a cached checkpoint, so the
// set-up time means the same thing on every commit).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "datagen/datagen.h"
#include "diffusion/diffusion.h"
#include "service/model_registry.h"
#include "unet/unet.h"

namespace perfbench {

namespace dp = diffpattern;

/// Name the trained model is registered under in every service.
inline constexpr const char* kModelName = "bench";

/// A trained model plus what a service needs to register it.
struct TrainedModel {
  dp::service::ModelConfig config;
  dp::datagen::Dataset dataset;
  std::unique_ptr<dp::diffusion::BinarySchedule> schedule;
  std::unique_ptr<dp::unet::UNet> model;
  double dataset_s = 0.0;  ///< Dataset generation wall time.
  double train_s = 0.0;    ///< Training wall time.
};

/// Builds the quick-scale dataset (96 tiles) and trains the quick-scale
/// U-Net (16 channels, mult {1,2}, K = 40) for 900 iterations at batch 8.
/// Fixed seed: the model is identical on every run and every workload.
TrainedModel train_model();

/// Registers `trained` as kModelName on `registry`; aborts on error.
void register_model(dp::service::ModelRegistry& registry,
                    const TrainedModel& trained);

}  // namespace perfbench
