// Per-layer probes of the traced run. Each one times the benchmark's own
// calls into one module's public functions; nothing inside src/ is
// instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diffusion/diffusion.h"
#include "geometry/grid.h"
#include "service/pattern_service.h"
#include "setup.h"
#include "unet/unet.h"

namespace perfbench {

/// One convolution of the U-Net: input [N, in_channels, side, side].
struct ConvShape {
  std::string name;
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t side = 0;
};

/// Every convolution one UNet::forward runs, derived from its config (the
/// walk mirrors src/unet/unet.cpp's encoder / middle / decoder).
std::vector<ConvShape> unet_conv_shapes(const dp::unet::UNetConfig& config,
                                        std::int64_t side);

/// Summed over every conv shape of one forward at batch `batch`: the median
/// time of tensor::im2col_batch_into and of the conv's tensor::matmul_into,
/// plus FLOPs and bytes moved computed from tensor sizes (not counted by
/// hardware).
struct KernelProbe {
  double im2col_ms = 0.0;
  double gemm_ms = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
};
KernelProbe probe_conv_kernels(const std::vector<ConvShape>& shapes,
                               std::int64_t batch);

/// Median UNet::forward time (inference mode, arena plan leased like the
/// sampler does) at batch `batch`.
double probe_unet_forward_ms(dp::unet::UNet& model, std::int64_t batch,
                             std::int64_t side, std::int64_t steps);

/// One direct diffusion::sample_streams_strided call over `strides` slots.
/// unet_share replays the rounds its RoundHook reported as UNet::forward
/// calls at the same batch shapes and divides their time by the call's.
struct SamplerProbe {
  double wall_ms = 0.0;
  std::int64_t net_evals = 0;
  std::int64_t rounds = 0;
  double ms_per_net_eval = 0.0;
  double unet_share = 0.0;
};
SamplerProbe probe_sampler(const TrainedModel& model,
                           const std::vector<std::int64_t>& strides,
                           std::uint64_t seed);

/// Legalization and DRC from outside the service, single-threaded, over
/// the given topologies and decks, against the service's own
/// legalize_topologies wall time on the same input.
struct LegalizeProbe {
  std::int64_t topologies = 0;
  std::int64_t prefilter_rejected = 0;
  std::int64_t solved = 0;        ///< legalize_topology successes.
  std::int64_t solve_rounds = 0;  ///< Summed SolveStats::rounds.
  std::int64_t patterns = 0;      ///< From legalize_topology_many.
  double many_ms = 0.0;           ///< Prefilter + legalize_topology_many.
  double drc_ms = 0.0;            ///< drc::check_pattern over `patterns`.
  double service_ms = 0.0;        ///< PatternService::legalize_topologies.
};
LegalizeProbe probe_legalize(
    dp::service::PatternService& service, const TrainedModel& model,
    const std::vector<dp::geometry::BinaryGrid>& topologies,
    const std::vector<std::string>& decks, std::int64_t geometries,
    std::uint64_t seed);

}  // namespace perfbench
