// The three benchmark workloads and the closed loop that drives them.
//
//   batch_library   one in-process client, back-to-back
//                   PatternService::generate (count 64, 4 geometries per
//                   topology, full schedule, "normal" deck).
//   served_mixed    4 client threads -> ReplicaRouter -> SocketTransport
//                   (loopback TCP, PSK-tagged frames, 2 pooled connections
//                   per replica) -> SocketServer -> 2 WorkerNodes; requests
//                   cycle count {1,2,4} x stride {1,2,4,8} and alternate
//                   generate with generate_stream.
//   legalize_sweep  one in-process client, back-to-back
//                   PatternService::legalize_topologies over 64 topologies
//                   (one slice of a 256-topology pool sampled once at
//                   set-up), 256 geometries per topology, rotating the
//                   slices and the "normal", "space" and "area" decks.
//
// Every request seed is derived from the benchmark's --seed. Each request's
// call is timed alone; checking its output (DRC re-check of every returned
// pattern, digest) happens after the call and is excluded from the
// measured window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/router.h"
#include "dist/transport.h"
#include "geometry/grid.h"
#include "service/pattern_service.h"
#include "setup.h"

namespace perfbench {

/// One request's result as the loop records it.
struct Outcome {
  std::int64_t index = 0;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;  ///< The timed call only.
  double check_ms = 0.0;    ///< Untimed output checking after the call.
  dp::common::StatusCode code = dp::common::StatusCode::kOk;
  std::int64_t requested = 0;  ///< Patterns asked for (count x geometries).
  std::int64_t returned = 0;   ///< Patterns returned.
  std::int64_t clean = 0;      ///< Returned and DRC-clean under its deck.
  std::uint64_t digest = 0;    ///< FNV-1a of the returned patterns.
};

/// Counters read from the public APIs around a measured window.
struct Snapshot {
  std::int64_t rounds = 0;         ///< Fused sampling rounds (batches).
  std::int64_t denoise_steps = 0;  ///< U-Net forwards over those rounds.
  std::int64_t fused_slots = 0;
  std::int64_t net_evals = 0;
  std::int64_t requests_completed = 0;
  std::int64_t requests_shed = 0;
  std::int64_t queue_depth_peak = 0;
  std::int64_t max_fused_batch = 0;
  std::int64_t heap_allocations = 0;
  std::int64_t plan_hits = 0;
  std::int64_t plan_misses = 0;
  std::int64_t arena_bytes_reserved = 0;
  dp::dist::RouterCounters router;
  std::vector<dp::dist::ChannelStats> channels;
};

/// Wire cost of a served window, re-encoded and decoded from outside:
/// per-request encode and decode time and frame bytes.
struct WireCost {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_bytes = 0.0;
};

/// Inputs of the per-layer legalize / DRC probes for one workload.
struct LegalizeMix {
  std::vector<dp::geometry::BinaryGrid> topologies;
  std::vector<std::string> decks;
  std::int64_t geometries = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop client threads.
  virtual int clients() const = 0;
  /// Every window runs at least this many requests; legal_yield and the
  /// output digest are taken over exactly these first requests, so both
  /// are fixed for a given seed.
  virtual std::int64_t prefix_requests() const = 0;

  /// One set-up: starts the services (and replicas) on `model` and sends
  /// one warm-up request. Any previous set-up is torn down first.
  virtual void start(const TrainedModel& model, int setup_index) = 0;
  virtual void stop() = 0;

  /// Sends request `index` and checks its output. Thread-safe.
  virtual Outcome send(std::int64_t index) = 0;

  /// Checks that need the whole window (served_mixed: every response
  /// against an in-process PatternService::generate). Empty when fine.
  virtual std::string verify_window() { return {}; }
  /// Drops outputs kept for verify_window().
  virtual void clear_window() {}

  virtual Snapshot snapshot() const = 0;

  /// Per-slot strides of the workload's sampling mix (empty: no sampling
  /// in the measured path).
  virtual std::vector<std::int64_t> sampling_mix() const = 0;
  virtual LegalizeMix legalize_mix() = 0;
  /// The in-process service the probes may call (the first replica's on
  /// served_mixed).
  virtual dp::service::PatternService& service() = 0;

  /// served_mixed: wire cost of the responses kept for verify_window().
  virtual WireCost wire_cost() const { return {}; }

  /// Lines describing request accounting beyond the loop's own counts
  /// (router counters, channel stats).
  virtual void print_transport_accounting() const {}
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
std::vector<std::string> workload_names();

/// A measured window: outcomes in request-index order.
struct Window {
  std::vector<Outcome> outcomes;
  double seconds = 0.0;  ///< Busy time of the loop, checks excluded.
  Snapshot before;
  Snapshot after;
};

/// Closed loop: each client thread sends its next request only after the
/// previous one returned, and stops once the window has lasted `seconds`
/// (checking time excluded) and at least prefix_requests() were sent.
Window run_window(Workload& workload, double seconds);

}  // namespace perfbench
