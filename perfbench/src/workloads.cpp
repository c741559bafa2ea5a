#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "dist/worker_node.h"
#include "drc/checker.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

namespace {

using dp::layout::SquishPattern;

// derive_seed stream tags: one per workload, plus set-up draws.
constexpr std::uint64_t kBatchTag = 0x424C4942;     // "BLIB"
constexpr std::uint64_t kServedTag = 0x53455256;    // "SERV"
constexpr std::uint64_t kSweepTag = 0x4C535750;     // "LSWP"
constexpr std::uint64_t kTopologyTag = 0x544F504F;  // "TOPO"
constexpr std::uint64_t kWarmupIndex = 1ULL << 40;  // Past any window index.

void die(const std::string& what, const dp::common::Status& status) {
  std::cerr << "perfbench: " << what << ": " << status.to_string() << "\n";
  std::exit(1);
}

/// Number of DRC-clean patterns in [first, last) under `rules`.
std::int64_t count_clean(const SquishPattern* first, const SquishPattern* last,
                         const dp::drc::DesignRules& rules) {
  std::int64_t clean = 0;
  for (; first != last; ++first) {
    clean += dp::drc::check_pattern(*first, rules).clean() ? 1 : 0;
  }
  return clean;
}

/// Fills the output fields of `out` from `patterns`: returned count, DRC
/// re-check under `rules` (split over `threads` threads for large
/// responses), and the digest.
void check_patterns(const std::vector<SquishPattern>& patterns,
                    const dp::drc::DesignRules& rules, int threads,
                    Outcome& out) {
  const SpanScope span("check.drc", out.seed);
  out.returned = static_cast<std::int64_t>(patterns.size());
  const SquishPattern* data = patterns.data();
  if (threads <= 1 || patterns.size() < 1024) {
    out.clean = count_clean(data, data + patterns.size(), rules);
  } else {
    std::vector<std::int64_t> clean(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> pool;
    const std::size_t chunk = (patterns.size() + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = std::min(patterns.size(), t * chunk);
      const std::size_t hi = std::min(patterns.size(), lo + chunk);
      pool.emplace_back([&clean, &rules, t, first = data + lo,
                         last = data + hi] {
        clean[static_cast<std::size_t>(t)] = count_clean(first, last, rules);
      });
    }
    for (auto& th : pool) {
      th.join();
    }
    out.clean = 0;
    for (const auto c : clean) {
      out.clean += c;
    }
  }
  Digest digest;
  digest.add(patterns);
  out.digest = digest.value();
}

/// The topologies a workload's legalization is measured on, sampled once
/// (full schedule) with a seed derived from the benchmark's.
std::vector<dp::geometry::BinaryGrid> sample_topologies(
    dp::service::PatternService& service, std::uint64_t bench_seed,
    std::int64_t count = 64) {
  dp::service::SampleTopologiesRequest req;
  req.model = kModelName;
  req.count = count;
  req.seed = dp::common::derive_seed(bench_seed, kTopologyTag, 0);
  auto sampled = service.sample_topologies(req);
  if (!sampled.ok()) {
    die("sample_topologies", sampled.status());
  }
  return std::move(sampled->topologies);
}

/// Latency is the call alone; everything after it (checks, digest,
/// freeing the response) is reported as check time, which the loop
/// excludes from the window.
void finish_timing(Clock::time_point sent, Clock::time_point returned,
                   Outcome& out) {
  out.latency_ms =
      std::chrono::duration<double, std::milli>(returned - sent).count();
  out.check_ms = ms_since(returned);
}

dp::drc::DesignRules deck(dp::service::PatternService& service,
                          const std::string& name) {
  auto rules = service.rule_set(name);
  if (!rules.ok()) {
    die("rule_set " + name, rules.status());
  }
  return std::move(rules).value();
}

/// Service-side part of a snapshot (summed over `services`), plus the
/// process-wide tensor counters.
Snapshot service_snapshot(
    const std::vector<const dp::service::PatternService*>& services) {
  Snapshot s;
  for (const auto* service : services) {
    const auto c = service->counters();
    s.rounds += c.rounds_executed;
    s.denoise_steps += c.denoise_steps;
    s.fused_slots += c.fused_slots_total;
    s.net_evals += c.net_evals;
    s.requests_completed += c.requests_completed;
    s.requests_shed += c.requests_shed;
    s.queue_depth_peak = std::max(s.queue_depth_peak, c.queue_depth_peak);
    s.max_fused_batch = service->config().max_fused_batch;
  }
  const auto alloc = dp::tensor::tensor_alloc_stats();
  const auto arena = dp::tensor::arena_stats();
  s.heap_allocations = alloc.heap_allocations;
  s.plan_hits = arena.plan_cache_hits;
  s.plan_misses = arena.plan_cache_misses;
  s.arena_bytes_reserved = arena.bytes_reserved;
  return s;
}

// ------------------------------------------------------------ batch_library

class BatchLibrary final : public Workload {
 public:
  explicit BatchLibrary(std::uint64_t seed) : seed_(seed) {}

  int clients() const override { return 1; }
  std::int64_t prefix_requests() const override { return 12; }

  void start(const TrainedModel& model, int setup_index) override {
    stop();
    service_ = std::make_unique<dp::service::PatternService>();
    register_model(service_->models(), model);
    rules_ = deck(*service_, "normal");
    auto warm = service_->generate(
        request(kWarmupIndex + static_cast<std::uint64_t>(setup_index)));
    if (!warm.ok()) {
      die("batch_library warm-up", warm.status());
    }
  }

  void stop() override { service_.reset(); }

  Outcome send(std::int64_t index) override {
    const auto req = request(static_cast<std::uint64_t>(index));
    Outcome out;
    out.index = index;
    out.seed = req.seed;
    out.requested = req.count * req.geometries_per_topology;
    const SpanScope span("request", req.seed);
    const auto t0 = Clock::now();
    Clock::time_point returned;
    {
      auto result = [&] {
        const SpanScope call("service.generate", req.seed);
        return service_->generate(req);
      }();
      returned = Clock::now();
      if (result.ok()) {
        check_patterns(result->patterns, rules_, 1, out);
      } else {
        out.code = result.status().code();
      }
    }  // Freeing the response is client work, untimed like the checks.
    finish_timing(t0, returned, out);
    return out;
  }

  Snapshot snapshot() const override {
    return service_snapshot({service_.get()});
  }

  std::vector<std::int64_t> sampling_mix() const override {
    return std::vector<std::int64_t>(64, 1);
  }

  LegalizeMix legalize_mix() override {
    return {sample_topologies(*service_, seed_), {"normal"}, 4};
  }

  dp::service::PatternService& service() override { return *service_; }

 private:
  dp::service::GenerateRequest request(std::uint64_t index) const {
    dp::service::GenerateRequest req;
    req.model = kModelName;
    req.count = 64;
    req.geometries_per_topology = 4;
    req.rule_set = "normal";
    req.seed = dp::common::derive_seed(seed_, kBatchTag, index);
    return req;
  }

  std::uint64_t seed_;
  std::unique_ptr<dp::service::PatternService> service_;
  dp::drc::DesignRules rules_;
};

// ----------------------------------------------------------- legalize_sweep

class LegalizeSweep final : public Workload {
 public:
  explicit LegalizeSweep(std::uint64_t seed) : seed_(seed) {}

  int clients() const override { return 1; }
  std::int64_t prefix_requests() const override { return 60; }

  void start(const TrainedModel& model, int setup_index) override {
    stop();
    service_ = std::make_unique<dp::service::PatternService>();
    register_model(service_->models(), model);
    for (const auto& name : kDecks) {
      rules_.push_back(deck(*service_, name));
    }
    topologies_ = sample_topologies(*service_, seed_, kPoolTopologies);
    auto warm = service_->legalize_topologies(
        request(kWarmupIndex + static_cast<std::uint64_t>(setup_index)));
    if (!warm.ok()) {
      die("legalize_sweep warm-up", warm.status());
    }
  }

  void stop() override {
    service_.reset();
    rules_.clear();
  }

  Outcome send(std::int64_t index) override {
    const auto req = request(static_cast<std::uint64_t>(index));
    Outcome out;
    out.index = index;
    out.seed = req.seed;
    out.requested = static_cast<std::int64_t>(req.topologies.size()) *
                    req.geometries_per_topology;
    const SpanScope span("request", req.seed);
    const auto t0 = Clock::now();
    Clock::time_point returned;
    {
      auto result = [&] {
        const SpanScope call("service.legalize_topologies", req.seed);
        return service_->legalize_topologies(req);
      }();
      returned = Clock::now();
      if (result.ok()) {
        // The service's legalization pool is idle between closed-loop
        // calls; the re-check of ~15k patterns uses as many threads.
        check_patterns(
            result->patterns, rules_[deck_index(index)],
            static_cast<int>(service_->config().legalize_workers), out);
      } else {
        out.code = result.status().code();
      }
    }
    finish_timing(t0, returned, out);
    return out;
  }

  Snapshot snapshot() const override {
    return service_snapshot({service_.get()});
  }

  std::vector<std::int64_t> sampling_mix() const override {
    return std::vector<std::int64_t>(64, 1);  // The set-up sampling.
  }

  LegalizeMix legalize_mix() override {
    return {slice(0), {kDecks.begin(), kDecks.end()}, 256};
  }

  dp::service::PatternService& service() override { return *service_; }

 private:
  static constexpr std::array<const char*, 3> kDecks = {"normal", "space",
                                                        "area"};
  // Each request legalizes one 64-topology slice of a 256-topology pool.
  // The pre-filter accepts or rejects a topology with all its geometries,
  // so legal_yield moves in steps of one topology: over a 64-topology
  // sample it spread by 0.1 across seeds, and the pool quarters that
  // sampling variance. Requests walk every (deck, slice) pair in 12.
  static constexpr std::int64_t kSliceTopologies = 64;
  static constexpr std::int64_t kPoolTopologies = 4 * kSliceTopologies;

  static std::size_t deck_index(std::uint64_t index) { return index % 3; }

  std::vector<dp::geometry::BinaryGrid> slice(std::uint64_t index) const {
    const std::uint64_t slices = kPoolTopologies / kSliceTopologies;
    const auto first = topologies_.begin() +
                       static_cast<std::ptrdiff_t>(index / 3 % slices *
                                                   kSliceTopologies);
    return {first, first + kSliceTopologies};
  }

  dp::service::LegalizeTopologiesRequest request(std::uint64_t index) const {
    dp::service::LegalizeTopologiesRequest req;
    req.model = kModelName;
    req.topologies = slice(index);
    req.geometries_per_topology = 256;
    req.rule_set = kDecks[deck_index(index)];
    req.seed = dp::common::derive_seed(seed_, kSweepTag, index);
    return req;
  }

  std::uint64_t seed_;
  std::unique_ptr<dp::service::PatternService> service_;
  std::vector<dp::drc::DesignRules> rules_;
  std::vector<dp::geometry::BinaryGrid> topologies_;
};

// ------------------------------------------------------------- served_mixed

constexpr int kReplicas = 2;
constexpr std::size_t kConnectionsPerReplica = 2;
constexpr const char* kPsk = "perfbench-served-mixed-psk";
constexpr int kReferenceClients = 32;

class ServedMixed final : public Workload {
 public:
  explicit ServedMixed(std::uint64_t seed) : seed_(seed) {}
  ~ServedMixed() override { stop(); }

  int clients() const override { return 4; }
  std::int64_t prefix_requests() const override { return 240; }

  void start(const TrainedModel& model, int setup_index) override {
    stop();
    model_ = &model;
    dp::dist::SocketTransportConfig transport_cfg;
    transport_cfg.max_connections = kConnectionsPerReplica;
    transport_cfg.auth_key = kPsk;
    transport_ = std::make_unique<dp::dist::SocketTransport>(transport_cfg);
    router_ = std::make_unique<dp::dist::ReplicaRouter>();
    dp::dist::SocketServerConfig server_cfg;
    server_cfg.auth_key = kPsk;
    for (int r = 0; r < kReplicas; ++r) {
      auto node = std::make_unique<dp::dist::WorkerNode>(
          "replica-" + std::to_string(r));
      register_model(node->service().models(), model);
      auto server = std::make_unique<dp::dist::SocketServer>(server_cfg);
      dp::dist::WorkerNode* raw = node.get();
      const auto started = server->start(
          "tcp:127.0.0.1:0",
          [raw](const dp::dist::Bytes& frame) { return handle(*raw, frame); });
      if (!started.ok()) {
        die("SocketServer start", started);
      }
      auto channel = transport_->connect(server->bound_address());
      router_->add_replica(kModelName, channel);
      channels_.push_back(std::move(channel));
      workers_.push_back(std::move(node));
      servers_.push_back(std::move(server));
    }
    auto warm = router_->generate(
        request(kWarmupIndex + static_cast<std::uint64_t>(setup_index)));
    if (!warm.ok()) {
      die("served_mixed warm-up", warm.status());
    }
    rules_ = deck(workers_.front()->service(), "normal");
  }

  void stop() override {
    // Clients first, then the servers (they call into the nodes), then the
    // nodes.
    router_.reset();
    channels_.clear();
    transport_.reset();
    for (auto& server : servers_) {
      server->shutdown();
    }
    servers_.clear();
    workers_.clear();
    clear_window();
  }

  Outcome send(std::int64_t index) override {
    const auto index_u = static_cast<std::uint64_t>(index);
    const auto req = request(index_u);
    const bool stream = is_stream(index_u);
    Outcome out;
    out.index = index;
    out.seed = req.seed;
    out.requested = req.count * req.geometries_per_topology;
    const SpanScope span("request", req.seed);
    Kept kept;
    kept.request = req;
    kept.stream = stream;
    dp::common::Status status;
    const auto t0 = Clock::now();
    if (stream) {
      const SpanScope call("router.generate_stream", req.seed);
      auto stats = router_->generate_stream(
          req, [&kept](const dp::service::StreamedPattern& slot) {
            kept.slots.push_back(slot);
          });
      status = stats.status();
      if (stats.ok()) {
        kept.result.stats = *stats;
      }
    } else {
      const SpanScope call("router.generate", req.seed);
      auto result = router_->generate(req);
      status = result.status();
      if (result.ok()) {
        kept.result = std::move(result).value();
      }
    }
    const auto returned = Clock::now();
    if (status.ok()) {
      if (stream) {
        kept.result.patterns =
            dp::service::assemble_stream_patterns(kept.slots);
      }
      check_patterns(kept.result.patterns, rules_, 1, out);
      const std::lock_guard<std::mutex> lock(kept_mutex_);
      kept_.emplace(index, std::move(kept));
    } else {
      out.code = status.code();
    }
    finish_timing(t0, returned, out);
    return out;
  }

  std::string verify_window() override {
    // Every routed or streamed response must equal an in-process generate
    // of the same request. The bytes may not depend on how calls fuse, so
    // the reference runs many more concurrent calls than the window did:
    // wider fused rounds make the check several times cheaper.
    const auto t0 = Clock::now();
    dp::service::ServiceConfig reference_cfg;
    reference_cfg.flow.shed_fill_ratio = 0.0;  // Full rounds are the aim.
    dp::service::PatternService reference(reference_cfg);
    register_model(reference.models(), *model_);
    const std::lock_guard<std::mutex> lock(kept_mutex_);
    std::vector<const Kept*> items;
    for (const auto& [index, kept] : kept_) {
      items.push_back(&kept);
    }
    std::atomic<std::size_t> next{0};
    std::atomic<std::int64_t> mismatches{0};
    std::atomic<std::int64_t> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kReferenceClients; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < items.size(); i = next++) {
          auto expected = reference.generate(items[i]->request);
          if (!expected.ok()) {
            ++errors;
          } else if (!same_patterns(expected->patterns,
                                    items[i]->result.patterns)) {
            ++mismatches;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    std::cout << "verify   " << items.size()
              << " responses compared with in-process generate, "
              << mismatches.load() << " mismatches, " << errors.load()
              << " reference errors (" << seconds_since(t0) << " s)\n";
    if (mismatches.load() != 0 || errors.load() != 0) {
      return "served_mixed: routed/streamed responses differ from "
             "in-process generate";
    }
    return {};
  }

  void clear_window() override {
    const std::lock_guard<std::mutex> lock(kept_mutex_);
    kept_.clear();
  }

  WireCost wire_cost() const override {
    WireCost total;
    std::int64_t n = 0;
    const std::lock_guard<std::mutex> lock(kept_mutex_);
    for (const auto& [index, kept] : kept_) {
      const auto type = kept.stream
                            ? dp::dist::MessageType::kGenerateStreamRequest
                            : dp::dist::MessageType::kGenerateRequest;
      auto t0 = Clock::now();
      dp::dist::Bytes request_frame;
      std::vector<dp::dist::Bytes> response_frames;
      {
        const SpanScope span("dist.encode", kept.request.seed);
        request_frame = dp::dist::encode_generate_request(kept.request, type);
        if (kept.stream) {
          for (const auto& slot : kept.slots) {
            response_frames.push_back(dp::dist::encode_streamed_pattern(slot));
          }
          response_frames.push_back(dp::dist::encode_stream_end(
              dp::common::Status::Ok(), kept.result.stats));
        } else {
          response_frames.push_back(
              dp::dist::encode_generate_result(kept.result));
        }
      }
      total.encode_us += ms_since(t0) * 1e3;
      t0 = Clock::now();
      {
        const SpanScope span("dist.decode", kept.request.seed);
        bool ok = dp::dist::decode_generate_request(request_frame).ok();
        if (kept.stream) {
          for (std::size_t i = 0; i + 1 < response_frames.size(); ++i) {
            ok = ok && dp::dist::decode_streamed_pattern(response_frames[i])
                           .ok();
          }
          ok = ok &&
               dp::dist::decode_stream_end(response_frames.back()).ok();
        } else {
          ok = ok &&
               dp::dist::decode_generate_result(response_frames.front()).ok();
        }
        if (!ok) {
          std::cerr << "perfbench: wire round trip failed\n";
          std::exit(1);
        }
      }
      total.decode_us += ms_since(t0) * 1e3;
      total.frame_bytes += static_cast<double>(request_frame.size());
      for (const auto& f : response_frames) {
        total.frame_bytes += static_cast<double>(f.size());
      }
      ++n;
    }
    if (n > 0) {
      total.encode_us /= static_cast<double>(n);
      total.decode_us /= static_cast<double>(n);
      total.frame_bytes /= static_cast<double>(n);
    }
    return total;
  }

  Snapshot snapshot() const override {
    std::vector<const dp::service::PatternService*> services;
    for (const auto& w : workers_) {
      services.push_back(&w->service());
    }
    Snapshot s = service_snapshot(services);
    s.router = router_->counters();
    for (const auto& c : channels_) {
      s.channels.push_back(c->stats());
    }
    return s;
  }

  std::vector<std::int64_t> sampling_mix() const override {
    // One cycle of the request mix: count {1,2,4} at each stride.
    std::vector<std::int64_t> strides;
    for (const std::int64_t stride : kStrides) {
      for (const std::int64_t count : kCounts) {
        strides.insert(strides.end(), static_cast<std::size_t>(count),
                       stride);
      }
    }
    return strides;
  }

  LegalizeMix legalize_mix() override {
    return {sample_topologies(service(), seed_), {"normal"}, 1};
  }

  dp::service::PatternService& service() override {
    return workers_.front()->service();
  }

  void print_transport_accounting() const override {
    std::cout << "router " << router_->counters().to_json() << "\n";
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      const auto st = channels_[i]->stats();
      std::cout << "channel replica-" << i << " " << channels_[i]->endpoint()
                << " connects " << st.connects << " reconnects "
                << st.reconnects << " timeouts " << st.timeouts
                << " pool_peak " << st.pool_peak << "\n";
    }
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      std::cout << "server replica-" << i << " "
                << servers_[i]->counters().to_json() << " wire "
                << workers_[i]->wire_counters().to_json() << "\n";
    }
  }

 private:
  static constexpr std::array<std::int64_t, 3> kCounts = {1, 2, 4};
  static constexpr std::array<std::int64_t, 4> kStrides = {1, 2, 4, 8};

  /// A response kept until the window is verified.
  struct Kept {
    dp::service::GenerateRequest request;
    bool stream = false;
    std::vector<dp::service::StreamedPattern> slots;
    dp::service::GenerateResult result;  ///< Assembled patterns + stats.
  };

  /// The benchmark's own server handler: WorkerNode::handle, timed as a
  /// `worker.handle` span (id = the request seed) in the traced run.
  static dp::dist::Bytes handle(dp::dist::WorkerNode& node,
                                const dp::dist::Bytes& frame) {
    if (!tracer().enabled()) {
      return node.handle(frame);
    }
    const auto type = dp::dist::peek_type(frame);
    if (!type.ok() ||
        (*type != dp::dist::MessageType::kGenerateRequest &&
         *type != dp::dist::MessageType::kGenerateStreamRequest)) {
      return node.handle(frame);  // Health probes are not requests.
    }
    const auto decoded = dp::dist::decode_generate_request(frame);
    const SpanScope span("worker.handle", decoded.ok() ? decoded->seed : 0);
    return node.handle(frame);
  }

  static bool same_patterns(const std::vector<SquishPattern>& a,
                            const std::vector<SquishPattern>& b) {
    if (a.size() != b.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i].topology == b[i].topology && a[i].dx == b[i].dx &&
            a[i].dy == b[i].dy)) {
        return false;
      }
    }
    return true;
  }

  /// Request i of the cycle: 24 combinations of count x stride x
  /// {generate, generate_stream}, each sent equally often.
  static bool is_stream(std::uint64_t index) { return (index % 24) >= 12; }

  dp::service::GenerateRequest request(std::uint64_t index) const {
    const auto j = index % 24;
    dp::service::GenerateRequest req;
    req.model = kModelName;
    req.count = kCounts[j % 3];
    req.sampling.stride = kStrides[(j / 3) % 4];
    req.rule_set = "normal";
    req.seed = dp::common::derive_seed(seed_, kServedTag, index);
    return req;
  }

  std::uint64_t seed_;
  const TrainedModel* model_ = nullptr;
  std::unique_ptr<dp::dist::SocketTransport> transport_;
  std::unique_ptr<dp::dist::ReplicaRouter> router_;
  std::vector<std::shared_ptr<dp::dist::Channel>> channels_;
  std::vector<std::unique_ptr<dp::dist::WorkerNode>> workers_;
  std::vector<std::unique_ptr<dp::dist::SocketServer>> servers_;
  dp::drc::DesignRules rules_;
  mutable std::mutex kept_mutex_;
  std::map<std::int64_t, Kept> kept_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"batch_library", "served_mixed", "legalize_sweep"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "batch_library") {
    return std::make_unique<BatchLibrary>(seed);
  }
  if (name == "served_mixed") {
    return std::make_unique<ServedMixed>(seed);
  }
  if (name == "legalize_sweep") {
    return std::make_unique<LegalizeSweep>(seed);
  }
  return nullptr;
}

Window run_window(Workload& workload, double seconds) {
  Window window;
  window.before = workload.snapshot();
  const std::int64_t min_requests = workload.prefix_requests();
  std::atomic<std::int64_t> next{0};
  std::mutex mutex;
  std::vector<double> busy;
  std::vector<std::thread> clients;
  for (int c = 0; c < workload.clients(); ++c) {
    clients.emplace_back([&] {
      std::vector<Outcome> mine;
      const auto t0 = Clock::now();
      double checks_s = 0.0;
      while (true) {
        if (seconds_since(t0) - checks_s >= seconds &&
            next.load() >= min_requests) {
          break;
        }
        mine.push_back(workload.send(next++));
        checks_s += mine.back().check_ms / 1e3;
      }
      const double busy_s = seconds_since(t0) - checks_s;
      const std::lock_guard<std::mutex> lock(mutex);
      busy.push_back(busy_s);
      window.outcomes.insert(window.outcomes.end(), mine.begin(), mine.end());
    });
  }
  for (auto& th : clients) {
    th.join();
  }
  window.after = workload.snapshot();
  window.seconds = *std::max_element(busy.begin(), busy.end());
  std::sort(window.outcomes.begin(), window.outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.index < b.index;
            });
  return window;
}

}  // namespace perfbench
