// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <batch_library|served_mixed|legalize_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0: sets up twice (dataset + training from scratch + services +
// one warm-up request, median reported as setup_s), runs one closed-loop
// window of --seconds, checks every output and prints the end-to-end
// metrics. --trace 1: sets up once, runs an untraced and a traced window,
// probes every layer from outside, and prints the per-layer metrics, the
// accounting remainders and the tracing overhead. The last stdout line is
// always the JSON result object; exit status is 0 only when every output
// check passed.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/compute_pool.h"
#include "layers.h"
#include "service/pattern_service.h"
#include "setup.h"
#include "tensor/simd.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The tensor kernels' compute pool is pinned to one thread for the whole
/// run, set-up included. On a host that gives the process a few shared
/// vCPUs, a pool as wide as the machine wakes every worker for each
/// parallel region, so its timings follow the neighbours' load. On a shared
/// 4-vCPU VM, batch_library's ten-seed quartile spread reached 0.37 of the
/// median at 4 threads and stayed within 0.09 at 1 thread. The `config`
/// line records the size.
constexpr std::int64_t kComputeThreads = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <";
  const auto names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i == 0 ? "" : "|") << names[i];
  }
  std::cerr << "> --seed N --seconds S --trace 0|1 [--trace-file PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace must be 0 or 1");
        }
        o.trace = value == "1";
      } else if (flag == "--trace-file") {
        o.trace_file = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("invalid value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seconds) {
    usage("--workload and a positive --seconds are required");
  }
  return o;
}

/// End-to-end view of one window.
struct Summary {
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;
  double seconds = 0.0;
  double requests_per_s = 0.0;
  double patterns_per_s = 0.0;
  std::vector<double> latency_ms;
  double mean_latency_ms = 0.0;
  std::int64_t returned = 0;
  // Over the fixed prefix of the first prefix_requests() requests.
  std::int64_t prefix = 0;
  std::int64_t prefix_requested = 0;
  std::int64_t prefix_clean = 0;
  double legal_yield = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
};

Summary summarize(const Window& w, std::int64_t prefix) {
  Summary s;
  s.seconds = w.seconds;
  Digest digest;
  std::int64_t clean = 0;
  for (const auto& o : w.outcomes) {
    ++s.attempted;
    if (o.code != dp::common::StatusCode::kOk) {
      ++s.failed;
      if (o.code == dp::common::StatusCode::kUnavailable ||
          o.code == dp::common::StatusCode::kResourceExhausted) {
        ++s.shed;
      }
      if (o.index < prefix) {
        s.errors.push_back("request " + std::to_string(o.index) +
                           " of the checked prefix failed");
      }
      continue;
    }
    ++s.succeeded;
    s.latency_ms.push_back(o.latency_ms);
    s.returned += o.returned;
    clean += o.clean;
    if (o.clean != o.returned) {
      s.errors.push_back("request " + std::to_string(o.index) + " returned " +
                         std::to_string(o.returned - o.clean) +
                         " DRC-dirty patterns");
    }
    if (o.index < prefix) {
      ++s.prefix;
      s.prefix_requested += o.requested;
      s.prefix_clean += o.clean;
      digest.add(o.digest);
    }
  }
  s.requests_per_s = static_cast<double>(s.succeeded) / s.seconds;
  s.patterns_per_s = static_cast<double>(clean) / s.seconds;
  s.mean_latency_ms = mean(s.latency_ms);
  s.legal_yield = static_cast<double>(s.prefix_clean) /
                  static_cast<double>(std::max<std::int64_t>(1, s.prefix_requested));
  s.digest = digest.value();
  return s;
}

void print_summary(const std::string& phase, const Summary& s) {
  const auto n = static_cast<std::int64_t>(s.latency_ms.size());
  std::printf(
      "requests %-8s attempted %lld succeeded %lld failed %lld shed %lld "
      "error_rate %.6f window %.3f s\n",
      phase.c_str(), static_cast<long long>(s.attempted),
      static_cast<long long>(s.succeeded), static_cast<long long>(s.failed),
      static_cast<long long>(s.shed),
      static_cast<double>(s.failed) /
          static_cast<double>(std::max<std::int64_t>(1, s.attempted)),
      s.seconds);
  std::printf("latency  %-8s n %lld p50 %.3f ms mean %.3f ms", phase.c_str(),
              static_cast<long long>(n), quantile(s.latency_ms, 0.5),
              s.mean_latency_ms);
  // A tail percentile is shown only with at least ten samples beyond it.
  if (n >= 1000) {
    std::printf(" p99 %.3f ms", quantile(s.latency_ms, 0.99));
  }
  if (n >= 100) {
    std::printf(" p90 %.3f ms", quantile(s.latency_ms, 0.90));
  }
  std::printf("\n");
  std::printf(
      "output   %-8s digest %s over the first %lld requests; legal_yield "
      "%lld / %lld = %.6f\n",
      phase.c_str(), hex64(s.digest).c_str(),
      static_cast<long long>(s.prefix),
      static_cast<long long>(s.prefix_clean),
      static_cast<long long>(s.prefix_requested), s.legal_yield);
  for (const auto& e : s.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
}

/// Router call time minus the same request's WorkerNode::handle time,
/// per traced request (matched by id), and the mean router call time.
struct DistOverhead {
  std::vector<double> overhead_ms;
  double mean_router_ms = 0.0;
};
DistOverhead dist_overhead() {
  std::map<std::uint64_t, double> handle;
  for (const auto& [id, ms] : tracer().durations_ms("worker.handle")) {
    handle[id] += ms;  // A failover would show two handles for one id.
  }
  DistOverhead out;
  std::vector<double> router;
  for (const char* name : {"router.generate", "router.generate_stream"}) {
    for (const auto& [id, ms] : tracer().durations_ms(name)) {
      router.push_back(ms);
      const auto it = handle.find(id);
      if (it != handle.end()) {
        out.overhead_ms.push_back(ms - it->second);
      }
    }
  }
  out.mean_router_ms = mean(router);
  return out;
}

int run(const Options& opt) {
  auto workload = make_workload(opt.workload, opt.seed);
  if (workload == nullptr) {
    usage("unknown workload " + opt.workload);
  }
  if (const auto pinned = dp::common::set_global_compute_threads(
          kComputeThreads);
      !pinned.ok()) {
    std::cerr << "perfbench: set_global_compute_threads: "
              << pinned.to_string() << "\n";
    return 1;
  }
  std::printf("perfbench workload %s seed %llu seconds %.1f trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf(
      "config   kernel_backend %s compute_threads %lld legalize_workers %lld "
      "clients %d hardware_threads %u closed_loop yes\n",
      dp::tensor::kernel_backend_name().c_str(),
      static_cast<long long>(dp::common::global_compute_threads()),
      static_cast<long long>(dp::service::ServiceConfig{}.legalize_workers),
      workload->clients(), std::thread::hardware_concurrency());

  // ---- set-up (timed; repeated so setup_s is a median)
  const int setups = opt.trace ? 1 : 2;
  std::vector<double> setup_s;
  std::unique_ptr<TrainedModel> trained;
  for (int s = 0; s < setups; ++s) {
    workload->stop();  // Tears the previous set-up down before its model.
    const auto t0 = Clock::now();
    auto model = std::make_unique<TrainedModel>(train_model());
    const auto t1 = Clock::now();
    workload->start(*model, s);
    setup_s.push_back(seconds_since(t0));
    std::printf(
        "setup    %d dataset %.3f s train %.3f s services+warm-up %.3f s "
        "total %.3f s (1 warm-up request ok) peak_rss %.1f MB\n",
        s, model->dataset_s, model->train_s, seconds_since(t1),
        setup_s.back(), peak_rss_mb());
    trained = std::move(model);
  }

  // ---- untraced window: every end-to-end metric comes from here
  const Window window = run_window(*workload, opt.seconds);
  // Before verification, which runs its own reference service.
  const double window_peak_rss_mb = peak_rss_mb();
  Summary summary = summarize(window, workload->prefix_requests());
  if (auto error = workload->verify_window(); !error.empty()) {
    summary.errors.push_back(error);
  }
  workload->clear_window();
  print_summary("window", summary);
  workload->print_transport_accounting();
  bool correct = summary.errors.empty();

  const std::vector<Metric> end_to_end = {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"patterns_per_s", summary.patterns_per_s, "patterns/s"},
      {"requests_per_s", summary.requests_per_s, "req/s"},
      {"latency_p50_ms", quantile(summary.latency_ms, 0.5), "ms"},
      {"legal_yield", summary.legal_yield, "ratio"},
      {"peak_rss_mb", window_peak_rss_mb, "MB"},
  };
  MetricSink sink;
  if (!opt.trace) {
    for (const auto& m : end_to_end) {
      sink.add(m.name, m.value, m.unit);
    }
    workload->stop();
    sink.print_result(correct, summary.attempted, summary.failed);
    return correct ? 0 : 1;
  }

  for (const auto& m : end_to_end) {
    std::printf("e2e      %-24s %16.6f %s (untraced window)\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }

  // ---- traced window: the same requests, with spans
  tracer().set_enabled(true);
  const Window traced = run_window(*workload, opt.seconds);
  const WireCost wire = workload->wire_cost();
  tracer().set_enabled(false);
  Summary traced_summary = summarize(traced, workload->prefix_requests());
  if (auto error = workload->verify_window(); !error.empty()) {
    traced_summary.errors.push_back(error);
  }
  workload->clear_window();
  print_summary("traced", traced_summary);
  workload->print_transport_accounting();
  if (traced_summary.digest != summary.digest) {
    traced_summary.errors.push_back(
        "traced window digest differs from the untraced window's");
  }
  correct = correct && traced_summary.errors.empty();
  tracer().link_by_id("worker.handle", "router.generate");
  tracer().link_by_id("worker.handle", "router.generate_stream");

  const auto& before = traced.before;
  const auto& after = traced.after;
  const auto requests =
      static_cast<double>(std::max<std::int64_t>(1, traced_summary.succeeded));
  const auto delta = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(a - b);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  // tensor: conv kernels at the bench U-Net's shapes.
  const auto& unet_cfg = trained->model->config();
  const auto side = trained->config.folded_side().value();
  const auto shapes = unet_conv_shapes(unet_cfg, side);
  const auto k64 = probe_conv_kernels(shapes, 64);
  const auto k1 = probe_conv_kernels(shapes, 1);
  std::printf(
      "computed conv shapes %zu per forward; b64 %.4g FLOP %.4g B; b1 %.4g "
      "FLOP %.4g B (from tensor sizes, not hardware counters)\n",
      shapes.size(), k64.flops, k64.bytes, k1.flops, k1.bytes);
  sink.add("tensor.conv_gemm_ms.b64", k64.gemm_ms, "ms");
  sink.add("tensor.conv_gemm_ms.b1", k1.gemm_ms, "ms");
  sink.add("tensor.im2col_ms.b64", k64.im2col_ms, "ms");
  sink.add("tensor.im2col_ms.b1", k1.im2col_ms, "ms");
  sink.add("tensor.conv_gflops.b64", ratio(k64.flops, k64.gemm_ms * 1e6),
           "GFLOP/s");
  sink.add("tensor.conv_bytes_per_forward.b64", k64.bytes, "B");
  sink.add("tensor.heap_allocs_per_request",
           delta(after.heap_allocations, before.heap_allocations) / requests,
           "count");
  const auto hits = delta(after.plan_hits, before.plan_hits);
  sink.add("tensor.plan_cache_hit_ratio",
           ratio(hits, hits + delta(after.plan_misses, before.plan_misses)),
           "ratio");
  sink.add("tensor.arena_bytes_reserved",
           static_cast<double>(after.arena_bytes_reserved), "B");

  // unet
  const auto steps = trained->schedule->steps();
  const double fwd1 = probe_unet_forward_ms(*trained->model, 1, side, steps);
  const double fwd8 = probe_unet_forward_ms(*trained->model, 8, side, steps);
  const double fwd64 = probe_unet_forward_ms(*trained->model, 64, side, steps);
  sink.add("unet.forward_ms.b1", fwd1, "ms");
  sink.add("unet.forward_ms.b8", fwd8, "ms");
  sink.add("unet.forward_ms.b64", fwd64, "ms");

  // diffusion: the workload's slot/stride mix in one direct call.
  const auto sampler =
      probe_sampler(*trained, workload->sampling_mix(), opt.seed);
  std::printf(
      "sampler  slots %zu rounds %lld net_evals %lld wall %.3f ms\n",
      workload->sampling_mix().size(), static_cast<long long>(sampler.rounds),
      static_cast<long long>(sampler.net_evals), sampler.wall_ms);
  sink.add("diffusion.sample_ms_per_net_eval", sampler.ms_per_net_eval, "ms");
  sink.add("diffusion.unet_share", sampler.unet_share, "ratio");

  // service: counters over the traced window.
  const auto rounds = delta(after.rounds, before.rounds);
  const auto slots = delta(after.fused_slots, before.fused_slots);
  sink.add("service.mean_round_slots", ratio(slots, rounds), "count");
  sink.add("service.fused_fill_ratio",
           ratio(slots, rounds * static_cast<double>(after.max_fused_batch)),
           "ratio");
  sink.add("service.net_evals_per_request",
           delta(after.net_evals, before.net_evals) / requests, "count");
  sink.add("service.queue_depth_peak",
           static_cast<double>(after.queue_depth_peak), "count");
  sink.add("service.requests_shed",
           delta(after.requests_shed, before.requests_shed), "count");
  std::vector<double> handle_ms;
  for (const auto& [id, ms] : tracer().durations_ms("worker.handle")) {
    handle_ms.push_back(ms);
  }
  std::printf("handle   n %zu (worker.handle spans)\n", handle_ms.size());
  sink.add("service.handle_ms.p50", quantile(handle_ms, 0.5), "ms");
  sink.add("service.handle_ms.p99", quantile(handle_ms, 0.99), "ms");

  // service worker pool + legalize + drc, from outside the service.
  const auto mix = workload->legalize_mix();
  const auto legal = probe_legalize(workload->service(), *trained,
                                    mix.topologies, mix.decks,
                                    mix.geometries, opt.seed);
  const auto passed =
      static_cast<double>(legal.topologies - legal.prefilter_rejected);
  const double solve_us =
      ratio(legal.many_ms * 1e3, static_cast<double>(legal.patterns));
  const double drc_us =
      ratio(legal.drc_ms * 1e3, static_cast<double>(legal.patterns));
  std::printf(
      "legalize topologies %lld decks %zu geometries %lld patterns %lld "
      "single-thread %.3f ms service %.3f ms\n",
      static_cast<long long>(legal.topologies), mix.decks.size(),
      static_cast<long long>(mix.geometries),
      static_cast<long long>(legal.patterns), legal.many_ms, legal.service_ms);
  sink.add("service.legalize_speedup",
           ratio(legal.many_ms, legal.service_ms), "ratio");
  sink.add("legalize.solve_us_per_pattern", solve_us, "us");
  sink.add("legalize.prefilter_reject_ratio",
           ratio(static_cast<double>(legal.prefilter_rejected),
                 static_cast<double>(legal.topologies)),
           "ratio");
  sink.add("legalize.solver_success_ratio",
           ratio(static_cast<double>(legal.solved), passed), "ratio");
  sink.add("legalize.rounds_per_topology",
           ratio(static_cast<double>(legal.solve_rounds), passed), "count");
  sink.add("drc.check_us_per_pattern", drc_us, "us");

  // dist: router latency minus the same request's WorkerNode::handle.
  const auto dist = dist_overhead();
  sink.add("dist.overhead_ms.p50", quantile(dist.overhead_ms, 0.5), "ms");
  sink.add("dist.overhead_ms.p99", quantile(dist.overhead_ms, 0.99), "ms");
  sink.add("dist.encode_us_per_request", wire.encode_us, "us");
  sink.add("dist.decode_us_per_request", wire.decode_us, "us");
  sink.add("dist.frame_bytes_per_request", wire.frame_bytes, "B");
  sink.add("dist.failovers",
           delta(after.router.failovers, before.router.failovers), "count");
  sink.add("dist.redirects",
           delta(after.router.redirects, before.router.redirects), "count");
  sink.add("dist.reconnects",
           delta(after.router.reconnects, before.router.reconnects), "count");

  // setup
  sink.add("setup.dataset_s", trained->dataset_s, "s");
  sink.add("setup.train_s", trained->train_s, "s");

  // Accounting: how much of a request's wall time the named layers cover.
  const double wall_ms = traced_summary.mean_latency_ms;
  double covered_ms = 0.0;
  std::string basis;
  if (opt.workload == "batch_library") {
    covered_ms =
        delta(after.denoise_steps, before.denoise_steps) / requests * fwd64;
    basis = "executed denoising steps x unet.forward_ms.b64";
  } else if (opt.workload == "legalize_sweep") {
    const double patterns_per_request =
        static_cast<double>(traced_summary.returned) / requests;
    covered_ms = (solve_us + drc_us) * patterns_per_request /
                 static_cast<double>(
                     dp::service::ServiceConfig{}.legalize_workers) /
                 1e3;
    basis = "(legalize + drc us/pattern) x patterns / workers";
  } else {
    covered_ms = dist.mean_router_ms - mean(dist.overhead_ms);
    basis = "worker.handle (the rest is router + wire)";
  }
  std::printf(
      "account  mean request %.3f ms, covered %.3f ms by %s, unaccounted "
      "%.3f ms\n",
      wall_ms, covered_ms, basis.c_str(), wall_ms - covered_ms);
  sink.add("accounting.unaccounted_ratio", 1.0 - ratio(covered_ms, wall_ms),
           "ratio");
  sink.add("trace.overhead_ratio",
           1.0 - ratio(traced_summary.requests_per_s, summary.requests_per_s),
           "ratio");

  tracer().print_summary();
  if (!opt.trace_file.empty()) {
    if (tracer().write_json(opt.trace_file)) {
      std::printf("trace    %zu spans written to %s\n", tracer().size(),
                  opt.trace_file.c_str());
    } else {
      std::printf("trace    could not write %s\n", opt.trace_file.c_str());
    }
  }
  workload->stop();
  sink.print_result(correct, traced_summary.attempted, traced_summary.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
