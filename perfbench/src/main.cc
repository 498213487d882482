// cnr_perfbench — end-to-end benchmark of the checkpoint service.
//
//   cnr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--fp32-full] [--out-dir <dir>]
//   cnr_perfbench --selfcheck
//
// Sets the workload up five times (reporting the median as setup_s), then
// runs whole rounds of it until --seconds have passed, checks every output,
// and prints one JSON object as the last line of stdout: the end-to-end
// metrics with --trace 0, the per-layer metrics (from in-memory spans around
// every call into a layer, written to <out-dir>) with --trace 1. Exits
// non-zero when any output check fails. --selfcheck runs every workload at
// toy size for a second each with tracing on.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Factory = std::unique_ptr<Workload> (*)(Run&);

Factory FactoryFor(const std::string& workload) {
  if (workload == "interval-adaptive4") return MakeIntervalWorkload;
  if (workload == "sharded-far-restore") return MakeShardedWorkload;
  if (workload == "delta-stream") return MakeDeltaWorkload;
  return nullptr;
}

// Cost of recording one span, measured on a scratch tracer.
double SpanCostMs() {
  constexpr int kSpans = 20000;
  Tracer scratch(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span s(scratch, "calibration", static_cast<std::uint64_t>(i));
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count() / kSpans;
}

// Share of the samples dropped from each end of an end-to-end timing's
// trimmed mean.
constexpr double kTrim = 0.1;

std::vector<Metric> EndToEnd(Run& run, Tiers& tiers, double setup_s, double train_wall_ms) {
  Samples valid_ms, far_ms;
  ResolveCheckpointTimes(run, tiers, valid_ms, far_ms);
  const double ops = static_cast<double>(run.checkpoints.size());
  return {
      {"setup_s", setup_s, "s"},
      {"train_samples_per_s",
       train_wall_ms > 0 ? static_cast<double>(run.samples_trained) / (train_wall_ms / 1e3) : 0,
       "samples/s"},
      {"ckpt_stall_ms_tmean", run.stall_ms.TrimmedMean(kTrim), "ms"},
      {"ckpt_valid_ms_tmean", valid_ms.TrimmedMean(kTrim), "ms"},
      {"ckpt_far_durable_ms_tmean", far_ms.TrimmedMean(kTrim), "ms"},
      {"ckpt_write_bytes", ops > 0 ? static_cast<double>(run.checkpoint_bytes) / ops : 0,
       "bytes"},
      {"store_peak_bytes", static_cast<double>(run.store_peak_bytes), "bytes"},
      {"restore_ms_tmean", run.restore_ms.TrimmedMean(kTrim), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The trainer-thread spans the traced run reports self time for.
const char* const kTrainerSpans[] = {
    "data.next_batch",        "dlrm.train_batch",         "data.collect_state",
    "core.tracking.harvest",  "core.snapshot.copy",       "core.service.submit",
    "core.service.commit_wait", "core.service.drain",     "core.service.shutdown",
    "dlrm.construct",         "core.service.restart",     "core.restore.pipelined",
    "core.service.reopen",    "core.sharded.submit_cut",  "core.sharded.cut_wait",
    "core.sharded.restore_partial", "core.delta_log.open", "core.delta_log.append",
    "core.delta_log.flush",   "core.delta_log.replay",    "core.delta_log.compact",
};

std::vector<Metric> PerLayer(Run& run, Tiers& tiers, double train_wall_ms, double tiled_ms,
                             std::size_t loop_spans) {
  auto med = [&](const char* name) { return run.samples[name].Median(); };
  auto val = [&](const char* name) { return run.values[name]; };
  std::vector<Metric> m = {
      {"data.next_batch_wait_ms", run.samples["data.next_batch_ms"].Sum(), "ms"},
      {"dlrm.train_batch_ms_p50", med("dlrm.train_batch_ms"), "ms"},
      {"core.tracking.harvest_ms_p50", med("core.tracking.harvest_ms"), "ms"},
      {"core.snapshot.copy_ms_p50", med("core.snapshot.copy_ms"), "ms"},
      {"core.service.admit_wait_ms_p50", med("core.service.admit_wait_ms"), "ms"},
      {"core.service.restart_ms", med("core.service.restart_ms"), "ms"},
      {"setup.construct_ms", med("setup.construct_ms"), "ms"},
      {"setup.warmup_ms", med("setup.warmup_ms"), "ms"},
      {"setup.service_ms", med("setup.service_ms"), "ms"},
      {"core.pipeline.plan_ms", med("core.pipeline.plan_ms"), "ms"},
      {"core.pipeline.encode_ms", med("core.pipeline.encode_ms"), "ms"},
      {"core.pipeline.encode_queue_ms", med("core.pipeline.encode_queue_ms"), "ms"},
      {"core.pipeline.store_ms", med("core.pipeline.store_ms"), "ms"},
      {"core.pipeline.store_queue_ms", med("core.pipeline.store_queue_ms"), "ms"},
      {"core.pipeline.commit_ms", med("core.pipeline.commit_ms"), "ms"},
      {"core.pipeline.executor_rebalances", val("core.pipeline.executor_rebalances"), "count"},
      {"quant.encode_mb_per_s",
       val("quant.encode_us") > 0 ? val("quant.fp32_bytes") / val("quant.encode_us") : 0,
       "MB/s"},
  };
  const std::pair<const char*, LinkStore*> links[] = {{"near", tiers.near.get()},
                                                      {"far", tiers.far.get()}};
  for (const auto& [tier, link] : links) {
    const LinkRecord records[] = {link->puts(), link->gets()};
    const char* ops[] = {"put", "get"};
    for (int i = 0; i < 2; ++i) {
      const std::string p = std::string("storage.") + tier + "." + ops[i];
      m.push_back({p + "_ops", static_cast<double>(records[i].ops), "count"});
      m.push_back({p + "_bytes", static_cast<double>(records[i].bytes), "bytes"});
      m.push_back({p + "_ms", records[i].busy_ms, "ms"});
    }
  }
  const double hits = val("storage.tiered.near_hits") + val("storage.tiered.far_hits");
  const std::vector<Metric> rest = {
      {"storage.tiered.dirty_bytes_max", val("storage.tiered.dirty_bytes_max"), "bytes"},
      {"storage.tiered.flush_ms", val("storage.tiered.flush_ms"), "ms"},
      {"storage.tiered.evicted_bytes", val("storage.tiered.evicted_bytes"), "bytes"},
      {"storage.tiered.near_hit_ratio", hits > 0 ? val("storage.tiered.near_hits") / hits : 1.0,
       "ratio"},
      {"core.restore.resolve_ms", med("core.restore.resolve_ms"), "ms"},
      {"core.restore.fetch_ms", med("core.restore.fetch_ms"), "ms"},
      {"core.restore.decode_ms", med("core.restore.decode_ms"), "ms"},
      {"core.restore.apply_ms", med("core.restore.apply_ms"), "ms"},
      {"core.restore.read_bytes", med("core.restore.read_bytes"), "bytes"},
      {"core.sharded.cut_wait_ms_p50", med("core.sharded.cut_wait_ms"), "ms"},
      {"core.sharded.submit_cut_ms_p50", med("core.sharded.submit_cut_ms"), "ms"},
      {"core.sharded.partial_read_bytes", med("core.sharded.partial_read_bytes"), "bytes"},
      {"core.sharded.cut_bytes", run.samples["core.sharded.cut_bytes"].Mean(), "bytes"},
      {"core.delta_log.flush_ms", med("core.delta_log.flush_ms"), "ms"},
      {"core.delta_log.compactions", val("core.delta_log.compactions"), "count"},
      {"core.delta_log.compact_ms", med("core.delta_log.compact_ms"), "ms"},
      {"core.delta_log.segments_sealed", val("core.delta_log.segments_sealed"), "count"},
      {"core.delta_log.replay_ms", med("core.delta_log.replay_ms"), "ms"},
      {"core.delta_log.replay_segments", med("core.delta_log.replay_segments"), "count"},
      {"core.delta_log.max_unsynced_iterations", val("core.delta_log.max_unsynced_iterations"),
       "count"},
      {"core.delta_log.append_us_p50", run.samples["core.delta_log.append_us"].Percentile(50),
       "us"},
      // p99 only with at least ten samples beyond it.
      {"core.delta_log.append_us_p99",
       run.samples["core.delta_log.append_us"].count() >= 1000
           ? run.samples["core.delta_log.append_us"].Percentile(99)
           : 0,
       "us"},
      {"core.delta_log.write_bytes_per_iter", val("core.delta_log.write_bytes_per_iter"),
       "bytes"},
      {"ckpt.deleted_before_far", val("ckpt.deleted_before_far"), "count"},
      {"trace.training_wall_ms", train_wall_ms, "ms"},
      {"trace.unattributed_ms", train_wall_ms - tiled_ms, "ms"},
      {"trace.overhead_ms", static_cast<double>(loop_spans) * SpanCostMs(), "ms"},
      {"trace.spans", static_cast<double>(loop_spans), "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  const auto self = run.tracer.SelfMs();
  for (const char* name : kTrainerSpans) {
    const auto it = self.find(name);
    m.push_back({std::string("trace.self_ms.") + name, it == self.end() ? 0 : it->second, "ms"});
  }
  return m;
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Runs one workload; returns whether every check passed.
bool RunWorkload(const Options& opt) {
  const Factory factory = FactoryFor(opt.workload);
  if (factory == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return false;
  }
  Run run(opt);
  // Set-up five times; the last set-up is the one that runs.
  std::unique_ptr<Workload> workload;
  Samples setup_s;
  std::printf("setup_s:");
  for (int i = 0; i < 5; ++i) {
    workload.reset();
    workload = factory(run);
    const auto t0 = Clock::now();
    workload->Setup();
    const double s = Seconds(Clock::now() - t0);
    setup_s.Add(s);
    std::printf(" %.4f", s);
    // What set-up spent outside model construction and warm-up.
    run.samples["setup.service_ms"].Add(s * 1e3 - run.samples["setup.construct_ms"].Last() -
                                        run.samples["setup.warmup_ms"].Last());
  }
  std::printf("\n");

  const auto origin = Clock::now();
  std::uint64_t rounds = 0;
  do {
    workload->Round();
    ++rounds;
  } while (Seconds(Clock::now() - origin) < opt.seconds);
  const double loop_ms = std::chrono::duration<double, std::milli>(Clock::now() - origin).count();
  const double train_wall_ms = loop_ms - run.untimed_ms;
  const double tiled_ms = run.tracer.TopLevelMs("bench.untimed");
  const std::size_t loop_spans = run.tracer.spans().size();
  workload->Finish();

  std::uint64_t attempted = 0, failed = 0;
  std::printf("ops: workload=%s seed=%llu rounds=%llu", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), static_cast<unsigned long long>(rounds));
  for (const auto& [kind, n] : run.attempted) {
    const std::uint64_t f = run.failed[kind];
    std::printf(" %s=%llu(failed %llu)", kind.c_str(), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(f));
    attempted += n;
    failed += f;
  }
  std::printf(" checks=%llu(failed %zu)\n", static_cast<unsigned long long>(run.checks_run),
              run.check_failures.size());
  for (const auto& f : run.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = PerLayer(run, workload->tiers(), train_wall_ms, tiled_ms, loop_spans);
    std::printf("self time by layer (trainer thread, ms):\n");
    for (const auto& m : metrics) {
      if (m.name.rfind("trace.", 0) == 0) std::printf("  %-44s %12.3f\n", m.name.c_str(), m.value);
    }
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (run.tracer.WriteJson(path, origin)) {
      std::printf("spans: %s (%zu spans)\n", path.c_str(), run.tracer.spans().size());
    } else {
      run.Check(false, "could not write span file " + path);
    }
  } else {
    metrics = EndToEnd(run, workload->tiers(), setup_s.Median(), train_wall_ms);
  }
  workload.reset();
  const bool correct = run.check_failures.empty();
  PrintJson(correct, attempted, failed, metrics);
  return correct && failed == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cnr_perfbench --workload <interval-adaptive4|sharded-far-restore|"
               "delta-stream> --seed <n> --seconds <s> --trace <0|1> [--fp32-full] "
               "[--out-dir <dir>]\n       cnr_perfbench --selfcheck\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // One malloc arena, so that peak_rss_mb tracks live memory rather than
  // how freed blocks happened to be cached across per-thread arenas (which
  // moved it by 10% between runs of one seed).
  mallopt(M_ARENA_MAX, 1);
  Options opt;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--selfcheck") {
      selfcheck = true;
    } else if (a == "--fp32-full") {
      opt.fp32_full = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" || a == "--trace" ||
                a == "--out-dir") &&
               (v = next()) != nullptr) {
      if (a == "--workload") opt.workload = v;
      if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") opt.seconds = std::strtod(v, nullptr);
      if (a == "--trace") opt.trace = std::strcmp(v, "0") != 0;
      if (a == "--out-dir") opt.out_dir = v;
    } else {
      return Usage();
    }
  }
  try {
    if (selfcheck) {
      bool ok = true;
      for (const char* w : {"interval-adaptive4", "sharded-far-restore", "delta-stream"}) {
        Options o = opt;
        o.workload = w;
        o.toy = true;
        o.trace = true;
        o.seconds = 1;
        ok = RunWorkload(o) && ok;
      }
      std::printf("selfcheck: %s\n", ok ? "PASS" : "FAIL");
      return ok ? 0 : 1;
    }
    if (opt.workload.empty() || opt.seconds <= 0) return Usage();
    return RunWorkload(opt) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cnr_perfbench: %s\n", e.what());
    return 1;
  }
}
