// perfbench, the repository benchmark. One workload per process:
//
//   perfbench --workload serve_live|serve_catchup|batch_fleet --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//
// Prints what it measured as readable lines, then the run record, and
// as its last line one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced pass. Exits 1 when an output check
// fails, and 2 without a result line on a usage or set-up error.
// Scratch files go under DIR/work and are removed at exit; DIR defaults
// to .bench_build.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>

#include "bench.h"
#include "common/string_util.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Declared {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in its order. Every run prints all
// of one list; a per-layer metric of a layer the workload does not run
// reads 0.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"rows_per_s", "rows/s"},
    {"row_latency_p50_ms", "ms"},
    {"peak_rss_mib", "MiB"},
};

// End-to-end figures printed with the rest but not declared: from run to
// run on a 4-vCPU virtual machine the spread of the latencies reaches or
// exceeds the largest bound the benchmark may set, and rows_failed_frac
// reads 0 on workloads sized so that nothing fails. A traced run reports
// the latencies as per-layer figures.
constexpr Declared kUngated[] = {
    {"row_latency_p99_ms", "ms"},
    {"query_latency_p50_us", "us"},
    {"query_latency_p99_us", "us"},
    {"rows_failed_frac", "ratio"},
};

constexpr Declared kPerLayer[] = {
    {"serve.frame_decode_us.p50", "us"},
    {"serve.frame_decode_us.p99", "us"},
    {"serve.admit_us.p50", "us"},
    {"serve.admit_us.p99", "us"},
    {"serve.pump_us.p50", "us"},
    {"serve.pump_us.p99", "us"},
    {"serve.publish_us.p50", "us"},
    {"serve.queue_rows.mean", "rows"},
    {"serve.queue_rows.max", "rows"},
    {"serve.shed_rows", "count"},
    {"serve.backpressure_raises", "count"},
    {"serve.query_status_us.p99", "us"},
    {"serve.query_summary_us.p99", "us"},
    {"serve.query_drilldown_us.p99", "us"},
    {"engine.step_us.p50", "us"},
    {"engine.step_us.p99", "us"},
    {"engine.graph_s", "s"},
    {"engine.learn_s", "s"},
    {"engine.run_sweep_s", "s"},
    {"engine.run_alarm_merge_s", "s"},
    {"engine.run_assemble_s", "s"},
    {"engine.run_batches", "count"},
    {"engine.drilldown_us.p99", "us"},
    {"engine.pairs", "count"},
    {"engine.outlier_frac", "ratio"},
    {"engine.extension_frac", "ratio"},
    {"core.learn_us_per_pair", "us"},
    {"core.cells_per_grid.mean", "count"},
    {"core.model_mib", "MiB"},
    {"io.checkpoint_save_ms.p50", "ms"},
    {"io.checkpoint_save_ms.max", "ms"},
    {"io.checkpoint_bytes", "bytes"},
    {"io.checkpoints", "count"},
    {"io.checkpoint_failures", "count"},
    {"io.checkpoint_load_ms", "ms"},
    {"driver.lag_ms.p99", "ms"},
    {"driver.trace_overhead_frac", "ratio"},
    {"driver.backpressure_pause_s", "s"},
    {"e2e.row_latency_p99_ms", "ms"},
    {"e2e.query_latency_p50_us", "us"},
    {"e2e.query_latency_p99_us", "us"},
    {"serve.frame_decode.share", "ratio"},
    {"serve.admit.share", "ratio"},
    {"serve.publish.share", "ratio"},
    {"serve.query.share", "ratio"},
    {"engine.step.share", "ratio"},
    {"engine.run_sweep.share", "ratio"},
    {"engine.run_other.share", "ratio"},
    {"engine.drilldown.share", "ratio"},
    {"io.checkpoint_save.share", "ratio"},
    {"driver.idle.share", "ratio"},
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_live|"
               "serve_catchup|batch_fleet --seed N --seconds S --trace 0|1"
               " [--smoke] [--out-dir DIR]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string out_dir = ".bench_build";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    long long number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (!pmcorr::ParseInt64(value, &number) || number < 0) {
      return Usage("bad value for " + arg + ": " + value);
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (number < 1) return Usage("--seconds must be at least 1");
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (number > 1) return Usage("--trace takes 0 or 1");
      options.trace = number == 1;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  using Runner = WorkloadResult (*)(const Options&);
  Runner runner = nullptr;
  if (options.workload == "serve_live") runner = RunServeLive;
  if (options.workload == "serve_catchup") runner = RunServeCatchup;
  if (options.workload == "batch_fleet") runner = RunBatchFleet;
  if (runner == nullptr) return Usage("unknown workload " + options.workload);
  if (!have_seed) return Usage("--seed is required");

  const fs::path work = fs::path(out_dir) / "work" /
                        (options.workload + "-" + std::to_string(getpid()));
  options.work_dir = work.string();
  WorkloadResult result;
  try {
    fs::create_directories(work);
    result = runner(options);
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove_all(work, ec);
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  std::error_code ec;
  fs::remove_all(work, ec);

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("record %s\n", result.record.Json().c_str());
  const auto print = [](const char* title, const Metrics& metrics,
                        const auto& declared) {
    std::printf("%s:\n", title);
    for (const Declared& d : declared) {
      const Metric* m = metrics.Find(d.name);
      std::printf("  %-30s %16.6g %s\n", d.name, m ? m->value : 0.0, d.unit);
    }
  };
  print("end-to-end", result.end_to_end, kEndToEnd);
  print("end-to-end, not gated", result.end_to_end, kUngated);
  for (const Declared& d : kUngated) {
    if (const Metric* m = result.end_to_end.Find(d.name)) {
      result.per_layer.Set(std::string("e2e.") + d.name, m->value, d.unit);
    }
  }
  if (options.trace) print("per-layer (traced)", result.per_layer, kPerLayer);

  std::string metrics;
  const auto emit = [&](const Declared& d, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d.name + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + d.unit + "\"}";
  };
  if (options.trace) {
    for (const Declared& d : kPerLayer) {
      const Metric* m = result.per_layer.Find(d.name);
      emit(d, m ? m->value : 0.0);
    }
  } else {
    for (const Declared& d : kEndToEnd) {
      const Metric* m = result.end_to_end.Find(d.name);
      if (m == nullptr) result.Fail(std::string("no value for ") + d.name);
      emit(d, m ? m->value : 0.0);
    }
  }
  if (!result.correct) {
    std::printf("OUTPUT CHECK FAILED: %s\n", result.failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
