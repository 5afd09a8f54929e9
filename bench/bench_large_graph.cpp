// Shard-scale monitoring: drive SystemMonitor at 10k+ pairs and measure
// whether the per-sample cost stays linear in pair count (the tentpole
// claim of the scaling work — see docs/scaling.md). The bench builds a
// full-mesh pair graph over a generated telemetry trace, runs the
// batched engine, and records per-phase timings (sweep, snapshot
// assembly), delta-stream sizes against the full snapshot form, and
// peak RSS.
//
// Environment overrides (CI smoke runs a reduced config):
//   PMCORR_LARGE_GRAPH_PAIRS         target pair count (default 10000)
//   PMCORR_LARGE_GRAPH_TEST_SAMPLES  cap on monitored samples (default 240)
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "engine/measurement_graph.h"
#include "engine/monitor.h"
#include "io/monitor_io.h"
#include "telemetry/generator.h"

namespace {

using namespace pmcorr;
using namespace pmcorr::bench;

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  long long out = 0;
  if (!ParseInt64(value, &out) || out <= 0) return fallback;
  return static_cast<std::size_t>(out);
}

double PeakRssMib() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// First-m-measurements graph holding exactly `target` pairs (or the
// full mesh if the frame is too narrow to reach it).
MeasurementGraph MeshOfPairs(std::size_t measurements, std::size_t target,
                             std::size_t* used_measurements) {
  std::vector<PairId> pairs;
  pairs.reserve(target);
  std::size_t m = 0;
  for (std::size_t b = 1; b < measurements && pairs.size() < target; ++b) {
    for (std::size_t a = 0; a < b && pairs.size() < target; ++a) {
      pairs.emplace_back(MeasurementId(static_cast<std::int32_t>(a)),
                         MeasurementId(static_cast<std::int32_t>(b)));
      m = b + 1;
    }
  }
  *used_measurements = m;
  return MeasurementGraph::FromPairs(measurements, std::move(pairs));
}

struct RunCost {
  double run_s = 0.0;
  double per_pair_us = 0.0;  // per pair per sample
  RunStats stats;
};

RunCost TimeRun(SystemMonitor& monitor, const MeasurementFrame& test,
                std::size_t pairs) {
  Stopwatch clock;
  const auto snapshots = monitor.Run(test);
  RunCost cost;
  cost.run_s = clock.ElapsedSeconds();
  cost.per_pair_us = cost.run_s * 1e6 /
                     static_cast<double>(test.SampleCount()) /
                     static_cast<double>(pairs);
  cost.stats = monitor.LastRunStats();
  return cost;
}

// Counts the bytes written through it and keeps none, so sizing a
// stream adds nothing to the peak RSS the bench reports.
class CountingBuf : public std::streambuf {
 public:
  std::size_t Count() const { return count_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++count_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count_ += static_cast<std::size_t>(n);
    return n;
  }

 private:
  std::size_t count_ = 0;
};

// Bytes `write` puts on an output stream.
template <typename Write>
std::size_t StreamBytes(Write write) {
  CountingBuf buf;
  std::ostream out(&buf);
  write(out);
  return buf.Count();
}

std::size_t LineBytes(const std::vector<SystemDelta>& deltas,
                      std::size_t index) {
  return StreamBytes([&](std::ostream& out) {
    WriteDeltaStreamJsonl({deltas[index]}, out);
  });
}

}  // namespace

int main() {
  PrintSection(std::cout, "Large-graph monitoring — scale-linearity at 10k+"
                          " pairs");

  const std::size_t target_pairs = EnvSize("PMCORR_LARGE_GRAPH_PAIRS", 10000);
  const std::size_t test_cap = EnvSize("PMCORR_LARGE_GRAPH_TEST_SAMPLES", 240);

  // One trace feeds every configuration: ~60 machines yield enough
  // measurements for a 10k-pair mesh; 3 days at the 6-minute cadence
  // keeps Learn affordable across 10k models.
  ScenarioConfig config;
  config.machine_count = 60;
  config.trace_days = 3;
  const PaperScenario scenario = MakeGroupScenario('A', config);
  Stopwatch clock;
  const MeasurementFrame frame = GenerateTrace(scenario.spec);
  const double gen_s = clock.ElapsedSeconds();

  const TimePoint split = frame.StartTime() + 2 * kDay;
  const MeasurementFrame train = frame.SliceByTime(frame.StartTime(), split);
  MeasurementFrame test =
      frame.SliceByTime(split, frame.TimeAt(frame.SampleCount()));
  if (test.SampleCount() > test_cap) {
    test = test.SliceByTime(test.StartTime(), test.TimeAt(test_cap));
  }
  std::cout << "trace: " << frame.MeasurementCount() << " measurements, "
            << train.SampleCount() << " train + " << test.SampleCount()
            << " test samples (generated in " << FormatDouble(gen_s, 2)
            << " s)\n";

  // Small grids on purpose: at 10k pairs the s^2 transition matrices
  // dominate memory, and the scaling claim is about the engine, not
  // about grid resolution.
  MonitorConfig engine;
  engine.model = DefaultModelConfig();
  engine.model.partition.units = 40;
  engine.model.partition.max_intervals = 6;

  std::size_t used_measurements = 0;
  const MeasurementGraph graph = MeshOfPairs(
      frame.MeasurementCount(), target_pairs, &used_measurements);
  std::cout << "graph: " << graph.PairCount() << " pairs over the first "
            << used_measurements << " measurements\n";

  clock.Reset();
  SystemMonitor monitor(train, graph, engine);
  const double train_s = clock.ElapsedSeconds();
  std::cout << "trained " << graph.PairCount() << " pair models in "
            << FormatDouble(train_s, 2) << " s ("
            << FormatDouble(train_s * 1e3 /
                                static_cast<double>(graph.PairCount()),
                            3)
            << " ms/model)\n";

  const RunCost large = TimeRun(monitor, test, graph.PairCount());

  // Reference scale: a 193-pair mesh (the seed repo's fleet size) over
  // the same trace and config. Scale-linearity = the per-pair per-sample
  // cost at 10k pairs staying close to this. One reference run takes
  // 3.5-13 ms, so a single run would make the ratio mostly timer noise:
  // the reference is the run of median time among kRefRuns. Each run is
  // timed as the large one is, on a monitor trained in place just
  // before it.
  constexpr std::size_t kRefRuns = 9;
  std::size_t ref_measurements = 0;
  const MeasurementGraph ref_graph =
      MeshOfPairs(frame.MeasurementCount(), 193, &ref_measurements);
  std::vector<RunCost> ref_runs;
  for (std::size_t k = 0; k < kRefRuns; ++k) {
    SystemMonitor ref_monitor(train, ref_graph, engine);
    ref_runs.push_back(TimeRun(ref_monitor, test, ref_graph.PairCount()));
  }
  std::sort(ref_runs.begin(), ref_runs.end(),
            [](const RunCost& a, const RunCost& b) {
              return a.run_s < b.run_s;
            });
  const RunCost ref = ref_runs[kRefRuns / 2];
  const double cost_ratio = large.per_pair_us / ref.per_pair_us;

  TextTable table;
  table.SetHeader({"fleet", "run", "per sample", "per pair+sample"});
  const auto row = [&](const char* name, std::size_t pairs,
                       const RunCost& cost) {
    table.Row()
        .Cell(name)
        .Cell(FormatDouble(cost.run_s, 3) + " s")
        .Cell(FormatDouble(cost.run_s * 1e3 /
                               static_cast<double>(test.SampleCount()),
                           3) +
              " ms")
        .Cell(FormatDouble(cost.per_pair_us, 3) + " us")
        .Done();
    (void)pairs;
  };
  row("reference (193 pairs, median run)", ref_graph.PairCount(), ref);
  row("large graph", graph.PairCount(), large);
  table.Print(std::cout);
  std::cout << "per-pair cost ratio (large / reference): "
            << FormatDouble(cost_ratio, 3) << "  (scale-linear <= 1.5;"
            << " reference runs "
            << FormatDouble(ref_runs.front().run_s * 1e3, 1) << "-"
            << FormatDouble(ref_runs.back().run_s * 1e3, 1)
            << " ms over " << kRefRuns << ")\n";
  std::cout << "large-graph phases: sweep "
            << FormatDouble(large.stats.sweep_seconds, 3)
            << " s, snapshot assembly "
            << FormatDouble(large.stats.assemble_seconds, 3) << " s across "
            << large.stats.batches << " batches\n";

  // Delta form vs full snapshots over the same test window: a second
  // run, timed with its diff into a delta stream that begins at a
  // baseline.
  monitor.ResetSequences();
  clock.Reset();
  std::vector<SystemSnapshot> snapshots = monitor.Run(test);
  const std::vector<SystemDelta> deltas = DiffSnapshotStream(snapshots);
  const double delta_run_s = clock.ElapsedSeconds();

  const std::size_t full_bytes = StreamBytes([&](std::ostream& out) {
    WriteSnapshotStreamJsonl(snapshots, out);
  });
  // Only the last snapshot is read from here on. Freeing the rest before
  // the delta stream is sized lowers the peak RSS below, though the
  // allocator keeps most of their pages.
  const SystemSnapshot last_snapshot = std::move(snapshots.back());
  snapshots = {};
  const std::size_t delta_bytes = StreamBytes([&](std::ostream& out) {
    WriteDeltaStreamJsonl(deltas, out);
  });

  // Quiet ticks: a steady tail where every feed holds its value (with a
  // sub-cell wobble so the frozen-feed guard stays out of the way). Each
  // pair repeats the same cell transition, so its rank-quantized fitness
  // repeats bitwise and the delta carries nothing per pair — this is the
  // "few hundred bytes regardless of pair count" claim. The quiet
  // deltas continue the test window's stream from its last snapshot (no
  // new baseline).
  MeasurementFrame quiet(test.TimeAt(test.SampleCount()), test.Period());
  for (const MeasurementInfo& info : test.Infos()) {
    const double last = test.Value(info.id, test.SampleCount() - 1);
    std::vector<double> steady(24, last);
    for (std::size_t t = 1; t < steady.size(); t += 2) {
      steady[t] = last + std::abs(last) * 1e-9 + 1e-300;
    }
    quiet.Add(info, TimeSeries(quiet.StartTime(), quiet.Period(),
                               std::move(steady)));
  }
  const std::vector<SystemDelta> quiet_deltas =
      DiffSnapshotStream(monitor.Run(quiet), &last_snapshot);
  std::size_t quiet_bytes = full_bytes;
  for (std::size_t i = 0; i < quiet_deltas.size(); ++i) {
    if (quiet_deltas[i].baseline) continue;
    quiet_bytes = std::min(quiet_bytes, LineBytes(quiet_deltas, i));
  }
  const double full_per_tick =
      static_cast<double>(full_bytes) / static_cast<double>(deltas.size());
  const double shrink_pct =
      100.0 * (1.0 - static_cast<double>(delta_bytes) /
                         static_cast<double>(full_bytes));
  const double quiet_shrink_pct =
      100.0 * (1.0 - static_cast<double>(quiet_bytes) / full_per_tick);
  std::cout << "snapshot stream: " << full_bytes / 1024 << " KiB full, "
            << delta_bytes / 1024 << " KiB delta ("
            << FormatDouble(shrink_pct, 1) << "% smaller); quietest tick "
            << quiet_bytes << " B vs " << FormatDouble(full_per_tick / 1024, 1)
            << " KiB full (" << FormatDouble(quiet_shrink_pct, 1)
            << "% smaller)\n";

  const double rss_mib = PeakRssMib();
  std::cout << "peak RSS: " << FormatDouble(rss_mib, 0) << " MiB\n";
  const MatrixBytes bytes = MonitorMatrixBytes(monitor);
  const auto mib = [](std::size_t b) {
    return FormatDouble(static_cast<double>(b) / 1048576.0, 1);
  };
  std::cout << "transition matrices: " << mib(bytes.Total())
            << " MiB (stencil " << mib(bytes.stencil) << ", evidence "
            << mib(bytes.evidence) << ", counts " << mib(bytes.counts)
            << ", row caches " << mib(bytes.caches) << ")\n";

  BenchJson json("large_graph");
  json.Set("pairs", static_cast<std::int64_t>(graph.PairCount()));
  json.Set("ref_pairs", static_cast<std::int64_t>(ref_graph.PairCount()));
  json.Set("measurements", static_cast<std::int64_t>(used_measurements));
  json.Set("train_samples", static_cast<std::int64_t>(train.SampleCount()));
  json.Set("test_samples", static_cast<std::int64_t>(test.SampleCount()));
  json.Set("train_s", train_s);
  json.Set("train_ms_per_model",
           train_s * 1e3 / static_cast<double>(graph.PairCount()));
  json.Set("run_s", large.run_s);
  json.Set("run_ms_per_sample",
           large.run_s * 1e3 / static_cast<double>(test.SampleCount()));
  json.Set("per_pair_us_per_sample", large.per_pair_us);
  json.Set("ref_runs", static_cast<std::int64_t>(kRefRuns));
  json.Set("ref_run_s", ref.run_s);
  json.Set("ref_per_pair_us_per_sample", ref.per_pair_us);
  json.Set("per_pair_cost_ratio", cost_ratio);
  json.Set("sweep_s", large.stats.sweep_seconds);
  json.Set("assemble_s", large.stats.assemble_seconds);
  json.Set("batches", static_cast<std::int64_t>(large.stats.batches));
  json.Set("delta_run_s", delta_run_s);
  json.Set("full_stream_bytes", static_cast<std::int64_t>(full_bytes));
  json.Set("delta_stream_bytes", static_cast<std::int64_t>(delta_bytes));
  json.Set("quiet_tick_bytes", static_cast<std::int64_t>(quiet_bytes));
  json.Set("delta_shrink_pct", shrink_pct);
  json.Set("quiet_tick_shrink_pct", quiet_shrink_pct);
  json.Set("peak_rss_mib", rss_mib);
  SetMatrixBytes(json, bytes);
  const std::string json_path = json.Write();
  if (!json_path.empty()) std::cout << "wrote " << json_path << "\n";

  std::cout << "\nThe post-sweep phase (snapshot assembly) is sharded and"
               "\nallocation-free on the steady path; the delta form keeps a"
               " quiet tick O(1)\nbytes no matter how many pairs the fleet"
               " carries.\n";
  return 0;
}
