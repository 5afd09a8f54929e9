// Incremental (delta) snapshot mode: RunDelta's stream reconstructs to
// exactly the snapshots Run would have produced — bitwise, at every
// thread count and batch size — and the delta form actually shrinks
// quiet ticks. Also covers baseline discipline after invalidation, the
// JSONL round-trip, and malformed-stream rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "differential_util.h"
#include "engine/snapshot.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

using difftest::CheckpointString;
using difftest::ExpectAggregatesEqual;
using difftest::ExpectStreamsEqual;

// Same correlated synthetic system as test_differential: 2 machines x 2
// metrics off one load signal, optionally decoupling m3 halfway.
MeasurementFrame CorrelatedFrame(std::size_t samples, std::uint64_t seed,
                                 bool break_m3_correlation_late = false) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  Rng walk_rng = rng.Fork();
  double walk = 50.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
                        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    if (break_m3_correlation_late && i >= samples / 2) {
      walk += walk_rng.Normal(0.0, 25.0);
      walk = std::clamp(walk, 20.0, 150.0);
      cols[3][i] = walk;
    } else {
      cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
    }
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  return config;
}

// A steady continuation of `test`: every measurement holds its last
// value with a sub-cell wobble (so the frozen-feed guard stays quiet),
// which makes every pair repeat the same cell transition bitwise.
MeasurementFrame SteadyTail(const MeasurementFrame& test,
                            std::size_t samples, std::size_t skip = 0) {
  MeasurementFrame quiet(test.TimeAt(test.SampleCount() + skip),
                         test.Period());
  for (const MeasurementInfo& info : test.Infos()) {
    const double last = test.Value(info.id, test.SampleCount() - 1);
    std::vector<double> steady(samples, last);
    for (std::size_t t = 1; t < steady.size(); t += 2) {
      steady[t] = last + std::abs(last) * 1e-9 + 1e-300;
    }
    quiet.Add(info, TimeSeries(quiet.StartTime(), quiet.Period(),
                               std::move(steady)));
  }
  return quiet;
}

// The core contract: a monitor run in delta mode must be observably
// identical to one run in full-snapshot mode — reconstructed snapshots,
// lifetime aggregates and the checkpoint all bitwise equal.
void ExpectDeltaEquivalent(const MeasurementFrame& history,
                           const MeasurementFrame& test,
                           const MeasurementFrame* holdout,
                           std::size_t threads, std::size_t batch) {
  MonitorConfig config = SmallConfig();
  config.threads = threads;
  config.batch_samples = batch;
  const MeasurementGraph graph = MeasurementGraph::FullMesh(4);

  SystemMonitor full(history, graph, config);
  SystemMonitor delta(history, graph, config);
  if (holdout != nullptr) {
    full.CalibrateThresholds(*holdout, 0.05);
    delta.CalibrateThresholds(*holdout, 0.05);
  }

  const auto snapshots = full.Run(test);
  const std::vector<SystemDelta> deltas = delta.RunDelta(test);
  ASSERT_FALSE(deltas.empty());
  EXPECT_TRUE(deltas.front().baseline);
  ExpectStreamsEqual(snapshots, ReconstructSnapshots(deltas));
  ExpectAggregatesEqual(full, delta);
  EXPECT_EQ(CheckpointString(full), CheckpointString(delta));
}

TEST(Delta, ReconstructionMatchesRunAcrossThreadsAndBatches) {
  const MeasurementFrame history = CorrelatedFrame(1200, 3);
  const MeasurementFrame test = CorrelatedFrame(300, 4);
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t batch : {0u, 7u, 1u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      ExpectDeltaEquivalent(history, test, nullptr, threads, batch);
    }
  }
}

TEST(Delta, ReconstructionMatchesRunWithCalibratedAlarms) {
  // Decoupled second half: alarms, disengagements and outliers all flow
  // through the delta encoder.
  const MeasurementFrame history = CorrelatedFrame(1600, 5);
  const MeasurementFrame holdout = CorrelatedFrame(400, 6);
  const MeasurementFrame test = CorrelatedFrame(400, 7, true);
  for (std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectDeltaEquivalent(history, test, &holdout, threads, 7);
  }
}

TEST(Delta, SecondRunContinuesWithoutBaseline) {
  const MeasurementFrame history = CorrelatedFrame(1200, 11);
  const MeasurementFrame test = CorrelatedFrame(200, 12);
  const TimePoint mid = test.TimeAt(100);
  const MeasurementFrame first =
      test.SliceByTime(test.StartTime(), mid);
  const MeasurementFrame second =
      test.SliceByTime(mid, test.TimeAt(test.SampleCount()));

  MonitorConfig config = SmallConfig();
  const MeasurementGraph graph = MeasurementGraph::FullMesh(4);
  SystemMonitor full(history, graph, config);
  SystemMonitor delta(history, graph, config);

  auto snapshots = full.Run(first);
  const auto rest = full.Run(second);
  snapshots.insert(snapshots.end(), rest.begin(), rest.end());

  std::vector<SystemDelta> deltas = delta.RunDelta(first);
  const auto more = delta.RunDelta(second);
  // Tracking survived across the call boundary: no second baseline.
  ASSERT_FALSE(more.empty());
  EXPECT_FALSE(more.front().baseline);
  deltas.insert(deltas.end(), more.begin(), more.end());
  ExpectStreamsEqual(snapshots, ReconstructSnapshots(deltas));

  // An empty frame between delta runs must not invalidate tracking.
  MeasurementFrame empty(second.TimeAt(second.SampleCount()),
                         second.Period());
  for (const MeasurementInfo& info : test.Infos()) {
    empty.Add(info, TimeSeries(empty.StartTime(), empty.Period(), {}));
  }
  EXPECT_TRUE(delta.RunDelta(empty).empty());
}

TEST(Delta, InvalidationForcesBaseline) {
  const MeasurementFrame history = CorrelatedFrame(1200, 21);
  const MeasurementFrame test = CorrelatedFrame(120, 22);
  MonitorConfig config = SmallConfig();
  const MeasurementGraph graph = MeasurementGraph::FullMesh(4);
  SystemMonitor monitor(history, graph, config);

  auto deltas = monitor.RunDelta(test);
  EXPECT_TRUE(deltas.front().baseline);

  // A Step in between bypasses dirty tracking -> next delta restates.
  std::vector<double> row(4);
  for (std::size_t a = 0; a < 4; ++a) {
    row[a] = test.Value(MeasurementId(static_cast<std::int32_t>(a)), 0);
  }
  monitor.Step(row, test.TimeAt(test.SampleCount()));
  deltas = monitor.RunDelta(SteadyTail(test, 4, /*skip=*/1));
  ASSERT_FALSE(deltas.empty());
  EXPECT_TRUE(deltas.front().baseline);

  // Calibration rewrites alarm bounds -> baseline again.
  monitor.CalibrateThresholds(CorrelatedFrame(300, 23), 0.05);
  monitor.ResetSequences();
  deltas = monitor.RunDelta(test);
  ASSERT_FALSE(deltas.empty());
  EXPECT_TRUE(deltas.front().baseline);

  // Topology change (AddPair) -> baseline, with the grown pair width
  // declared on it. Start from a mesh missing one pair so the added
  // pair is new to the graph.
  std::vector<PairId> pairs = graph.Pairs();
  const PairId late = pairs.back();
  pairs.pop_back();
  const MeasurementGraph sparse =
      MeasurementGraph::FromPairs(4, std::move(pairs));
  SystemMonitor grown(history, sparse, config);
  const auto first = grown.RunDelta(test);
  EXPECT_EQ(first.front().pair_count, sparse.PairCount());
  grown.AddPair(late, history);
  const auto after = grown.RunDelta(SteadyTail(test, 4));
  ASSERT_FALSE(after.empty());
  EXPECT_TRUE(after.front().baseline);
  EXPECT_EQ(after.front().pair_count, sparse.PairCount() + 1);
}

// Wider correlated system for the size claim: every measurement is a
// distinct affine response to one shared load signal.
MeasurementFrame WideFrame(std::size_t measurements, std::size_t samples,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(measurements,
                                        std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
                        rng.Normal(0.0, 1.5);
    for (std::size_t c = 0; c < measurements; ++c) {
      cols[c][i] = (1.0 + 0.1 * static_cast<double>(c)) * load +
                   5.0 * static_cast<double>(c) + rng.Normal(0.0, 0.5);
    }
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (std::size_t c = 0; c < measurements; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(static_cast<std::int32_t>(c / 2));
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

TEST(Delta, QuietTickShrinksAtLeastNinetyPercent) {
  // The delta form's fixed overhead only pays off past trivial sizes:
  // 40 measurements -> a 780-pair full mesh, where a full snapshot line
  // is several KiB and a quiet tick must stay a few hundred bytes.
  const MeasurementFrame history = WideFrame(40, 800, 31);
  const MeasurementFrame test = WideFrame(40, 60, 32);
  MonitorConfig config = SmallConfig();
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(40), config);

  auto deltas = monitor.RunDelta(test);
  const auto quiet_deltas = monitor.RunDelta(SteadyTail(test, 16));
  ASSERT_FALSE(quiet_deltas.empty());
  EXPECT_FALSE(quiet_deltas.front().baseline);

  // Byte sizes through the real serializers: the smallest quiet-tick
  // delta line must be >= 90% smaller than the mean full-snapshot line.
  deltas.insert(deltas.end(), quiet_deltas.begin(), quiet_deltas.end());
  std::ostringstream full_stream;
  WriteSnapshotStreamJsonl(ReconstructSnapshots(deltas), full_stream);
  const double full_per_tick =
      static_cast<double>(full_stream.str().size()) /
      static_cast<double>(deltas.size());
  std::size_t quiet_bytes = full_stream.str().size();
  for (const SystemDelta& d : quiet_deltas) {
    std::ostringstream line;
    WriteDeltaStreamJsonl({d}, line);
    quiet_bytes = std::min(quiet_bytes, line.str().size());
  }
  EXPECT_LE(static_cast<double>(quiet_bytes), 0.1 * full_per_tick)
      << "quietest tick " << quiet_bytes << " B vs full " << full_per_tick;
}

TEST(Delta, JsonlRoundTripIsLossless) {
  const MeasurementFrame history = CorrelatedFrame(1600, 41);
  const MeasurementFrame holdout = CorrelatedFrame(400, 42);
  const MeasurementFrame test = CorrelatedFrame(300, 43, true);
  MonitorConfig config = SmallConfig();
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4), config);
  monitor.CalibrateThresholds(holdout, 0.05);
  const auto deltas = monitor.RunDelta(test);

  std::ostringstream out;
  WriteDeltaStreamJsonl(deltas, out);
  std::istringstream in(out.str());
  const auto parsed = ReadDeltaStreamJsonl(in);
  ASSERT_EQ(parsed.size(), deltas.size());

  // Bitwise: reconstructing the parsed stream gives exactly the
  // snapshots of the in-memory one, and re-serializing is byte-stable.
  ExpectStreamsEqual(ReconstructSnapshots(deltas),
                     ReconstructSnapshots(parsed));
  std::ostringstream again;
  WriteDeltaStreamJsonl(parsed, again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(Delta, ReconstructorRejectsMalformedStreams) {
  SystemDelta baseline;
  baseline.baseline = true;
  baseline.pair_count = 2;
  baseline.measurement_count = 2;
  baseline.pair_changes = {{0, 0.5}, {1, 0.75}};

  // First delta must be a baseline.
  {
    DeltaReconstructor r;
    SystemDelta plain = baseline;
    plain.baseline = false;
    EXPECT_THROW(r.Apply(plain), std::runtime_error);
  }
  // Width change without a baseline.
  {
    DeltaReconstructor r;
    r.Apply(baseline);
    SystemDelta next;
    next.pair_count = 3;
    next.measurement_count = 2;
    EXPECT_THROW(r.Apply(next), std::runtime_error);
  }
  // Out-of-range and non-ascending change indices.
  {
    DeltaReconstructor r;
    SystemDelta bad = baseline;
    bad.pair_changes = {{5, 0.5}};
    EXPECT_THROW(r.Apply(bad), std::runtime_error);
  }
  {
    DeltaReconstructor r;
    SystemDelta bad = baseline;
    bad.pair_changes = {{1, 0.5}, {0, 0.75}};
    EXPECT_THROW(r.Apply(bad), std::runtime_error);
  }
  // Disengaging a pair that was never engaged is fine on a non-baseline
  // only if it was engaged before; on a baseline it is malformed.
  {
    DeltaReconstructor r;
    SystemDelta bad = baseline;
    bad.pair_disengaged = {0};
    EXPECT_THROW(r.Apply(bad), std::runtime_error);
  }
}

TEST(Delta, JsonlReaderRejectsMalformedLines) {
  const auto expect_throws = [](const std::string& line) {
    std::istringstream in(line + "\n");
    EXPECT_THROW(ReadDeltaStreamJsonl(in), std::runtime_error) << line;
  };
  const std::string good =
      "{\"sample\":0,\"t\":0,\"baseline\":true,\"pairs\":2,"
      "\"measurements\":2,\"q\":null,\"pair_changes\":[[0,0.5]],"
      "\"pair_disengaged\":[],\"qa_changes\":[],\"qa_disengaged\":[],"
      "\"alarmed\":[],\"outliers\":0,\"extended\":0,\"event\":0,"
      "\"suppressed\":0,\"quarantined\":0,\"health\":false,"
      "\"health_changes\":[]}";
  {
    std::istringstream in(good + "\n");
    EXPECT_EQ(ReadDeltaStreamJsonl(in).size(), 1u);
  }
  // Key out of order / missing.
  expect_throws("{\"sample\":0,\"time\":0}");
  // Change index outside the declared width.
  expect_throws(
      "{\"sample\":0,\"t\":0,\"baseline\":true,\"pairs\":2,"
      "\"measurements\":2,\"q\":null,\"pair_changes\":[[7,0.5]],"
      "\"pair_disengaged\":[],\"qa_changes\":[],\"qa_disengaged\":[],"
      "\"alarmed\":[],\"outliers\":0,\"extended\":0,\"event\":0,"
      "\"suppressed\":0,\"quarantined\":0,\"health\":false,"
      "\"health_changes\":[]}");
  // Non-finite score.
  expect_throws(
      "{\"sample\":0,\"t\":0,\"baseline\":true,\"pairs\":2,"
      "\"measurements\":2,\"q\":inf,\"pair_changes\":[],"
      "\"pair_disengaged\":[],\"qa_changes\":[],\"qa_disengaged\":[],"
      "\"alarmed\":[],\"outliers\":0,\"extended\":0,\"event\":0,"
      "\"suppressed\":0,\"quarantined\":0,\"health\":false,"
      "\"health_changes\":[]}");
  // Unknown stream-event and health codes.
  expect_throws(
      "{\"sample\":0,\"t\":0,\"baseline\":true,\"pairs\":2,"
      "\"measurements\":2,\"q\":null,\"pair_changes\":[],"
      "\"pair_disengaged\":[],\"qa_changes\":[],\"qa_disengaged\":[],"
      "\"alarmed\":[],\"outliers\":0,\"extended\":0,\"event\":9,"
      "\"suppressed\":0,\"quarantined\":0,\"health\":false,"
      "\"health_changes\":[]}");
  expect_throws(
      "{\"sample\":0,\"t\":0,\"baseline\":true,\"pairs\":2,"
      "\"measurements\":2,\"q\":null,\"pair_changes\":[],"
      "\"pair_disengaged\":[],\"qa_changes\":[],\"qa_disengaged\":[],"
      "\"alarmed\":[],\"outliers\":0,\"extended\":0,\"event\":0,"
      "\"suppressed\":0,\"quarantined\":0,\"health\":true,"
      "\"health_changes\":[[0,9]]}");
  // Trailing bytes.
  expect_throws(good + "x");
}

}  // namespace
}  // namespace pmcorr
