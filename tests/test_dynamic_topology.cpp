// Differential tests for online pair-graph mutation: AddPair/RetirePair
// must be bitwise invisible to every pair they don't touch. A static
// monitor (the final graph, known up front) and a dynamic monitor (the
// same graph assembled mid-run) step the identical sample stream; pairs
// present in both graphs must produce identical Q^{a,b} series down to
// the last bit, because per-pair state is private to the pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "engine/monitor.h"

namespace pmcorr {
namespace {

// 3 machines x 2 metrics, all driven by one load signal so every
// cross-measurement pair carries real correlation structure.
constexpr std::size_t kMeasurements = 6;

MeasurementFrame SystemFrame(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(kMeasurements,
                                        std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load =
        60.0 + 35.0 * std::sin(static_cast<double>(i) * 0.03) +
        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
    cols[4][i] = 0.5 * load + 10.0 + rng.Normal(0.0, 1.0);
    cols[5][i] = 120.0 - 0.7 * load + rng.Normal(0.0, 1.2);
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (std::size_t c = 0; c < kMeasurements; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(static_cast<std::int32_t>(c / 2));
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.threads = 2;
  return config;
}

std::vector<double> RowAt(const MeasurementFrame& frame, std::size_t s) {
  std::vector<double> row(frame.MeasurementCount());
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = frame.Value(MeasurementId(static_cast<std::int32_t>(i)), s);
  }
  return row;
}

// Steps `monitor` over samples [from, to) of `test` and returns the
// snapshots.
std::vector<SystemSnapshot> StepRange(SystemMonitor& monitor,
                                      const MeasurementFrame& test,
                                      std::size_t from, std::size_t to) {
  std::vector<SystemSnapshot> snaps;
  for (std::size_t s = from; s < to; ++s) {
    snaps.push_back(monitor.Step(RowAt(test, s), test.TimeAt(s)));
  }
  return snaps;
}

// PairId -> index map for one monitor's graph.
std::map<PairId, std::size_t> IndexOf(const SystemMonitor& monitor) {
  std::map<PairId, std::size_t> index;
  const auto& pairs = monitor.Graph().Pairs();
  for (std::size_t i = 0; i < pairs.size(); ++i) index[pairs[i]] = i;
  return index;
}

// Asserts that `pair` scored bitwise-identically in both snapshot
// streams (which must cover the same samples).
void ExpectPairSeriesEqual(const std::vector<SystemSnapshot>& a,
                           std::size_t ia,
                           const std::vector<SystemSnapshot>& b,
                           std::size_t ib) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    const auto& sa = a[s].pair_scores[ia];
    const auto& sb = b[s].pair_scores[ib];
    ASSERT_EQ(sa.has_value(), sb.has_value()) << "sample " << s;
    if (sa) {
      // Bitwise, not approximate: the contract is that the mutation is
      // invisible, not merely small.
      ASSERT_EQ(*sa, *sb) << "sample " << s;
    }
  }
}

PairId P(int a, int b) { return {MeasurementId(a), MeasurementId(b)}; }

// The full test graph; the dynamic monitor starts without kLatePair.
const PairId kLatePair = P(1, 4);

std::vector<PairId> FullPairSet() {
  return {P(0, 1), P(0, 2), P(2, 3), P(3, 4), P(4, 5), P(1, 5), kLatePair};
}

std::vector<PairId> InitialPairSet() {
  std::vector<PairId> pairs = FullPairSet();
  pairs.erase(std::find(pairs.begin(), pairs.end(), kLatePair));
  return pairs;
}

class DynamicTopologyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = SystemFrame(1200, 11);
    test_ = SystemFrame(600, 12);
  }

  MeasurementFrame history_;
  MeasurementFrame test_;
};

TEST_F(DynamicTopologyTest, AddPairInvisibleToUntouchedPairs) {
  SystemMonitor full(history_,
                     MeasurementGraph::FromPairs(kMeasurements, FullPairSet()),
                     SmallConfig());
  SystemMonitor dyn(
      history_, MeasurementGraph::FromPairs(kMeasurements, InitialPairSet()),
      SmallConfig());

  // Segment 1: the dynamic monitor runs without the late pair.
  const auto full1 = StepRange(full, test_, 0, 200);
  const auto dyn1 = StepRange(dyn, test_, 0, 200);

  // The late pair joins mid-run, learned from the same history.
  const std::size_t added = dyn.AddPair(kLatePair, history_);
  EXPECT_EQ(added, InitialPairSet().size());
  EXPECT_EQ(dyn.Graph().PairCount(), FullPairSet().size());

  // Segment 2: both monitors now watch the same pair set.
  const auto full2 = StepRange(full, test_, 200, 400);
  const auto dyn2 = StepRange(dyn, test_, 200, 400);

  const auto full_index = IndexOf(full);
  const auto dyn_index = IndexOf(dyn);
  for (const PairId& pair : InitialPairSet()) {
    ExpectPairSeriesEqual(full1, full_index.at(pair), dyn1,
                          dyn_index.at(pair));
    ExpectPairSeriesEqual(full2, full_index.at(pair), dyn2,
                          dyn_index.at(pair));
  }

  // The added pair engages on its own: sequence-reset on arrival, so its
  // first sample is disengaged, but it must score thereafter.
  const std::size_t late = dyn_index.at(kLatePair);
  EXPECT_FALSE(dyn2.front().pair_scores[late].has_value());
  std::size_t scored = 0;
  for (const auto& snap : dyn2) {
    if (snap.pair_scores[late]) ++scored;
  }
  EXPECT_GT(scored, dyn2.size() / 2);
}

TEST_F(DynamicTopologyTest, RetirePairDisengagesOnlyThatPair) {
  const auto graph = [] {
    return MeasurementGraph::FromPairs(kMeasurements, FullPairSet());
  };
  SystemMonitor keep(history_, graph(), SmallConfig());
  SystemMonitor dyn(history_, graph(), SmallConfig());

  const auto keep1 = StepRange(keep, test_, 0, 150);
  const auto dyn1 = StepRange(dyn, test_, 0, 150);

  const std::size_t retired = IndexOf(dyn).at(P(2, 3));
  dyn.RetirePair(retired);
  dyn.RetirePair(retired);  // idempotent

  const auto keep2 = StepRange(keep, test_, 150, 300);
  const auto dyn2 = StepRange(dyn, test_, 150, 300);

  // Before retirement the monitors are interchangeable; after it, every
  // pair but the retired one still is.
  for (std::size_t i = 0; i < FullPairSet().size(); ++i) {
    ExpectPairSeriesEqual(keep1, i, dyn1, i);
    if (i != retired) ExpectPairSeriesEqual(keep2, i, dyn2, i);
  }
  for (const auto& snap : dyn2) {
    EXPECT_FALSE(snap.pair_scores[retired].has_value());
    EXPECT_GE(snap.quarantined_pairs, 1u);
  }
  // The static monitor keeps scoring the pair the dynamic one retired.
  std::size_t scored = 0;
  for (const auto& snap : keep2) {
    if (snap.pair_scores[retired]) ++scored;
  }
  EXPECT_GT(scored, 0u);
}

TEST_F(DynamicTopologyTest, AddPairUpdatesGraphIndex) {
  SystemMonitor dyn(
      history_, MeasurementGraph::FromPairs(kMeasurements, InitialPairSet()),
      SmallConfig());
  const std::size_t index = dyn.AddPair(kLatePair, history_);

  const auto touching_a = dyn.Graph().PairsOf(kLatePair.a);
  const auto touching_b = dyn.Graph().PairsOf(kLatePair.b);
  EXPECT_NE(std::find(touching_a.begin(), touching_a.end(), index),
            touching_a.end());
  EXPECT_NE(std::find(touching_b.begin(), touching_b.end(), index),
            touching_b.end());
  EXPECT_EQ(dyn.Graph().Pair(index), kLatePair);
}

TEST_F(DynamicTopologyTest, AddPairRejectsInvalidPairs) {
  SystemMonitor dyn(
      history_, MeasurementGraph::FromPairs(kMeasurements, InitialPairSet()),
      SmallConfig());
  // Duplicate of an existing edge.
  EXPECT_THROW(dyn.AddPair(P(0, 1), history_), std::invalid_argument);
  // Measurement id outside the frame.
  EXPECT_THROW(dyn.AddPair(P(0, static_cast<int>(kMeasurements)), history_),
               std::invalid_argument);
  // Self-pair (PairId normalizes order, so a == b is the only invalid
  // in-range shape).
  EXPECT_THROW(dyn.AddPair(P(2, 2), history_), std::invalid_argument);
  // History narrower than the monitor's measurement set.
  const MeasurementFrame narrow =
      history_.SelectMeasurements({MeasurementId(0), MeasurementId(1)});
  EXPECT_THROW(dyn.AddPair(kLatePair, narrow), std::invalid_argument);
}

TEST_F(DynamicTopologyTest, RetirePairRejectsBadIndex) {
  SystemMonitor dyn(history_,
                    MeasurementGraph::FromPairs(kMeasurements, FullPairSet()),
                    SmallConfig());
  EXPECT_THROW(dyn.RetirePair(FullPairSet().size()), std::out_of_range);
}

}  // namespace
}  // namespace pmcorr
