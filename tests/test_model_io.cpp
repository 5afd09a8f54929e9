// Tests for PairModel persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/framing.h"
#include "io/model_io.h"

namespace pmcorr {
namespace {

PairModel TrainedModel(std::uint64_t seed = 3, bool exponential = false) {
  Rng rng(seed);
  std::vector<double> xs(800), ys(800);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double load =
        50.0 + 30.0 * std::sin(static_cast<double>(i) * 0.04) +
        rng.Normal(0.0, 1.0);
    xs[i] = load;
    ys[i] = 100.0 * load / (load + 40.0) + rng.Normal(0.0, 0.4);
  }
  ModelConfig config;
  config.partition.units = 30;
  config.partition.max_intervals = 8;
  config.delta = 1e-4;
  config.fitness_alarm_threshold = 0.2;
  config.forgetting = 0.995;
  if (exponential) {
    config.kernel.type = KernelConfig::Type::kExponential;
    config.kernel.w = 2.5;
    config.kernel.metric = CellMetric::kManhattan;
  }
  return PairModel::Learn(xs, ys, config);
}

TEST(ModelIo, RoundTripPreservesStructureAndPosterior) {
  const PairModel original = TrainedModel();
  std::stringstream stream;
  SavePairModel(original, stream);
  const PairModel loaded = LoadPairModel(stream);

  ASSERT_EQ(loaded.Grid().CellCount(), original.Grid().CellCount());
  EXPECT_EQ(loaded.Grid().Rows(), original.Grid().Rows());
  EXPECT_DOUBLE_EQ(loaded.Grid().Dim1().Lo(), original.Grid().Dim1().Lo());
  EXPECT_DOUBLE_EQ(loaded.Grid().Dim2().Hi(), original.Grid().Dim2().Hi());
  EXPECT_DOUBLE_EQ(loaded.Grid().InitialAvgWidthDim1(),
                   original.Grid().InitialAvgWidthDim1());
  EXPECT_EQ(loaded.Matrix().ObservedCount(),
            original.Matrix().ObservedCount());

  for (std::size_t i = 0; i < original.Grid().CellCount(); ++i) {
    for (std::size_t j = 0; j < original.Grid().CellCount(); ++j) {
      ASSERT_DOUBLE_EQ(loaded.Matrix().Probability(i, j),
                       original.Matrix().Probability(i, j));
      ASSERT_EQ(loaded.Matrix().CountOf(i, j), original.Matrix().CountOf(i, j));
    }
  }
}

TEST(ModelIo, RoundTripPreservesConfig) {
  const PairModel original = TrainedModel(5, /*exponential=*/true);
  std::stringstream stream;
  SavePairModel(original, stream);
  const PairModel loaded = LoadPairModel(stream);
  EXPECT_EQ(loaded.Config().kernel.type, KernelConfig::Type::kExponential);
  EXPECT_DOUBLE_EQ(loaded.Config().kernel.w, 2.5);
  EXPECT_EQ(loaded.Config().kernel.metric, CellMetric::kManhattan);
  EXPECT_DOUBLE_EQ(loaded.Config().delta, original.Config().delta);
  EXPECT_DOUBLE_EQ(loaded.Config().forgetting, original.Config().forgetting);
  EXPECT_EQ(loaded.Config().adaptive, original.Config().adaptive);
}

TEST(ModelIo, LoadedModelBehavesIdentically) {
  const PairModel original = TrainedModel(7);
  std::stringstream stream;
  SavePairModel(original, stream);
  PairModel loaded = LoadPairModel(stream);
  PairModel reference = original;  // copy continues alongside

  reference.ResetSequence();
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const double load =
        50.0 + 30.0 * std::sin(i * 0.04) + rng.Normal(0.0, 1.0);
    const double y = 100.0 * load / (load + 40.0);
    const StepOutcome a = reference.Step(load, y);
    const StepOutcome b = loaded.Step(load, y);
    ASSERT_EQ(a.has_score, b.has_score);
    ASSERT_DOUBLE_EQ(a.fitness, b.fitness);
    ASSERT_DOUBLE_EQ(a.probability, b.probability);
    ASSERT_EQ(a.alarm, b.alarm);
  }
}

TEST(ModelIo, RoundTripAfterExtension) {
  PairModel model = TrainedModel(9);
  // Force an extension, then round-trip; r_avg must persist.
  const double drift =
      model.Grid().Dim1().Hi() + 0.3 * model.Grid().InitialAvgWidthDim1();
  model.Step(50.0, 55.0);
  const StepOutcome out = model.Step(drift, 55.0);
  ASSERT_TRUE(out.extended_grid);

  std::stringstream stream;
  SavePairModel(model, stream);
  const PairModel loaded = LoadPairModel(stream);
  EXPECT_EQ(loaded.Grid().CellCount(), model.Grid().CellCount());
  EXPECT_DOUBLE_EQ(loaded.Grid().InitialAvgWidthDim1(),
                   model.Grid().InitialAvgWidthDim1());
}

// Fuzz-style robustness: a valid model file truncated at any byte
// boundary must throw a clean std::runtime_error — never crash, hang or
// silently succeed with a half-loaded model.
class ModelIoTruncation : public ::testing::TestWithParam<int> {};

TEST_P(ModelIoTruncation, TruncatedFilesThrowCleanly) {
  const PairModel original = TrainedModel(21);
  std::stringstream stream;
  SavePairModel(original, stream);
  const std::string full = stream.str();

  // Truncate at a fraction of the full length (never the whole file).
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(full.size()) * GetParam() / 100.0);
  std::stringstream truncated(full.substr(0, cut));
  EXPECT_THROW(LoadPairModel(truncated), std::runtime_error)
      << "cut at " << cut << " of " << full.size();
}

INSTANTIATE_TEST_SUITE_P(CutPoints, ModelIoTruncation,
                         ::testing::Values(0, 1, 3, 10, 25, 50, 75, 90, 99));

TEST(ModelIo, CorruptedByteThrowsCleanly) {
  const PairModel original = TrainedModel(23);
  std::stringstream stream;
  SavePairModel(original, stream);
  std::string bytes = stream.str();

  // Bit rot in the middle of the file: that frame's CRC catches it.
  bytes[bytes.size() / 2] ^= 0x01;
  std::stringstream corrupted(bytes);
  try {
    (void)LoadPairModel(corrupted);
    ADD_FAILURE() << "corrupted model loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("CRC mismatch"),
              std::string::npos)
        << error.what();
  }
}

TEST(ModelIo, SaveLoadSaveIsByteIdentical) {
  for (const bool exponential : {false, true}) {
    PairModel model = TrainedModel(29, exponential);
    model.Step(50.0, 55.0);
    std::stringstream first;
    SavePairModel(model, first);
    const PairModel loaded = LoadPairModel(first);
    std::stringstream second;
    SavePairModel(loaded, second);
    EXPECT_EQ(second.str(), first.str());
  }
}

// A model whose encoding is larger than one frame may carry: 39x39 =
// 1,521 cells with every evidence row written is 18.5 MB of evidence.
// It must split across frames (none over the cap) and round-trip
// bitwise.
TEST(ModelIo, ModelLargerThanOneFrameRoundTripsBitwise) {
  constexpr std::size_t kIntervals = 39;
  std::vector<Interval> intervals;
  for (std::size_t i = 0; i < kIntervals; ++i) {
    intervals.push_back({static_cast<double>(i), static_cast<double>(i + 1)});
  }
  Grid2D grid{IntervalList{intervals}, IntervalList{intervals}, 1.0, 1.0};
  const std::size_t cells = grid.CellCount();
  ModelConfig config;
  const auto kernel = MakeKernel(config.kernel);
  TransitionMatrix matrix = TransitionMatrix::Prior(grid, *kernel);
  std::vector<double> evidence(cells * cells);
  std::vector<std::uint32_t> counts(cells * cells);
  std::uint64_t observed = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    for (std::size_t j = 0; j < cells; ++j) {
      evidence[i * cells + j] = -1e-3 * static_cast<double>((i * 31 + j) % 97);
    }
    const auto count = static_cast<std::uint32_t>(1 + i % 5);
    counts[i * cells + (i * 7) % cells] = count;
    observed += count;
  }
  matrix.RestoreState(std::move(evidence), std::move(counts), observed);
  const PairModel model =
      PairModel::FromParts(config, std::move(grid), std::move(matrix));

  std::stringstream first;
  SavePairModel(model, first);
  const std::string bytes = first.str();
  ASSERT_GT(bytes.size(), kMaxFramePayload);
  {
    FrameReader reader;
    reader.Feed(bytes);
    std::size_t frames = 0;
    while (const std::optional<Frame> frame = reader.Next()) {
      EXPECT_LE(frame->payload.size(), kMaxFramePayload);
      ++frames;
    }
    EXPECT_EQ(frames, 1 + 2 * cells);  // model + every evidence/counts row
  }

  const PairModel loaded = LoadPairModel(first);
  EXPECT_EQ(loaded.Matrix().Evidence(), model.Matrix().Evidence());
  EXPECT_EQ(loaded.Matrix().Counts(), model.Matrix().Counts());
  std::stringstream second;
  SavePairModel(loaded, second);
  EXPECT_TRUE(second.str() == bytes);
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream stream("not a model at all");
  EXPECT_THROW(LoadPairModel(stream), std::runtime_error);
  std::stringstream text("pmcorr-model v1\nkernel 0 2.0 2\n");
  EXPECT_THROW(LoadPairModel(text), std::runtime_error);
  EXPECT_THROW(LoadPairModel("/nonexistent/model.txt"), std::runtime_error);
}

}  // namespace
}  // namespace pmcorr
