// Tests for SystemMonitor checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "common/rng.h"
#include "io/framing.h"
#include "io/model_io.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

MeasurementFrame SystemFrame(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load =
        60.0 + 35.0 * std::sin(static_cast<double>(i) * 0.03) +
        rng.Normal(0.0, 1.5);
    cols[0][i] = load + rng.Normal(0.0, 0.8);
    cols[1][i] = 100.0 * load / (load + 45.0) + rng.Normal(0.0, 0.4);
    cols[2][i] = 2.5 * load + 20.0 + rng.Normal(0.0, 2.0);
    cols[3][i] = 0.8 * load + 35.0 + rng.Normal(0.0, 1.5);
  }
  MeasurementFrame frame(0, kPaperSamplePeriod);
  for (int c = 0; c < 4; ++c) {
    MeasurementInfo info;
    info.machine = MachineId(c / 2);
    info.kind = c % 2 == 0 ? MetricKind::kCpuUtilization
                           : MetricKind::kIfOutOctetsRate;
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 30;
  config.model.partition.max_intervals = 8;
  config.threads = 2;
  return config;
}

TEST(MonitorIo, RoundTripPreservesStructureAndAggregates) {
  const MeasurementFrame history = SystemFrame(900, 3);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  monitor.Run(SystemFrame(60, 5));

  std::stringstream stream;
  SaveSystemMonitor(monitor, stream);
  const auto loaded = LoadSystemMonitor(stream, 2);

  EXPECT_EQ(loaded->MeasurementCount(), 4u);
  EXPECT_EQ(loaded->Graph().PairCount(), 6u);
  EXPECT_EQ(loaded->StepCount(), monitor.StepCount());
  EXPECT_DOUBLE_EQ(loaded->SystemAverage().Mean(),
                   monitor.SystemAverage().Mean());
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_DOUBLE_EQ(loaded->MeasurementAverages()[a].Mean(),
                     monitor.MeasurementAverages()[a].Mean());
    EXPECT_EQ(loaded->Infos()[a].name, monitor.Infos()[a].name);
    EXPECT_EQ(loaded->Infos()[a].machine, monitor.Infos()[a].machine);
    EXPECT_EQ(loaded->Infos()[a].kind, monitor.Infos()[a].kind);
  }
}

TEST(MonitorIo, RestoredMonitorContinuesIdentically) {
  const MeasurementFrame history = SystemFrame(900, 7);
  SystemMonitor original(history, MeasurementGraph::FullMesh(4),
                         SmallConfig());
  original.Run(SystemFrame(40, 9));

  std::stringstream stream;
  SaveSystemMonitor(original, stream);
  const auto restored = LoadSystemMonitor(stream, 2);

  // Continue both on the same fresh data; sequences restart in the
  // restored copy, so restart the original's too for a fair comparison.
  original.ResetSequences();
  const MeasurementFrame more = SystemFrame(50, 11);
  const auto snaps_a = original.Run(more);
  const auto snaps_b = restored->Run(more);
  ASSERT_EQ(snaps_a.size(), snaps_b.size());
  for (std::size_t t = 0; t < snaps_a.size(); ++t) {
    ASSERT_EQ(snaps_a[t].system_score.has_value(),
              snaps_b[t].system_score.has_value());
    if (snaps_a[t].system_score) {
      ASSERT_DOUBLE_EQ(*snaps_a[t].system_score, *snaps_b[t].system_score);
    }
  }
}

TEST(MonitorIo, PathCheckpointIsFramedAndRotates) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "pmcorr_monitor_io_path";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "monitor.ckpt").string();

  const MeasurementFrame history = SystemFrame(900, 13);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  monitor.Run(SystemFrame(40, 15));

  SaveSystemMonitor(monitor, path);
  // The file is whole frames: the header, each pair's model frames, and
  // the end frame last.
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  FrameReader reader;
  reader.Feed(bytes);
  std::vector<std::uint8_t> types;
  while (const std::optional<Frame> frame = reader.Next()) {
    types.push_back(frame->type);
  }
  EXPECT_FALSE(reader.HasPartial());
  ASSERT_GE(types.size(), 2u + 6u);
  EXPECT_EQ(types.front(), kCheckpointHeaderFrame);
  EXPECT_EQ(types.back(), kCheckpointEndFrame);
  EXPECT_EQ(std::count(types.begin(), types.end(), kModelFrame), 6);

  std::stringstream direct;
  SaveSystemMonitor(monitor, direct);
  CheckpointRecoveryInfo info;
  const auto loaded = LoadSystemMonitor(path, 2, &info);
  EXPECT_EQ(info.generation, 0u);
  EXPECT_TRUE(info.rejected.empty());
  std::stringstream reloaded;
  SaveSystemMonitor(*loaded, reloaded);
  EXPECT_EQ(reloaded.str(), direct.str());

  // A second save rotates the first into generation 1.
  monitor.Run(SystemFrame(10, 17));
  SaveSystemMonitor(monitor, path);
  EXPECT_TRUE(fs::exists(path + ".g1"));
  fs::remove_all(dir);
}

TEST(MonitorIo, RejectsGarbage) {
  std::stringstream bad("definitely not a checkpoint");
  EXPECT_THROW(LoadSystemMonitor(bad), std::runtime_error);
  std::stringstream text("pmcorr-monitor v1\nmeasurements 4\n");
  EXPECT_THROW(LoadSystemMonitor(text), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW(LoadSystemMonitor(empty), std::runtime_error);
  EXPECT_THROW(LoadSystemMonitor("/nonexistent/checkpoint.txt"),
               std::runtime_error);
}

// The fuzz_model_io seeds are written by the encoder: the valid ones
// must load and re-encode to their own bytes, the broken ones must not
// load. A format change that leaves them stale fails here.
TEST(MonitorIo, FuzzSeedsMatchTheFormat) {
  const std::string dir = PMCORR_MODEL_IO_CORPUS;
  const auto read = [&](const std::string& name) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << name;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  {
    const std::string bytes = read("checkpoint.bin");
    std::istringstream in(bytes);
    std::ostringstream out;
    SaveSystemMonitor(*LoadSystemMonitor(in, 1), out);
    EXPECT_TRUE(out.str() == bytes);
  }
  // model.bin is a learned model; the others hold states the decoder
  // accepts but Step rarely writes: an evidence row with no counts, a
  // stepped 1x1 grid (a counts row, its +0.0 evidence row unwritten), a
  // row of -0.0 evidence, and written rows with unwritten rows between.
  for (const char* name :
       {"model.bin", "model_evidence_without_counts.bin",
        "model_1x1_counts_only.bin", "model_negative_zero_row.bin",
        "model_rows_with_gaps.bin"}) {
    const std::string bytes = read(name);
    std::istringstream in(bytes);
    std::ostringstream out;
    SavePairModel(LoadPairModel(in), out);
    EXPECT_TRUE(out.str() == bytes) << name;
  }
  for (const char* name : {"checkpoint_torn_tail.bin", "checkpoint_bad_crc.bin",
                           "checkpoint_v1_text.txt"}) {
    std::istringstream in(read(name));
    EXPECT_THROW((void)LoadSystemMonitor(in, 1), std::runtime_error) << name;
  }
}

TEST(MonitorIo, ChecksPartConsistency) {
  // The parts constructor itself must validate model/pair counts.
  EXPECT_THROW(SystemMonitor(MonitorConfig{}, MeasurementGraph::FullMesh(3),
                             std::vector<MeasurementInfo>(3),
                             std::vector<PairModel>(1),  // wrong count
                             std::vector<ScoreAverager>(3), ScoreAverager{},
                             0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmcorr
