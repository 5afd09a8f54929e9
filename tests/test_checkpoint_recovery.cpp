// Crash-safety proof for the rotated monitor checkpoints
// (io/monitor_io.h + io/atomic_file.h): a simulated crash at EVERY
// write point of a checkpoint save must leave the newest valid
// generation recoverable, and a monitor resumed from the recovered
// checkpoint must raise exactly the alarms a never-crashed oracle
// raises from the same state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "differential_util.h"
#include "io/atomic_file.h"
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
    info.name = "m" + std::to_string(c);
    frame.Add(info, TimeSeries(0, kPaperSamplePeriod, std::move(cols[c])));
  }
  return frame;
}

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.model.partition.units = 30;
  config.model.partition.max_intervals = 8;
  config.threads = 1;
  return config;
}

// The checkpoint bytes: the state fingerprint two monitors are
// compared by.
std::string Render(const SystemMonitor& monitor) {
  return difftest::CheckpointString(monitor);
}

std::unique_ptr<SystemMonitor> FromString(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  return LoadSystemMonitor(in, 1);
}

// A fresh, empty working directory per test.
class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~CheckpointDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }
  void Clear() {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

 private:
  std::filesystem::path dir_;
};

TEST(CheckpointRecovery, RotationKeepsConfiguredGenerations) {
  const MeasurementFrame history = SystemFrame(700, 3);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_rotation");
  const std::string path = dir.Path("monitor.ckpt");
  CheckpointConfig config;
  config.generations = 3;

  std::vector<std::string> renders;
  for (int round = 0; round < 4; ++round) {
    monitor.Run(SystemFrame(5, 100 + static_cast<std::uint64_t>(round)));
    renders.push_back(Render(monitor));
    SaveSystemMonitor(monitor, path, config);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".g1"));
  EXPECT_TRUE(std::filesystem::exists(path + ".g2"));
  EXPECT_FALSE(std::filesystem::exists(path + ".g3"));  // oldest dropped

  // Newest state at the primary path; each older generation one save
  // behind.
  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), renders[3]);
  EXPECT_EQ(info.generation, 0u);
  EXPECT_TRUE(info.rejected.empty());

  std::filesystem::remove(path);
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), renders[2]);
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("cannot open"), std::string::npos);

  std::filesystem::remove(path + ".g1");
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), renders[1]);
  EXPECT_EQ(info.generation, 2u);

  std::filesystem::remove(path + ".g2");
  EXPECT_THROW(LoadSystemMonitor(path, 1), std::runtime_error);
}

TEST(CheckpointRecovery, CorruptPrimaryFallsBackToOlderGeneration) {
  const MeasurementFrame history = SystemFrame(700, 5);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_corrupt");
  const std::string path = dir.Path("monitor.ckpt");

  SaveSystemMonitor(monitor, path);
  const std::string old_render = Render(monitor);
  monitor.Run(SystemFrame(10, 7));
  SaveSystemMonitor(monitor, path);

  // Bit rot in the primary: a frame CRC catches it and the loader falls
  // back.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('#');
  }
  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), old_render);
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("CRC mismatch"), std::string::npos);

  // Truncation (a torn copy without its end frame): same fallback.
  // Fresh directory so the corrupted file above is not sitting in the
  // fallback slot.
  dir.Clear();
  const std::string mid_render = Render(monitor);
  SaveSystemMonitor(monitor, path);
  monitor.Run(SystemFrame(10, 9));
  SaveSystemMonitor(monitor, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), mid_render);
  EXPECT_EQ(info.generation, 1u);
}

// Byte offsets where each frame of `bytes` ends, in order.
std::vector<std::size_t> FrameEnds(const std::string& bytes) {
  FrameReader reader;
  reader.Feed(bytes);
  std::vector<std::size_t> ends;
  while (reader.Next().has_value()) {
    ends.push_back(bytes.size() - reader.BufferedBytes());
  }
  return ends;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(CheckpointRecovery, FlippedByteInAPairFrameFallsBackWithCrcReason) {
  const MeasurementFrame history = SystemFrame(700, 23);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_flip");
  const std::string path = dir.Path("monitor.ckpt");
  SaveSystemMonitor(monitor, path);
  const std::string old_render = Render(monitor);
  monitor.Run(SystemFrame(10, 25));
  SaveSystemMonitor(monitor, path);

  // Flip one byte in the middle of the third pair's model frame.
  std::string bytes = ReadFile(path);
  FrameReader reader;
  reader.Feed(bytes);
  std::size_t models = 0;
  std::size_t flip = 0;
  while (const std::optional<Frame> frame = reader.Next()) {
    if (frame->type == kModelFrame && ++models == 3) {
      const std::size_t payload_end = bytes.size() - reader.BufferedBytes() - 4;
      flip = payload_end - frame->payload.size() / 2;
      break;
    }
  }
  ASSERT_GT(flip, 0u);
  bytes[flip] ^= 0x40;
  WriteFile(path, bytes);

  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), old_render);
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("CRC mismatch"), std::string::npos)
      << info.rejected[0];
}

TEST(CheckpointRecovery, TruncationAtEveryFrameBoundaryAndMidFrameRejected) {
  const MeasurementFrame history = SystemFrame(700, 27);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  monitor.Run(SystemFrame(10, 29));
  const std::string bytes = Render(monitor);
  const std::vector<std::size_t> ends = FrameEnds(bytes);
  ASSERT_EQ(ends.back(), bytes.size());
  std::size_t start = 0;
  for (const std::size_t end : ends) {
    // Cut before the frame (a clean boundary), one byte into it, and
    // halfway through it: every prefix short of the whole file fails.
    for (const std::size_t cut : {start, start + 1, (start + end) / 2}) {
      if (cut >= bytes.size()) continue;
      std::istringstream in(bytes.substr(0, cut));
      EXPECT_THROW((void)LoadSystemMonitor(in, 1), std::runtime_error)
          << "cut at " << cut << " of " << bytes.size();
    }
    start = end;
  }
  EXPECT_EQ(Render(*FromString(bytes)), bytes);
}

TEST(CheckpointRecovery, BytesAfterTheEndFrameRejected) {
  const MeasurementFrame history = SystemFrame(700, 31);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_trailing");
  const std::string path = dir.Path("monitor.ckpt");
  SaveSystemMonitor(monitor, path);
  const std::string old_render = Render(monitor);
  monitor.Run(SystemFrame(10, 33));
  SaveSystemMonitor(monitor, path);

  const std::string bytes = ReadFile(path);
  std::string extra_frame;
  AppendFrame(kCheckpointEndFrame, "", extra_frame);
  for (const std::string& tail : {std::string("\n"), extra_frame, bytes}) {
    std::istringstream in(bytes + tail);
    EXPECT_THROW((void)LoadSystemMonitor(in, 1), std::runtime_error)
        << tail.size() << " trailing bytes";
  }
  // On disk the loader falls back past such a file and says why.
  WriteFile(path, bytes + extra_frame);
  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), old_render);
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("after the end frame"), std::string::npos)
      << info.rejected[0];
}

TEST(CheckpointRecovery, TextCheckpointRejectedWithItsFormatNamed) {
  const MeasurementFrame history = SystemFrame(700, 35);
  SystemMonitor monitor(history, MeasurementGraph::FullMesh(4),
                        SmallConfig());
  CheckpointDir dir("pmcorr_ckpt_text");
  const std::string path = dir.Path("monitor.ckpt");
  const std::string text =
      "pmcorr-monitor v1\nmeasurements 0\npairs 0\naggregates 0 0 0\n";

  // A lone v1 checkpoint: nothing loads, and the message names the
  // format rather than a framing detail.
  WriteFile(path, text);
  try {
    (void)LoadSystemMonitor(path, 1);
    ADD_FAILURE() << "v1 text checkpoint loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("pmcorr-monitor v1 text"),
              std::string::npos)
        << error.what();
  }

  // With a binary generation behind it, the loader falls back and the
  // rejection names the format too.
  std::filesystem::remove(path);
  SaveSystemMonitor(monitor, path);
  std::filesystem::rename(path, path + ".g1");
  WriteFile(path, text);
  CheckpointRecoveryInfo info;
  EXPECT_EQ(Render(*LoadSystemMonitor(path, 1, &info)), Render(monitor));
  EXPECT_EQ(info.generation, 1u);
  ASSERT_EQ(info.rejected.size(), 1u);
  EXPECT_NE(info.rejected[0].find("pmcorr-monitor v1 text"),
            std::string::npos)
      << info.rejected[0];
}

// The tentpole proof: sweep a simulated crash across every write point
// of a checkpoint save. At each kill point, the loader must recover a
// state the process actually reached (the new checkpoint when the
// rename landed, the previous generation otherwise), and a run resumed
// from the recovered state must match the never-crashed oracle's
// snapshots and alarms exactly.
TEST(CheckpointRecovery, EveryKillPointRecoversAndResumesLikeTheOracle) {
  const MeasurementFrame history = SystemFrame(900, 11);
  const MeasurementFrame holdout = SystemFrame(500, 13);
  const MeasurementFrame part2 = SystemFrame(12, 17);
  const MeasurementFrame part3 = SystemFrame(25, 19);

  SystemMonitor before(history, MeasurementGraph::FullMesh(4),
                       SmallConfig());
  before.CalibrateThresholds(holdout, 0.05);
  before.Run(SystemFrame(12, 15));
  const std::string state_a = Render(before);

  // The state the crashed save is trying to persist.
  auto after = FromString(state_a);
  after->Run(part2);
  const std::string state_b = Render(*after);
  ASSERT_NE(state_a, state_b);

  // Oracles: resume part3 from each state without ever crashing.
  const auto oracle_a = FromString(state_a);
  const auto snaps_oracle_a = oracle_a->Run(part3);
  const auto oracle_b = FromString(state_b);
  const auto snaps_oracle_b = oracle_b->Run(part3);

  CheckpointDir dir("pmcorr_ckpt_killsweep");
  const std::string path = dir.Path("monitor.ckpt");

  // Enumerate the write points of one save.
  long long points = 0;
  {
    SaveSystemMonitor(before, path);
    ScopedWriteFault probe(-1);
    SaveSystemMonitor(*after, path);
    points = probe.Seen();
  }
  ASSERT_GE(points, 5);  // open, >=1 chunk, sync, rename, dirsync

  for (long long kill = 0; kill < points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    dir.Clear();
    SaveSystemMonitor(before, path);  // gen0 = state A, intact on disk

    ScopedWriteFault crash(kill);
    bool threw = false;
    try {
      SaveSystemMonitor(*after, path);
    } catch (const std::exception&) {
      threw = true;
    }
    EXPECT_TRUE(crash.Fired());
    EXPECT_TRUE(threw);
    crash.Disarm();

    CheckpointRecoveryInfo info;
    std::unique_ptr<SystemMonitor> recovered;
    ASSERT_NO_THROW(recovered = LoadSystemMonitor(path, 1, &info));
    const std::string recovered_render = Render(*recovered);
    const bool got_new = recovered_render == state_b;
    if (!got_new) {
      // Crash before the rename landed: the rotated previous generation
      // must come back byte-identical, and the loader must report that
      // it actually fell back.
      EXPECT_EQ(recovered_render, state_a);
      EXPECT_EQ(info.generation, 1u);
      EXPECT_FALSE(info.rejected.empty());
    } else {
      EXPECT_EQ(info.generation, 0u);
    }

    // Resume and compare to the matching oracle: same snapshots (alarmed
    // pairs included), same final state.
    const auto snaps = recovered->Run(part3);
    const auto& oracle_snaps = got_new ? snaps_oracle_b : snaps_oracle_a;
    const SystemMonitor& oracle = got_new ? *oracle_b : *oracle_a;
    difftest::ExpectStreamsEqual(oracle_snaps, snaps);
    EXPECT_EQ(Render(*recovered), Render(oracle));
  }
}

// Sustained crash-and-recover cycling: a monitor that checkpoints on a
// cadence, crashes at a pseudo-random write point, recovers, and keeps
// monitoring — for at least 50 iterations (PMCORR_CRASH_LOOP_ITERS
// overrides). The invariant each cycle: recovery always succeeds and
// always yields either the state being saved or the last state known
// good on disk — never anything else, never a torn hybrid.
TEST(CheckpointRecovery, CrashLoopAlwaysRecoversALastGoodState) {
  int iterations = 60;
  if (const char* env = std::getenv("PMCORR_CRASH_LOOP_ITERS")) {
    iterations = std::max(1, std::atoi(env));
  }

  const MeasurementFrame history = SystemFrame(900, 21);
  CheckpointDir dir("pmcorr_ckpt_crashloop");
  const std::string path = dir.Path("monitor.ckpt");
  {
    SystemMonitor seed_monitor(history, MeasurementGraph::FullMesh(4),
                               SmallConfig());
    SaveSystemMonitor(seed_monitor, path);
  }
  auto monitor = LoadSystemMonitor(path, 1);
  std::string disk_good = Render(*monitor);

  Rng rng(2024);
  long long max_kill = 8;  // refined from observed write-point counts
  std::size_t recoveries = 0;
  for (int i = 0; i < iterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    monitor->Run(SystemFrame(4, 1000 + static_cast<std::uint64_t>(i)));
    const std::string next = Render(*monitor);

    const long long kill = rng.UniformInt(0, max_kill + 2);
    ScopedWriteFault crash(kill);
    try {
      SaveSystemMonitor(*monitor, path);
    } catch (const std::exception&) {
    }
    max_kill = std::max(max_kill, crash.Seen() - 1);
    crash.Disarm();

    CheckpointRecoveryInfo info;
    ASSERT_NO_THROW(monitor = LoadSystemMonitor(path, 1, &info));
    const std::string recovered = Render(*monitor);
    EXPECT_TRUE(recovered == next || recovered == disk_good)
        << "recovered a state that was never good on disk";
    if (info.generation > 0) ++recoveries;
    disk_good = recovered;
  }
  // The sweep must actually have exercised fallback recovery, not just
  // clean saves.
  EXPECT_GT(recoveries, 0u);
}

}  // namespace
}  // namespace pmcorr
