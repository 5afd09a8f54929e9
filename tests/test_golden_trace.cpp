// Golden-trace regression: a small fixed-seed scenario's full snapshot
// stream is checked in under tests/golden/ and replayed here byte for
// byte, so future engine changes cannot silently alter the numbers the
// paper reproduction reports.
//
// The golden file is the WriteSnapshotStreamJsonl rendering (17
// significant digits — round-trip exact for doubles) of a calibrated
// monitor running a partially decoupled test segment: scores, Q^a / Q
// aggregation, alarms, outliers and grid extensions are all pinned.
//
// To regenerate after an *intentional* engine change:
//   PMCORR_REGEN_GOLDEN=1 ./test_golden_trace
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "engine/monitor.h"
#include "io/model_io.h"
#include "io/monitor_io.h"

namespace pmcorr {
namespace {

#ifndef PMCORR_GOLDEN_DIR
#error "PMCORR_GOLDEN_DIR must point at tests/golden"
#endif

std::string GoldenPath() {
  return std::string(PMCORR_GOLDEN_DIR) + "/system_trace.jsonl";
}

// Fixed-seed scenario: 2 machines x 2 metrics on one load signal, with
// measurement 3 decoupling halfway through the test segment so the
// stream pins alarms and outliers, not just healthy scores.
MeasurementFrame GoldenFrame(std::size_t samples, std::uint64_t seed,
                             bool break_late) {
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
    if (break_late && i >= samples / 2) {
      walk += walk_rng.Normal(0.0, 25.0);
      walk = walk < 20.0 ? 20.0 : (walk > 150.0 ? 150.0 : walk);
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

// The scenario's monitor: learned and calibrated, not yet stepped.
std::unique_ptr<SystemMonitor> GoldenMonitor() {
  MonitorConfig config;
  config.model.partition.units = 40;
  config.model.partition.max_intervals = 10;
  config.threads = 2;
  auto monitor = std::make_unique<SystemMonitor>(
      GoldenFrame(1000, 2008, false), MeasurementGraph::FullMesh(4), config);
  monitor->CalibrateThresholds(GoldenFrame(300, 2009, false), 0.05);
  return monitor;
}

std::string RenderGoldenTrace() {
  const auto snapshots = GoldenMonitor()->Run(GoldenFrame(120, 2010, true));
  std::ostringstream out;
  WriteSnapshotStreamJsonl(snapshots, out);
  return out.str();
}

TEST(GoldenTrace, SnapshotStreamMatchesCheckedInTrace) {
  const std::string rendered = RenderGoldenTrace();
  ASSERT_FALSE(rendered.empty());

  if (std::getenv("PMCORR_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << GoldenPath();
    out << rendered;
    out.close();
    ASSERT_TRUE(out);
    GTEST_SKIP() << "regenerated " << GoldenPath()
                 << " — review the diff before committing";
  }

  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << GoldenPath()
                  << " (run with PMCORR_REGEN_GOLDEN=1 to create it)";
  std::ostringstream golden;
  golden << in.rdbuf();

  const std::string& expected = golden.str();
  if (rendered != expected) {
    // Diff the first divergent line so the failure is actionable without
    // external tooling.
    std::istringstream a(expected), b(rendered);
    std::string line_a, line_b;
    std::size_t line_no = 0;
    while (true) {
      const bool more_a = static_cast<bool>(std::getline(a, line_a));
      const bool more_b = static_cast<bool>(std::getline(b, line_b));
      ++line_no;
      if (!more_a && !more_b) break;
      if (line_a != line_b || more_a != more_b) {
        FAIL() << "golden trace diverges at line " << line_no
               << "\n  golden:   " << (more_a ? line_a : "<eof>")
               << "\n  rendered: " << (more_b ? line_b : "<eof>")
               << "\nIf the change is intentional, regenerate with"
                  " PMCORR_REGEN_GOLDEN=1 and review the diff.";
      }
    }
  }
  SUCCEED();
}

// FNV-1a, 64-bit, over every byte. A CRC-32 of a whole encoded file
// cannot pin content: each frame ends in its own body's CRC, and a CRC
// run over a message and its appended CRC ends in a fixed residue, so
// the file's CRC depends only on the frame lengths.
std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325u;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3u;
  }
  return hash;
}

// What the encoders write from the live scenario monitor, pinned by
// size and FNV-1a-64: the checkpoint and the model file of pair 5 (m2,
// m3; m3 decouples, and the pair's grid extends) after Learn and
// calibration, after the first 100 test rows, and after all 120. The
// monitor is calibrated, so its steps take the full reads; any change
// to what the engine computes or how it is stored that alters one byte
// fails here.
TEST(GoldenTrace, EncodedBytesArePinned) {
  struct Pin {
    std::size_t rows;
    std::size_t checkpoint_bytes;
    std::uint64_t checkpoint_fnv;
    std::size_t model_bytes;
    std::uint64_t model_fnv;
  };
  constexpr std::size_t kPair = 5;
  const Pin pins[] = {
      {0, 132348, 0x7317f8e278e1bb07u, 26048, 0x6fd8bf0c277bc22du},
      {100, 219452, 0xa5dafb3833cc067bu, 55718, 0xccff3995c11b9af7u},
      {120, 273126, 0x7dd71b805f526c01u, 73208, 0x74e8cf1cd5d3fdebu},
  };
  const MeasurementFrame test = GoldenFrame(120, 2010, true);
  std::size_t learned_cells = 0;
  for (const Pin& pin : pins) {
    SCOPED_TRACE("after " + std::to_string(pin.rows) + " rows");
    const auto monitor = GoldenMonitor();
    if (pin.rows == 0) {
      learned_cells = monitor->Model(kPair).Grid().CellCount();
    } else {
      (void)monitor->Run(
          test.SliceByTime(test.StartTime(), test.TimeAt(pin.rows)));
    }
    std::ostringstream checkpoint;
    SaveSystemMonitor(*monitor, checkpoint);
    std::ostringstream model;
    SavePairModel(monitor->Model(kPair), model);
    std::ostringstream got;
    got << "checkpoint " << checkpoint.str().size() << " bytes fnv 0x"
        << std::hex << Fnv1a64(checkpoint.str())
        << ", model " << std::dec << model.str().size() << " bytes fnv 0x"
        << std::hex << Fnv1a64(model.str());
    EXPECT_EQ(checkpoint.str().size(), pin.checkpoint_bytes) << got.str();
    EXPECT_EQ(Fnv1a64(checkpoint.str()), pin.checkpoint_fnv) << got.str();
    EXPECT_EQ(model.str().size(), pin.model_bytes) << got.str();
    EXPECT_EQ(Fnv1a64(model.str()), pin.model_fnv) << got.str();
    if (pin.rows == 120) {
      EXPECT_GT(monitor->Model(kPair).Grid().CellCount(), learned_cells)
          << "the pinned pair's grid must extend";
    }
  }
}

// The golden scenario's headline numbers stay in a sane band even when
// regenerating — a tripwire against committing a degenerate trace.
TEST(GoldenTrace, ScenarioShapeIsSane) {
  const std::string rendered = RenderGoldenTrace();
  std::istringstream in(rendered);
  std::string line;
  std::size_t lines = 0, alarmed_lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("\"alarmed\":[]") == std::string::npos) ++alarmed_lines;
  }
  EXPECT_EQ(lines, 120u);
  // The decoupled second half must raise alarms; the healthy first half
  // must not drown the stream in them.
  EXPECT_GT(alarmed_lines, 5u);
  EXPECT_LT(alarmed_lines, 90u);
}

}  // namespace
}  // namespace pmcorr
