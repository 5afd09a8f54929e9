// Chaos harness for the serve subsystem's crash story, choreographed
// deterministically through manual-pump tenants: kill points swept
// across cadence checkpoints (every crash recovers a state the tenant
// actually reached, and the resumed run is bitwise-identical to a
// never-crashed oracle), torn final writes falling back a generation,
// poisoned tenants leaving their last-good checkpoint untouched, and
// the graceful-shutdown contract — drain checkpoints every tenant and
// a restart resumes exactly where the drained daemon stopped. Threaded
// tenants prove the writer-thread side: ingest steps on while a write
// is stuck, and every generation written is a cadence-boundary state.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "differential_util.h"
#include "io/atomic_file.h"
#include "io/monitor_io.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace pmcorr {
namespace {

using difftest::CheckpointString;

MeasurementFrame CorrelatedFrame(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const double load = 60.0 +
                        35.0 * std::sin(static_cast<double>(i) * 0.03) +
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

std::unique_ptr<SystemMonitor> MakeMonitor(std::uint64_t seed = 11) {
  const MeasurementFrame history = CorrelatedFrame(300, seed);
  return std::make_unique<SystemMonitor>(
      history, MeasurementGraph::FullMesh(history.MeasurementCount()),
      SmallConfig());
}

std::vector<SampleRow> Rows(const MeasurementFrame& frame) {
  std::vector<SampleRow> rows;
  rows.reserve(frame.SampleCount());
  for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
    SampleRow row;
    row.time = frame.TimeAt(t);
    for (std::size_t a = 0; a < frame.MeasurementCount(); ++a) {
      row.values.push_back(
          frame.Value(MeasurementId(static_cast<std::int32_t>(a)), t));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::unique_ptr<SystemMonitor> FromString(const std::string& checkpoint) {
  std::istringstream in(checkpoint);
  return LoadSystemMonitor(in, 1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Renders of an oracle fed `rows` through Step, taken after each row
/// count in `after` (ascending): the states the tenant's saves must hold.
std::vector<std::string> OracleRenders(const std::vector<SampleRow>& rows,
                                       const std::vector<std::size_t>& after) {
  std::vector<std::string> renders;
  auto oracle = MakeMonitor();
  std::size_t stepped = 0;
  for (const std::size_t count : after) {
    for (; stepped < count; ++stepped) {
      oracle->Step(rows[stepped].values, rows[stepped].time);
    }
    renders.push_back(CheckpointString(*oracle));
  }
  return renders;
}

TenantConfig ThreadedTenant(const std::string& path, std::size_t every,
                            std::size_t generations) {
  TenantConfig config;  // threaded, default watermarks
  config.name = "A";
  config.queue_budget = 256;
  config.checkpoint_path = path;
  config.checkpoint_every = every;
  config.checkpoint.generations = generations;
  return config;
}

class ChaosDir {
 public:
  explicit ChaosDir(const std::string& name)
      : dir_(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ChaosDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

TenantConfig ManualTenant(const std::string& name,
                          const std::string& checkpoint_path = "",
                          std::size_t checkpoint_every = 0) {
  TenantConfig config;
  config.name = name;
  config.queue_budget = 512;
  config.threaded = false;
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_every = checkpoint_every;
  return config;
}

// ---------------------------------------------------------------------
// Kill-point sweep: crash during any cadence checkpoint, recover, and
// the resumed run matches a never-crashed oracle bitwise.
// ---------------------------------------------------------------------

TEST(ServeChaos, EveryCheckpointKillPointRecoversToLastGood) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(60, 101));
  constexpr std::size_t kCadence = 20;

  // Reference pass, no faults: record the tenant's render at each
  // checkpoint boundary — the only states a recovery may land on.
  ChaosDir ref_dir("pmcorr_serve_chaos_ref");
  std::vector<std::string> good_renders;  // render after 20, 40, 60 rows
  {
    TenantRuntime tenant(
        ManualTenant("A", ref_dir.Path("a.ckpt"), kCadence), MakeMonitor());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
      if ((i + 1) % kCadence == 0) {
        good_renders.push_back(CheckpointString(tenant.Monitor()));
      }
    }
    ASSERT_EQ(tenant.Status().counters.checkpoints, 3u);
  }
  ASSERT_EQ(good_renders.size(), 3u);

  // Count the write points of the second checkpoint (the one we crash).
  long long write_points = 0;
  {
    ChaosDir dir("pmcorr_serve_chaos_probe");
    TenantRuntime tenant(ManualTenant("A", dir.Path("a.ckpt"), kCadence),
                         MakeMonitor());
    for (std::size_t i = 0; i < kCadence; ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
    }
    ScopedWriteFault probe(-1);  // count only
    for (std::size_t i = kCadence; i < 2 * kCadence; ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
    }
    write_points = probe.Seen();
    ASSERT_GT(write_points, 0);
  }

  for (long long kill = 0; kill < write_points; ++kill) {
    SCOPED_TRACE("kill point " + std::to_string(kill));
    ChaosDir dir("pmcorr_serve_chaos_kill");
    const std::string path = dir.Path("a.ckpt");
    {
      TenantRuntime tenant(ManualTenant("A", path, kCadence),
                           MakeMonitor());
      for (std::size_t i = 0; i < kCadence; ++i) {
        tenant.Submit(rows[i]);
        tenant.Pump(1);
      }
      ASSERT_EQ(tenant.Status().counters.checkpoints, 1u);
      // Crash mid-save of checkpoint 2: the tenant must absorb the
      // failure (counted, not fatal) and keep serving.
      {
        ScopedWriteFault crash(kill);
        for (std::size_t i = kCadence; i < 2 * kCadence; ++i) {
          tenant.Submit(rows[i]);
          tenant.Pump(1);
        }
      }
      const TenantStatus status = tenant.Status();
      EXPECT_EQ(status.counters.processed, 2 * kCadence);
      EXPECT_EQ(status.counters.checkpoints +
                    status.counters.checkpoint_failures,
                2u);
      // The process "dies" here: destructor, no drain, no final save.
    }

    // Recovery must land on a state the tenant actually reached —
    // checkpoint 2 if its save got far enough, else checkpoint 1.
    CheckpointRecoveryInfo info;
    auto recovered = LoadSystemMonitor(path, 1, &info);
    const std::string render = CheckpointString(*recovered);
    ASSERT_TRUE(render == good_renders[0] || render == good_renders[1])
        << "recovered a state the tenant never reached";

    // Resume: a tenant rebuilt from the recovered monitor, fed the rest
    // of the stream, must equal the never-crashed oracle resumed from
    // the same state — bitwise, through the serve path.
    const std::size_t resume_from =
        render == good_renders[1] ? 2 * kCadence : kCadence;
    TenantRuntime resumed(ManualTenant("A"), std::move(recovered));
    auto oracle = FromString(render == good_renders[1] ? good_renders[1]
                                                       : good_renders[0]);
    for (std::size_t i = resume_from; i < rows.size(); ++i) {
      resumed.Submit(rows[i]);
      resumed.Pump(1);
      oracle->Step(rows[i].values, rows[i].time);
    }
    EXPECT_EQ(CheckpointString(resumed.Monitor()), CheckpointString(*oracle));
  }
}

// ---------------------------------------------------------------------
// A failed cadence checkpoint is retried at the next cadence, not on
// every following row.
// ---------------------------------------------------------------------

TEST(ServeChaos, FailedCheckpointWaitsForTheNextCadence) {
  constexpr std::size_t kCadence = 10;
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(2 * kCadence, 131));
  ChaosDir dir("pmcorr_serve_chaos_retry");
  const std::string path = dir.Path("a.ckpt");
  TenantRuntime tenant(ManualTenant("A", path, kCadence), MakeMonitor());
  for (std::size_t i = 0; i + 1 < kCadence; ++i) {
    tenant.Submit(rows[i]);
    tenant.Pump(1);
  }
  {
    ScopedWriteFault fail(0);  // the save at row N fails at its first point
    tenant.Submit(rows[kCadence - 1]);
    tenant.Pump(1);
    EXPECT_TRUE(fail.Fired());
  }
  EXPECT_EQ(tenant.Status().counters.checkpoint_failures, 1u);
  EXPECT_TRUE(tenant.Status().last_checkpoint_failed);
  {
    ScopedWriteFault quiet(-1);  // rows N+1 .. 2N-1 write nothing
    for (std::size_t i = kCadence; i + 1 < 2 * kCadence; ++i) {
      tenant.Submit(rows[i]);
      tenant.Pump(1);
    }
    EXPECT_EQ(quiet.Seen(), 0);
  }
  tenant.Submit(rows[2 * kCadence - 1]);
  tenant.Pump(1);  // row 2N: the next cadence, which succeeds
  const TenantStatus status = tenant.Status();
  EXPECT_EQ(status.counters.checkpoint_failures, 1u);
  EXPECT_EQ(status.counters.checkpoints, 1u);
  EXPECT_FALSE(status.last_checkpoint_failed);
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(path, 1)),
            CheckpointString(tenant.Monitor()));
}

// ---------------------------------------------------------------------
// Under backpressure a due save waits until the queue has drained to
// one row above the low watermark, and the next save stays on the
// cadence's grid.
// ---------------------------------------------------------------------

TEST(ServeChaos, DueSaveUnderBackpressureWaitsForTheLowWatermark) {
  constexpr std::size_t kCadence = 10;
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(40, 141));
  ChaosDir dir("pmcorr_serve_chaos_hold");
  const std::string path = dir.Path("a.ckpt");
  TenantConfig config = ManualTenant("A", path, kCadence);
  config.queue_budget = 64;
  config.backpressure_high = 40;
  config.backpressure_low = 2;
  TenantRuntime tenant(config, MakeMonitor());
  for (const SampleRow& row : rows) tenant.Submit(row);
  ASSERT_TRUE(tenant.BackpressureEngaged());
  {
    // Due at row 10 with 30 rows queued: held while the queue drains.
    ScopedWriteFault quiet(-1);
    tenant.Pump(36);
    EXPECT_EQ(quiet.Seen(), 0);
    EXPECT_EQ(tenant.Status().counters.checkpoints, 0u);
  }
  tenant.Pump(1);  // row 37 leaves 3 rows queued: the held save runs
  EXPECT_TRUE(tenant.BackpressureEngaged());
  EXPECT_EQ(tenant.Status().counters.checkpoints, 1u);
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(path, 1)),
            CheckpointString(tenant.Monitor()));
  tenant.Pump(2);  // rows 38-39: the next save is due at row 40
  EXPECT_EQ(tenant.Status().counters.checkpoints, 1u);
  tenant.Pump(1);
  EXPECT_EQ(tenant.Status().counters.checkpoints, 2u);
  EXPECT_EQ(tenant.Status().counters.checkpoint_failures, 0u);
}

// ---------------------------------------------------------------------
// Torn final write: the drain seal fails, the previous generation must
// still be loadable and the failure visible in the drain report.
// ---------------------------------------------------------------------

TEST(ServeChaos, TornDrainSealFallsBackOneGeneration) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(40, 111));
  ChaosDir dir("pmcorr_serve_chaos_torn");
  const std::string path = dir.Path("a.ckpt");

  ServeCore core;
  core.AddTenant(ManualTenant("A", path, 20), MakeMonitor());
  TenantRuntime& tenant = core.Tenant(0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    tenant.Submit(rows[i]);
    tenant.Pump(1);
  }
  ASSERT_EQ(tenant.Status().counters.checkpoints, 2u);

  DrainedReply drained;
  {
    ScopedWriteFault torn(0);  // dies on the seal's very first write
    drained = core.Drain();
  }
  // The drain still completes — every queued row processed — but the
  // report is honest about the failed seal.
  ASSERT_EQ(drained.tenants.size(), 1u);
  EXPECT_EQ(drained.tenants[0].state,
            static_cast<std::uint8_t>(TenantState::kDrained));
  EXPECT_EQ(drained.tenants[0].processed, rows.size());
  EXPECT_EQ(drained.tenants[0].checkpoint, 2);  // failed
  EXPECT_EQ(tenant.Status().counters.checkpoint_failures, 1u);

  // The seal rotated the primary into .g1 before the write died, so the
  // primary slot is empty — but nothing torn is loadable, and recovery
  // probes straight through to the last cadence checkpoint (40 rows,
  // exactly the live engine's state) one generation back.
  EXPECT_FALSE(std::filesystem::exists(path));
  CheckpointRecoveryInfo info;
  auto recovered = LoadSystemMonitor(path, 1, &info);
  EXPECT_EQ(CheckpointString(*recovered), CheckpointString(tenant.Monitor()));
  EXPECT_EQ(info.generation, 1u);
}

// ---------------------------------------------------------------------
// Poison + checkpoint interplay: a poisoned tenant's last-good
// checkpoint survives, and its healthy neighbor drains normally.
// ---------------------------------------------------------------------

TEST(ServeChaos, PoisonedTenantKeepsLastGoodCheckpointAndNeighborDrains) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(50, 121));
  ChaosDir dir("pmcorr_serve_chaos_poison");

  ServeCore core;
  TenantConfig poisoned = ManualTenant("A", dir.Path("a.ckpt"), 20);
  poisoned.chaos_hook = [](std::uint64_t row) {
    if (row == 30) throw std::runtime_error("poison pill");
  };
  core.AddTenant(poisoned, MakeMonitor(122));
  core.AddTenant(ManualTenant("B", dir.Path("b.ckpt"), 20),
                 MakeMonitor(123));
  auto solo = MakeMonitor(123);

  std::string last_good;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    core.Tenant(0).Submit(rows[i]);
    core.Tenant(0).Pump(1);
    core.Tenant(1).Submit(rows[i]);
    core.Tenant(1).Pump(1);
    solo->Step(rows[i].values, rows[i].time);
    if (i + 1 == 20) last_good = CheckpointString(core.Tenant(0).Monitor());
  }
  ASSERT_EQ(core.Tenant(0).State(), TenantState::kPoisoned);

  const DrainedReply drained = core.Drain();
  EXPECT_EQ(drained.tenants[0].state,
            static_cast<std::uint8_t>(TenantState::kPoisoned));
  EXPECT_EQ(drained.tenants[0].checkpoint, 2);  // no good final seal
  EXPECT_EQ(drained.tenants[1].state,
            static_cast<std::uint8_t>(TenantState::kDrained));
  EXPECT_EQ(drained.tenants[1].checkpoint, 1);

  // A's checkpoint is exactly the last cadence save before the poison —
  // the drain did not touch it.
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(dir.Path("a.ckpt"), 1)),
            last_good);
  // B's seal equals the solo run: the neighbor's death cost B nothing.
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(dir.Path("b.ckpt"), 1)),
            CheckpointString(*solo));
}

// ---------------------------------------------------------------------
// Graceful shutdown with real worker threads: drain checkpoints every
// tenant, and a restarted daemon resumes bitwise where it stopped.
// ---------------------------------------------------------------------

TEST(ServeChaos, DrainCheckpointsEveryTenantAndRestartResumes) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(80, 131));
  ChaosDir dir("pmcorr_serve_chaos_drain");

  std::vector<std::string> sealed_renders(2);
  {
    ServeCore core;
    for (int t = 0; t < 2; ++t) {
      TenantConfig config;  // threaded: the real daemon lifecycle
      config.name = t == 0 ? "A" : "B";
      config.queue_budget = 256;
      config.checkpoint_path =
          dir.Path(std::string(t == 0 ? "a" : "b") + ".ckpt");
      core.AddTenant(config,
                     MakeMonitor(132 + static_cast<std::uint64_t>(t)));
    }
    // First half of the stream to both tenants, then SIGTERM-style
    // drain: queues finish, every tenant seals a final checkpoint.
    for (std::size_t i = 0; i < rows.size() / 2; ++i) {
      ASSERT_TRUE(core.Tenant(0).Submit(rows[i]).accepted);
      ASSERT_TRUE(core.Tenant(1).Submit(rows[i]).accepted);
    }
    const DrainedReply drained = core.Drain();
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(drained.tenants[static_cast<std::size_t>(t)].processed,
                rows.size() / 2);
      EXPECT_EQ(drained.tenants[static_cast<std::size_t>(t)].checkpoint, 1);
      // Every accepted row reached the engine before the seal.
      sealed_renders[static_cast<std::size_t>(t)] =
          CheckpointString(core.Tenant(static_cast<std::size_t>(t)).Monitor());
    }
  }

  // "Restart": load each tenant from its sealed checkpoint. The file
  // must hold the exact drained state.
  for (int t = 0; t < 2; ++t) {
    const std::string path =
        dir.Path(std::string(t == 0 ? "a" : "b") + ".ckpt");
    auto restored = LoadSystemMonitor(path, 1);
    ASSERT_EQ(CheckpointString(*restored),
              sealed_renders[static_cast<std::size_t>(t)])
        << "seal of tenant " << t << " lost state";

    // Resume the second half through a fresh tenant; the never-stopped
    // oracle is the same sealed state fed the same rows directly.
    TenantRuntime resumed(ManualTenant("R"), std::move(restored));
    auto oracle = FromString(sealed_renders[static_cast<std::size_t>(t)]);
    for (std::size_t i = rows.size() / 2; i < rows.size(); ++i) {
      ASSERT_TRUE(resumed.Submit(rows[i]).accepted);
      resumed.Pump(1);
      oracle->Step(rows[i].values, rows[i].time);
    }
    EXPECT_EQ(CheckpointString(resumed.Monitor()), CheckpointString(*oracle));
  }
}

// ---------------------------------------------------------------------
// Abrupt destruction (the crash path) drops queued rows without
// touching disk: recovery sees the last cadence checkpoint only.
// ---------------------------------------------------------------------

TEST(ServeChaos, DestructionWithoutDrainWritesNothing) {
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(30, 141));
  ChaosDir dir("pmcorr_serve_chaos_crash");
  const std::string path = dir.Path("a.ckpt");

  std::string cadence_render;
  {
    TenantRuntime tenant(ManualTenant("A", path, 10), MakeMonitor());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      tenant.Submit(rows[i]);
      if (i < 25) tenant.Pump(1);  // 5 rows left in the queue at "crash"
      if (i + 1 == 20) cadence_render = CheckpointString(tenant.Monitor());
    }
    EXPECT_EQ(tenant.Status().queue_rows, 5u);
    // Destructor: the crash. No drain, no seal.
  }
  EXPECT_EQ(CheckpointString(*LoadSystemMonitor(path, 1)), cadence_render);
  EXPECT_FALSE(std::filesystem::exists(path + ".g2"));
}

// ---------------------------------------------------------------------
// Threaded checkpoints: the worker encodes at the due row and the
// writer thread does the disk work, so ingest keeps stepping while a
// write is stuck, and each generation holds a cadence-boundary state.
// ---------------------------------------------------------------------

// Write-fault hook that parks the first write to reach its fsync point
// until Release(); later writes pass straight through. The hook runs on
// the tenants' writer threads, so the gate must outlive every tenant.
class SyncGate {
 public:
  SyncGate() {
    previous_ = SetWriteFaultHookForTest(
        [this](const std::string&, WriteStage stage) { OnStage(stage); });
  }
  ~SyncGate() { SetWriteFaultHookForTest(std::move(previous_)); }
  SyncGate(const SyncGate&) = delete;
  SyncGate& operator=(const SyncGate&) = delete;

  void Release() PMCORR_EXCLUDES(mu_) {
    {
      const MutexLock lock(mu_);
      released_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  void OnStage(WriteStage stage) PMCORR_EXCLUDES(mu_) {
    if (stage != WriteStage::kSync) return;
    const MutexLock lock(mu_);
    if (syncs_++ > 0) return;
    while (!released_) cv_.Wait(mu_);
  }

  Mutex mu_;
  CondVar cv_;
  int syncs_ PMCORR_GUARDED_BY(mu_) = 0;
  bool released_ PMCORR_GUARDED_BY(mu_) = false;
  WriteFaultHook previous_;
};

// Releases the gate on scope exit, so an assertion that returns early
// unparks the writer before the tenant's destructor joins it.
struct ReleaseOnExit {
  SyncGate& gate;
  ~ReleaseOnExit() { gate.Release(); }
};

TEST(ServeChaos, IngestKeepsSteppingWhileACheckpointWriteIsBlocked) {
  constexpr std::size_t kCadence = 10;
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(25, 151));
  // The saves at rows 10 and 20, then the drain seal at row 25.
  const std::vector<std::string> want = OracleRenders(rows, {10, 20, 25});
  ChaosDir dir("pmcorr_serve_chaos_blocked");
  const std::string path = dir.Path("a.ckpt");

  SyncGate gate;  // installed before the tenant's writer starts
  {
    TenantRuntime tenant(ThreadedTenant(path, kCadence, 4), MakeMonitor());
    const ReleaseOnExit release{gate};
    for (const SampleRow& row : rows) {
      ASSERT_TRUE(tenant.Submit(row).accepted);
    }
    // Row 10's write is parked at its fsync. The worker steps on, and
    // row 20's save waits for that write before it encodes; the pause
    // gives a worker that did not wait the time to run past row 20.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (tenant.Status().counters.processed < 2 * kCadence &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    TenantStatus status = tenant.Status();
    EXPECT_EQ(status.counters.processed, 2 * kCadence);
    EXPECT_EQ(status.counters.checkpoints, 0u);

    gate.Release();
    tenant.Drain();
    status = tenant.Status();
    EXPECT_EQ(status.counters.processed, rows.size());
    EXPECT_EQ(status.counters.checkpoints, 3u);
    EXPECT_EQ(status.counters.checkpoint_failures, 0u);
  }
  EXPECT_EQ(ReadFile(path + ".g2"), want[0]);
  EXPECT_EQ(ReadFile(path + ".g1"), want[1]);
  EXPECT_EQ(ReadFile(path), want[2]);
}

TEST(ServeChaos, ThreadedCadenceGenerationsAreCadenceBoundaryStates) {
  constexpr std::size_t kCadence = 5;
  const std::vector<SampleRow> rows = Rows(CorrelatedFrame(60, 161));
  std::vector<std::size_t> boundaries;
  for (std::size_t n = kCadence; n <= rows.size(); n += kCadence) {
    boundaries.push_back(n);
  }
  const std::vector<std::string> want = OracleRenders(rows, boundaries);
  ASSERT_EQ(want.size(), 12u);
  ChaosDir dir("pmcorr_serve_chaos_grid");
  const std::string path = dir.Path("a.ckpt");
  {
    // 60 rows stay below the default high watermark, so no save is held
    // and every one lands on the cadence grid: 12 saves, then the seal.
    TenantRuntime tenant(ThreadedTenant(path, kCadence, 16), MakeMonitor());
    for (const SampleRow& row : rows) {
      ASSERT_TRUE(tenant.Submit(row).accepted);
    }
    tenant.Drain();
    EXPECT_EQ(tenant.Status().counters.backpressure_raises, 0u);
    EXPECT_EQ(tenant.Status().counters.checkpoints, 13u);
  }
  EXPECT_EQ(ReadFile(path), want.back());
  for (std::size_t k = 1; k <= 12; ++k) {
    EXPECT_EQ(ReadFile(path + ".g" + std::to_string(k)), want[12 - k])
        << "generation " << k;
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".g13"));
}

}  // namespace
}  // namespace pmcorr
