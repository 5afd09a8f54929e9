// TenantRuntime — one tenant group of the serve daemon: its own
// SystemMonitor (with IngestGuard, PairQuarantine and the shared
// RetrainPool behind MonitorConfig::retrain), a bounded ingest queue
// with watermark backpressure and whole-tick overload shedding, a
// lock-free published snapshot for queries, cadence checkpointing, and
// a drain-then-checkpoint lifecycle.
//
// Robustness doctrine, in order of importance:
//
//  * Bounded memory. The queue never exceeds queue_budget rows; an
//    arriving row that finds it full is shed whole — never split, never
//    partially applied. A shed tick is indistinguishable from a
//    collector outage, which is exactly the degradation the IngestGuard
//    already models: the next accepted row surfaces as a gap event and
//    the models cross the discontinuity through a sequence break.
//    Suppression-only degradation means alarms never increase under
//    shedding (the guard removes evidence, it never fabricates any).
//
//  * Fault isolation. Each tenant owns its engine and its worker; a row
//    that makes the engine throw (with the quarantine unable to contain
//    it) poisons only this tenant — state kPoisoned, queue dropped,
//    last-good checkpoint left untouched — while every other tenant's
//    stream continues bit-for-bit as if the poisoned one never existed.
//
//  * Crash-safe progress. Checkpoints go through the atomic, CRC-framed
//    rotation of io/monitor_io.h on a row cadence; a checkpoint failure
//    is a counted event, not a crash (the tenant keeps serving and
//    retries at the next cadence). A save runs on the worker between two
//    rows, so queued rows wait for it; under backpressure a due save is
//    held until the queue has drained to just above the low watermark.
//    Drain() finishes the queue and writes a final checkpoint;
//    destruction without Drain is the crash path — recovery falls back
//    to the last good generation.
//
// Thread shape: Submit (the daemon's socket loop) and the worker meet
// only at the queue mutex; the engine is touched by the worker alone.
// Queries never take any lock — they read the last published state
// through an atomic shared_ptr. With threaded = false no worker is
// spawned and Pump()/Drain() process rows on the caller's thread — the
// deterministic mode the chaos tests choreograph.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "engine/monitor.h"
#include "io/csv.h"
#include "io/monitor_io.h"

namespace pmcorr {

struct TenantConfig {
  std::string name;
  /// Ingest queue capacity in rows — the tenant's memory budget.
  std::size_t queue_budget = 256;
  /// Backpressure watermarks; 0 resolves to 3/4 and 1/4 of the budget.
  std::size_t backpressure_high = 0;
  std::size_t backpressure_low = 0;
  /// Checkpoint after every N processed rows (0 = cadence off; a drain
  /// still checkpoints when checkpoint_path is set). While backpressure
  /// is engaged a due checkpoint waits until the queue holds at most
  /// backpressure_low + 1 rows, or queue_budget rows past due; the next
  /// one is still due N rows after this one was.
  std::size_t checkpoint_every = 0;
  /// Checkpoint file ("" = checkpointing off).
  std::string checkpoint_path;
  CheckpointConfig checkpoint;
  /// Chaos knob: sleep this long before each processed row — a slow
  /// consumer that forces queue growth at replay speed.
  std::int64_t ingest_delay_ms = 0;
  /// false = no worker thread; rows advance only through Pump()/Drain().
  bool threaded = true;
  /// Chaos hook: called with the 0-based index of each row just before
  /// the engine steps it. A throw from here is indistinguishable from
  /// the engine throwing — it poisons the tenant, which is exactly the
  /// fault-isolation contract the chaos tests exercise.
  std::function<void(std::uint64_t)> chaos_hook;
};

enum class TenantState : std::uint8_t {
  kActive = 0,
  kDraining = 1,
  kDrained = 2,
  /// The engine threw out of a row and cannot continue; the tenant is
  /// fenced off, its queue dropped, its last checkpoint untouched.
  kPoisoned = 3,
};

struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  /// Whole rows dropped at a full queue.
  std::uint64_t shed_ticks = 0;
  /// Rows refused outright (wrong width, or tenant not active).
  std::uint64_t rejected = 0;
  std::uint64_t processed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t backpressure_raises = 0;
  std::uint64_t backpressure_clears = 0;
  /// High-water mark of the queue — the memory-budget proof.
  std::uint64_t max_queue_rows = 0;
};

/// Mutex-protected view, copied out whole by Status().
struct TenantStatus {
  TenantState state = TenantState::kActive;
  TenantCounters counters;
  std::size_t queue_rows = 0;
  std::size_t queue_budget = 0;
  bool backpressure = false;
  /// True when the most recent checkpoint attempt failed — a success
  /// resets it, so this reports the state of the *current* seal.
  bool last_checkpoint_failed = false;
  std::string last_error;
};

/// The lock-free published state: everything a query needs, replaced
/// wholesale after each processed row. Readers hold a shared_ptr, so a
/// reply is consistent even while the worker publishes the next one.
struct TenantPublishedState {
  bool has_snapshot = false;
  SystemSnapshot snapshot;
  std::uint64_t processed = 0;
  std::uint64_t alarms_total = 0;
  std::uint64_t suppressed_total = 0;
};

/// What Submit did with a row.
struct AdmitResult {
  bool accepted = false;
  bool shed = false;
  bool rejected = false;
  std::size_t queue_rows = 0;
};

class TenantRuntime {
 public:
  TenantRuntime(TenantConfig config, std::unique_ptr<SystemMonitor> monitor);

  /// Abrupt stop: the worker is told to quit after its current row;
  /// queued rows are dropped and NO final checkpoint is written. This
  /// is deliberately crash-shaped — the graceful exit is Drain().
  ~TenantRuntime();

  TenantRuntime(const TenantRuntime&) = delete;
  TenantRuntime& operator=(const TenantRuntime&) = delete;

  /// Offers one row. Never blocks: the row is queued, shed (queue
  /// full), or rejected (wrong width / tenant not active).
  AdmitResult Submit(const SampleRow& row) PMCORR_EXCLUDES(mu_);

  /// Graceful shutdown: stop admitting, process every queued row, write
  /// the final checkpoint, move to kDrained. Blocks until done (in
  /// manual mode, processes inline). Poisoned tenants return
  /// immediately — their last-good checkpoint must stay untouched.
  void Drain() PMCORR_EXCLUDES(mu_);

  /// Manual mode: processes up to max_rows queued rows on the caller's
  /// thread; returns rows processed. Throws std::logic_error when a
  /// worker thread owns the engine.
  std::size_t Pump(std::size_t max_rows) PMCORR_EXCLUDES(mu_);

  TenantStatus Status() const PMCORR_EXCLUDES(mu_);
  TenantState State() const PMCORR_EXCLUDES(mu_);
  bool BackpressureEngaged() const PMCORR_EXCLUDES(mu_);

  /// Last published state (never null; has_snapshot false before the
  /// first processed row). Lock-free.
  std::shared_ptr<const TenantPublishedState> Published() const {
    return published_.load(std::memory_order_acquire);
  }

  /// The engine. Safe for concurrent readers only where the member is
  /// immutable while serving (the graph's topology — drill-down's use);
  /// anything else requires the tenant to be idle or drained.
  const SystemMonitor& Monitor() const { return *monitor_; }

  const TenantConfig& Config() const { return config_; }

 private:
  void WorkerLoop();
  /// Steps the engine with one row and publishes the result. Engine
  /// exceptions propagate to the caller (who poisons the tenant).
  void ProcessRow(const SampleRow& row);
  void MaybeCheckpoint(bool final_checkpoint) PMCORR_EXCLUDES(mu_);
  void Poison(const std::string& what) PMCORR_EXCLUDES(mu_);
  /// Pops the next row into row_scratch_; clears backpressure at the
  /// low watermark.
  bool PopRowLocked() PMCORR_REQUIRES(mu_);

  TenantConfig config_;
  std::size_t high_watermark_ = 0;
  std::size_t low_watermark_ = 0;
  /// Cached monitor width — Submit validates rows without touching the
  /// engine the worker is stepping.
  std::size_t width_ = 0;
  std::unique_ptr<SystemMonitor> monitor_;

  mutable Mutex mu_;
  CondVar work_cv_;     // wakes the worker
  CondVar drained_cv_;  // wakes Drain()
  std::deque<SampleRow> queue_ PMCORR_GUARDED_BY(mu_);
  TenantState state_ PMCORR_GUARDED_BY(mu_) = TenantState::kActive;
  TenantCounters counters_ PMCORR_GUARDED_BY(mu_);
  bool backpressure_ PMCORR_GUARDED_BY(mu_) = false;
  bool stop_ PMCORR_GUARDED_BY(mu_) = false;
  bool last_checkpoint_failed_ PMCORR_GUARDED_BY(mu_) = false;
  std::string last_error_ PMCORR_GUARDED_BY(mu_);

  std::atomic<std::shared_ptr<const TenantPublishedState>> published_;

  // Worker-only state (manual mode: Pump/Drain caller).
  SampleRow row_scratch_;
  SystemSnapshot snap_scratch_;
  std::uint64_t processed_total_ = 0;
  std::uint64_t alarms_total_ = 0;
  std::uint64_t suppressed_total_ = 0;
  std::uint64_t rows_since_checkpoint_ = 0;

  std::thread worker_;
};

}  // namespace pmcorr
