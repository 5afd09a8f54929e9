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
//    retries at the next cadence). A save has two halves: the worker
//    encodes the engine between two rows, then hands the bytes to the
//    tenant's writer thread, which rotates the generations and writes,
//    fsyncs and renames while the worker steps on. At most one write is
//    in flight: a due save first waits for the previous write. Under
//    backpressure a due save is held until the queue has drained to
//    just above the low watermark. Drain() finishes the queue, waits
//    for the write in flight, then writes a final checkpoint and waits
//    for it; destruction without Drain is the crash path — it writes no
//    seal (a write already handed off still lands), and recovery falls
//    back to the last good generation.
//
// Batched ingest. The worker (or Pump) takes up to kBatchRows queued
// rows at a time into column scratch and steps them in one multi-row
// SystemMonitor::Step, which runs them pair-major with the guard clock
// carried, so the engine's outputs are those of one Step per row. A
// batch ends after the cadence row, after the row at which a held save's
// hold ends, and before the row whose pop clears backpressure; saves,
// watermark edges and chaos-hook poison land on the rows one-row
// batches give them (exactly so in manual mode, where a Pump of k rows
// does what k one-row Pumps do). An engine throw the quarantine does
// not contain poisons the tenant at its batch's first row. Queries see
// the state after each batch: the published snapshot is the batch's
// last row. A finished retrain rebuild is adopted at a batch's first
// row.
//
// Thread shape: Submit (the daemon's socket loop), the worker and the
// writer meet only at the tenant mutex; the engine is touched by the
// worker alone, the checkpoint files by the writer alone. Queries never
// take any lock — they read the last published state through an atomic
// shared_ptr. The writer exists only when checkpoint_path is set. With
// threaded = false no worker is spawned and Pump()/Drain() process rows
// on the caller's thread, returning only after every write they started
// has landed — the deterministic mode the chaos tests choreograph.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

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
  /// still checkpoints when checkpoint_path is set). The worker encodes
  /// the engine at the due row and the writer thread writes it, so the
  /// file holds the state after exactly that row. While backpressure
  /// is engaged a due checkpoint waits until the queue holds at most
  /// backpressure_low + 1 rows, or queue_budget rows past due; the next
  /// one is still due N rows after this one was.
  std::size_t checkpoint_every = 0;
  /// Checkpoint file ("" = checkpointing off).
  std::string checkpoint_path;
  CheckpointConfig checkpoint;
  /// Chaos knob: sleep this long per processed row (a batch of n rows
  /// sleeps n times this before it steps) — a slow consumer that forces
  /// queue growth at replay speed.
  std::int64_t ingest_delay_ms = 0;
  /// false = no worker thread; rows advance only through Pump()/Drain().
  bool threaded = true;
  /// Chaos hook: called with the 0-based index of each row before the
  /// engine steps the batch that holds it. A throw at row k poisons the
  /// tenant with rows [0, k) stepped and published and row k not, just
  /// as if the engine had thrown stepping it — exactly the
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
  /// Checkpoint writes that landed (renamed into place) and attempts
  /// that failed, each counted when the write finishes on the writer
  /// thread, not when the worker encodes it.
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
/// wholesale after each processed batch (the snapshot is the batch's
/// last row; the totals count every row of it). Readers hold a
/// shared_ptr, so a reply is consistent even while the worker publishes
/// the next one.
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
  /// Rows one engine call steps at most. A batch runs pair-major (each
  /// pair's model stays in cache across its rows) and pays the engine's
  /// per-call set-up and the publish once; but every row of a batch is
  /// published when its last row is stepped, so a wider batch delays its
  /// first rows. On perfbench's 171-pair serve_catchup tenant (4 vCPU,
  /// GCC 12, Release, one engine thread), caps of 16 and 32 ran at
  /// x1.15-1.21 and x1.11-1.26 the rows/s of one-row calls (two seeds,
  /// 14.3 and 25.0 rows per call). Against one-row calls without the
  /// split rank count (docs/kernels.md) they ran at pair medians of
  /// x1.39 and x1.37 over 12 interleaved seeds, but 32 had the worse
  /// outliers (x1.10 and x1.18 against 16's worst x1.29) and no better
  /// median row latency.
  static constexpr std::size_t kBatchRows = 16;

  TenantRuntime(TenantConfig config, std::unique_ptr<SystemMonitor> monitor);

  /// Abrupt stop: the worker is told to quit after its current batch;
  /// queued rows are dropped and NO final checkpoint is written. A
  /// cadence write already handed to the writer lands (or fails) before
  /// the writer is joined. This is deliberately crash-shaped — the
  /// graceful exit is Drain().
  ~TenantRuntime();

  TenantRuntime(const TenantRuntime&) = delete;
  TenantRuntime& operator=(const TenantRuntime&) = delete;

  /// Offers one row. Never blocks: the row is queued, shed (queue
  /// full), or rejected (wrong width / tenant not active).
  AdmitResult Submit(const SampleRow& row) PMCORR_EXCLUDES(mu_);

  /// Graceful shutdown: stop admitting, process every queued row, wait
  /// for the write in flight, write the final checkpoint and wait for
  /// it, move to kDrained. Blocks until done (in manual mode, processes
  /// inline). Poisoned tenants return immediately — their last-good
  /// checkpoint must stay untouched.
  void Drain() PMCORR_EXCLUDES(mu_);

  /// Manual mode: processes up to max_rows queued rows on the caller's
  /// thread, in batches cut as the worker cuts them; returns rows
  /// processed, after every checkpoint write it started has landed.
  /// Throws std::logic_error when a worker thread owns the engine.
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
  /// Writes each save handed to it, one at a time, until stopped.
  void WriterLoop() PMCORR_EXCLUDES(mu_);
  /// The one ingest loop, shared by the worker (`wait`: block for rows
  /// while the tenant is active) and Pump (return when the queue is
  /// dry): takes a batch, steps and publishes it, then runs a due save.
  /// Returns the rows processed, at most max_rows; stops early on an
  /// abrupt stop or poison.
  std::size_t BatchLoop(std::size_t max_rows, bool wait) PMCORR_EXCLUDES(mu_);
  /// Moves up to `limit` queued rows into the column scratch, cut as the
  /// header describes, and returns how many; clears backpressure on the
  /// pop that reaches the low watermark.
  std::size_t TakeBatchLocked(std::size_t limit) PMCORR_REQUIRES(mu_);
  /// Whether a due save waits, `rows_since` rows after the last one.
  bool SaveHeldLocked(std::uint64_t rows_since) const PMCORR_REQUIRES(mu_);
  /// Runs the chaos hook over the batch's n rows, steps the rows ahead
  /// of any throw in one engine call and publishes them, and poisons the
  /// tenant on a throw from the hook or the engine. Returns the rows
  /// processed.
  std::size_t StepBatch(std::size_t n) PMCORR_EXCLUDES(mu_);
  /// Adds the batch's alarms and suppressed values to the lifetime
  /// totals and publishes its last snapshot.
  void Publish(std::size_t n);
  /// When a save is due: encodes the engine into save_bytes_ and hands
  /// it to the writer (waiting for it in manual mode and for a seal).
  void MaybeCheckpoint(bool final_checkpoint) PMCORR_EXCLUDES(mu_);
  /// Blocks until no write is pending; save_bytes_ is then the ingest
  /// side's again.
  void AwaitWrite() PMCORR_EXCLUDES(mu_);
  /// Counts a finished save attempt (`error` says why one failed).
  void CountSaveLocked(bool landed, const std::string& error)
      PMCORR_REQUIRES(mu_);
  void Poison(const std::string& what) PMCORR_EXCLUDES(mu_);

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
  CondVar write_cv_;    // wakes the writer, and a save awaiting its write
  std::deque<SampleRow> queue_ PMCORR_GUARDED_BY(mu_);
  TenantState state_ PMCORR_GUARDED_BY(mu_) = TenantState::kActive;
  TenantCounters counters_ PMCORR_GUARDED_BY(mu_);
  bool backpressure_ PMCORR_GUARDED_BY(mu_) = false;
  bool stop_ PMCORR_GUARDED_BY(mu_) = false;
  bool last_checkpoint_failed_ PMCORR_GUARDED_BY(mu_) = false;
  std::string last_error_ PMCORR_GUARDED_BY(mu_);
  /// A save has been handed to the writer and has not landed yet.
  bool write_pending_ PMCORR_GUARDED_BY(mu_) = false;
  /// Set once the worker is joined: the writer exits when idle.
  bool writer_stop_ PMCORR_GUARDED_BY(mu_) = false;

  std::atomic<std::shared_ptr<const TenantPublishedState>> published_;

  // Worker-only state (manual mode: Pump/Drain caller). The batch
  // scratch: measurement a's values at batch_values_[a * kBatchRows + t],
  // the rows' timestamps, the column spans bound to them, and one
  // snapshot slot per row, reused across batches.
  std::vector<double> batch_values_;
  std::vector<TimePoint> batch_times_;
  std::vector<std::span<const double>> batch_cols_;
  std::vector<SystemSnapshot> batch_snaps_;
  std::uint64_t processed_total_ = 0;
  std::uint64_t alarms_total_ = 0;
  std::uint64_t suppressed_total_ = 0;
  std::uint64_t rows_since_checkpoint_ = 0;

  /// The encoded checkpoint. Handoff: the ingest side (worker, or the
  /// Pump/Drain caller) owns it while write_pending_ is false and
  /// encodes into it; setting write_pending_ under mu_ hands it to the
  /// writer, which reads it without the lock and hands it back by
  /// clearing write_pending_ under mu_ once the write has landed. The
  /// buffer keeps its capacity, so steady-state saves do not allocate it.
  std::string save_bytes_;

  std::thread worker_;
  std::thread writer_;
};

}  // namespace pmcorr
