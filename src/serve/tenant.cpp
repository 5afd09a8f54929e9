#include "serve/tenant.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

namespace pmcorr {

TenantRuntime::TenantRuntime(TenantConfig config,
                             std::unique_ptr<SystemMonitor> monitor)
    : config_(std::move(config)), monitor_(std::move(monitor)) {
  if (config_.queue_budget == 0) config_.queue_budget = 1;
  high_watermark_ = config_.backpressure_high != 0
                        ? config_.backpressure_high
                        : std::max<std::size_t>(
                              1, config_.queue_budget * 3 / 4);
  high_watermark_ = std::min(high_watermark_, config_.queue_budget);
  low_watermark_ = config_.backpressure_low != 0 ? config_.backpressure_low
                                                 : config_.queue_budget / 4;
  if (low_watermark_ >= high_watermark_) {
    low_watermark_ = high_watermark_ - 1;
  }
  width_ = monitor_->MeasurementCount();
  batch_values_.resize(width_ * kBatchRows);
  batch_times_.resize(kBatchRows);
  batch_cols_.resize(width_);
  batch_snaps_.resize(kBatchRows);
  published_.store(std::make_shared<const TenantPublishedState>(),
                   std::memory_order_release);
  if (!config_.checkpoint_path.empty()) {
    writer_ = std::thread(&TenantRuntime::WriterLoop, this);
  }
  if (config_.threaded) {
    worker_ = std::thread(&TenantRuntime::WorkerLoop, this);
  }
}

TenantRuntime::~TenantRuntime() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
  // Nothing can be handed off any more: the writer lands a write it
  // already holds, then exits.
  {
    const MutexLock lock(mu_);
    writer_stop_ = true;
  }
  write_cv_.NotifyAll();
  if (writer_.joinable()) writer_.join();
}

AdmitResult TenantRuntime::Submit(const SampleRow& row) {
  AdmitResult result;
  {
    const MutexLock lock(mu_);
    ++counters_.submitted;
    if (state_ != TenantState::kActive || row.values.size() != width_) {
      ++counters_.rejected;
      result.rejected = true;
      result.queue_rows = queue_.size();
      return result;
    }
    if (queue_.size() >= config_.queue_budget) {
      // Overload: shed the whole arriving tick. Nothing partial enters
      // the queue, so the engine's view stays a clean prefix of the
      // stream plus gaps — exactly what the IngestGuard models.
      ++counters_.shed_ticks;
      result.shed = true;
      result.queue_rows = queue_.size();
      return result;
    }
    queue_.push_back(row);
    ++counters_.accepted;
    result.accepted = true;
    result.queue_rows = queue_.size();
    counters_.max_queue_rows =
        std::max<std::uint64_t>(counters_.max_queue_rows, queue_.size());
    if (!backpressure_ && queue_.size() >= high_watermark_) {
      backpressure_ = true;
      ++counters_.backpressure_raises;
    }
  }
  work_cv_.NotifyOne();
  return result;
}

bool TenantRuntime::SaveHeldLocked(std::uint64_t rows_since) const {
  // Every row queued behind a save waits for it. While backpressure is
  // engaged the producer is paused and the queue only drains, so a due
  // save is held until the queue is down to one row above the low
  // watermark — still engaged, so no refill arrives during the save. A
  // producer that ignores backpressure gets the save at most one queue
  // budget of rows late.
  return backpressure_ && queue_.size() > low_watermark_ + 1 &&
         rows_since < config_.checkpoint_every + config_.queue_budget;
}

std::size_t TenantRuntime::TakeBatchLocked(std::size_t limit) {
  const bool cadence =
      !config_.checkpoint_path.empty() && config_.checkpoint_every != 0;
  std::size_t n = 0;
  while (n < limit && !queue_.empty()) {
    // The row whose pop clears backpressure starts a batch, so the clear
    // comes after the rows ahead of it are stepped, as with one-row
    // batches.
    if (n > 0 && backpressure_ && queue_.size() - 1 <= low_watermark_) break;
    const SampleRow& row = queue_.front();
    for (std::size_t a = 0; a < width_; ++a) {
      batch_values_[a * kBatchRows + n] = row.values[a];
    }
    batch_times_[n] = row.time;
    queue_.pop_front();
    ++n;
    if (backpressure_ && queue_.size() <= low_watermark_) {
      backpressure_ = false;
      ++counters_.backpressure_clears;
    }
    // A batch ends at the row after which a save runs: the cadence row,
    // or, while a due save is held, the row at which the hold ends.
    const std::uint64_t rows_since = rows_since_checkpoint_ + n;
    if (cadence && rows_since >= config_.checkpoint_every &&
        !SaveHeldLocked(rows_since)) {
      break;
    }
  }
  return n;
}

std::size_t TenantRuntime::StepBatch(std::size_t n) {
  // The chaos hook sees every row of the batch before the engine steps
  // any; a throw at row k poisons the tenant once the rows ahead of k
  // are stepped and published, as one-row batches would leave it.
  std::size_t good = n;
  std::string hook_error;
  if (config_.chaos_hook) {
    for (std::size_t k = 0; k < n; ++k) {
      try {
        config_.chaos_hook(processed_total_ + k);
      } catch (const std::exception& e) {
        good = k;
        hook_error = e.what();
        break;
      }
    }
  }
  if (good > 0) {
    for (std::size_t a = 0; a < width_; ++a) {
      batch_cols_[a] = std::span<const double>(
          batch_values_.data() + a * kBatchRows, good);
    }
    try {
      monitor_->Step(batch_cols_,
                     std::span<const TimePoint>(batch_times_.data(), good),
                     std::span<SystemSnapshot>(batch_snaps_.data(), good));
    } catch (const std::exception& e) {
      // The engine's state past the batch's first row is abandoned with
      // the tenant, so nothing of the batch is counted or published.
      Poison(e.what());
      return 0;
    }
    Publish(good);
    const MutexLock lock(mu_);
    counters_.processed += good;
  }
  if (good < n) Poison(hook_error);
  return good;
}

void TenantRuntime::Publish(std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    alarms_total_ += batch_snaps_[k].alarmed_pairs.size();
    suppressed_total_ += batch_snaps_[k].suppressed_values;
  }
  processed_total_ += n;
  rows_since_checkpoint_ += n;
  auto next = std::make_shared<TenantPublishedState>();
  next->has_snapshot = true;
  next->snapshot = batch_snaps_[n - 1];
  next->processed = processed_total_;
  next->alarms_total = alarms_total_;
  next->suppressed_total = suppressed_total_;
  published_.store(std::move(next), std::memory_order_release);
}

std::size_t TenantRuntime::BatchLoop(std::size_t max_rows, bool wait) {
  std::size_t done = 0;
  while (done < max_rows) {
    std::size_t n = 0;
    {
      const MutexLock lock(mu_);
      while (wait && queue_.empty() && state_ == TenantState::kActive &&
             !stop_) {
        work_cv_.Wait(mu_);
      }
      // An abrupt stop drops the queued rows; a poisoned tenant is done.
      if (stop_ || state_ == TenantState::kPoisoned) break;
      n = TakeBatchLocked(std::min(kBatchRows, max_rows - done));
    }
    if (n == 0) break;  // the queue is dry (draining, or a manual pump)
    if (config_.ingest_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          config_.ingest_delay_ms * static_cast<std::int64_t>(n)));
    }
    const std::size_t stepped = StepBatch(n);
    done += stepped;
    if (stepped < n) break;  // poisoned
    MaybeCheckpoint(/*final_checkpoint=*/false);
  }
  return done;
}

void TenantRuntime::MaybeCheckpoint(bool final_checkpoint) {
  if (config_.checkpoint_path.empty()) return;
  if (final_checkpoint) {
    rows_since_checkpoint_ = 0;
  } else {
    if (config_.checkpoint_every == 0) return;
    if (rows_since_checkpoint_ < config_.checkpoint_every) return;
    {
      const MutexLock lock(mu_);
      if (SaveHeldLocked(rows_since_checkpoint_)) return;
    }
    // Counted from the due row, before the attempt: a held save keeps
    // the next one on the cadence's row grid (several held past due
    // collapse into this one), and a failed save waits for the next
    // cadence like a successful one instead of retrying on every row.
    rows_since_checkpoint_ %= config_.checkpoint_every;
  }
  // At most one write in flight: the buffer is the writer's until its
  // write lands. The encode then runs here, between two rows, and only
  // the disk work moves to the writer.
  AwaitWrite();
  try {
    EncodeSystemMonitor(*monitor_, save_bytes_);
  } catch (const std::exception& e) {
    const MutexLock lock(mu_);
    CountSaveLocked(/*landed=*/false, e.what());
    return;
  }
  {
    const MutexLock lock(mu_);
    write_pending_ = true;
  }
  write_cv_.NotifyAll();
  // Manual mode returns only after its writes land, so the chaos tests'
  // faults fire inside the Pump or Drain that started the save; a seal
  // lands before the tenant reports kDrained.
  if (final_checkpoint || !config_.threaded) AwaitWrite();
}

void TenantRuntime::AwaitWrite() {
  const MutexLock lock(mu_);
  while (write_pending_) write_cv_.Wait(mu_);
}

void TenantRuntime::CountSaveLocked(bool landed, const std::string& error) {
  if (landed) {
    ++counters_.checkpoints;
    last_checkpoint_failed_ = false;
    return;
  }
  // A failed checkpoint is a counted degradation, not a crash: the
  // tenant keeps serving from memory and retries at the next cadence;
  // recovery falls back to the previous good generation.
  ++counters_.checkpoint_failures;
  last_checkpoint_failed_ = true;
  last_error_ = error;
}

void TenantRuntime::WriterLoop() {
  for (;;) {
    {
      const MutexLock lock(mu_);
      while (!write_pending_ && !writer_stop_) write_cv_.Wait(mu_);
      if (!write_pending_) return;
    }
    // save_bytes_ is the writer's until write_pending_ is cleared.
    bool landed = true;
    std::string error;
    try {
      WriteCheckpointFile(config_.checkpoint_path, save_bytes_,
                          config_.checkpoint);
    } catch (const std::exception& e) {
      landed = false;
      error = e.what();
    }
    {
      const MutexLock lock(mu_);
      CountSaveLocked(landed, error);
      write_pending_ = false;
    }
    write_cv_.NotifyAll();
  }
}

void TenantRuntime::Poison(const std::string& what) {
  {
    const MutexLock lock(mu_);
    state_ = TenantState::kPoisoned;
    last_error_ = what;
    queue_.clear();
  }
  drained_cv_.NotifyAll();
}

void TenantRuntime::WorkerLoop() {
  BatchLoop(std::numeric_limits<std::size_t>::max(), /*wait=*/true);
  {
    const MutexLock lock(mu_);
    if (stop_ || state_ == TenantState::kPoisoned) return;
  }
  // Drain epilogue: the queue is empty and no more rows can be
  // admitted; seal the tenant with a final checkpoint.
  MaybeCheckpoint(/*final_checkpoint=*/true);
  {
    const MutexLock lock(mu_);
    state_ = TenantState::kDrained;
  }
  drained_cv_.NotifyAll();
}

std::size_t TenantRuntime::Pump(std::size_t max_rows) {
  if (config_.threaded) {
    throw std::logic_error(
        "TenantRuntime::Pump: a worker thread owns this engine");
  }
  return BatchLoop(max_rows, /*wait=*/false);
}

void TenantRuntime::Drain() {
  {
    const MutexLock lock(mu_);
    if (state_ == TenantState::kPoisoned ||
        state_ == TenantState::kDrained) {
      return;
    }
    state_ = TenantState::kDraining;
  }
  if (!config_.threaded) {
    Pump(std::numeric_limits<std::size_t>::max());
    if (State() == TenantState::kPoisoned) return;
    MaybeCheckpoint(/*final_checkpoint=*/true);
    {
      const MutexLock lock(mu_);
      state_ = TenantState::kDrained;
    }
    drained_cv_.NotifyAll();
    return;
  }
  work_cv_.NotifyAll();
  const MutexLock lock(mu_);
  while (state_ == TenantState::kDraining) drained_cv_.Wait(mu_);
}

TenantStatus TenantRuntime::Status() const {
  const MutexLock lock(mu_);
  TenantStatus status;
  status.state = state_;
  status.counters = counters_;
  status.queue_rows = queue_.size();
  status.queue_budget = config_.queue_budget;
  status.backpressure = backpressure_;
  status.last_checkpoint_failed = last_checkpoint_failed_;
  status.last_error = last_error_;
  return status;
}

TenantState TenantRuntime::State() const {
  const MutexLock lock(mu_);
  return state_;
}

bool TenantRuntime::BackpressureEngaged() const {
  const MutexLock lock(mu_);
  return backpressure_;
}

}  // namespace pmcorr
