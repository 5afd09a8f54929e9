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

bool TenantRuntime::PopRowLocked() {
  if (queue_.empty()) return false;
  row_scratch_ = std::move(queue_.front());
  queue_.pop_front();
  if (backpressure_ && queue_.size() <= low_watermark_) {
    backpressure_ = false;
    ++counters_.backpressure_clears;
  }
  return true;
}

void TenantRuntime::ProcessRow(const SampleRow& row) {
  if (config_.chaos_hook) config_.chaos_hook(processed_total_);
  monitor_->Step(row.values, row.time, snap_scratch_);
  ++processed_total_;
  ++rows_since_checkpoint_;
  alarms_total_ += snap_scratch_.alarmed_pairs.size();
  suppressed_total_ += snap_scratch_.suppressed_values;
  auto next = std::make_shared<TenantPublishedState>();
  next->has_snapshot = true;
  next->snapshot = snap_scratch_;
  next->processed = processed_total_;
  next->alarms_total = alarms_total_;
  next->suppressed_total = suppressed_total_;
  published_.store(std::move(next), std::memory_order_release);
}

void TenantRuntime::MaybeCheckpoint(bool final_checkpoint) {
  if (config_.checkpoint_path.empty()) return;
  if (final_checkpoint) {
    rows_since_checkpoint_ = 0;
  } else {
    if (config_.checkpoint_every == 0) return;
    if (rows_since_checkpoint_ < config_.checkpoint_every) return;
    {
      // Every row queued behind a save waits for it. While backpressure
      // is engaged the producer is paused and the queue only drains, so
      // a due save is held until the queue is down to one row above the
      // low watermark — still engaged, so no refill arrives during the
      // save. A producer that ignores backpressure gets the save at most
      // one queue budget of rows late.
      const MutexLock lock(mu_);
      if (backpressure_ && queue_.size() > low_watermark_ + 1 &&
          rows_since_checkpoint_ <
              config_.checkpoint_every + config_.queue_budget) {
        return;
      }
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
  for (;;) {
    {
      const MutexLock lock(mu_);
      while (queue_.empty() && state_ == TenantState::kActive && !stop_) {
        work_cv_.Wait(mu_);
      }
      if (stop_) return;  // abrupt stop: queued rows are dropped
      if (!PopRowLocked()) break;  // draining and the queue is dry
    }
    if (config_.ingest_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.ingest_delay_ms));
    }
    try {
      ProcessRow(row_scratch_);
    } catch (const std::exception& e) {
      Poison(e.what());
      return;
    }
    {
      const MutexLock lock(mu_);
      ++counters_.processed;
    }
    MaybeCheckpoint(/*final_checkpoint=*/false);
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
  std::size_t done = 0;
  while (done < max_rows) {
    {
      const MutexLock lock(mu_);
      if (state_ == TenantState::kPoisoned) break;
      if (!PopRowLocked()) break;
    }
    try {
      ProcessRow(row_scratch_);
    } catch (const std::exception& e) {
      Poison(e.what());
      break;
    }
    {
      const MutexLock lock(mu_);
      ++counters_.processed;
    }
    ++done;
    MaybeCheckpoint(/*final_checkpoint=*/false);
  }
  return done;
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
