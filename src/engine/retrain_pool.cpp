#include "engine/retrain_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pmcorr {

RetrainPool::RetrainPool(ModelConfig model_config, RetrainPoolConfig config)
    : model_config_(model_config), config_(std::move(config)) {
  if (config_.threads == 0) config_.threads = 1;
  workers_.reserve(config_.threads);
  live_workers_ = config_.threads;
  for (std::size_t i = 0; i < config_.threads; ++i) {
    workers_.emplace_back(&RetrainPool::WorkerLoop, this);
  }
}

RetrainPool::~RetrainPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::int64_t RetrainPool::NowNs() const {
  return config_.clock ? config_.clock() : MonotonicNowNs();
}

PairModel RetrainPool::Rebuild(std::span<const double> x,
                               std::span<const double> y) {
  if (config_.rebuild_override) {
    return config_.rebuild_override(x, y, model_config_);
  }
  return PairModel::Learn(x, y, model_config_);
}

std::size_t RetrainPool::RegisterWindow(std::span<const double> x,
                                        std::span<const double> y) {
  auto state = std::make_unique<PairState>();
  const std::size_t keep = std::min(x.size(), config_.window_samples);
  state->window_x.assign(x.end() - static_cast<std::ptrdiff_t>(keep),
                         x.end());
  state->window_y.assign(y.end() - static_cast<std::ptrdiff_t>(keep),
                         y.end());
  // Workers index pairs_ under mu_, and a pair may register while
  // another pair's rebuild is in flight.
  const MutexLock lock(mu_);
  pairs_.push_back(std::move(state));
  return pairs_.size() - 1;
}

void RetrainPool::Observe(std::size_t i, double x, double y) {
  PairState& s = *pairs_.at(i);
  s.window_x.push_back(x);
  s.window_y.push_back(y);
  while (s.window_x.size() > config_.window_samples) {
    s.window_x.pop_front();
    s.window_y.pop_front();
  }
  ++s.since_rebuild;
  if (s.since_rebuild < config_.interval_samples) return;
  if (s.window_x.size() < config_.min_samples) return;
  {
    const MutexLock lock(mu_);
    // The watchdog piggy-backs on every due cadence check (and on
    // TakeAdoptable's slow path).
    CheckWatchdogsLocked();
    if (s.given_up) {
      // Permanent: stop re-checking every sample.
      s.since_rebuild = 0;
      return;
    }
    // Backoff after failures, and one slot per pair: a queued, running
    // (non-abandoned) or awaiting-adoption rebuild defers the cadence to
    // the next sample (since_rebuild stays past the interval, so this
    // re-checks every sample).
    if (s.cooldown_remaining > 0) {
      --s.cooldown_remaining;
      return;
    }
    if (s.queued || (s.running && !s.abandoned_current) || s.pending) return;
    s.job_x.assign(s.window_x.begin(), s.window_x.end());
    s.job_y.assign(s.window_y.begin(), s.window_y.end());
    s.queued = true;
    queue_.push_back(i);
  }
  work_cv_.NotifyOne();
  s.since_rebuild = 0;
}

std::unique_ptr<PairModel> RetrainPool::TakeAdoptable(std::size_t i) {
  PairState& s = *pairs_.at(i);
  if (!s.has_pending.load(std::memory_order_acquire)) return nullptr;
  std::unique_ptr<PairModel> fresh;
  {
    const MutexLock lock(mu_);
    CheckWatchdogsLocked();
    fresh = std::move(s.pending);
    s.has_pending.store(false, std::memory_order_relaxed);
  }
  if (fresh) ++s.rebuilds;
  return fresh;
}

void RetrainPool::CheckWatchdogsLocked() {
  if (config_.watchdog_ms <= 0 || running_pairs_.empty()) return;
  const std::int64_t limit_ns = config_.watchdog_ms * 1'000'000;
  const std::int64_t now = NowNs();
  for (std::size_t r = 0; r < running_pairs_.size();) {
    PairState& s = *pairs_[running_pairs_[r]];
    PMCORR_DASSERT(s.running && !s.abandoned_current,
                   "running_pairs_ entry is not an active build");
    if (now - s.busy_since_ns < limit_ns) {
      ++r;
      continue;
    }
    // Grinding past its deadline. The thread itself cannot be killed;
    // the watchdog writes the attempt off — the result will be
    // discarded, the pair's slot reopens — and spawns a replacement so
    // the queue keeps draining at full width. The doomed worker exits
    // when its rebuild finally returns.
    s.abandoned_current = true;
    ++s.abandoned;
    --active_builds_;
    running_pairs_.erase(running_pairs_.begin() +
                         static_cast<std::ptrdiff_t>(r));
    ++live_workers_;
    workers_.emplace_back(&RetrainPool::WorkerLoop, this);
    idle_cv_.NotifyAll();
  }
}

void RetrainPool::WorkerLoop() {
  mu_.Lock();
  for (;;) {
    while (!(stop_ || !queue_.empty())) work_cv_.Wait(mu_);
    if (stop_) {
      mu_.Unlock();
      return;
    }
    const std::size_t index = queue_.front();
    queue_.pop_front();
    PairState& s = *pairs_[index];
    s.queued = false;
    s.running = true;
    s.abandoned_current = false;
    s.busy_since_ns = NowNs();
    const std::uint64_t token = ++token_counter_;
    s.current_token = token;
    ++active_builds_;
    running_pairs_.push_back(index);
    std::vector<double> xs = std::move(s.job_x);
    std::vector<double> ys = std::move(s.job_y);
    mu_.Unlock();

    // A throwing rebuild must not escape the worker (that would
    // std::terminate): it becomes a counted failure and the serving
    // model keeps serving.
    std::unique_ptr<PairModel> fresh;
    std::string error;
    try {
      fresh = std::make_unique<PairModel>(Rebuild(xs, ys));
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "rebuild threw a non-std::exception";
    }

    mu_.Lock();
    // The watchdog may have written this attempt off while the build
    // ran — and the pair may even be running a *fresh* build already
    // (token mismatch). Either way the result is discarded and this
    // worker is surplus: a replacement was spawned at abandon time, so
    // it exits to restore the bounded thread count.
    const bool abandoned = s.current_token != token || s.abandoned_current;
    if (abandoned) {
      if (s.current_token == token) {
        s.running = false;
        s.abandoned_current = false;
      }
      --live_workers_;
      idle_cv_.NotifyAll();
      mu_.Unlock();
      return;
    }
    if (!error.empty()) {
      ++s.failed;
      ++s.failures_in_row;
      s.last_error = std::move(error);
      if (config_.failure_backoff.Exhausted(s.failures_in_row)) {
        s.given_up = true;
      } else {
        s.cooldown_remaining =
            config_.failure_backoff.DelayFor(s.failures_in_row - 1);
      }
    } else {
      s.pending = std::move(fresh);
      s.has_pending.store(true, std::memory_order_release);
      s.failures_in_row = 0;
    }
    s.running = false;
    --active_builds_;
    running_pairs_.erase(
        std::find(running_pairs_.begin(), running_pairs_.end(), index));
    idle_cv_.NotifyAll();
  }
}

std::size_t RetrainPool::FailedRebuilds(std::size_t i) const {
  const MutexLock lock(mu_);
  return pairs_.at(i)->failed;
}

std::size_t RetrainPool::AbandonedRebuilds(std::size_t i) const {
  const MutexLock lock(mu_);
  return pairs_.at(i)->abandoned;
}

std::string RetrainPool::LastRebuildError(std::size_t i) const {
  const MutexLock lock(mu_);
  return pairs_.at(i)->last_error;
}

bool RetrainPool::RebuildInFlight(std::size_t i) const {
  const MutexLock lock(mu_);
  const PairState& s = *pairs_.at(i);
  return s.queued || (s.running && !s.abandoned_current);
}

bool RetrainPool::GaveUp(std::size_t i) const {
  const MutexLock lock(mu_);
  return pairs_.at(i)->given_up;
}

std::size_t RetrainPool::QueueDepth() const {
  const MutexLock lock(mu_);
  return queue_.size();
}

std::size_t RetrainPool::ThreadCount() const {
  const MutexLock lock(mu_);
  return live_workers_;
}

void RetrainPool::WaitForPair(std::size_t i) {
  PairState& s = *pairs_.at(i);
  const MutexLock lock(mu_);
  while (!(!s.queued && (!s.running || s.abandoned_current))) {
    idle_cv_.Wait(mu_);
  }
}

void RetrainPool::WaitForIdle() {
  const MutexLock lock(mu_);
  while (!(queue_.empty() && active_builds_ == 0)) idle_cv_.Wait(mu_);
}

}  // namespace pmcorr
