#include "engine/retrain_pool.h"

#include <algorithm>
#include <utility>

namespace pmcorr {

RetrainPool::RetrainPool(ModelConfig model_config, RetrainPoolConfig config)
    : model_config_(model_config), config_(std::move(config)) {
  if (config_.threads == 0) config_.threads = 1;
  workers_.reserve(config_.threads);
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
  for (std::thread& worker : workers_) worker.join();
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
    // One slot per pair: a queued, running or awaiting-adoption rebuild
    // defers the cadence to the next sample (since_rebuild stays past
    // the interval, so this re-checks every sample).
    if (s.queued || s.running || s.pending) return;
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
    fresh = std::move(s.pending);
    s.has_pending.store(false, std::memory_order_relaxed);
  }
  if (fresh) ++s.rebuilds;
  return fresh;
}

void RetrainPool::WorkerLoop() {
  mu_.Lock();
  for (;;) {
    while (!(stop_ || !queue_.empty())) work_cv_.Wait(mu_);
    if (stop_) {
      mu_.Unlock();
      return;
    }
    PairState& s = *pairs_[queue_.front()];
    queue_.pop_front();
    s.queued = false;
    s.running = true;
    ++active_builds_;
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
    if (!error.empty()) {
      ++s.failed;
      s.last_error = std::move(error);
    } else {
      s.pending = std::move(fresh);
      s.has_pending.store(true, std::memory_order_release);
    }
    s.running = false;
    --active_builds_;
    idle_cv_.NotifyAll();
  }
}

std::size_t RetrainPool::FailedRebuilds(std::size_t i) const {
  const MutexLock lock(mu_);
  return pairs_.at(i)->failed;
}

std::string RetrainPool::LastRebuildError(std::size_t i) const {
  const MutexLock lock(mu_);
  return pairs_.at(i)->last_error;
}

bool RetrainPool::RebuildInFlight(std::size_t i) const {
  const MutexLock lock(mu_);
  const PairState& s = *pairs_.at(i);
  return s.queued || s.running;
}

std::size_t RetrainPool::QueueDepth() const {
  const MutexLock lock(mu_);
  return queue_.size();
}

void RetrainPool::WaitForPair(std::size_t i) {
  PairState& s = *pairs_.at(i);
  const MutexLock lock(mu_);
  while (s.queued || s.running) idle_cv_.Wait(mu_);
}

void RetrainPool::WaitForIdle() {
  const MutexLock lock(mu_);
  while (!(queue_.empty() && active_builds_ == 0)) idle_cv_.Wait(mu_);
}

}  // namespace pmcorr
