#include "engine/monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "engine/fault_plan.h"

namespace pmcorr {
namespace {

// Seeds the guard's cadence from the history frame so the very first
// monitored sample is already checked against the right period.
HealthConfig SeedPeriod(HealthConfig health, Duration period) {
  if (health.expected_period == 0) health.expected_period = period;
  return health;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Bitwise double equality — delta change detection distinguishes NaN
// payloads and signed zeros, so reconstruction is exact, not within-eps.
bool SameBits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Dispatches a stack lambda through the pool's allocation-free region
// path: a stateless trampoline recovers the concrete callable from the
// context pointer, so no std::function (and no heap) is involved.
template <typename Fn>
void RunShards(ThreadPool& pool, std::size_t count, Fn& fn,
               std::size_t max_shards = 0) {
  pool.ParallelShardsStatic(
      count,
      [](void* ctx, const ShardRange& range) {
        (*static_cast<Fn*>(ctx))(range);
      },
      &fn, max_shards);
}

}  // namespace

SystemMonitor::SystemMonitor(const MeasurementFrame& history,
                             MeasurementGraph graph, MonitorConfig config)
    : config_(config),
      graph_(std::move(graph)),
      infos_(history.Infos()),
      pool_(config.threads),
      guard_(infos_.size(), SeedPeriod(config.health, history.Period())),
      quarantine_(graph_.PairCount(), config.quarantine) {
  if (graph_.MeasurementCount() != history.MeasurementCount()) {
    throw std::invalid_argument(
        "SystemMonitor: graph and history measurement counts differ");
  }
  if (history.SampleCount() < 2) {
    throw std::invalid_argument(
        "SystemMonitor: history needs at least two samples");
  }

  models_.resize(graph_.PairCount());
  measurement_avg_.resize(infos_.size());

  pool_.ParallelFor(graph_.PairCount(), [&](std::size_t i) {
    const PairId& pair = graph_.Pair(i);
    models_[i] = PairModel::Learn(history.Series(pair.a).Values(),
                                  history.Series(pair.b).Values(),
                                  config_.model);
  });
  if (config_.retrain.enabled) {
    retrain_ = std::make_unique<RetrainPool>(config_.model,
                                             config_.retrain.pool);
    for (std::size_t i = 0; i < graph_.PairCount(); ++i) {
      const PairId& pair = graph_.Pair(i);
      retrain_->RegisterWindow(history.Series(pair.a).Values(),
                               history.Series(pair.b).Values());
    }
  }
  PMCORR_AUDIT_ONLY(CheckInvariants();)
}

SystemMonitor::SystemMonitor(MonitorConfig config, MeasurementGraph graph,
                             std::vector<MeasurementInfo> infos,
                             std::vector<PairModel> models,
                             std::vector<ScoreAverager> measurement_averages,
                             ScoreAverager system_average, std::size_t steps)
    : config_(config),
      graph_(std::move(graph)),
      infos_(std::move(infos)),
      models_(std::move(models)),
      pool_(config.threads),
      measurement_avg_(std::move(measurement_averages)),
      system_avg_(system_average),
      steps_(steps),
      guard_(infos_.size(), config.health),
      quarantine_(graph_.PairCount(), config.quarantine) {
  if (models_.size() != graph_.PairCount() ||
      graph_.MeasurementCount() != infos_.size()) {
    throw std::invalid_argument(
        "SystemMonitor: checkpoint parts are inconsistent");
  }
  measurement_avg_.resize(infos_.size());
  if (config_.retrain.enabled) {
    // Windows are not checkpointed: every pair starts empty and the
    // pool's min_samples gate holds rebuilds until they refill live.
    retrain_ = std::make_unique<RetrainPool>(config_.model,
                                             config_.retrain.pool);
    for (std::size_t i = 0; i < graph_.PairCount(); ++i) {
      retrain_->RegisterWindow({}, {});
    }
  }
  PMCORR_AUDIT_ONLY(CheckInvariants();)
}

void SystemMonitor::CheckInvariants(bool deep) const {
  PMCORR_ASSERT(models_.size() == graph_.PairCount(),
                models_.size() << " models for " << graph_.PairCount()
                               << " graph pairs");
  PMCORR_ASSERT(infos_.size() == graph_.MeasurementCount(),
                infos_.size() << " infos for " << graph_.MeasurementCount()
                              << " graph measurements");
  PMCORR_ASSERT(measurement_avg_.size() == infos_.size(),
                measurement_avg_.size() << " averagers for " << infos_.size()
                                        << " measurements");
  for (std::size_t i = 0; i < graph_.PairCount(); ++i) {
    const PairId& pair = graph_.Pair(i);
    PMCORR_ASSERT(pair.a.valid() && pair.b.valid() &&
                      static_cast<std::size_t>(pair.a.value) < infos_.size() &&
                      static_cast<std::size_t>(pair.b.value) < infos_.size(),
                  "pair " << i << " references invalid measurements");
  }
  PMCORR_ASSERT(
      quarantine_.QuarantinedCount() + quarantine_.RetiredCount() <=
          graph_.PairCount(),
      quarantine_.QuarantinedCount() << " quarantined + "
                                     << quarantine_.RetiredCount()
                                     << " retired pairs exceed "
                                     << graph_.PairCount());
  if (guard_.Enabled()) {
    PMCORR_ASSERT(guard_.HealthStates().size() == infos_.size(),
                  "guard tracks " << guard_.HealthStates().size() << " of "
                                  << infos_.size() << " measurements");
  }
  PMCORR_ASSERT(std::isfinite(system_avg_.Sum()),
                "system average sum " << system_avg_.Sum());
  PMCORR_ASSERT(system_avg_.Count() <= steps_,
                "system average over " << system_avg_.Count() << " of "
                                       << steps_ << " steps");
  for (const ScoreAverager& avg : measurement_avg_) {
    PMCORR_ASSERT(std::isfinite(avg.Sum()) && avg.Count() <= steps_,
                  "measurement average sum " << avg.Sum() << " count "
                                             << avg.Count());
  }
  if (deep) {
    for (const PairModel& model : models_) model.CheckInvariants();
  }
}

void SystemMonitor::ComputeAggregates(SystemSnapshot& snap) const {
  // Level 2: Q^a = mean of the engaged pair scores on a's links.
  snap.measurement_scores.assign(infos_.size(), std::nullopt);
  for (std::size_t a = 0; a < infos_.size(); ++a) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t pi :
         graph_.PairsOf(MeasurementId(static_cast<std::int32_t>(a)))) {
      if (snap.pair_scores[pi]) {
        sum += *snap.pair_scores[pi];
        ++n;
      }
    }
    if (n > 0) snap.measurement_scores[a] = sum / static_cast<double>(n);
  }

  // Level 3: Q = mean of engaged measurement scores.
  snap.system_score = AggregateScores(snap.measurement_scores);
}

void SystemMonitor::FinishSnapshot(SystemSnapshot& snap) {
  ComputeAggregates(snap);
  // Lifetime aggregates, strictly in time order: floating-point
  // accumulation order is part of the bitwise contract.
  for (std::size_t a = 0; a < infos_.size(); ++a) {
    if (snap.measurement_scores[a]) {
      measurement_avg_[a].Add(*snap.measurement_scores[a]);
    }
  }
  system_avg_.Add(snap.system_score);
  ++steps_;
}

SystemSnapshot SystemMonitor::Step(std::span<const double> values,
                                   TimePoint tp) {
  SystemSnapshot snap;
  Step(values, tp, snap);
  return snap;
}

void SystemMonitor::Step(std::span<const double> values, TimePoint tp,
                         SystemSnapshot& out) {
  if (values.size() != infos_.size()) {
    throw std::invalid_argument("SystemMonitor::Step: value count mismatch");
  }
  delta_valid_ = false;

  // Ingest guard: inspect the arriving row against the cadence, suppress
  // frozen/duplicate/out-of-order values to NaN (the models' documented
  // missing-sample path), and break transition sequences across gaps.
  // On a clean on-cadence row the copied values are bit-identical to the
  // caller's, so the engine's arithmetic is unchanged.
  std::span<const double> use = values;
  SampleReport report;
  if (guard_.Enabled()) {
    guard_values_.assign(values.begin(), values.end());
    report = guard_.Filter(guard_values_, tp);
    // Models only — not the public ResetSequences(), which would also
    // reset the guard's stream clock and blind it to the next
    // duplicate/out-of-order arrival of a storm.
    if (report.sequence_break) {
      for (PairModel& model : models_) model.ResetSequence();
    }
    use = guard_values_;
  }

  const std::size_t pairs = graph_.PairCount();
  out.sample = steps_;
  out.time = tp;
  out.pair_scores.assign(pairs, std::nullopt);
  out.system_score = std::nullopt;
  out.alarmed_pairs.clear();
  out.outlier_pairs = 0;
  out.extended_pairs = 0;
  out.stream_event = report.event;
  out.measurement_health.clear();
  out.suppressed_values = report.suppressed;
  out.quarantined_pairs = 0;

  step_scratch_.assign(pairs, StepOutcome{});
  step_skipped_.assign(pairs, 0);
  std::vector<StepOutcome>& outcomes = step_scratch_;
  const std::size_t sample_index = steps_;
  const bool guarded = quarantine_.Enabled() || fault_plan_ != nullptr;
  auto step_worker = [&](const ShardRange& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      const PairId& pair = graph_.Pair(i);
      const double x = use[static_cast<std::size_t>(pair.a.value)];
      const double y = use[static_cast<std::size_t>(pair.b.value)];
      if (retrain_ != nullptr) {
        // Adopt a finished rebuild before this sample is scored, so the
        // sample is judged by exactly one model and swaps land on
        // sample boundaries (the pool's Step-mode contract); then
        // buffer the guard-filtered sample — quarantined pairs keep
        // buffering, so their eventual rebuild sees the full stream.
        if (std::unique_ptr<PairModel> fresh = retrain_->TakeAdoptable(i)) {
          models_[i] = std::move(*fresh);
        }
        retrain_->Observe(i, x, y);
      }
      // The snapshot reads the rank-based fitness and the alarm, never
      // the probability: rank-only steps skip the row normalizer.
      if (!guarded) {
        outcomes[i] = models_[i].Step(x, y, ScoreMode::kRankOnly);
        continue;
      }
      switch (quarantine_.BeginStep(i, sample_index)) {
        case PairQuarantine::Decision::kSkip:
          step_skipped_[i] = 1;
          continue;
        case PairQuarantine::Decision::kRunAfterReset:
          models_[i].ResetSequence();
          break;
        case PairQuarantine::Decision::kRun:
          break;
      }
      try {
        if (fault_plan_ != nullptr) {
          fault_plan_->CheckPairStep(i, sample_index);
        }
        outcomes[i] = models_[i].Step(x, y, ScoreMode::kRankOnly);
        quarantine_.RecordSuccess(i, sample_index, outcomes[i].outlier);
      } catch (const std::exception& e) {
        if (!quarantine_.Enabled()) throw;
        outcomes[i] = StepOutcome{};
        quarantine_.RecordFailure(i, sample_index, e.what());
        step_skipped_[i] = 1;
      }
    }
  };
  RunShards(pool_, pairs, step_worker);

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const StepOutcome& o = outcomes[i];
    if (o.has_score) out.pair_scores[i] = o.fitness;
    if (o.alarm) {
      out.alarmed_pairs.push_back(i);
      alarm_log_.Record({tp, i, o.fitness, o.outlier});
    }
    if (o.outlier) ++out.outlier_pairs;
    if (o.extended_grid) ++out.extended_pairs;
    if (step_skipped_[i] != 0) ++out.quarantined_pairs;
  }
  if (guard_.Enabled()) guard_.CopyHealthStates(out.measurement_health);

  FinishSnapshot(out);
  // Shallow: each PairModel::Step above already audited its own model.
  PMCORR_AUDIT_ONLY(CheckInvariants(/*deep=*/false);)
}

std::size_t SystemMonitor::BatchSamples(std::size_t pair_count) const {
  if (config_.batch_samples != 0) return config_.batch_samples;
  // Auto: bound the sweep buffer (pair_count x batch SweepCells) near
  // 32 MiB. Large batches amortize the fork/join barrier; the exact size
  // never changes results.
  constexpr std::size_t kBufferBytes = 32u << 20;
  const std::size_t per_sample =
      std::max<std::size_t>(1, pair_count) * sizeof(SweepCell);
  return std::max<std::size_t>(1, kBufferBytes / per_sample);
}

void SystemMonitor::BuildGuardPrepass(const MeasurementFrame& test,
                                      GuardPrepass& prepass) {
  const std::size_t samples = test.SampleCount();
  const std::size_t m = infos_.size();
  prepass.reports.clear();
  prepass.health_timeline.clear();
  prepass.filtered.clear();
  prepass.seq_break.clear();
  prepass.any_break = false;
  if (!guard_.Enabled()) return;

  // Each Run() call is its own segment: a frame's grid timestamps are
  // self-consistent but carry no relation to a previous frame's (test
  // harnesses and replay tools restart the clock per frame), so the
  // stream clock resets here. Cross-call continuity checking is the
  // Step path's job — that is where degraded streams actually arrive.
  guard_.ResetTiming();
  std::vector<std::span<const double>> cols(m);
  for (std::size_t a = 0; a < m; ++a) {
    cols[a] =
        test.Series(MeasurementId(static_cast<std::int32_t>(a))).Values();
  }
  prepass.reports.resize(samples);
  prepass.seq_break.assign(samples, 0);
  prepass.health_timeline.reserve(samples * m);
  std::vector<double> row(m);
  for (std::size_t t = 0; t < samples; ++t) {
    for (std::size_t a = 0; a < m; ++a) row[a] = cols[a][t];
    prepass.reports[t] = guard_.Filter(row, test.TimeAt(t));
    if (prepass.reports[t].sequence_break) {
      prepass.seq_break[t] = 1;
      prepass.any_break = true;
    }
    if (prepass.reports[t].suppressed > 0) {
      if (prepass.filtered.empty()) {
        prepass.filtered.resize(m);
        for (std::size_t a = 0; a < m; ++a) {
          prepass.filtered[a].assign(cols[a].begin(), cols[a].end());
        }
      }
      for (std::size_t a = 0; a < m; ++a) prepass.filtered[a][t] = row[a];
    }
    for (std::size_t a = 0; a < m; ++a) {
      prepass.health_timeline.push_back(guard_.Health(a));
    }
  }
}

std::vector<SystemSnapshot> SystemMonitor::Run(const MeasurementFrame& test) {
  std::vector<SystemSnapshot> snapshots;
  RunImpl(test, &snapshots, nullptr);
  return snapshots;
}

std::vector<SystemDelta> SystemMonitor::RunDelta(
    const MeasurementFrame& test) {
  std::vector<SystemDelta> deltas;
  RunImpl(test, nullptr, &deltas);
  return deltas;
}

void SystemMonitor::RunImpl(const MeasurementFrame& test,
                            std::vector<SystemSnapshot>* snapshots,
                            std::vector<SystemDelta>* deltas) {
  if (test.MeasurementCount() != infos_.size()) {
    throw std::invalid_argument(
        "SystemMonitor::Run: test frame measurement count mismatch");
  }
  const std::size_t samples = test.SampleCount();
  const std::size_t pairs = graph_.PairCount();
  const std::size_t m = infos_.size();
  const bool want_delta = deltas != nullptr;
  run_stats_ = RunStats{};

  // Whether dirty-pair tracking survives from the last emitted tick
  // decides if the first delta of this run is a baseline. A full Run
  // leaves tracking invalid (it emits no deltas to diff against).
  const bool tracking_valid = delta_valid_;
  delta_valid_ = false;
  if (samples == 0) {
    delta_valid_ = want_delta && tracking_valid;
    return;
  }
  if (snapshots != nullptr) snapshots->reserve(samples);
  if (deltas != nullptr) deltas->reserve(samples);

  BuildGuardPrepass(test, run_guard_);
  const GuardPrepass& guard = run_guard_;

  // Per-pair input columns, resolved once for the whole run.
  run_xs_.resize(pairs);
  run_ys_.resize(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const PairId& pair = graph_.Pair(i);
    if (!guard.filtered.empty()) {
      run_xs_[i] = guard.filtered[static_cast<std::size_t>(pair.a.value)];
      run_ys_[i] = guard.filtered[static_cast<std::size_t>(pair.b.value)];
    } else {
      run_xs_[i] = test.Series(pair.a).Values();
      run_ys_[i] = test.Series(pair.b).Values();
    }
  }

  const std::size_t batch = BatchSamples(pairs);
  const std::size_t shard_count = pool_.ShardCountFor(pairs);
  run_shard_logs_.resize(shard_count);
  for (AlarmLog& log : run_shard_logs_) log.Clear();

  for (std::size_t t0 = 0; t0 < samples; t0 += batch) {
    const std::size_t t1 = std::min(samples, t0 + batch);
    const std::size_t width = t1 - t0;
    // Engine sample index of frame position t0 (steps_ advances in the
    // assembly phase, so at the top of each batch it equals t0's index).
    const std::size_t base_sample = steps_;
    ++run_stats_.batches;

    // The guarded per-sample sweep only engages when it can matter: a
    // scripted fault plan, an armed outlier breaker, or a pair that has
    // already tripped. Otherwise the original unguarded hot loop runs —
    // its only addition is a per-pair try/catch (zero-cost until a
    // throw) so a first-ever trip quarantines the pair instead of
    // killing the run.
    const bool guarded =
        fault_plan_ != nullptr ||
        (quarantine_.Enabled() && (config_.quarantine.outlier_burst > 0 ||
                                   quarantine_.AnyDisengaged()));

    // Pair-major sweep: each worker advances every model of its shard
    // through the whole batch in one pass. Pair state is private to the
    // pair (including its quarantine slot), so shards never contend;
    // alarms go to a shard-local log, sorted by the worker itself so the
    // sort cost parallelizes too. Steps are rank-only: a SweepCell keeps
    // no probability.
    const auto sweep_start = std::chrono::steady_clock::now();
    run_cells_.assign(pairs * width, SweepCell{});
    auto sweep_worker = [&](const ShardRange& shard) {
      AlarmLog& log = run_shard_logs_[shard.index];

      // Quarantine-aware per-sample loop for pair i from frame position
      // t_start: skips quarantined samples, runs probation retries
      // (after a sequence reset), and converts a throwing step into a
      // recorded trip. Bitwise identical to the fast loop while the
      // pair never trips.
      const auto sweep_guarded =
          [&](std::size_t i, PairModel& model, std::span<const double> x,
              std::span<const double> y, SweepCell* row,
              std::size_t t_start) {
            for (std::size_t t = t_start; t < t1; ++t) {
              const std::size_t s = base_sample + (t - t0);
              SweepCell& cell = row[t - t0];
              if (retrain_ != nullptr) retrain_->Observe(i, x[t], y[t]);
              const PairQuarantine::Decision decision =
                  quarantine_.BeginStep(i, s);
              if (decision == PairQuarantine::Decision::kSkip) {
                cell.skipped = true;
                continue;
              }
              if (decision == PairQuarantine::Decision::kRunAfterReset ||
                  (guard.any_break && guard.seq_break[t] != 0)) {
                model.ResetSequence();
              }
              try {
                if (fault_plan_ != nullptr) fault_plan_->CheckPairStep(i, s);
                const StepOutcome out =
                    model.Step(x[t], y[t], ScoreMode::kRankOnly);
                quarantine_.RecordSuccess(i, s, out.outlier);
                cell.fitness = out.fitness;
                cell.has_score = out.has_score;
                cell.alarm = out.alarm;
                cell.outlier = out.outlier;
                cell.extended = out.extended_grid;
                if (out.alarm) {
                  log.Record({test.TimeAt(t), i, out.fitness, out.outlier});
                }
              } catch (const std::exception& e) {
                if (!quarantine_.Enabled()) throw;
                quarantine_.RecordFailure(i, s, e.what());
                cell.skipped = true;
              }
            }
          };

      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        PairModel& model = models_[i];
        // Batched execution adopts at batch boundaries — the coarsest
        // sample boundary; a rebuild finishing mid-batch waits for the
        // next batch (or the next Step).
        if (retrain_ != nullptr) {
          if (std::unique_ptr<PairModel> fresh = retrain_->TakeAdoptable(i)) {
            model = std::move(*fresh);
          }
        }
        std::span<const double> x = run_xs_[i];
        std::span<const double> y = run_ys_[i];
        SweepCell* row = run_cells_.data() + i * width;
        if (guarded) {
          sweep_guarded(i, model, x, y, row, t0);
          continue;
        }
        std::size_t t = t0;
        try {
          for (; t < t1; ++t) {
            if (retrain_ != nullptr) retrain_->Observe(i, x[t], y[t]);
            if (guard.any_break && guard.seq_break[t] != 0) {
              model.ResetSequence();
            }
            const StepOutcome out =
                model.Step(x[t], y[t], ScoreMode::kRankOnly);
            SweepCell& cell = row[t - t0];
            cell.fitness = out.fitness;
            cell.has_score = out.has_score;
            cell.alarm = out.alarm;
            cell.outlier = out.outlier;
            cell.extended = out.extended_grid;
            if (out.alarm) {
              log.Record({test.TimeAt(t), i, out.fitness, out.outlier});
            }
          }
        } catch (const std::exception& e) {
          if (!quarantine_.Enabled()) throw;
          // First-ever trip for this pair: quarantine it and finish its
          // batch on the guarded loop so an in-batch probation retry
          // still happens exactly where the sample-major path would
          // retry it.
          quarantine_.RecordFailure(i, base_sample + (t - t0), e.what());
          row[t - t0].skipped = true;
          sweep_guarded(i, model, x, y, row, t + 1);
        }
      }
      log.SortForMerge();
    };
    try {
      RunShards(pool_, pairs, sweep_worker);
    } catch (...) {
      // A throw with the quarantine disabled abandons the run; drop any
      // shard-local records so a later Run's merge starts clean.
      for (AlarmLog& log : run_shard_logs_) log.Clear();
      throw;
    }
    run_stats_.sweep_seconds += SecondsSince(sweep_start);

    const auto merge_start = std::chrono::steady_clock::now();
    alarm_log_.AppendMerged(std::span<AlarmLog>(run_shard_logs_),
                            run_merge_cursors_);
    run_stats_.alarm_merge_seconds += SecondsSince(merge_start);

    // Assembly phase: per-sample outputs are pure functions of the cell
    // arena and the guard pre-pass, so they build in parallel; only the
    // lifetime-averager updates run serially, in time order, with the
    // exact arithmetic of Step (FinishSnapshot) — the stream stays
    // bitwise identical to the sample-major loop.
    const auto assemble_start = std::chrono::steady_clock::now();
    if (snapshots != nullptr) {
      const std::size_t out_base = snapshots->size();
      snapshots->resize(out_base + width);
      auto assemble_worker = [&](const ShardRange& shard) {
        for (std::size_t off = shard.begin; off < shard.end; ++off) {
          const std::size_t t = t0 + off;
          SystemSnapshot& snap = (*snapshots)[out_base + off];
          snap.sample = base_sample + off;
          snap.time = test.TimeAt(t);
          snap.pair_scores.assign(pairs, std::nullopt);
          for (std::size_t i = 0; i < pairs; ++i) {
            const SweepCell& cell = run_cells_[i * width + off];
            if (cell.has_score) snap.pair_scores[i] = cell.fitness;
            if (cell.alarm) snap.alarmed_pairs.push_back(i);
            if (cell.outlier) ++snap.outlier_pairs;
            if (cell.extended) ++snap.extended_pairs;
            if (cell.skipped) ++snap.quarantined_pairs;
          }
          if (guard_.Enabled()) {
            snap.stream_event = guard.reports[t].event;
            snap.suppressed_values = guard.reports[t].suppressed;
            snap.measurement_health.assign(
                guard.health_timeline.begin() +
                    static_cast<std::ptrdiff_t>(t * m),
                guard.health_timeline.begin() +
                    static_cast<std::ptrdiff_t>((t + 1) * m));
          }
          ComputeAggregates(snap);
        }
      };
      RunShards(pool_, width, assemble_worker);

      for (std::size_t off = 0; off < width; ++off) {
        SystemSnapshot& snap = (*snapshots)[out_base + off];
        for (std::size_t a = 0; a < m; ++a) {
          if (snap.measurement_scores[a]) {
            measurement_avg_[a].Add(*snap.measurement_scores[a]);
          }
        }
        system_avg_.Add(snap.system_score);
        ++steps_;
      }
    } else {
      const std::size_t out_base = deltas->size();
      deltas->resize(out_base + width);
      run_qa_.assign(width * m, std::nullopt);

      // Stage A: per-tick scalars, pair diffs, health diffs and this
      // tick's Q^a column. The previous tick's pair state comes from the
      // cell arena (off > 0) or the cross-batch tracking arrays
      // (off == 0); a baseline diffs against the implicit
      // all-disengaged start.
      auto delta_worker = [&](const ShardRange& shard) {
        for (std::size_t off = shard.begin; off < shard.end; ++off) {
          const std::size_t t = t0 + off;
          SystemDelta& d = (*deltas)[out_base + off];
          d.sample = base_sample + off;
          d.time = test.TimeAt(t);
          d.baseline = !tracking_valid && t == 0;
          d.pair_count = static_cast<std::uint32_t>(pairs);
          d.measurement_count = static_cast<std::uint32_t>(m);
          d.pair_changes.clear();
          d.pair_disengaged.clear();
          d.measurement_changes.clear();
          d.measurement_disengaged.clear();
          d.alarmed_pairs.clear();
          d.outlier_pairs = 0;
          d.extended_pairs = 0;
          d.stream_event = StreamEvent::kNone;
          d.suppressed_values = 0;
          d.quarantined_pairs = 0;
          d.has_health = guard_.Enabled();
          d.health_changes.clear();

          for (std::size_t i = 0; i < pairs; ++i) {
            const SweepCell& cell = run_cells_[i * width + off];
            if (cell.alarm) d.alarmed_pairs.push_back(i);
            if (cell.outlier) ++d.outlier_pairs;
            if (cell.extended) ++d.extended_pairs;
            if (cell.skipped) ++d.quarantined_pairs;
            bool prev_engaged = false;
            double prev_score = 0.0;
            if (d.baseline) {
              // implicit all-disengaged start
            } else if (off == 0) {
              prev_engaged = delta_pair_engaged_[i] != 0;
              prev_score = delta_pair_score_[i];
            } else {
              const SweepCell& prev = run_cells_[i * width + off - 1];
              prev_engaged = prev.has_score;
              prev_score = prev.fitness;
            }
            if (cell.has_score) {
              if (!prev_engaged || !SameBits(prev_score, cell.fitness)) {
                d.pair_changes.push_back(
                    {static_cast<std::uint32_t>(i), cell.fitness});
              }
            } else if (prev_engaged) {
              d.pair_disengaged.push_back(static_cast<std::uint32_t>(i));
            }
          }

          std::optional<double>* qa = run_qa_.data() + off * m;
          for (std::size_t a = 0; a < m; ++a) {
            double sum = 0.0;
            std::size_t n = 0;
            for (std::size_t pi :
                 graph_.PairsOf(MeasurementId(static_cast<std::int32_t>(a)))) {
              const SweepCell& cell = run_cells_[pi * width + off];
              if (cell.has_score) {
                sum += cell.fitness;
                ++n;
              }
            }
            if (n > 0) qa[a] = sum / static_cast<double>(n);
          }
          d.system_score = AggregateScores(
              std::span<const std::optional<double>>(qa, m));

          if (guard_.Enabled()) {
            d.stream_event = guard.reports[t].event;
            d.suppressed_values = guard.reports[t].suppressed;
            const MeasurementHealth* cur =
                guard.health_timeline.data() + t * m;
            for (std::size_t a = 0; a < m; ++a) {
              MeasurementHealth prev = MeasurementHealth::kHealthy;
              if (d.baseline) {
                // implicit all-healthy start
              } else if (t == 0) {
                prev = delta_health_[a];
              } else {
                prev = guard.health_timeline[(t - 1) * m + a];
              }
              if (cur[a] != prev) {
                d.health_changes.push_back(
                    {static_cast<std::uint32_t>(a), cur[a]});
              }
            }
          }
        }
      };
      RunShards(pool_, width, delta_worker);

      // Stage A2, a separate fork/join: Q^a diffs read the arena column
      // off - 1 that stage A was still writing.
      auto qa_diff_worker = [&](const ShardRange& shard) {
        for (std::size_t off = shard.begin; off < shard.end; ++off) {
          SystemDelta& d = (*deltas)[out_base + off];
          const std::optional<double>* qa = run_qa_.data() + off * m;
          for (std::size_t a = 0; a < m; ++a) {
            bool prev_engaged = false;
            double prev_score = 0.0;
            if (d.baseline) {
              // implicit all-disengaged start
            } else if (off == 0) {
              prev_engaged = delta_qa_[a].has_value();
              if (prev_engaged) prev_score = *delta_qa_[a];
            } else {
              const std::optional<double>& prev = run_qa_[(off - 1) * m + a];
              prev_engaged = prev.has_value();
              if (prev_engaged) prev_score = *prev;
            }
            if (qa[a]) {
              if (!prev_engaged || !SameBits(prev_score, *qa[a])) {
                d.measurement_changes.push_back(
                    {static_cast<std::uint32_t>(a), *qa[a]});
              }
            } else if (prev_engaged) {
              d.measurement_disengaged.push_back(
                  static_cast<std::uint32_t>(a));
            }
          }
        }
      };
      RunShards(pool_, width, qa_diff_worker);

      // Serial lifetime-averager pass, identical to FinishSnapshot.
      for (std::size_t off = 0; off < width; ++off) {
        const std::optional<double>* qa = run_qa_.data() + off * m;
        for (std::size_t a = 0; a < m; ++a) {
          if (qa[a]) measurement_avg_[a].Add(*qa[a]);
        }
        system_avg_.Add((*deltas)[out_base + off].system_score);
        ++steps_;
      }

      // Cross-batch tracking update: the last tick's state is what the
      // next batch's off == 0 diffs against.
      const std::size_t last = width - 1;
      delta_pair_engaged_.resize(pairs);
      delta_pair_score_.resize(pairs);
      for (std::size_t i = 0; i < pairs; ++i) {
        const SweepCell& cell = run_cells_[i * width + last];
        delta_pair_engaged_[i] = cell.has_score ? 1 : 0;
        delta_pair_score_[i] = cell.fitness;
      }
      delta_qa_.assign(run_qa_.begin() + static_cast<std::ptrdiff_t>(last * m),
                       run_qa_.begin() +
                           static_cast<std::ptrdiff_t>((last + 1) * m));
      if (guard_.Enabled()) {
        delta_health_.assign(
            guard.health_timeline.begin() +
                static_cast<std::ptrdiff_t>((t1 - 1) * m),
            guard.health_timeline.begin() +
                static_cast<std::ptrdiff_t>(t1 * m));
      } else {
        delta_health_.clear();
      }
    }
    run_stats_.assemble_seconds += SecondsSince(assemble_start);
  }

  delta_valid_ = want_delta;
  PMCORR_AUDIT_ONLY(CheckInvariants(/*deep=*/false);)
}

std::size_t SystemMonitor::AddPairImpl(PairId pair, PairModel model,
                                       std::span<const double> x,
                                       std::span<const double> y) {
  // graph_.AddPair validates (range vs the measurement set, self-pair,
  // duplicate) and keeps existing indices stable.
  const std::size_t index = graph_.AddPair(pair);
  model.ResetSequence();
  models_.push_back(std::move(model));
  quarantine_.AddPair();
  if (retrain_ != nullptr) {
    const std::size_t slot = retrain_->RegisterWindow(x, y);
    PMCORR_ASSERT(slot == index, "retrain slot " << slot << " for pair "
                                                 << index);
  }
  delta_valid_ = false;
  PMCORR_AUDIT_ONLY(CheckInvariants(/*deep=*/false);)
  return index;
}

std::size_t SystemMonitor::AddPair(PairId pair, PairModel model) {
  return AddPairImpl(pair, std::move(model), {}, {});
}

std::size_t SystemMonitor::AddPair(PairId pair,
                                   const MeasurementFrame& history) {
  if (history.MeasurementCount() != infos_.size()) {
    throw std::invalid_argument(
        "SystemMonitor::AddPair: history measurement count mismatch");
  }
  if (history.SampleCount() < 2) {
    throw std::invalid_argument(
        "SystemMonitor::AddPair: history needs at least two samples");
  }
  if (!pair.valid() ||
      static_cast<std::size_t>(pair.b.value) >= infos_.size()) {
    throw std::invalid_argument("SystemMonitor::AddPair: pair out of range");
  }
  std::span<const double> x = history.Series(pair.a).Values();
  std::span<const double> y = history.Series(pair.b).Values();
  PairModel model = PairModel::Learn(x, y, config_.model);
  return AddPairImpl(pair, std::move(model), x, y);
}

void SystemMonitor::RetirePair(std::size_t pair_index) {
  if (pair_index >= graph_.PairCount()) {
    throw std::out_of_range("SystemMonitor::RetirePair: pair index " +
                            std::to_string(pair_index) + " of " +
                            std::to_string(graph_.PairCount()));
  }
  if (!quarantine_.Enabled()) {
    throw std::logic_error(
        "SystemMonitor::RetirePair: needs the quarantine disengage path "
        "(config.quarantine.enabled)");
  }
  quarantine_.Retire(pair_index, "administratively retired");
  delta_valid_ = false;
  PMCORR_AUDIT_ONLY(CheckInvariants(/*deep=*/false);)
}

void SystemMonitor::ResetSequences() {
  for (auto& model : models_) model.ResetSequence();
  // A segment boundary also resets the ingest guard's stream clock and
  // frozen-value history: the next sample legitimately starts a new
  // timeline. Health states and lifetime counters persist. Dirty-pair
  // tracking stays valid — the last emitted tick's state is unchanged.
  guard_.ResetTiming();
}

void SystemMonitor::CalibrateThresholds(const MeasurementFrame& holdout,
                                        double target_false_positive_rate) {
  if (holdout.MeasurementCount() != infos_.size()) {
    throw std::invalid_argument(
        "SystemMonitor::CalibrateThresholds: holdout measurement count"
        " mismatch");
  }
  pool_.ParallelFor(models_.size(), [&](std::size_t i) {
    const PairId& pair = graph_.Pair(i);
    const ThresholdCalibration calibration = CalibrateOnHoldout(
        models_[i], holdout.Series(pair.a).Values(),
        holdout.Series(pair.b).Values(), target_false_positive_rate);
    models_[i].SetAlarmThresholds(calibration.fitness_threshold,
                                  calibration.delta);
    models_[i].ResetSequence();
  });
  delta_valid_ = false;
  PMCORR_AUDIT_ONLY(CheckInvariants();)
}

}  // namespace pmcorr
