#include "engine/monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
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
    PMCORR_ASSERT(guard_.MeasurementCount() == infos_.size(),
                  "guard tracks " << guard_.MeasurementCount() << " of "
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

void SystemMonitor::AssembleRow(std::size_t t0, std::size_t width,
                                std::size_t off, std::size_t base_sample,
                                TimePoint time, SystemSnapshot& snap) const {
  const std::size_t pairs = graph_.PairCount();
  const std::size_t m = infos_.size();
  const std::size_t t = t0 + off;
  const GuardPrepass& guard = guard_pass_;
  snap.sample = base_sample + off;
  snap.time = time;
  snap.pair_scores.assign(pairs, std::nullopt);
  snap.alarmed_pairs.clear();
  snap.outlier_pairs = 0;
  snap.extended_pairs = 0;
  snap.quarantined_pairs = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const SweepCell& cell = run_cells_[i * width + off];
    if (cell.has_score) snap.pair_scores[i] = cell.fitness;
    if (cell.alarm) snap.alarmed_pairs.push_back(i);
    if (cell.outlier) ++snap.outlier_pairs;
    if (cell.extended) ++snap.extended_pairs;
    if (cell.skipped) ++snap.quarantined_pairs;
  }
  snap.stream_event = StreamEvent::kNone;
  snap.suppressed_values = 0;
  snap.measurement_health.clear();
  if (guard_.Enabled()) {
    snap.stream_event = guard.reports[t].event;
    snap.suppressed_values = guard.reports[t].suppressed;
    snap.measurement_health.assign(
        guard.health_timeline.begin() + static_cast<std::ptrdiff_t>(t * m),
        guard.health_timeline.begin() +
            static_cast<std::ptrdiff_t>((t + 1) * m));
  }
  ComputeAggregates(snap);
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
  // One row: measurement a's column is the single value values[a].
  in_cols_.resize(values.size());
  for (std::size_t a = 0; a < values.size(); ++a) {
    in_cols_[a] = values.subspan(a, 1);
  }
  Step(in_cols_, std::span<const TimePoint>(&tp, 1),
       std::span<SystemSnapshot>(&out, 1));
}

void SystemMonitor::Step(std::span<const std::span<const double>> cols,
                         std::span<const TimePoint> times,
                         std::span<SystemSnapshot> out) {
  if (cols.size() != infos_.size()) {
    throw std::invalid_argument("SystemMonitor::Step: column count mismatch");
  }
  if (out.size() != times.size()) {
    throw std::invalid_argument(
        "SystemMonitor::Step: snapshot count mismatch");
  }
  for (const std::span<const double> col : cols) {
    if (col.size() != times.size()) {
      throw std::invalid_argument(
          "SystemMonitor::Step: column length mismatch");
    }
  }
  // No guard reset — the stream clock carries over between Step calls,
  // which is where degraded streams actually arrive.
  Advance(cols, times, out.data(), nullptr);
}

std::vector<SystemSnapshot> SystemMonitor::Run(const MeasurementFrame& test) {
  std::vector<SystemSnapshot> snapshots(test.SampleCount());
  AdvanceFrame(test, snapshots.data(), nullptr);
  return snapshots;
}

std::vector<SystemDelta> SystemMonitor::RunDelta(
    const MeasurementFrame& test) {
  std::vector<SystemDelta> deltas(test.SampleCount());
  AdvanceFrame(test, nullptr, deltas.data());
  return deltas;
}

void SystemMonitor::AdvanceFrame(const MeasurementFrame& test,
                                 SystemSnapshot* snapshots,
                                 SystemDelta* deltas) {
  if (test.MeasurementCount() != infos_.size()) {
    throw std::invalid_argument(
        "SystemMonitor::Run: test frame measurement count mismatch");
  }
  in_cols_.resize(infos_.size());
  for (std::size_t a = 0; a < in_cols_.size(); ++a) {
    in_cols_[a] =
        test.Series(MeasurementId(static_cast<std::int32_t>(a))).Values();
  }
  in_times_.resize(test.SampleCount());
  for (std::size_t t = 0; t < in_times_.size(); ++t) {
    in_times_[t] = test.TimeAt(t);
  }
  // Each frame is its own segment: a frame's grid timestamps are
  // self-consistent but carry no relation to a previous frame's (test
  // harnesses and replay tools restart the clock per frame), so the
  // stream clock resets here. Cross-call continuity checking is the
  // Step path's job — that is where degraded streams actually arrive.
  guard_.ResetTiming();
  Advance(in_cols_, in_times_, snapshots, deltas);
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

void SystemMonitor::FilterRows(std::span<const std::span<const double>> cols,
                               std::span<const TimePoint> times) {
  GuardPrepass& g = guard_pass_;
  const std::size_t samples = times.size();
  const std::size_t m = infos_.size();
  g.any_break = false;
  g.inputs.assign(cols.begin(), cols.end());
  if (!guard_.Enabled()) return;

  // The guard suppresses in place, one row at a time; the filtered rows
  // land column by column so the sweep reads them like the caller's
  // columns. On a clean on-cadence row the copy is bit-identical.
  g.row.resize(m);
  g.filtered.resize(m * samples);
  g.reports.resize(samples);
  g.health_timeline.resize(samples * m);
  for (std::size_t t = 0; t < samples; ++t) {
    for (std::size_t a = 0; a < m; ++a) g.row[a] = cols[a][t];
    g.reports[t] = guard_.Filter(g.row, times[t]);
    g.any_break = g.any_break || g.reports[t].sequence_break;
    for (std::size_t a = 0; a < m; ++a) {
      g.filtered[a * samples + t] = g.row[a];
      g.health_timeline[t * m + a] = guard_.Health(a);
    }
  }
  for (std::size_t a = 0; a < m; ++a) {
    g.inputs[a] = std::span<const double>(g.filtered.data() + a * samples,
                                          samples);
  }
}

void SystemMonitor::Advance(std::span<const std::span<const double>> cols,
                            std::span<const TimePoint> times,
                            SystemSnapshot* snapshots, SystemDelta* deltas) {
  const std::size_t samples = times.size();
  const std::size_t pairs = graph_.PairCount();
  const std::size_t m = infos_.size();
  run_stats_ = RunStats{};
  // An empty call emits and advances nothing: dirty-pair tracking from
  // the last emitted tick stays valid.
  if (samples == 0) return;

  // Whether dirty-pair tracking survives from the last emitted tick
  // decides if the first delta of this call is a baseline. Snapshot
  // output leaves tracking invalid (it emits no deltas to diff against).
  const bool tracking_valid = delta_valid_;
  delta_valid_ = false;

  FilterRows(cols, times);
  const GuardPrepass& guard = guard_pass_;

  const std::size_t batch = BatchSamples(pairs);
  for (std::size_t t0 = 0; t0 < samples; t0 += batch) {
    const std::size_t t1 = std::min(samples, t0 + batch);
    const std::size_t width = t1 - t0;
    // Engine sample index of row t0 (steps_ advances in the assembly
    // phase, so at the top of each batch it equals t0's index).
    const std::size_t base_sample = steps_;
    ++run_stats_.batches;

    // Pair-major sweep: each worker advances every model of its shard
    // through the whole batch in one pass. Pair state is private to the
    // pair (including its quarantine slot), so shards never contend.
    // Steps are rank-only: the snapshot reads the rank-based fitness and
    // the alarm, never the probability, so a SweepCell keeps none.
    const auto sweep_start = std::chrono::steady_clock::now();
    run_cells_.assign(pairs * width, SweepCell{});
    auto sweep_worker = [&](const ShardRange& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        PairModel& model = models_[i];
        // Adopt a finished rebuild at the batch boundary — a sample
        // boundary, so every sample is judged by exactly one model (a
        // one-row call adopts before every row); a rebuild finishing
        // mid-batch waits for the next batch.
        if (retrain_ != nullptr) {
          if (std::unique_ptr<PairModel> fresh = retrain_->TakeAdoptable(i)) {
            model = std::move(*fresh);
          }
        }
        const PairId& pair = graph_.Pair(i);
        const std::span<const double> x =
            guard.inputs[static_cast<std::size_t>(pair.a.value)];
        const std::span<const double> y =
            guard.inputs[static_cast<std::size_t>(pair.b.value)];
        SweepCell* row = run_cells_.data() + i * width;
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t s = base_sample + (t - t0);
          SweepCell& cell = row[t - t0];
          // Buffer the guard-filtered sample for the rebuild — skipped
          // pairs keep buffering, so their eventual rebuild sees the
          // full stream.
          if (retrain_ != nullptr) retrain_->Observe(i, x[t], y[t]);
          // A gap, duplicate or out-of-order arrival breaks every pair's
          // transition chain, skipped pairs included.
          if (guard.any_break && guard.reports[t].sequence_break) {
            model.ResetSequence();
          }
          // The quarantine skips a tripped pair, runs its probation
          // retry after a sequence reset, and turns a throwing step into
          // a recorded trip instead of a failed call.
          const PairQuarantine::Decision decision =
              quarantine_.BeginStep(i, s);
          if (decision == PairQuarantine::Decision::kSkip) {
            cell.skipped = true;
            continue;
          }
          if (decision == PairQuarantine::Decision::kRunAfterReset) {
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
          } catch (const std::exception& e) {
            if (!quarantine_.Enabled()) throw;
            quarantine_.RecordFailure(i, s, e.what());
            cell.skipped = true;
          }
        }
      }
    };
    RunShards(pool_, pairs, sweep_worker);
    run_stats_.sweep_seconds += SecondsSince(sweep_start);

    // Assembly phase: a row's output is a pure function of the cell arena
    // and the guard pre-pass, so rows assemble in parallel; only the
    // lifetime-averager updates run serially, in time order —
    // floating-point accumulation order is part of the bitwise contract.
    const auto assemble_start = std::chrono::steady_clock::now();
    if (deltas == nullptr) {
      auto assemble_worker = [&](const ShardRange& shard) {
        for (std::size_t off = shard.begin; off < shard.end; ++off) {
          AssembleRow(t0, width, off, base_sample, times[t0 + off],
                      snapshots[t0 + off]);
        }
      };
      RunShards(pool_, width, assemble_worker);
    } else {
      // Each shard assembles its rows into its own two slots and diffs
      // every row against the row before it: its other slot; for a shard
      // that starts mid-batch, the row before its first, re-assembled
      // here; for the batch's first row, the last emitted tick — or
      // nothing (a baseline) when tracking did not survive.
      run_qa_.resize(width * m);
      const std::size_t shards = pool_.ShardCountFor(width);
      delta_slots_.resize(std::max(delta_slots_.size(), 2 * shards));
      const bool baseline = !tracking_valid && t0 == 0;
      auto delta_worker = [&](const ShardRange& shard) {
        SystemSnapshot* slots = delta_slots_.data() + 2 * shard.index;
        const SystemSnapshot* prev = nullptr;
        if (shard.begin > 0) {
          const std::size_t off = shard.begin - 1;
          AssembleRow(t0, width, off, base_sample, times[t0 + off],
                      slots[off % 2]);
          prev = &slots[off % 2];
        } else if (!baseline) {
          prev = &delta_last_;
        }
        for (std::size_t off = shard.begin; off < shard.end; ++off) {
          SystemSnapshot& cur = slots[off % 2];
          AssembleRow(t0, width, off, base_sample, times[t0 + off], cur);
          DiffSnapshots(prev, cur, deltas[t0 + off]);
          std::copy(cur.measurement_scores.begin(),
                    cur.measurement_scores.end(),
                    run_qa_.begin() + static_cast<std::ptrdiff_t>(off * m));
          prev = &cur;
        }
      };
      RunShards(pool_, width, delta_worker);
      // The batch's last row is in the last shard's slot; it is what the
      // next batch's, or the next call's, first delta diffs against.
      std::swap(delta_last_,
                delta_slots_[2 * (shards - 1) + (width - 1) % 2]);
    }

    for (std::size_t off = 0; off < width; ++off) {
      const std::optional<double>* qa =
          deltas == nullptr ? snapshots[t0 + off].measurement_scores.data()
                            : run_qa_.data() + off * m;
      for (std::size_t a = 0; a < m; ++a) {
        if (qa[a]) measurement_avg_[a].Add(*qa[a]);
      }
      system_avg_.Add(deltas == nullptr ? snapshots[t0 + off].system_score
                                        : deltas[t0 + off].system_score);
      ++steps_;
    }
    run_stats_.assemble_seconds += SecondsSince(assemble_start);
  }

  delta_valid_ = deltas != nullptr;
  // Shallow: each PairModel::Step above already audited its own model.
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
