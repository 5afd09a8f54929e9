#include "engine/scorecard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "baselines/ewma.h"
#include "baselines/gmm.h"
#include "baselines/linear_invariant.h"
#include "baselines/subspace.h"
#include "baselines/zscore.h"
#include "engine/alarm.h"
#include "engine/monitor.h"
#include "telemetry/generator.h"

namespace pmcorr {
namespace {

/// Minimum finite training samples before a per-measurement or pairwise
/// baseline gets a detector at all — below this the fit is noise (and a
/// machine absent for the whole training period has zero).
constexpr std::size_t kMinTrainSamples = 32;

/// Days of clean history reserved for alarm calibration. One day's 2%
/// quantile rests on ~5 samples and misses the day-to-day variance of
/// the busy-hour ramps; three days steadies the per-pair bounds.
constexpr int kHoldoutDays = 3;

/// The per-scenario frames every adapter consumes: train up to the
/// holdout period, kHoldoutDays of calibration, test from June 13 on.
struct ScenarioData {
  MeasurementFrame full;
  MeasurementFrame train;
  MeasurementFrame holdout;
  MeasurementFrame test;
  std::vector<LabeledWindow> truth;
};

ScenarioData PrepareScenario(const QualityScenario& s) {
  ScenarioData d;
  d.full = GenerateTrace(s.spec);
  const TimePoint holdout_start = s.test_start - kHoldoutDays * kDay;
  d.train = d.full.SliceByTime(d.full.StartTime(), holdout_start);
  d.holdout = d.full.SliceByTime(holdout_start, s.test_start);
  d.test = d.full.SliceByTime(s.test_start, s.TraceEnd());
  if (d.train.SampleCount() < 2 || d.test.SampleCount() == 0) {
    throw std::invalid_argument("scorecard: scenario '" + s.name +
                                "' leaves no train/test samples");
  }
  d.truth.reserve(s.truth.size());
  for (const TruthWindow& w : s.truth) d.truth.push_back({w.start, w.end});
  return d;
}

std::vector<double> FiniteValues(std::span<const double> values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

/// Both-finite training points of one pair.
void FinitePairPoints(std::span<const double> x, std::span<const double> y,
                      std::vector<double>& xs, std::vector<double>& ys) {
  xs.clear();
  ys.clear();
  for (std::size_t t = 0; t < x.size(); ++t) {
    if (std::isfinite(x[t]) && std::isfinite(y[t])) {
      xs.push_back(x[t]);
      ys.push_back(y[t]);
    }
  }
}

DetectionOutcome ScoreHealth(const std::vector<std::optional<double>>& health,
                             const ScenarioData& d, double threshold,
                             const ScorecardConfig& config) {
  const auto windows =
      ExtractLowScoreWindows(health, d.test.StartTime(), d.test.Period(),
                             threshold, config.min_window);
  return EvaluateDetection(windows, d.truth, config.grace);
}

DetectorScore Finish(std::string detector, const QualityScenario& s,
                     DetectionOutcome outcome,
                     const std::vector<MachineScore>& ranking) {
  DetectorScore score;
  score.detector = std::move(detector);
  score.outcome = outcome;
  score.ranked_machines = ranking.size();
  score.localization_rank =
      s.benign ? kRankNotApplicable
               : LocalizationRankOf(ranking, s.problem_machine);
  return score;
}

// ---------------------------------------------------------------------
// pmcorr: the paper's monitor, with the scenario's topology script
// replayed through AddPair/RetirePair. System health is the fraction of
// engaged pairs NOT raising a calibrated alarm — the paper's
// "extract alarms" step (Section 6), which stays sensitive when a fault
// breaks a handful of pairs without moving the fleet-wide mean Q.
// Localization averages Q^a over the alarming samples (the operator
// drills down during the incident); it falls back to the lifetime
// Figure 14 averages when nothing alarmed.

DetectorScore RunPmcorr(const QualityScenario& s, const ScenarioData& d,
                        const MeasurementGraph& full_graph,
                        const ScorecardConfig& config) {
  const std::size_t l = d.full.MeasurementCount();

  // Machines that join mid-run start with their pairs deferred; the
  // topology script adds them once the machine has warmed up.
  std::vector<bool> absent(l, false);
  for (const auto& change : s.topology_changes) {
    if (!change.join) continue;
    for (MeasurementId mid : d.full.MeasurementsOn(change.machine)) {
      absent[static_cast<std::size_t>(mid.value)] = true;
    }
  }
  std::vector<PairId> initial;
  for (const PairId& p : full_graph.Pairs()) {
    if (!absent[static_cast<std::size_t>(p.a.value)] &&
        !absent[static_cast<std::size_t>(p.b.value)]) {
      initial.push_back(p);
    }
  }

  MonitorConfig mc;
  mc.threads = config.threads;
  SystemMonitor monitor(d.train, MeasurementGraph::FromPairs(l, initial), mc);
  monitor.CalibrateThresholds(d.holdout, config.calibrate_fpr);
  monitor.ResetSequences();

  // Run the test period in segments split at topology-change times,
  // applying each change between segments (the monitor's serial-section
  // contract for AddPair/RetirePair).
  std::vector<TimePoint> cuts;
  for (const auto& change : s.topology_changes) {
    if (change.at > d.test.StartTime() && change.at < s.TraceEnd()) {
      cuts.push_back(change.at);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const double threshold = 1.0 - config.pmcorr_alarm_fraction;
  std::vector<std::optional<double>> health;
  health.reserve(d.test.SampleCount());
  std::vector<double> alarm_qa_sum(l, 0.0);
  std::vector<std::size_t> alarm_qa_n(l, 0);
  // Two filters separate faults from the ambient alarm noise:
  //  * persistence — a pair counts only when it alarmed at this sample
  //    AND the previous one. Busy-hour ramps alarm many pairs for a
  //    single sample (the quantile calibration is marginal, not
  //    conditioned on rate of change); a broken correlation alarms the
  //    same pairs sample after sample.
  //  * concentration — the paper's Q^a drill-down applied to alarms:
  //    a fault concentrates on the broken measurement's pairs, while a
  //    ramp burst scatters over the fleet. Unhealth is the worst
  //    per-measurement fraction of persistently-alarming pairs, not the
  //    fleet-wide fraction, so a fault touching one measurement's
  //    handful of pairs still saturates the signal.
  std::vector<std::uint8_t> alarmed_prev, alarmed_now;
  std::vector<std::size_t> meas_engaged(l), meas_alarming(l);
  const auto run_segment = [&](TimePoint from, TimePoint to) {
    if (from >= to) return;
    for (const SystemSnapshot& snap :
         monitor.Run(d.full.SliceByTime(from, to))) {
      const auto& pairs = monitor.Graph().Pairs();
      alarmed_now.assign(snap.pair_scores.size(), 0);
      for (std::size_t i : snap.alarmed_pairs) alarmed_now[i] = 1;
      meas_engaged.assign(l, 0);
      meas_alarming.assign(l, 0);
      std::size_t engaged = 0;
      for (std::size_t i = 0; i < snap.pair_scores.size(); ++i) {
        // A sustained outlier alarms without a score (no source cell
        // after the reset), so "engaged" means scored OR alarming —
        // skipping scoreless pairs would drop exactly the pairs a hard
        // fault pushes off the grid.
        if (!snap.pair_scores[i] && alarmed_now[i] == 0) continue;
        ++engaged;
        const auto a = static_cast<std::size_t>(pairs[i].a.value);
        const auto b = static_cast<std::size_t>(pairs[i].b.value);
        ++meas_engaged[a];
        ++meas_engaged[b];
        if (alarmed_now[i] != 0 && i < alarmed_prev.size() &&
            alarmed_prev[i] != 0) {
          ++meas_alarming[a];
          ++meas_alarming[b];
        }
      }
      std::swap(alarmed_prev, alarmed_now);
      std::optional<double> h;
      if (engaged > 0) {
        double worst = 0.0;
        for (std::size_t m = 0; m < l; ++m) {
          // At least two corroborating pairs: a measurement that kept a
          // single engaged pair (its others retired or quarantined)
          // would otherwise flip between concentration 0 and 1 on one
          // pair's noise.
          if (meas_engaged[m] > 0 && meas_alarming[m] >= 2) {
            const double frac = static_cast<double>(meas_alarming[m]) /
                                static_cast<double>(meas_engaged[m]);
            worst = std::max(worst, frac);
          }
        }
        h = 1.0 - worst;
      }
      health.push_back(h);
      if (h && *h < threshold) {
        for (std::size_t m = 0; m < l; ++m) {
          if (snap.measurement_scores[m]) {
            alarm_qa_sum[m] += *snap.measurement_scores[m];
            ++alarm_qa_n[m];
          }
        }
      }
    }
  };

  TimePoint seg_start = d.test.StartTime();
  for (TimePoint cut : cuts) {
    run_segment(seg_start, cut);
    seg_start = cut;
    for (const auto& change : s.topology_changes) {
      if (change.at != cut) continue;
      if (change.join) {
        for (MeasurementId mid : d.full.MeasurementsOn(change.machine)) {
          absent[static_cast<std::size_t>(mid.value)] = false;
        }
        // Learn each new pair on the front 3/4 of the warmup slice and
        // calibrate its alarm bounds on the back 1/4 — joined pairs
        // missed the fleet-wide CalibrateThresholds pass, and
        // uncalibrated bounds alarm on every busy-hour ramp.
        const TimePoint learn_end =
            change.learn_from + 3 * (change.at - change.learn_from) / 4;
        const MeasurementFrame learn_slice =
            d.full.SliceByTime(change.learn_from, learn_end);
        const MeasurementFrame calib_slice =
            d.full.SliceByTime(learn_end, change.at);
        for (const PairId& p : full_graph.Pairs()) {
          const bool mine =
              d.full.Info(p.a).machine == change.machine ||
              d.full.Info(p.b).machine == change.machine;
          if (!mine) continue;
          // Both endpoints must be live (a pair between two still-absent
          // machines waits for its second join).
          if (absent[static_cast<std::size_t>(p.a.value)] ||
              absent[static_cast<std::size_t>(p.b.value)]) {
            continue;
          }
          PairModel model =
              PairModel::Learn(learn_slice.Series(p.a).Values(),
                               learn_slice.Series(p.b).Values(), mc.model);
          const ThresholdCalibration calibration = CalibrateOnHoldout(
              model, calib_slice.Series(p.a).Values(),
              calib_slice.Series(p.b).Values(), config.calibrate_fpr);
          model.SetAlarmThresholds(calibration.fitness_threshold,
                                   calibration.delta);
          monitor.AddPair(p, std::move(model));
        }
      } else {
        const auto& pairs = monitor.Graph().Pairs();
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          if (d.full.Info(pairs[i].a).machine == change.machine ||
              d.full.Info(pairs[i].b).machine == change.machine) {
            monitor.RetirePair(i);
          }
        }
      }
    }
  }
  run_segment(seg_start, s.TraceEnd());

  // Morphological closing: a broken correlation alarms in dense flickers
  // (an in-range sample re-anchors the sequence for a step or two), so a
  // single healthy sample between two unhealthy ones is part of the same
  // incident. Ambient bursts are isolated and unaffected.
  for (std::size_t t = 1; t + 1 < health.size(); ++t) {
    if (health[t] && *health[t] >= threshold && health[t - 1] &&
        *health[t - 1] < threshold && health[t + 1] &&
        *health[t + 1] < threshold) {
      health[t] = std::max(*health[t - 1], *health[t + 1]);
    }
  }

  const DetectionOutcome outcome = ScoreHealth(health, d, threshold, config);

  bool any_alarming = false;
  for (std::size_t m = 0; m < l; ++m) any_alarming |= alarm_qa_n[m] > 0;
  if (any_alarming) {
    std::vector<std::optional<double>> per_measurement(l);
    for (std::size_t m = 0; m < l; ++m) {
      if (alarm_qa_n[m] > 0) {
        per_measurement[m] =
            alarm_qa_sum[m] / static_cast<double>(alarm_qa_n[m]);
      }
    }
    return Finish("pmcorr", s, outcome,
                  ScoreMachines(d.full.Infos(), per_measurement));
  }
  const LocalizationReport report =
      Localize(monitor.Infos(), monitor.MeasurementAverages());
  return Finish("pmcorr", s, outcome, report.ranking);
}

// ---------------------------------------------------------------------
// ewma / zscore: per-measurement charts; system health is the fraction
// of non-alarming measurements, localization the per-machine alarm rate.

template <typename LearnFn, typename AlarmFn>
DetectorScore RunPerMeasurement(const std::string& name,
                                const QualityScenario& s,
                                const ScenarioData& d,
                                const ScorecardConfig& config, LearnFn learn,
                                AlarmFn alarm) {
  const std::size_t l = d.full.MeasurementCount();
  const std::size_t n = d.test.SampleCount();
  std::vector<bool> armed(l, false);
  for (std::size_t m = 0; m < l; ++m) {
    const MeasurementId mid(static_cast<std::int32_t>(m));
    const auto finite = FiniteValues(d.train.Series(mid).Values());
    if (finite.size() >= kMinTrainSamples) {
      learn(m, finite);
      armed[m] = true;
    }
  }

  std::vector<std::size_t> alarms_of(l, 0), votes_of(l, 0);
  std::vector<std::optional<double>> health(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::size_t voting = 0;
    std::size_t alarming = 0;
    for (std::size_t m = 0; m < l; ++m) {
      if (!armed[m]) continue;
      const double v =
          d.test.Value(MeasurementId(static_cast<std::int32_t>(m)), t);
      if (!std::isfinite(v)) continue;
      ++voting;
      ++votes_of[m];
      if (alarm(m, v)) {
        ++alarming;
        ++alarms_of[m];
      }
    }
    if (voting > 0) {
      health[t] =
          1.0 - static_cast<double>(alarming) / static_cast<double>(voting);
    }
  }

  const DetectionOutcome outcome =
      ScoreHealth(health, d, 1.0 - config.alarm_fraction, config);
  std::vector<std::optional<double>> per_measurement(l);
  for (std::size_t m = 0; m < l; ++m) {
    if (votes_of[m] > 0) {
      per_measurement[m] = 1.0 - static_cast<double>(alarms_of[m]) /
                                     static_cast<double>(votes_of[m]);
    }
  }
  return Finish(name, s, outcome,
                ScoreMachines(d.full.Infos(), per_measurement));
}

DetectorScore RunEwma(const QualityScenario& s, const ScenarioData& d,
                      const ScorecardConfig& config) {
  std::vector<std::optional<EwmaDetector>> detectors(
      d.full.MeasurementCount());
  return RunPerMeasurement(
      "ewma", s, d, config,
      [&](std::size_t m, const std::vector<double>& finite) {
        detectors[m] = EwmaDetector::Learn(finite);
      },
      [&](std::size_t m, double v) { return detectors[m]->Observe(v).alarm; });
}

DetectorScore RunZScore(const QualityScenario& s, const ScenarioData& d,
                        const ScorecardConfig& config) {
  std::vector<std::optional<ZScoreDetector>> detectors(
      d.full.MeasurementCount());
  return RunPerMeasurement(
      "zscore", s, d, config,
      [&](std::size_t m, const std::vector<double>& finite) {
        detectors[m] = ZScoreDetector::Learn(finite);
      },
      [&](std::size_t m, double v) { return detectors[m]->Alarm(v); });
}

// ---------------------------------------------------------------------
// gmm / linear_invariant: pairwise models over the same pair graph as
// pmcorr; system health is the fraction of engaged pairs scoring above
// pair_score_threshold (one broken machine's pairs must register even
// when the fleet-wide mean barely moves), localization the mean score
// of a measurement's pairs aggregated per machine.

template <typename FitFn, typename ScoreFn>
DetectorScore RunPairwise(const std::string& name, const QualityScenario& s,
                          const ScenarioData& d,
                          const MeasurementGraph& graph,
                          const ScorecardConfig& config,
                          std::size_t min_train_points, FitFn fit,
                          ScoreFn score_point) {
  const std::size_t l = d.full.MeasurementCount();
  const std::size_t n = d.test.SampleCount();
  const auto& pairs = graph.Pairs();
  std::vector<bool> armed(pairs.size(), false);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    FinitePairPoints(d.train.Series(pairs[i].a).Values(),
                     d.train.Series(pairs[i].b).Values(), xs, ys);
    if (xs.size() >= min_train_points) armed[i] = fit(i, xs, ys);
  }

  std::vector<double> score_sum(l, 0.0);
  std::vector<std::size_t> score_n(l, 0);
  std::vector<std::optional<double>> health(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::size_t alarming = 0;
    std::size_t engaged = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!armed[i]) continue;
      const double x = d.test.Value(pairs[i].a, t);
      const double y = d.test.Value(pairs[i].b, t);
      if (!std::isfinite(x) || !std::isfinite(y)) continue;
      const double sc = score_point(i, x, y);
      ++engaged;
      if (sc < config.pair_score_threshold) ++alarming;
      score_sum[static_cast<std::size_t>(pairs[i].a.value)] += sc;
      ++score_n[static_cast<std::size_t>(pairs[i].a.value)];
      score_sum[static_cast<std::size_t>(pairs[i].b.value)] += sc;
      ++score_n[static_cast<std::size_t>(pairs[i].b.value)];
    }
    if (engaged > 0) {
      health[t] =
          1.0 - static_cast<double>(alarming) / static_cast<double>(engaged);
    }
  }

  const DetectionOutcome outcome =
      ScoreHealth(health, d, 1.0 - config.alarm_fraction, config);
  std::vector<std::optional<double>> per_measurement(l);
  for (std::size_t m = 0; m < l; ++m) {
    if (score_n[m] > 0) {
      per_measurement[m] = score_sum[m] / static_cast<double>(score_n[m]);
    }
  }
  return Finish(name, s, outcome,
                ScoreMachines(d.full.Infos(), per_measurement));
}

DetectorScore RunGmm(const QualityScenario& s, const ScenarioData& d,
                     const MeasurementGraph& graph,
                     const ScorecardConfig& config) {
  std::vector<std::optional<GaussianMixtureModel>> models(graph.PairCount());
  return RunPairwise(
      "gmm", s, d, graph, config, 2 * kMinTrainSamples,
      [&](std::size_t i, const std::vector<double>& xs,
          const std::vector<double>& ys) {
        models[i] = GaussianMixtureModel::Fit(xs, ys);
        return true;
      },
      [&](std::size_t i, double x, double y) {
        return models[i]->Score(x, y);
      });
}

DetectorScore RunLinearInvariant(const QualityScenario& s,
                                 const ScenarioData& d,
                                 const MeasurementGraph& graph,
                                 const ScorecardConfig& config) {
  std::vector<std::optional<LinearInvariant>> invariants(graph.PairCount());
  return RunPairwise(
      "linear_invariant", s, d, graph, config, kMinTrainSamples,
      [&](std::size_t i, const std::vector<double>& xs,
          const std::vector<double>& ys) {
        // Learn rejects pairs without a linear invariant (low R^2) —
        // exactly the paper's motivating gap; those pairs stay unarmed.
        invariants[i] = LinearInvariant::Learn(xs, ys);
        return invariants[i].has_value();
      },
      [&](std::size_t i, double x, double y) {
        return invariants[i]->Evaluate(x, y).score;
      });
}

// ---------------------------------------------------------------------
// subspace: one system-level SPE per sample. NaNs (absent machines,
// dropouts) are imputed with the per-measurement training mean — the
// standard PCA practice, and the graceful-degradation convention here.

DetectorScore RunSubspace(const QualityScenario& s, const ScenarioData& d,
                          const ScorecardConfig& config) {
  const std::size_t l = d.full.MeasurementCount();
  const std::size_t n = d.test.SampleCount();

  std::vector<double> train_mean(l, 0.0);
  MeasurementFrame sanitized(d.train.StartTime(), d.train.Period());
  for (std::size_t m = 0; m < l; ++m) {
    const MeasurementId mid(static_cast<std::int32_t>(m));
    std::vector<double> values(d.train.Series(mid).Values().begin(),
                               d.train.Series(mid).Values().end());
    const auto finite = FiniteValues(values);
    if (!finite.empty()) {
      double sum = 0.0;
      for (double v : finite) sum += v;
      train_mean[m] = sum / static_cast<double>(finite.size());
    }
    for (double& v : values) {
      if (!std::isfinite(v)) v = train_mean[m];
    }
    sanitized.Add(d.train.Info(mid),
                  TimeSeries(d.train.StartTime(), d.train.Period(),
                             std::move(values)));
  }
  const SubspaceDetector detector = SubspaceDetector::Fit(sanitized);
  const double thr = detector.Threshold();

  std::vector<double> contrib_sum(l, 0.0);
  std::vector<double> contrib_sum_all(l, 0.0);
  std::size_t alarming_samples = 0;
  std::vector<std::optional<double>> health(n);
  std::vector<double> row(l);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t m = 0; m < l; ++m) {
      const double v =
          d.test.Value(MeasurementId(static_cast<std::int32_t>(m)), t);
      row[m] = std::isfinite(v) ? v : train_mean[m];
    }
    const double spe = detector.Spe(row);
    // Graded health: 1 at SPE 0, 0.5 exactly at the fitted boundary —
    // so config.subspace_threshold = 0.5 alarms when SPE crosses it.
    health[t] = thr > 0.0 ? thr / (thr + spe) : (spe > 0.0 ? 0.0 : 1.0);
    const bool alarming = spe > thr;
    const auto contributions = detector.ResidualContributions(row);
    for (std::size_t m = 0; m < l; ++m) {
      contrib_sum_all[m] += contributions[m];
      if (alarming) contrib_sum[m] += contributions[m];
    }
    if (alarming) ++alarming_samples;
  }

  const DetectionOutcome outcome =
      ScoreHealth(health, d, config.subspace_threshold, config);

  // Rank by mean residual contribution over the alarming samples (all
  // samples when none alarmed): biggest contributor = prime suspect,
  // expressed as a health-like score so the ascending sort applies.
  const auto& sums = alarming_samples > 0 ? contrib_sum : contrib_sum_all;
  const double denom = static_cast<double>(
      alarming_samples > 0 ? alarming_samples : std::max<std::size_t>(1, n));
  std::vector<std::optional<double>> per_measurement(l);
  for (std::size_t m = 0; m < l; ++m) {
    per_measurement[m] = 1.0 / (1.0 + sums[m] / denom);
  }
  return Finish("subspace", s, outcome,
                ScoreMachines(d.full.Infos(), per_measurement));
}

void AppendNumber(std::ostringstream& out, const std::string& key,
                  double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out << ",\n  \"" << key << "\": " << buf;
}

void AppendInteger(std::ostringstream& out, const std::string& key,
                   long long value) {
  out << ",\n  \"" << key << "\": " << value;
}

}  // namespace

double LocalizationRankOf(const std::vector<MachineScore>& ranking,
                          MachineId machine) {
  if (!machine.valid()) return kRankNotApplicable;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].machine == machine) return static_cast<double>(i + 1);
  }
  // Absent from the ranking: every measurement disengaged for the whole
  // run. Pinned to "after every ranked machine" so degraded-mode runs
  // produce a defined, stable number instead of an accidental one.
  return static_cast<double>(ranking.size() + 1);
}

const std::vector<std::string>& ScorecardDetectors() {
  static const std::vector<std::string> kDetectors = {
      "pmcorr", "ewma", "zscore", "gmm", "subspace", "linear_invariant"};
  return kDetectors;
}

ScenarioResult RunScenarioScorecard(const QualityScenario& scenario,
                                    const ScorecardConfig& config) {
  const ScenarioData d = PrepareScenario(scenario);
  const MeasurementGraph graph = MeasurementGraph::Neighborhood(
      d.train, config.remote_partners, config.graph_seed);

  ScenarioResult result;
  result.name = scenario.name;
  result.detectors.push_back(RunPmcorr(scenario, d, graph, config));
  result.detectors.push_back(RunEwma(scenario, d, config));
  result.detectors.push_back(RunZScore(scenario, d, config));
  result.detectors.push_back(RunGmm(scenario, d, graph, config));
  result.detectors.push_back(RunSubspace(scenario, d, config));
  result.detectors.push_back(RunLinearInvariant(scenario, d, graph, config));
  return result;
}

std::vector<ScenarioResult> RunScorecard(const ScorecardConfig& config) {
  const ScenarioSuite suite = MakeScenarioSuite(config.suite);
  std::vector<ScenarioResult> results;
  results.reserve(suite.scenarios.size());
  for (const QualityScenario& scenario : suite.scenarios) {
    results.push_back(RunScenarioScorecard(scenario, config));
  }
  return results;
}

void WriteScorecardJson(const std::string& path,
                        const ScorecardConfig& config,
                        const std::vector<ScenarioResult>& results) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"quality\"";
  out << ",\n  \"mode\": \"" << config.mode << "\"";
  AppendInteger(out, "seed", static_cast<long long>(config.suite.seed));
  AppendInteger(out, "machines",
                static_cast<long long>(config.suite.machine_count));
  AppendInteger(out, "trace_days", config.suite.trace_days);
  AppendInteger(out, "scenarios", static_cast<long long>(results.size()));

  std::vector<double> f1_sum(ScorecardDetectors().size(), 0.0);
  for (const ScenarioResult& r : results) {
    for (std::size_t k = 0; k < r.detectors.size(); ++k) {
      const DetectorScore& ds = r.detectors[k];
      const std::string prefix = r.name + "." + ds.detector + ".";
      AppendNumber(out, prefix + "precision", ds.outcome.Precision());
      AppendNumber(out, prefix + "recall", ds.outcome.Recall());
      AppendNumber(out, prefix + "f1", ds.outcome.F1());
      AppendNumber(out, prefix + "latency_s",
                   ds.outcome.MeanLatencyOr(kLatencyUnavailableSeconds));
      AppendNumber(out, prefix + "loc_rank", ds.localization_rank);
      AppendInteger(out, prefix + "truth_windows",
                    static_cast<long long>(ds.outcome.truth_windows));
      AppendInteger(out, prefix + "alarm_windows",
                    static_cast<long long>(ds.outcome.alarm_windows));
      AppendInteger(out, prefix + "detected",
                    static_cast<long long>(ds.outcome.detected));
      AppendInteger(out, prefix + "false_alarms",
                    static_cast<long long>(ds.outcome.false_alarms));
      if (k < f1_sum.size()) f1_sum[k] += ds.outcome.F1();
    }
  }
  if (!results.empty()) {
    for (std::size_t k = 0; k < ScorecardDetectors().size(); ++k) {
      AppendNumber(out, ScorecardDetectors()[k] + ".mean_f1",
                   f1_sum[k] / static_cast<double>(results.size()));
    }
  }
  out << "\n}\n";

  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw std::runtime_error("scorecard: cannot open " + path);
  }
  file << out.str();
  if (!file.good()) {
    throw std::runtime_error("scorecard: failed writing " + path);
  }
}

}  // namespace pmcorr
