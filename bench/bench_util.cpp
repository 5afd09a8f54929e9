#include "bench_util.h"

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "core/fitness.h"

namespace pmcorr::bench {

ModelConfig DefaultModelConfig() {
  ModelConfig config;
  config.partition.units = 50;
  config.partition.max_intervals = 14;
  config.lambda1 = 3.0;
  config.lambda2 = 3.0;
  return config;
}

PairRun RunPair(const MeasurementFrame& train, const MeasurementFrame& test,
                MeasurementId x, MeasurementId y, const ModelConfig& config) {
  PairModel model = PairModel::Learn(train.Series(x).Values(),
                                     train.Series(y).Values(), config);
  PairRun run;
  run.scores.resize(test.SampleCount());
  ScoreAverager avg;
  for (std::size_t t = 0; t < test.SampleCount(); ++t) {
    const StepOutcome out = model.Step(test.Value(x, t), test.Value(y, t));
    if (out.has_score) {
      run.scores[t] = out.fitness;
      avg.Add(out.fitness);
    }
    if (out.outlier) ++run.outliers;
    if (out.extended_grid) ++run.extensions;
  }
  run.average = avg.Mean();
  return run;
}

const char* const kQuarterLabels[4] = {"12am-6am", "6am-12pm", "12pm-6pm",
                                       "6pm-12am"};

int QuarterOf(TimePoint tp) {
  return static_cast<int>(SecondsIntoDay(tp) / (6 * kHour));
}

QuarterStats QuarterizeScores(const std::vector<std::optional<double>>& scores,
                              TimePoint start, Duration period) {
  QuarterStats stats;
  double sum[4] = {0, 0, 0, 0};
  std::size_t n[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!scores[i]) continue;
    const int q = QuarterOf(start + static_cast<Duration>(i) * period);
    sum[q] += *scores[i];
    if (n[q] == 0 || *scores[i] < stats.min[q]) stats.min[q] = *scores[i];
    ++n[q];
  }
  for (int q = 0; q < 4; ++q) {
    if (n[q] > 0) {
      stats.mean[q] = sum[q] / static_cast<double>(n[q]);
    } else {
      stats.min[q] = -1;
    }
  }
  return stats;
}

std::string PaperDay(TimePoint tp) { return FormatPaperDate(ToCivilDate(tp)); }

namespace {

// Shortest-round-trip double encoding; JSON has no Inf/NaN literals, so
// those degrade to null.
std::string EncodeNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string EncodeString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

// CPUs this process may run on: its affinity mask, falling back to the
// online CPU count.
std::int64_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

}  // namespace

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {
  Set("nproc", Nproc());
}

void BenchJson::Set(const std::string& key, double value) {
  entries_.emplace_back(key, EncodeNumber(value));
}

void BenchJson::Set(const std::string& key, std::int64_t value) {
  entries_.emplace_back(key, std::to_string(value));
}

void BenchJson::Set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, EncodeString(value));
}

std::string BenchJson::Write() const {
  const std::string path = BenchJsonDir() + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << "{\n  \"bench\": " << EncodeString(name_);
  for (const auto& [key, value] : entries_) {
    out << ",\n  " << EncodeString(key) << ": " << value;
  }
  out << "\n}\n";
  return out ? path : "";
}

MatrixBytes MonitorMatrixBytes(const SystemMonitor& monitor) {
  MatrixBytes sum;
  for (std::size_t i = 0; i < monitor.Graph().PairCount(); ++i) {
    const MatrixBytes b = monitor.Model(i).Matrix().Bytes();
    sum.stencil += b.stencil;
    sum.evidence += b.evidence;
    sum.counts += b.counts;
    sum.caches += b.caches;
  }
  return sum;
}

void SetMatrixBytes(BenchJson& json, const MatrixBytes& bytes) {
  const auto mib = [](std::size_t b) {
    return static_cast<double>(b) / 1048576.0;
  };
  json.Set("model_mib", mib(bytes.Total()));
  json.Set("stencil_mib", mib(bytes.stencil));
  json.Set("evidence_mib", mib(bytes.evidence));
  json.Set("counts_mib", mib(bytes.counts));
  json.Set("row_caches_mib", mib(bytes.caches));
}

std::string BenchJsonDir() {
  if (const char* dir = std::getenv("PMCORR_BENCH_JSON_DIR");
      dir != nullptr && *dir != '\0') {
    return dir;
  }
#ifdef PMCORR_REPO_ROOT
  return PMCORR_REPO_ROOT;
#else
  return ".";
#endif
}

}  // namespace pmcorr::bench
