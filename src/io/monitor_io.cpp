#include "io/monitor_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/atomic_file.h"
#include "io/framing.h"
#include "io/model_io.h"

namespace pmcorr {
namespace {

constexpr std::string_view kContext = "LoadSystemMonitor";

// Declared-size ceilings: a checkpoint names its measurement and pair
// counts up front and the loader reserves accordingly, so corrupt values
// must be rejected before they turn into allocations. Production fleets
// run hundreds of pairs; a million of either is far beyond any real
// deployment yet still only megabytes of reserve.
constexpr std::size_t kMaxMeasurements = 1u << 20;
constexpr std::size_t kMaxPairs = 1u << 20;

// Upper bound on the generation slots the path-based loader probes —
// far above any sane CheckpointConfig::generations, purely a loop cap.
constexpr std::size_t kMaxCheckpointGenerations = 32;

void WriteDouble(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

void EncodeSystemMonitor(const SystemMonitor& monitor, std::string& out) {
  const MeasurementGraph& graph = monitor.Graph();
  out.clear();
  WireWriter w(out);
  std::size_t frame = BeginFrame(kCheckpointHeaderFrame, out);
  w.U32(kCheckpointFormatVersion);
  w.U32(static_cast<std::uint32_t>(monitor.MeasurementCount()));
  for (const MeasurementInfo& info : monitor.Infos()) {
    w.U32(static_cast<std::uint32_t>(info.machine.value));
    w.U8(static_cast<std::uint8_t>(info.kind));
    w.Str(info.name);
  }
  w.U32(static_cast<std::uint32_t>(graph.PairCount()));
  for (const PairId& pair : graph.Pairs()) {
    w.U32(static_cast<std::uint32_t>(pair.a.value));
    w.U32(static_cast<std::uint32_t>(pair.b.value));
  }
  w.U64(monitor.StepCount());
  w.F64(monitor.SystemAverage().Sum());
  w.U64(monitor.SystemAverage().Count());
  for (const ScoreAverager& avg : monitor.MeasurementAverages()) {
    w.F64(avg.Sum());
    w.U64(avg.Count());
  }
  EndFrame(frame, out);

  for (std::size_t i = 0; i < graph.PairCount(); ++i) {
    AppendPairModelFrames(monitor.Model(i), out);
  }
  frame = BeginFrame(kCheckpointEndFrame, out);
  w.U32(static_cast<std::uint32_t>(graph.PairCount()));
  EndFrame(frame, out);
}

namespace {

std::unique_ptr<SystemMonitor> DecodeSystemMonitor(std::string_view bytes,
                                                   std::size_t threads) {
  if (bytes.starts_with("pmcorr-monitor v1")) {
    throw std::runtime_error(
        "LoadSystemMonitor: a pmcorr-monitor v1 text checkpoint; this "
        "version reads framed binary checkpoints only");
  }
  FrameReader frames;
  frames.Feed(bytes);
  const Frame head = ExpectFrame(frames, kCheckpointHeaderFrame, kContext);
  WireReader r(head.payload, kContext);
  const std::uint32_t version = r.U32();
  if (version != kCheckpointFormatVersion) {
    r.Fail("unsupported format version " + std::to_string(version));
  }

  const std::uint32_t measurement_count = r.U32();
  if (measurement_count > kMaxMeasurements) {
    r.Fail("declared measurement count " + std::to_string(measurement_count) +
           " exceeds limit");
  }
  std::vector<MeasurementInfo> infos;
  infos.reserve(measurement_count);
  for (std::uint32_t i = 0; i < measurement_count; ++i) {
    const std::uint32_t machine = r.U32();
    if (machine > static_cast<std::uint32_t>(
                      std::numeric_limits<std::int32_t>::max())) {
      r.Fail("bad machine id");
    }
    const std::uint8_t kind = r.U8();
    if (MetricKindName(static_cast<MetricKind>(kind)) == "UnknownMetric") {
      r.Fail("unknown metric kind");
    }
    MeasurementInfo info;
    info.id = MeasurementId(static_cast<std::int32_t>(i));
    info.machine = MachineId(static_cast<std::int32_t>(machine));
    info.kind = static_cast<MetricKind>(kind);
    info.name = std::string(r.Str());
    infos.push_back(std::move(info));
  }

  const std::uint32_t pair_count = r.U32();
  if (pair_count > kMaxPairs) {
    r.Fail("declared pair count " + std::to_string(pair_count) +
           " exceeds limit");
  }
  std::vector<PairId> pairs;
  pairs.reserve(pair_count);
  for (std::uint32_t i = 0; i < pair_count; ++i) {
    const std::uint32_t a = r.U32();
    const std::uint32_t b = r.U32();
    // The encoder writes each pair as (a < b), the order PairId keeps.
    // Out-of-range ids are rejected by MeasurementGraph::FromPairs below.
    if (a >= b) r.Fail("pair members not ascending");
    pairs.emplace_back(MeasurementId(static_cast<std::int32_t>(a)),
                       MeasurementId(static_cast<std::int32_t>(b)));
  }

  const std::uint64_t steps = r.U64();
  const double system_sum = r.F64();
  const std::uint64_t system_count = r.U64();
  if (!std::isfinite(system_sum) || system_count > steps) {
    r.Fail("bad aggregates");
  }
  std::vector<ScoreAverager> measurement_avgs;
  measurement_avgs.reserve(measurement_count);
  for (std::uint32_t i = 0; i < measurement_count; ++i) {
    const double sum = r.F64();
    const std::uint64_t count = r.U64();
    if (!std::isfinite(sum) || count > steps) r.Fail("bad averager");
    measurement_avgs.push_back(ScoreAverager::FromState(sum, count));
  }
  r.ExpectEnd();

  std::vector<PairModel> models;
  models.reserve(pair_count);
  for (std::uint32_t i = 0; i < pair_count; ++i) {
    models.push_back(ReadPairModelFrames(frames));
  }
  const Frame end = ExpectFrame(frames, kCheckpointEndFrame, kContext);
  WireReader e(end.payload, "LoadSystemMonitor: end frame");
  if (e.U32() != pair_count) e.Fail("pair count mismatch");
  e.ExpectEnd();
  if (frames.BufferedBytes() != 0) {
    throw std::runtime_error("LoadSystemMonitor: bytes after the end frame");
  }

  MonitorConfig config;
  config.threads = threads;
  if (!models.empty()) config.model = models.front().Config();

  try {
    return std::make_unique<SystemMonitor>(
        config,
        MeasurementGraph::FromPairs(measurement_count, std::move(pairs)),
        std::move(infos), std::move(models), std::move(measurement_avgs),
        ScoreAverager::FromState(system_sum, system_count), steps);
  } catch (const std::invalid_argument& error) {
    // FromPairs rejects self/duplicate/out-of-range pairs and the
    // monitor constructor rejects inconsistent part counts with
    // invalid_argument; a corrupt checkpoint must surface as this
    // loader's documented error type instead.
    throw std::runtime_error(std::string("LoadSystemMonitor: ") +
                             error.what());
  }
}

std::string GenerationPath(const std::string& path, std::size_t generation) {
  if (generation == 0) return path;
  return path + ".g" + std::to_string(generation);
}

bool ReadFileBytes(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  bytes = std::move(buffer).str();
  return static_cast<bool>(in);
}

}  // namespace

void SaveSystemMonitor(const SystemMonitor& monitor, std::ostream& out) {
  std::string bytes;
  EncodeSystemMonitor(monitor, bytes);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("SaveSystemMonitor: write failed");
}

void WriteCheckpointFile(const std::string& path, std::string_view bytes,
                         const CheckpointConfig& config) {
  // Rotate generations oldest-first: g -> g+1, dropping the oldest.
  // Each shift is a single rename (atomic), so a crash anywhere in the
  // loop leaves every checkpoint either at its old or its new slot —
  // never torn — and the loader probes all slots anyway.
  const std::size_t keep = std::max<std::size_t>(1, config.generations);
  for (std::size_t g = keep; g-- > 1;) {
    // Ignore failures: the source generation may simply not exist yet.
    std::rename(GenerationPath(path, g - 1).c_str(),
                GenerationPath(path, g).c_str());
  }
  AtomicWriteFile(path, bytes);
}

void SaveSystemMonitor(const SystemMonitor& monitor, const std::string& path,
                       const CheckpointConfig& config) {
  std::string bytes;
  EncodeSystemMonitor(monitor, bytes);
  WriteCheckpointFile(path, bytes, config);
}

void SaveSystemMonitor(const SystemMonitor& monitor,
                       const std::string& path) {
  SaveSystemMonitor(monitor, path, CheckpointConfig{});
}

std::unique_ptr<SystemMonitor> LoadSystemMonitor(std::istream& in,
                                                 std::size_t threads) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DecodeSystemMonitor(buffer.view(), threads);
}

std::unique_ptr<SystemMonitor> LoadSystemMonitor(
    const std::string& path, std::size_t threads,
    CheckpointRecoveryInfo* recovery) {
  // Probe generations newest-first; the first one whose frames all pass
  // their CRCs and full load-time validation wins. The probe stops at
  // the first missing slot past generation 1 (rotation never leaves
  // holes beyond a single in-flight shift).
  std::vector<std::string> rejected;
  std::size_t missing_run = 0;
  for (std::size_t g = 0; g < kMaxCheckpointGenerations; ++g) {
    const std::string candidate = GenerationPath(path, g);
    std::string bytes;
    if (!ReadFileBytes(candidate, bytes)) {
      rejected.push_back(candidate + ": cannot open");
      if (g > 0 && ++missing_run >= 2) break;
      continue;
    }
    missing_run = 0;
    try {
      auto monitor = DecodeSystemMonitor(bytes, threads);
      if (recovery) {
        recovery->loaded_path = candidate;
        recovery->generation = g;
        recovery->rejected = std::move(rejected);
      }
      return monitor;
    } catch (const std::runtime_error& error) {
      rejected.push_back(candidate + ": " + error.what());
    }
  }
  std::string message = "LoadSystemMonitor: no recoverable checkpoint at " +
                        path;
  for (const std::string& reason : rejected) message += "\n  " + reason;
  throw std::runtime_error(message);
}

namespace {

void WriteScoreArray(std::ostream& out,
                     const std::vector<std::optional<double>>& scores) {
  out << "[";
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i > 0) out << ",";
    if (scores[i]) {
      WriteDouble(out, *scores[i]);
    } else {
      out << "null";
    }
  }
  out << "]";
}

}  // namespace

void WriteSnapshotStreamJsonl(const std::vector<SystemSnapshot>& snapshots,
                              std::ostream& out) {
  for (const SystemSnapshot& snap : snapshots) {
    out << "{\"sample\":" << snap.sample << ",\"t\":" << snap.time
        << ",\"q\":";
    if (snap.system_score) {
      WriteDouble(out, *snap.system_score);
    } else {
      out << "null";
    }
    out << ",\"qa\":";
    WriteScoreArray(out, snap.measurement_scores);
    out << ",\"pair_scores\":";
    WriteScoreArray(out, snap.pair_scores);
    out << ",\"alarmed\":[";
    for (std::size_t i = 0; i < snap.alarmed_pairs.size(); ++i) {
      if (i > 0) out << ",";
      out << snap.alarmed_pairs[i];
    }
    out << "],\"outliers\":" << snap.outlier_pairs
        << ",\"extended\":" << snap.extended_pairs << "}\n";
  }
  if (!out) throw std::runtime_error("WriteSnapshotStreamJsonl: write failed");
}

namespace {

// Strict left-to-right cursor over one JSONL line. The writer emits a
// fixed field order with no insignificant whitespace, so the reader can
// demand byte-exact structure; anything else is a parse error, never a
// crash or a silent skip.
class LineCursor {
 public:
  LineCursor(std::string_view text, std::size_t line_no,
             std::string_view context)
      : text_(text), line_no_(line_no), context_(context) {}

  void Expect(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) {
      Fail("expected '" + std::string(token) + "'");
    }
    pos_ += token.size();
  }

  bool TryExpect(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  double Number() {
    double value = 0.0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto result = std::from_chars(begin, end, value);
    if (result.ec != std::errc{} || !std::isfinite(value)) {
      Fail("bad number");
    }
    pos_ += static_cast<std::size_t>(result.ptr - begin);
    return value;
  }

  std::optional<double> NumberOrNull() {
    if (TryExpect("null")) return std::nullopt;
    return Number();
  }

  std::uint64_t UInt() {
    std::uint64_t value = 0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto result = std::from_chars(begin, end, value);
    if (result.ec != std::errc{}) Fail("bad unsigned integer");
    pos_ += static_cast<std::size_t>(result.ptr - begin);
    return value;
  }

  std::int64_t Int() {
    std::int64_t value = 0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto result = std::from_chars(begin, end, value);
    if (result.ec != std::errc{}) Fail("bad integer");
    pos_ += static_cast<std::size_t>(result.ptr - begin);
    return value;
  }

  void ExpectEnd() {
    if (pos_ != text_.size()) Fail("trailing bytes after object");
  }

  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error(std::string(context_) + ": line " +
                             std::to_string(line_no_) + ": " + what);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_;
  std::string_view context_;
};

void WriteChangeArray(std::ostream& out,
                      const std::vector<ScoreChange>& changes) {
  out << "[";
  for (std::size_t i = 0; i < changes.size(); ++i) {
    if (i > 0) out << ",";
    out << "[" << changes[i].index << ",";
    WriteDouble(out, changes[i].score);
    out << "]";
  }
  out << "]";
}

void WriteIndexArray(std::ostream& out,
                     const std::vector<std::uint32_t>& indices) {
  out << "[";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i > 0) out << ",";
    out << indices[i];
  }
  out << "]";
}

// Reads [[index,score],...] with every index below `width`.
std::vector<ScoreChange> ReadChangeArray(LineCursor& cursor,
                                         std::uint32_t width) {
  std::vector<ScoreChange> changes;
  cursor.Expect("[");
  if (!cursor.TryExpect("]")) {
    do {
      cursor.Expect("[");
      ScoreChange change;
      const std::uint64_t index = cursor.UInt();
      if (index >= width) cursor.Fail("change index out of range");
      change.index = static_cast<std::uint32_t>(index);
      cursor.Expect(",");
      change.score = cursor.Number();
      cursor.Expect("]");
      changes.push_back(change);
    } while (cursor.TryExpect(","));
    cursor.Expect("]");
  }
  return changes;
}

std::vector<std::uint32_t> ReadIndexArray(LineCursor& cursor,
                                          std::uint32_t width) {
  std::vector<std::uint32_t> indices;
  cursor.Expect("[");
  if (!cursor.TryExpect("]")) {
    do {
      const std::uint64_t index = cursor.UInt();
      if (index >= width) cursor.Fail("index out of range");
      indices.push_back(static_cast<std::uint32_t>(index));
    } while (cursor.TryExpect(","));
    cursor.Expect("]");
  }
  return indices;
}

bool ReadBool(LineCursor& cursor) {
  if (cursor.TryExpect("true")) return true;
  if (cursor.TryExpect("false")) return false;
  cursor.Fail("expected true or false");
}

}  // namespace

void WriteDeltaStreamJsonl(const std::vector<SystemDelta>& deltas,
                           std::ostream& out) {
  for (const SystemDelta& d : deltas) {
    out << "{\"sample\":" << d.sample << ",\"t\":" << d.time
        << ",\"baseline\":" << (d.baseline ? "true" : "false")
        << ",\"pairs\":" << d.pair_count
        << ",\"measurements\":" << d.measurement_count << ",\"q\":";
    if (d.system_score) {
      WriteDouble(out, *d.system_score);
    } else {
      out << "null";
    }
    out << ",\"pair_changes\":";
    WriteChangeArray(out, d.pair_changes);
    out << ",\"pair_disengaged\":";
    WriteIndexArray(out, d.pair_disengaged);
    out << ",\"qa_changes\":";
    WriteChangeArray(out, d.measurement_changes);
    out << ",\"qa_disengaged\":";
    WriteIndexArray(out, d.measurement_disengaged);
    out << ",\"alarmed\":[";
    for (std::size_t i = 0; i < d.alarmed_pairs.size(); ++i) {
      if (i > 0) out << ",";
      out << d.alarmed_pairs[i];
    }
    out << "],\"outliers\":" << d.outlier_pairs
        << ",\"extended\":" << d.extended_pairs
        << ",\"event\":" << static_cast<int>(d.stream_event)
        << ",\"suppressed\":" << d.suppressed_values
        << ",\"quarantined\":" << d.quarantined_pairs
        << ",\"health\":" << (d.has_health ? "true" : "false")
        << ",\"health_changes\":[";
    for (std::size_t i = 0; i < d.health_changes.size(); ++i) {
      if (i > 0) out << ",";
      out << "[" << d.health_changes[i].index << ","
          << static_cast<int>(d.health_changes[i].health) << "]";
    }
    out << "]}\n";
  }
  if (!out) throw std::runtime_error("WriteDeltaStreamJsonl: write failed");
}

std::vector<SystemDelta> ReadDeltaStreamJsonl(std::istream& in) {
  std::vector<SystemDelta> deltas;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    LineCursor cursor(line, line_no, "ReadDeltaStreamJsonl");
    SystemDelta d;

    cursor.Expect("{\"sample\":");
    d.sample = static_cast<std::size_t>(cursor.UInt());
    cursor.Expect(",\"t\":");
    d.time = cursor.Int();
    cursor.Expect(",\"baseline\":");
    d.baseline = ReadBool(cursor);
    cursor.Expect(",\"pairs\":");
    const std::uint64_t pairs = cursor.UInt();
    if (pairs > kMaxPairs) cursor.Fail("declared pair count exceeds limit");
    d.pair_count = static_cast<std::uint32_t>(pairs);
    cursor.Expect(",\"measurements\":");
    const std::uint64_t measurements = cursor.UInt();
    if (measurements > kMaxMeasurements) {
      cursor.Fail("declared measurement count exceeds limit");
    }
    d.measurement_count = static_cast<std::uint32_t>(measurements);
    cursor.Expect(",\"q\":");
    d.system_score = cursor.NumberOrNull();
    cursor.Expect(",\"pair_changes\":");
    d.pair_changes = ReadChangeArray(cursor, d.pair_count);
    cursor.Expect(",\"pair_disengaged\":");
    d.pair_disengaged = ReadIndexArray(cursor, d.pair_count);
    cursor.Expect(",\"qa_changes\":");
    d.measurement_changes = ReadChangeArray(cursor, d.measurement_count);
    cursor.Expect(",\"qa_disengaged\":");
    d.measurement_disengaged = ReadIndexArray(cursor, d.measurement_count);

    cursor.Expect(",\"alarmed\":[");
    if (cursor.Peek() != ']') {
      do {
        const std::uint64_t pair = cursor.UInt();
        if (pair >= d.pair_count) {
          cursor.Fail("alarmed pair index out of range");
        }
        if (!d.alarmed_pairs.empty() && pair <= d.alarmed_pairs.back()) {
          cursor.Fail("alarmed pair indices not strictly increasing");
        }
        d.alarmed_pairs.push_back(static_cast<std::size_t>(pair));
      } while (cursor.TryExpect(","));
    }
    cursor.Expect("]");

    cursor.Expect(",\"outliers\":");
    d.outlier_pairs = static_cast<std::size_t>(cursor.UInt());
    cursor.Expect(",\"extended\":");
    d.extended_pairs = static_cast<std::size_t>(cursor.UInt());
    cursor.Expect(",\"event\":");
    const std::uint64_t event = cursor.UInt();
    if (event > static_cast<std::uint64_t>(StreamEvent::kOutOfOrder)) {
      cursor.Fail("unknown stream event code");
    }
    d.stream_event = static_cast<StreamEvent>(event);
    cursor.Expect(",\"suppressed\":");
    d.suppressed_values = static_cast<std::size_t>(cursor.UInt());
    cursor.Expect(",\"quarantined\":");
    d.quarantined_pairs = static_cast<std::size_t>(cursor.UInt());
    cursor.Expect(",\"health\":");
    d.has_health = ReadBool(cursor);
    cursor.Expect(",\"health_changes\":[");
    if (cursor.Peek() != ']') {
      do {
        cursor.Expect("[");
        HealthChange change;
        const std::uint64_t index = cursor.UInt();
        if (index >= d.measurement_count) {
          cursor.Fail("health change index out of range");
        }
        change.index = static_cast<std::uint32_t>(index);
        cursor.Expect(",");
        const std::uint64_t health = cursor.UInt();
        if (health > static_cast<std::uint64_t>(MeasurementHealth::kDead)) {
          cursor.Fail("unknown health code");
        }
        change.health = static_cast<MeasurementHealth>(health);
        cursor.Expect("]");
        d.health_changes.push_back(change);
      } while (cursor.TryExpect(","));
    }
    cursor.Expect("]");
    cursor.Expect("}");
    cursor.ExpectEnd();

    if (d.outlier_pairs > d.pair_count || d.extended_pairs > d.pair_count) {
      cursor.Fail("outlier/extended counts exceed pair count");
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

}  // namespace pmcorr
