#include "io/csv.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/string_util.h"
#include "io/atomic_file.h"

namespace pmcorr {
namespace {

MetricKind KindFromName(const std::string& name) {
  for (int k = 0;; ++k) {
    const auto kind = static_cast<MetricKind>(k);
    const std::string kind_name = MetricKindName(kind);
    if (kind_name == "UnknownMetric") break;
    if (kind_name == name) return kind;
  }
  throw std::runtime_error("ReadFrameCsv: unknown metric kind '" + name + "'");
}

}  // namespace

void WriteFrameCsv(const MeasurementFrame& frame, const std::string& path) {
  // Atomic replacement: a crash mid-write must not tear a previously
  // complete trace (io/atomic_file.h).
  AtomicWriteFile(path, [&](std::ostream& out) {
    out << "# pmcorr-trace v1 start=" << frame.StartTime()
        << " period=" << frame.Period() << "\n";
    for (const auto& info : frame.Infos()) {
      out << "# measurement," << info.machine.value << ","
          << MetricKindName(info.kind) << "," << info.name << "\n";
    }
    out << "time";
    for (const auto& info : frame.Infos()) out << "," << info.name;
    out << "\n";

    char buf[40];
    for (std::size_t t = 0; t < frame.SampleCount(); ++t) {
      out << frame.TimeAt(t);
      for (const auto& info : frame.Infos()) {
        std::snprintf(buf, sizeof(buf), "%.17g", frame.Value(info.id, t));
        out << "," << buf;
      }
      out << "\n";
    }
  });
}

namespace {

// Shared header parser for the two trace readers: consumes the version
// line, the measurement lines, and the "time,..." column header.
void ParseTraceHeader(std::istream& in, long long* start, long long* period,
                      std::vector<MeasurementInfo>* infos) {
  std::string line;
  if (!std::getline(in, line) || !StartsWith(line, "# pmcorr-trace v1")) {
    throw std::runtime_error("ReadFrameCsv: missing trace header");
  }
  const auto header_fields = Split(line, ' ');
  for (const auto& f : header_fields) {
    if (StartsWith(f, "start=")) {
      if (!ParseInt64(f.substr(6), start)) {
        throw std::runtime_error("ReadFrameCsv: bad start field");
      }
    } else if (StartsWith(f, "period=")) {
      if (!ParseInt64(f.substr(7), period)) {
        throw std::runtime_error("ReadFrameCsv: bad period field");
      }
    }
  }
  if (*period <= 0) throw std::runtime_error("ReadFrameCsv: bad period");
  if (*start < 0) throw std::runtime_error("ReadFrameCsv: negative start");

  while (std::getline(in, line)) {
    if (StartsWith(line, "# measurement,")) {
      const auto fields = Split(line.substr(2), ',');
      if (fields.size() != 4) {
        throw std::runtime_error("ReadFrameCsv: bad measurement line");
      }
      long long machine = 0;
      if (!ParseInt64(fields[1], &machine)) {
        throw std::runtime_error("ReadFrameCsv: bad machine id");
      }
      MeasurementInfo info;
      info.machine = MachineId(static_cast<std::int32_t>(machine));
      info.kind = KindFromName(fields[2]);
      info.name = fields[3];
      infos->push_back(std::move(info));
    } else {
      break;  // the header row ("time,...")
    }
  }
  if (!StartsWith(line, "time")) {
    throw std::runtime_error("ReadFrameCsv: missing column header");
  }
}

}  // namespace

MeasurementFrame ReadFrameCsv(std::istream& in) {
  long long start = 0, period = 0;
  std::vector<MeasurementInfo> infos;
  ParseTraceHeader(in, &start, &period, &infos);

  std::string line;
  std::vector<std::vector<double>> columns(infos.size());
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    const auto fields = Split(line, ',');
    if (fields.size() != infos.size() + 1) {
      throw std::runtime_error("ReadFrameCsv: row width mismatch");
    }
    for (std::size_t i = 0; i < infos.size(); ++i) {
      double v = 0.0;
      // NaN stays: it is the missing-sample marker the pair models
      // skip. Infinities have no producer and are rejected.
      if (!ParseDouble(fields[i + 1], &v) || std::isinf(v)) {
        throw std::runtime_error("ReadFrameCsv: bad value '" + fields[i + 1] +
                                 "'");
      }
      columns[i].push_back(v);
    }
  }

  // Timestamp arithmetic is start + sample * period throughout the
  // engine; reject headers where the last sample's time would overflow.
  const std::size_t samples = infos.empty() ? 0 : columns[0].size();
  if (samples > 0) {
    const long long max_time = std::numeric_limits<long long>::max();
    if (period > (max_time - start) / static_cast<long long>(samples)) {
      throw std::runtime_error("ReadFrameCsv: start/period overflow");
    }
  }

  MeasurementFrame frame(start, period);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    frame.Add(infos[i], TimeSeries(start, period, std::move(columns[i])));
  }
  return frame;
}

MeasurementFrame ReadFrameCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ReadFrameCsv: cannot open " + path);
  return ReadFrameCsv(in);
}

SampleStream ReadSampleStreamCsv(std::istream& in) {
  long long start = 0, period = 0;
  SampleStream stream;
  ParseTraceHeader(in, &start, &period, &stream.infos);
  stream.start = start;
  stream.period = period;

  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    const auto fields = Split(line, ',');
    if (fields.size() != stream.infos.size() + 1) {
      throw std::runtime_error("ReadSampleStreamCsv: row width mismatch");
    }
    SampleRow row;
    long long tp = 0;
    if (!ParseInt64(fields[0], &tp) || tp < 0) {
      throw std::runtime_error("ReadSampleStreamCsv: bad timestamp '" +
                               fields[0] + "'");
    }
    row.time = tp;
    row.values.reserve(stream.infos.size());
    for (std::size_t i = 0; i < stream.infos.size(); ++i) {
      double v = 0.0;
      if (!ParseDouble(fields[i + 1], &v) || std::isinf(v)) {
        throw std::runtime_error("ReadSampleStreamCsv: bad value '" +
                                 fields[i + 1] + "'");
      }
      row.values.push_back(v);
    }
    stream.rows.push_back(std::move(row));
  }
  return stream;
}

SampleStream ReadSampleStreamCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ReadSampleStreamCsv: cannot open " + path);
  }
  return ReadSampleStreamCsv(in);
}

}  // namespace pmcorr
