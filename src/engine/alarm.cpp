#include "engine/alarm.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace pmcorr {
namespace {

template <typename GetScore>
std::vector<ScoreWindow> ExtractImpl(std::size_t count, GetScore get,
                                     TimePoint start, Duration period,
                                     double threshold,
                                     std::size_t min_length) {
  std::vector<ScoreWindow> windows;
  std::optional<ScoreWindow> open;
  auto close = [&] {
    if (open && open->Length() >= min_length) windows.push_back(*open);
    open.reset();
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<double> score = get(i);
    const bool low = score && *score < threshold;
    if (low) {
      if (!open) {
        open = ScoreWindow{};
        open->first_sample = i;
        open->min_score = *score;
      }
      open->last_sample = i;
      open->min_score = std::min(open->min_score, *score);
      open->start = start + static_cast<Duration>(open->first_sample) * period;
      open->end = start + static_cast<Duration>(i + 1) * period;
    } else {
      close();
    }
  }
  close();
  return windows;
}

}  // namespace

std::vector<ScoreWindow> ExtractLowScoreWindows(
    std::span<const std::optional<double>> scores, TimePoint start,
    Duration period, double threshold, std::size_t min_length) {
  return ExtractImpl(
      scores.size(), [&](std::size_t i) { return scores[i]; }, start, period,
      threshold, min_length);
}

std::vector<ScoreWindow> ExtractLowScoreWindows(std::span<const double> scores,
                                                TimePoint start,
                                                Duration period,
                                                double threshold,
                                                std::size_t min_length) {
  return ExtractImpl(
      scores.size(),
      [&](std::size_t i) { return std::optional<double>(scores[i]); }, start,
      period, threshold, min_length);
}

bool AnyWindowOverlaps(const std::vector<ScoreWindow>& windows,
                       TimePoint from, TimePoint to) {
  return std::any_of(windows.begin(), windows.end(),
                     [&](const ScoreWindow& w) {
                       return w.start < to && from < w.end;
                     });
}

void AlarmLog::Record(AlarmRecord record) {
  records_.push_back(record);
}

namespace {

// (time, pair index) — the sample-major recording order.
bool RecordBefore(const AlarmRecord& a, const AlarmRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.pair_index < b.pair_index;
}

}  // namespace

void AlarmLog::SortForMerge() {
  std::sort(records_.begin(), records_.end(), RecordBefore);
}

void AlarmLog::AppendMerged(std::span<AlarmLog> shards,
                            std::vector<std::size_t>& cursors) {
  std::size_t total = 0;
  for (const AlarmLog& shard : shards) {
    total += shard.Count();
    PMCORR_DASSERT(std::is_sorted(shard.records_.begin(),
                                  shard.records_.end(), RecordBefore),
                   "AppendMerged shard log is not (time, pair)-sorted");
  }
  cursors.assign(shards.size(), 0);
  // K-way merge with a linear min scan: k is the sweep's shard count
  // (bounded by the pool's thread count), so a heap would cost more in
  // bookkeeping than it saves in comparisons.
  for (std::size_t done = 0; done < total; ++done) {
    std::size_t best = shards.size();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (cursors[s] >= shards[s].records_.size()) continue;
      if (best == shards.size() ||
          RecordBefore(shards[s].records_[cursors[s]],
                       shards[best].records_[cursors[best]])) {
        best = s;
      }
    }
    records_.push_back(shards[best].records_[cursors[best]]);
    ++cursors[best];
  }
  for (AlarmLog& shard : shards) shard.records_.clear();
}

void AlarmLog::AppendMerged(std::vector<AlarmLog> shards) {
  for (AlarmLog& shard : shards) shard.SortForMerge();
  std::vector<std::size_t> cursors;
  AppendMerged(std::span<AlarmLog>(shards), cursors);
}

std::size_t AlarmLog::CountForPair(std::size_t pair_index) const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [&](const AlarmRecord& r) {
                      return r.pair_index == pair_index;
                    }));
}

std::vector<std::size_t> AlarmLog::NoisiestPairs(std::size_t limit) const {
  std::map<std::size_t, std::size_t> counts;
  for (const AlarmRecord& r : records_) ++counts[r.pair_index];
  std::vector<std::pair<std::size_t, std::size_t>> sorted(counts.begin(),
                                                          counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::size_t> out;
  for (const auto& [pair, n] : sorted) {
    if (out.size() >= limit) break;
    out.push_back(pair);
  }
  return out;
}

}  // namespace pmcorr
