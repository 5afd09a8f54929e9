// Minimal civil-time utilities for the trace simulator and experiment
// harness. The paper's traces cover May 29 – June 27, 2008 with a sample
// every 6 minutes; we mirror those dates exactly, so we need a tiny
// self-contained calendar (no locale, no timezone — trace-local time).
#pragma once

#include <cstdint>
#include <string>

namespace pmcorr {

/// Seconds since the Unix epoch, trace-local (no timezone applied).
using TimePoint = std::int64_t;
/// A span in seconds.
using Duration = std::int64_t;

inline constexpr Duration kSecond = 1;
inline constexpr Duration kMinute = 60;
inline constexpr Duration kHour = 3600;
inline constexpr Duration kDay = 86400;
/// The paper's sampling period: one sample every 6 minutes.
inline constexpr Duration kPaperSamplePeriod = 6 * kMinute;
/// Samples per day at the paper's 6-minute rate (240).
inline constexpr int kSamplesPerDay = static_cast<int>(kDay / kPaperSamplePeriod);

/// A calendar date. Only the Gregorian rules are implemented; that is all
/// the experiment harness needs.
struct CivilDate {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  friend constexpr auto operator<=>(const CivilDate&, const CivilDate&) = default;
};

/// True if `year` is a Gregorian leap year.
bool IsLeapYear(int year);

/// Number of days in the given month of the given year.
int DaysInMonth(int year, int month);

/// Converts a civil date (at midnight) to a TimePoint.
TimePoint ToTimePoint(const CivilDate& date);

/// Converts a TimePoint back to the civil date containing it.
CivilDate ToCivilDate(TimePoint tp);

/// Day of week, 0 = Sunday … 6 = Saturday.
int DayOfWeek(TimePoint tp);

/// True if `tp` falls on Saturday or Sunday (used by the workload model:
/// the paper observes higher fitness scores on weekends).
bool IsWeekend(TimePoint tp);

/// Seconds elapsed since local midnight of the day containing `tp`.
Duration SecondsIntoDay(TimePoint tp);

/// Formats as "YYYY-MM-DD HH:MM".
std::string FormatTimePoint(TimePoint tp);

/// Formats the paper's short style, e.g. "6.13" for June 13.
std::string FormatPaperDate(const CivilDate& date);

/// Key dates from the paper's evaluation (Section 6).
namespace paper_dates {
inline constexpr CivilDate kTraceStart{2008, 5, 29};   // May 29, 2008
inline constexpr CivilDate kTrainStart{2008, 5, 29};
inline constexpr CivilDate kTestStart{2008, 6, 13};    // June 13, 2008
inline constexpr CivilDate kTraceEnd{2008, 6, 27};     // June 27, 2008
}  // namespace paper_dates

/// Simple wall-clock stopwatch used by the updating-time experiments.
class Stopwatch {
 public:
  Stopwatch();
  /// Restarts the stopwatch.
  void Reset();
  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const;

 private:
  std::int64_t start_ns_;
};

}  // namespace pmcorr
