#include "common/time.h"

#include <array>
#include <chrono>
#include <cstdio>

namespace pmcorr {
namespace {

constexpr std::array<int, 12> kMonthDays = {31, 28, 31, 30, 31, 30,
                                            31, 31, 30, 31, 30, 31};

// Days from 1970-01-01 to the start of `year`.
std::int64_t DaysToYear(int year) {
  std::int64_t days = 0;
  if (year >= 1970) {
    for (int y = 1970; y < year; ++y) days += IsLeapYear(y) ? 366 : 365;
  } else {
    for (int y = year; y < 1970; ++y) days -= IsLeapYear(y) ? 366 : 365;
  }
  return days;
}

}  // namespace

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  if (month == 2 && IsLeapYear(year)) return 29;
  return kMonthDays[static_cast<std::size_t>(month - 1)];
}

TimePoint ToTimePoint(const CivilDate& date) {
  std::int64_t days = DaysToYear(date.year);
  for (int m = 1; m < date.month; ++m) days += DaysInMonth(date.year, m);
  days += date.day - 1;
  return days * kDay;
}

CivilDate ToCivilDate(TimePoint tp) {
  std::int64_t days = tp / kDay;
  if (tp < 0 && tp % kDay != 0) --days;  // floor toward earlier days
  CivilDate date;
  date.year = 1970;
  while (true) {
    const std::int64_t in_year = IsLeapYear(date.year) ? 366 : 365;
    if (days >= in_year) {
      days -= in_year;
      ++date.year;
    } else if (days < 0) {
      --date.year;
      days += IsLeapYear(date.year) ? 366 : 365;
    } else {
      break;
    }
  }
  date.month = 1;
  while (days >= DaysInMonth(date.year, date.month)) {
    days -= DaysInMonth(date.year, date.month);
    ++date.month;
  }
  date.day = static_cast<int>(days) + 1;
  return date;
}

int DayOfWeek(TimePoint tp) {
  std::int64_t days = tp / kDay;
  if (tp < 0 && tp % kDay != 0) --days;
  // 1970-01-01 was a Thursday (= 4).
  std::int64_t dow = (days + 4) % 7;
  if (dow < 0) dow += 7;
  return static_cast<int>(dow);
}

bool IsWeekend(TimePoint tp) {
  const int dow = DayOfWeek(tp);
  return dow == 0 || dow == 6;
}

Duration SecondsIntoDay(TimePoint tp) {
  Duration s = tp % kDay;
  if (s < 0) s += kDay;
  return s;
}

std::string FormatTimePoint(TimePoint tp) {
  const CivilDate date = ToCivilDate(tp);
  const Duration s = SecondsIntoDay(tp);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d", date.year,
                date.month, date.day, static_cast<int>(s / kHour),
                static_cast<int>((s % kHour) / kMinute));
  return buf;
}

std::string FormatPaperDate(const CivilDate& date) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d.%d", date.month, date.day);
  return buf;
}

Stopwatch::Stopwatch() { Reset(); }

void Stopwatch::Reset() {
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

double Stopwatch::ElapsedSeconds() const {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now_ns - start_ns_) * 1e-9;
}

}  // namespace pmcorr
