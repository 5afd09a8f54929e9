#include "common/backoff.h"

namespace pmcorr {

std::size_t BackoffPolicy::DelayFor(std::size_t retry) const {
  const double factor = multiplier < 1.0 ? 1.0 : multiplier;
  // base * factor^retry in doubles, saturating: 2^63 samples is ~10^12
  // years of 6-minute cadence, so double precision loss above the cap
  // is unobservable.
  double delay = static_cast<double>(base);
  for (std::size_t i = 0; i < retry; ++i) {
    delay *= factor;
    if (delay >= static_cast<double>(cap)) return cap;
  }
  if (!(delay < static_cast<double>(cap))) return cap;
  const auto integral = static_cast<std::size_t>(delay);
  return integral < 1 ? 1 : integral;
}

}  // namespace pmcorr
