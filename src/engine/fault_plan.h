// Deterministic engine-level fault injection for the robustness suite.
//
// Distinct from telemetry/faults.h: FaultInjector perturbs the *data* a
// collector would produce (spikes, dropouts) to create realistic
// anomalies for the models to detect. EngineFaultPlan instead attacks
// the *engine itself* — a pair model that throws mid-step — so the
// quarantine and containment logic can be proven against failures that
// are exactly reproducible: same plan, same pair, same sample, every
// run.
//
// Production monitors carry no plan (a null pointer); the check sites
// compile to a single branch.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmcorr {

/// Thrown by EngineFaultPlan::CheckPairStep at a planned fault site.
/// Derives from runtime_error so the quarantine's generic exception
/// handling covers it like any real fault.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A scripted set of engine faults, keyed by (pair, 0-based engine
/// sample index). Half-open ranges [from, to).
struct EngineFaultPlan {
  /// Pair `pair` throws InjectedFault on every step in [from, to).
  struct PairFault {
    std::size_t pair = 0;
    std::size_t from = 0;
    std::size_t to = 0;
  };
  std::vector<PairFault> pair_faults;

  /// Throws InjectedFault if a PairFault covers (pair, sample).
  void CheckPairStep(std::size_t pair, std::size_t sample) const;
};

}  // namespace pmcorr
