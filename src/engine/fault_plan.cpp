#include "engine/fault_plan.h"

namespace pmcorr {

void EngineFaultPlan::CheckPairStep(std::size_t pair,
                                    std::size_t sample) const {
  for (const PairFault& fault : pair_faults) {
    if (fault.pair == pair && sample >= fault.from && sample < fault.to) {
      throw InjectedFault("injected fault: pair " + std::to_string(pair) +
                          " at sample " + std::to_string(sample));
    }
  }
}

}  // namespace pmcorr
