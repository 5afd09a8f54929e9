// Seeded violation: calling a PMCORR_EXCLUDES(mu_) function while
// holding mu_ — the re-entrancy self-deadlock the EXCLUDES contracts on
// ThreadPool::ParallelShardsStatic and RetrainPool::Observe exist to
// prevent.
// Expected diagnostic:
//   cannot call function 'Inner' while mutex 'mu_' is held
#include "common/mutex.h"

namespace pmcorr {

class Pool {
 public:
  void Outer() PMCORR_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    Inner();
  }

  void Inner() PMCORR_EXCLUDES(mu_) {}

 private:
  Mutex mu_;
};

}  // namespace pmcorr
