// Fuzz target for the framed binary model-file and checkpoint decoders:
// LoadPairModel and LoadSystemMonitor (io/model_io.h, io/monitor_io.h).
// Contract under fuzzing: any byte stream either loads or throws
// std::runtime_error — no crash, no sanitizer report, no giant
// allocation from attacker-declared sizes, and no CheckFailure (a load
// that passes validation must satisfy the model invariants, so run the
// harness with -DPMCORR_AUDIT=ON to make that bite). A load that does
// succeed must re-encode to exactly the input bytes: the decoders accept
// only what the encoders write.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/model_io.h"
#include "io/monitor_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  try {
    std::istringstream in(bytes);
    const pmcorr::PairModel model = pmcorr::LoadPairModel(in);
    std::ostringstream out;
    pmcorr::SavePairModel(model, out);
    if (out.str() != bytes) std::abort();
  } catch (const std::runtime_error&) {
    // Rejected input — the expected outcome for almost every mutation.
  }
  try {
    std::istringstream in(bytes);
    const auto monitor = pmcorr::LoadSystemMonitor(in, /*threads=*/1);
    std::ostringstream out;
    pmcorr::SaveSystemMonitor(*monitor, out);
    if (out.str() != bytes) std::abort();
  } catch (const std::runtime_error&) {
  }
  return 0;
}
