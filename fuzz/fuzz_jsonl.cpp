// Fuzz target for the delta-stream JSONL reader that
// `pmcorr monitor --from-deltas` runs on a file, with two oracles:
//
//   * Round trip — whatever the strict parser accepts must re-serialize,
//     re-parse without throwing and re-serialize to the same bytes, and
//     every re-parsed delta must encode (io/delta_binary.h) to the same
//     bytes as the one first parsed, so no score loses a bit in print
//     (the writer and reader pin each other down: %.17g printing and
//     from_chars parsing are inverse bijections on finite doubles).
//   * Reconstruction — DeltaReconstructor over an accepted stream may
//     reject it (a missing baseline, a width change, an index out of
//     order), but only with std::runtime_error.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/snapshot.h"
#include "io/delta_binary.h"
#include "io/monitor_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::vector<pmcorr::SystemDelta> deltas;
  try {
    std::istringstream in(text);
    deltas = pmcorr::ReadDeltaStreamJsonl(in);
  } catch (const std::runtime_error&) {
    return 0;
  }
  std::ostringstream once;
  pmcorr::WriteDeltaStreamJsonl(deltas, once);
  std::istringstream round(once.str());
  const std::vector<pmcorr::SystemDelta> reloaded =
      pmcorr::ReadDeltaStreamJsonl(round);  // must not throw
  std::ostringstream twice;
  pmcorr::WriteDeltaStreamJsonl(reloaded, twice);
  if (once.str() != twice.str() || reloaded.size() != deltas.size()) {
    std::abort();
  }
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    std::string a, b;
    pmcorr::EncodeSystemDelta(deltas[i], a);
    pmcorr::EncodeSystemDelta(reloaded[i], b);
    if (a != b) std::abort();
  }

  try {
    (void)pmcorr::ReconstructSnapshots(deltas);
  } catch (const std::runtime_error&) {
    // Each line was valid alone; the sequence was not.
  }
  return 0;
}
