// Planted use-site violations for the stream-tag lint fixture:
//   - kRogueStreamTag is DEFINED outside the registry header;
//   - kPlantedBetaStreamTag + 7 is arithmetic on a tag that reserved no
//     range (range=1);
//   - kPlantedAlphaStreamTag + 99 steps outside the reserved range of 16;
//   - kRogueBatchTag, named outside the *StreamTag convention, is handed to
//     fork() without being registered.
#include <cstdint>

#include "mathx/rng.hpp"
#include "mathx/stream_tags.hpp"

namespace chronos {

constexpr std::uint64_t kRogueStreamTag = 0x200ull;

inline std::uint64_t beta_child() { return kPlantedBetaStreamTag + 7; }

inline std::uint64_t alpha_child() { return kPlantedAlphaStreamTag + 99; }

constexpr std::uint64_t kRogueBatchTag = 0x300ull;

inline mathx::Rng rogue_fork(mathx::Rng& rng) {
  return rng.fork(kRogueBatchTag);
}

}  // namespace chronos
