#include "channel/slot.hpp"

namespace ucr {

SlotOutcome resolve_outcome(std::uint64_t num_transmitters) {
  if (num_transmitters == 0) return SlotOutcome::kSilence;
  if (num_transmitters == 1) return SlotOutcome::kSuccess;
  return SlotOutcome::kCollision;
}

std::string to_string(SlotOutcome outcome) {
  switch (outcome) {
    case SlotOutcome::kSilence:
      return "silence";
    case SlotOutcome::kSuccess:
      return "success";
    case SlotOutcome::kCollision:
      return "collision";
  }
  return "unknown";
}

}  // namespace ucr
