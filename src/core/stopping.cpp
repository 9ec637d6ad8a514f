#include "core/stopping.hpp"

namespace hpb::core {

const char* stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kBudgetExhausted:
      return "budget_exhausted";
    case StopReason::kStagnation:
      return "stagnation";
    case StopReason::kTargetReached:
      return "target_reached";
    case StopReason::kWallTime:
      return "wall_time";
    case StopReason::kInterrupted:
      return "interrupted";
  }
  return "unknown";
}

}  // namespace hpb::core
