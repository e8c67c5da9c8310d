#include "resilience/budget.h"

namespace mg::resilience {

const char*
cancelReasonName(CancelReason reason)
{
    switch (reason) {
      case CancelReason::None:
        return "none";
      case CancelReason::Deadline:
        return "deadline";
      case CancelReason::StepCap:
        return "step-cap";
      case CancelReason::LookupCap:
        return "lookup-cap";
      case CancelReason::Watchdog:
        return "watchdog";
    }
    return "unknown";
}

} // namespace mg::resilience
