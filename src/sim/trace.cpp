#include "sim/trace.hpp"

#include <algorithm>

namespace dgnn::sim {

const char*
ToString(EventKind kind)
{
    switch (kind) {
      case EventKind::kKernel:
        return "kernel";
      case EventKind::kTransfer:
        return "transfer";
      case EventKind::kHostOp:
        return "host_op";
      case EventKind::kSync:
        return "sync";
      case EventKind::kMarker:
        return "marker";
    }
    return "?";
}


}  // namespace dgnn::sim
