// Unsafe (paper §5.3.4): no progress tracking. A task starts from the
// beginning of its input — unless a rescale handed over the old
// generation's state and cursors — and a commit is only the flush that
// keeps outputs flowing.
#include "src/core/commit_protocol.h"
#include "src/core/task_runtime.h"

namespace impeller {

namespace {

class Unsafe final : public CommitProtocol {
 public:
  explicit Unsafe(TaskRuntime& task) : CommitProtocol(task) {}

  Status Recover() override {
    return task_.wiring().direct_handoff != nullptr ? RestoreDirectHandoff()
                                                    : OkStatus();
  }
};

}  // namespace

std::unique_ptr<CommitProtocol> NewUnsafe(TaskRuntime& task) {
  return std::make_unique<Unsafe>(task);
}

}  // namespace impeller
