#include "scenario/scenario.h"

#include "os/system_map.h"
#include "sim/shard.h"

namespace satin::scenario {

namespace {

// The default kernel image is a pure function of (make_default_map(), its
// fixed fill seed) and fully immutable after construction, so every trial
// a TrialRunner worker runs can reference one replica. Outside a worker
// (ShardContext::current() == nullptr: fork children, campaign trials,
// examples) each Scenario builds its own.
std::shared_ptr<const os::KernelImage> default_kernel_image() {
  if (sim::ShardContext* shard = sim::ShardContext::current()) {
    return shard->get_or_create<const os::KernelImage>(
        "kernel-image/default", [] {
          return std::make_shared<const os::KernelImage>(
              os::make_default_map());
        });
  }
  return std::make_shared<const os::KernelImage>(os::make_default_map());
}

}  // namespace

Scenario::Scenario(ScenarioConfig config) {
  platform_ = std::make_unique<hw::Platform>(config.platform);
  os_ = std::make_unique<os::RichOs>(*platform_, default_kernel_image(),
                                     config.os);
  tsp_ = std::make_unique<secure::TestSecurePayload>(*platform_);
  if (config.boot) os_->boot();
}

}  // namespace satin::scenario
