#include "attack/time_buffer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace satin::attack {

namespace {

sim::TruncatedNormalStream make_base_stream(
    const hw::CrossCoreDelayModel& model, sim::Rng rng, int probed_cores) {
  const double s = model.magnitude_scale(probed_cores);
  return sim::TruncatedNormalStream(std::move(rng), model.base_mean_s * s,
                                    model.base_stddev_s * s,
                                    model.base_min_s * s,
                                    model.base_max_s * s);
}

}  // namespace

SharedTimeBuffer::SharedTimeBuffer(int num_slots,
                                   hw::CrossCoreDelayModel model,
                                   sim::Rng rng, double reads_per_second,
                                   int probed_cores)
    : model_(model),
      spike_prob_per_read_(
          reads_per_second > 0.0
              ? std::min(1.0, model.spike_rate_per_s / reads_per_second)
              : 0.0),
      probed_cores_(probed_cores),
      // Substream forks happen in declaration order, so the split is
      // deterministic.
      base_stream_(make_base_stream(model, rng.fork("base"), probed_cores)),
      spike_gate_(rng.fork("bernoulli")),
      spike_rng_(rng.fork("spike")),
      last_report_(static_cast<std::size_t>(num_slots)),
      reported_(static_cast<std::size_t>(num_slots), false) {
  if (num_slots <= 0) throw std::invalid_argument("SharedTimeBuffer: slots");
  if (reads_per_second <= 0.0) {
    throw std::invalid_argument("SharedTimeBuffer: read rate");
  }
}

sim::Duration SharedTimeBuffer::observed_staleness(int slot, sim::Time now) {
  const sim::Time reported = last_report_[static_cast<std::size_t>(slot)];
  sim::Duration age = now >= reported ? now - reported : sim::Duration::zero();
  // Routine visibility delay: small, always present. Use a fraction of the
  // plateau model (the plateau also includes wake-phase geometry, which the
  // event-driven prober exhibits organically through its real wake times).
  double delay_s = 0.35 * base_stream_.next();
  if (spike_gate_.next() < spike_prob_per_read_) {
    ++spiked_reads_;
    delay_s += std::min(model_.sample_spike_seconds(spike_rng_, probed_cores_),
                        model_.event_spike_cap_s);
  }
  return age + sim::Duration::from_sec_f(delay_s);
}

}  // namespace satin::attack
