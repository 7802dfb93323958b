#include "sim/parallel.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fork.h"
#include "sim/shard.h"

namespace satin::sim {

TrialObsScope::TrialObsScope(obs::MetricsRegistry* metrics,
                             obs::TraceRecorder* tracer,
                             obs::FlightRecorder* flight)
    : prev_metrics_(obs::metrics()),
      prev_tracer_(obs::tracer()),
      prev_flight_(obs::flight()) {
  obs::install_metrics(metrics);
  obs::install_tracer(tracer);
  obs::install_flight(flight);
}

TrialObsScope::~TrialObsScope() {
  obs::install_metrics(prev_metrics_);
  obs::install_tracer(prev_tracer_);
  obs::install_flight(prev_flight_);
}

TrialRunner::TrialRunner(TrialRunnerOptions options)
    : options_(options), seeds_(options.root_seed) {}

int TrialRunner::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int TrialRunner::jobs_for(std::size_t trials) const {
  int jobs = options_.jobs > 0 ? options_.jobs : hardware_jobs();
  if (static_cast<std::size_t>(jobs) > trials) {
    jobs = static_cast<int>(trials);
  }
  return jobs < 1 ? 1 : jobs;
}

double TrialRunner::trials_per_second() const {
  return wall_seconds_ > 0.0
             ? static_cast<double>(trials_run_) / wall_seconds_
             : 0.0;
}

namespace {

// Ring capacity of each per-trial TraceRecorder.
constexpr std::size_t kTraceCapacity = 1u << 20;

// The calling thread's sinks decide whether trials record at all; the
// per-trial instances exist so workers never contend on one registry and
// so the merged state is independent of completion order. A trial's
// flight recorder follows the installed one's mode (see
// TrialRunner::run): ring and in-memory recorders live until the merge; a
// spilling one exists only while its trial runs, so memory stays bounded
// by the worker count and the merge replays the trial's file.
struct PerTrialSinks {
  obs::MetricsRegistry* parent_metrics = obs::metrics();
  obs::TraceRecorder* parent_tracer = obs::tracer();
  obs::FlightRecorder* parent_flight = obs::flight();
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
  std::vector<std::unique_ptr<obs::TraceRecorder>> tracers;
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights;
  std::string spill_dir;  // "" unless the installed recorder spills

  explicit PerTrialSinks(std::size_t trials)
      : metrics(trials), tracers(trials), flights(trials) {
    for (std::size_t i = 0; i < trials; ++i) {
      if (parent_metrics != nullptr) {
        metrics[i] = std::make_unique<obs::MetricsRegistry>();
      }
      if (parent_tracer != nullptr) {
        tracers[i] = std::make_unique<obs::TraceRecorder>(kTraceCapacity);
      }
    }
    if (parent_flight == nullptr) return;
    if (parent_flight->spilling()) {
      spill_dir = make_trial_scratch_dir();
      if (!spill_dir.empty()) return;
      std::fprintf(stderr,
                   "trial runner: mkdtemp() failed; per-trial flight "
                   "streams stay in memory\n");
    }
    for (std::size_t i = 0; i < trials; ++i) {
      obs::FlightRecorder::Options fopts;
      fopts.ring = parent_flight->ring();
      flights[i] = std::make_unique<obs::FlightRecorder>(fopts);
    }
  }

  ~PerTrialSinks() {
    if (spill_dir.empty()) return;
    for (std::size_t i = 0; i < flights.size(); ++i) {
      ::unlink(trial_flight_path(spill_dir, i).c_str());
    }
    ::rmdir(spill_dir.c_str());
  }

  PerTrialSinks(const PerTrialSinks&) = delete;
  PerTrialSinks& operator=(const PerTrialSinks&) = delete;

  // Runs body under trial i's sinks on the calling worker thread.
  void run(std::size_t i, const std::function<void()>& body) {
    if (!spill_dir.empty()) {
      obs::FlightRecorder::Options fopts;
      fopts.path = trial_flight_path(spill_dir, i);
      flights[i] = std::make_unique<obs::FlightRecorder>(fopts);
    }
    {
      TrialObsScope scope(metrics[i].get(), tracers[i].get(),
                          flights[i].get());
      body();
    }
    if (!spill_dir.empty()) flights[i].reset();  // closes the file
  }

  // Merge in submission order, on the calling thread, after every trial
  // has settled — the one place all workers reconverge.
  void merge(const TrialSeedSeq& seeds) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i] != nullptr) parent_metrics->merge_from(*metrics[i]);
      if (tracers[i] != nullptr) parent_tracer->append_from(*tracers[i]);
      if (parent_flight == nullptr) continue;
      // The trial-begin marker is emitted here, by the parent, rather
      // than inside the trial: in ring mode it would be the trial's
      // OLDEST record and the first one overwritten, losing the
      // stream's trial boundaries exactly when the auditor needs them.
      if (spill_dir.empty()) {
        parent_flight->record(obs::FlightKind::kTrialBegin, Time::zero(),
                              static_cast<std::uint64_t>(i),
                              static_cast<int>(i), seeds.seed_for(i));
        parent_flight->append_from(*flights[i]);
        continue;
      }
      // Each file goes as soon as it is merged, so the spill directory
      // and the session file together never hold much more than one copy
      // of the stream.
      const std::string path = trial_flight_path(spill_dir, i);
      std::string error;
      if (!obs::append_trial_flight_file(*parent_flight, i, seeds.seed_for(i),
                                         path, &error)) {
        std::fprintf(stderr, "trial runner: %s (flight gap)\n",
                     error.c_str());
      }
      ::unlink(path.c_str());
    }
  }
};

// Fixed-size pool over `units` work items; a shared atomic cursor
// load-balances uneven items (duel lengths vary a lot). Claim order is
// racy, but nothing reads it: every output is keyed by the unit index.
// Each worker holds one ShardContext for all the items it runs.
void run_pool(int jobs, std::size_t units,
              const std::function<void(std::size_t)>& work) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    ShardContext context;
    ShardContext::Scope context_scope(context);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= units) return;
      work(i);
    }
  };
  if (jobs <= 1) {
    worker();  // inline, on the calling thread
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

}  // namespace

void TrialRunner::run(std::size_t trials,
                      const std::function<void(const TrialContext&)>& fn) {
  if (trials == 0) return;
  const auto wall_start = std::chrono::steady_clock::now();

  PerTrialSinks sinks(trials);
  std::vector<std::exception_ptr> errors(trials);

  const auto run_one = [&](std::size_t i) {
    const TrialContext ctx{i, seeds_.seed_for(i)};
    sinks.run(i, [&] {
      try {
        fn(ctx);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  };

  run_pool(jobs_for(trials), trials, run_one);
  sinks.merge(seeds_);

  trials_run_ += trials;
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  for (std::size_t i = 0; i < trials; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace satin::sim
