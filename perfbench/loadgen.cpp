// perfbench load generator: runs one benchmark workload through the SATIN
// public API and writes a raw JSON report for perfbench/run.py.
//
// It only executes and times; run.py generates the inputs, checks every
// fingerprint against perfbench/reference.json and turns the report into
// metrics. Workloads (README.md has the why):
//
//   duel            §VI-B1 duel cut to 38 rounds, one DuelTrial per trial
//   overhead        one mini-UnixBench suite pass with or without SATIN
//   fault_campaign  run_campaign of 19-round duels under a bit-flip storm
//
// Set-up ends where the first trial call would be made (--setup-only
// exits there). Then `jobs` threads (campaign: processes) run short
// untimed trials until the host has been busy for kWarmUpS, and the run
// is closed loop: `jobs` workers take the next input until --seconds have
// passed; trials in flight at the deadline run to completion. --trials=N runs exactly
// the first N inputs instead (for a campaign workload: N campaigns). With
// --trace it runs those N twice, untraced then traced; the traced pass
// records spans around the calls it makes and reads the program's
// counters (MetricsRegistry, Engine accessors, CampaignOutcome).
//
//   perfbench_loadgen --workload=duel --inputs=FILE --out=FILE --tmp=DIR
//                     [--seconds=S | --trials=N [--trace]] [--jobs=J]
//                     [--setup-only] [--t-spawn=MONOTONIC_S]
//
// Times are CLOCK_MONOTONIC seconds, so they line up with the caller's
// time.monotonic() (--t-spawn) for the set-up measurement.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/spec.h"
#include "campaign/supervisor.h"
#include "campaign/trial.h"
#include "core/satin.h"
#include "obs/metrics.h"
#include "scenario/experiments.h"
#include "scenario/scenario.h"
#include "sim/parallel.h"
#include "workload/unixbench.h"

namespace {

using namespace satin;

constexpr std::uint64_t kDuelRounds = 38;  // two full 19-area kernel cycles
constexpr double kSuiteWindowS = 12.0;     // examples/overhead_study window
constexpr double kOverheadTpS = 0.8;
constexpr double kWarmUpS = 2.0;

// Counters read from each traced trial's MetricsRegistry.
const char* const kCounters[] = {
    "attack.probe_rounds",      "attack.detections",
    "satin.rounds",             "satin.retries",
    "satin.transient_alarms",   "introspect.bytes_scanned",
    "digest_cache.bytes_hashed", "digest_cache.bypasses",
    "hw.world_switches",        "hw.secure_entries",
    "os.context_switches",      "os.ticks",
    "fault.injected",           "fault.bits_flipped",
};

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot read");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t tree_bytes(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    return std::filesystem::file_size(path, ec);
  }
  std::uint64_t total = 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

// User+sys CPU of every child process reaped so far.
double children_cpu_s() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
}

struct Options {
  std::string workload;
  std::string inputs;
  std::string out;
  std::string tmp;
  double seconds = 10.0;
  int jobs = 1;
  bool trace = false;
  std::size_t trials = 0;
  bool setup_only = false;
  double t_spawn = 0.0;
};

// ---------------------------------------------------------------------------
// Spans: name "<layer>.<what>", one trace id per trial, parent links.

struct Span {
  std::string name;
  std::string trace;
  int id = 0;
  int parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(std::string trace) : trace_(std::move(trace)) {}

  void open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, trace_, id, stack_.empty() ? -1 : stack_.back(),
                          mono_s(), 0.0});
    stack_.push_back(id);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].t1 = mono_s();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string trace_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Wraps `fn` in a span when `log` is non-null.
template <typename F>
auto spanned(SpanLog* log, const char* name, F&& fn) {
  if (log == nullptr) return fn();
  log->open(name);
  struct Closer {
    SpanLog* log;
    ~Closer() { log->close(); }
  } closer{log};
  return fn();
}

std::string counters_json(const obs::MetricsRegistry& registry,
                          const std::map<std::string, double>& extra) {
  std::string out = "{";
  bool first = true;
  const auto put = [&](const std::string& name, double value) {
    if (!first) out += ",";
    first = false;
    out += quote(name) + ":" + num(value);
  };
  for (const char* name : kCounters) {
    const obs::Counter* c = registry.find_counter(name);
    put(name, c != nullptr ? static_cast<double>(c->value()) : 0.0);
  }
  for (const auto& [name, value] : extra) put(name, value);
  return out + "}";
}

// ---------------------------------------------------------------------------
// In-process trials (duel, overhead).

struct Input {
  std::uint64_t entry = 0;
  std::uint64_t seed = 0;
  bool with_satin = false;  // overhead only
  int copies = 1;           // overhead only
};

struct TrialRecord {
  std::size_t index = 0;
  std::uint64_t entry = 0;
  int worker = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  bool ok = false;
  std::string error;
  std::string fingerprint;
  std::string detail;    // workload-specific JSON fields, leading comma
  std::string counters;  // traced pass only
  std::vector<Span> spans;
};

void run_duel_trial(const Input& in, SpanLog* log, TrialRecord& rec) {
  scenario::ScenarioConfig config;
  config.platform.seed = in.seed;
  scenario::DuelConfig duel;  // defaults are the paper's §VI-B1 set-up
  duel.rounds_target = kDuelRounds;

  auto system = spanned(log, "scenario.build", [&] {
    return std::make_unique<scenario::Scenario>(config);
  });
  auto trial = spanned(log, "scenario.duel_setup", [&] {
    return std::make_unique<scenario::DuelTrial>(*system, duel);
  });
  spanned(log, "sim.run", [&] {
    while (!trial->done()) trial->advance(sim::Duration::from_sec(1));
    return 0;
  });
  const scenario::DuelReport report =
      spanned(log, "scenario.finish", [&] { return trial->finish(); });
  rec.fingerprint = hex64(fnv1a(scenario::encode_duel_report(report)));
  rec.detail = ",\"sim_s\":" + num(report.sim_seconds) +
               ",\"events\":" + std::to_string(system->engine().events_fired());
  if (log != nullptr && obs::metrics() != nullptr) {
    rec.counters = counters_json(
        *obs::metrics(),
        {{"engine.events_fired",
          static_cast<double>(system->engine().events_fired())},
         {"engine.queue_high_water",
          static_cast<double>(system->engine().queue_high_water())},
         {"core.benign_confirmed_alarms",
          static_cast<double>(report.benign_confirmed_alarms)}});
  }
  spanned(log, "scenario.teardown", [&] {
    trial.reset();
    system.reset();
    return 0;
  });
}

void run_overhead_trial(const Input& in, SpanLog* log, TrialRecord& rec) {
  scenario::ScenarioConfig config;
  config.platform.seed = in.seed;
  auto system = spanned(log, "scenario.build", [&] {
    return std::make_unique<scenario::Scenario>(config);
  });
  // examples/overhead_study: SATIN is built in both passes and started
  // only in the "with" pass.
  auto satin = spanned(log, "core.setup", [&] {
    core::SatinConfig satin_config;
    satin_config.tp_s = kOverheadTpS;
    auto s = std::make_unique<core::Satin>(system->platform(), system->kernel(),
                                           system->tsp(), satin_config);
    if (in.with_satin) s->start();
    return s;
  });
  auto harness = spanned(log, "workload.setup", [&] {
    return std::make_unique<workload::UnixBenchHarness>(system->os());
  });
  const auto results = spanned(log, "sim.run", [&] {
    return harness->run_suite(sim::Duration::from_sec_f(kSuiteWindowS),
                              in.copies);
  });
  std::string canon;
  std::string iters = ",\"iters\":[";
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto n = static_cast<std::uint64_t>(std::llround(
        results[i].score * kSuiteWindowS * static_cast<double>(in.copies)));
    total += n;
    canon += results[i].name + "=" + std::to_string(n) + ";";
    iters += (i > 0 ? "," : "") + std::to_string(n);
  }
  rec.fingerprint = hex64(fnv1a(canon));
  rec.detail = iters + "],\"satin\":" + (in.with_satin ? "1" : "0") +
               ",\"copies\":" + std::to_string(in.copies) +
               ",\"sim_s\":" + num(system->now().sec()) +
               ",\"events\":" + std::to_string(system->engine().events_fired());
  if (log != nullptr && obs::metrics() != nullptr) {
    // No rootkit in this workload: every confirmed alarm is benign.
    rec.counters = counters_json(
        *obs::metrics(),
        {{"engine.events_fired",
          static_cast<double>(system->engine().events_fired())},
         {"engine.queue_high_water",
          static_cast<double>(system->engine().queue_high_water())},
         {"core.benign_confirmed_alarms",
          static_cast<double>(
              satin->checker().alarm_count(core::AlarmKind::kConfirmed))},
         {"workload.iterations", static_cast<double>(total)}});
  }
  spanned(log, "scenario.teardown", [&] {
    harness.reset();
    satin.reset();
    system.reset();
    return 0;
  });
}

std::vector<Input> read_trial_inputs(const std::string& path) {
  std::vector<Input> inputs;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Input in;
    std::string seed_hex;
    int with_satin = 0;
    fields >> in.entry >> seed_hex;
    in.seed = std::stoull(seed_hex, nullptr, 16);
    if (fields >> with_satin >> in.copies) in.with_satin = with_satin != 0;
    inputs.push_back(in);
  }
  if (inputs.empty()) throw std::runtime_error(path + ": no inputs");
  return inputs;
}

// One short untimed trial of the workload's shape.
void short_trial(bool suite, std::uint64_t seed) {
  scenario::ScenarioConfig config;
  config.platform.seed = seed;
  scenario::Scenario system(config);
  if (suite) {
    core::SatinConfig satin_config;
    satin_config.tp_s = kOverheadTpS;
    core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                      satin_config);
    satin.start();
    workload::UnixBenchHarness harness(system.os());
    harness.run_suite(sim::Duration::from_ms(100), /*copies=*/6);
  } else {
    scenario::DuelTrial trial(system, scenario::DuelConfig{});
    trial.advance(sim::Duration::from_sec(1));
    trial.finish();
  }
}

// Untimed short trials on `jobs` threads until kWarmUpS have passed.
// Timed trials on a host that was idle ran 1.5-3x slower for the first
// ~1.5 s of busy time, with or without a fresh heap, so the measured
// window starts on a warm host.
void warm_up(int jobs, bool suite, std::uint64_t seed) {
  const double until = mono_s() + kWarmUpS;
  std::vector<std::thread> threads;
  for (int w = 0; w < jobs; ++w) {
    threads.emplace_back([&] {
      do {
        short_trial(suite, seed);
      } while (mono_s() < until);
    });
  }
  for (auto& t : threads) t.join();
}

// Campaign trials run in fork()ed workers, so the campaign warm-up runs
// its short duels in `jobs` child processes too. Warm-up threads would
// leave their arenas in the supervisor, and every worker forked from it
// would carry them into peak_rss_mb.
void warm_up_processes(int jobs, std::uint64_t seed) {
  const double until = mono_s() + kWarmUpS;
  std::vector<pid_t> pids;
  for (int w = 0; w < jobs; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("warm-up: fork failed");
    if (pid == 0) {
      try {
        do {
          short_trial(/*suite=*/false, seed);
        } while (mono_s() < until);
      } catch (...) {
        _exit(1);  // the campaign itself will report the failure
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

struct PassResult {
  std::vector<TrialRecord> trials;
  double t0 = 0.0;
  double t1 = 0.0;
};

// Closed loop over `jobs` threads. Timed passes (seconds > 0) start
// trials until the deadline; untimed ones run exactly `count` trials.
PassResult run_pass(const Options& opt, const std::vector<Input>& inputs,
                    double seconds, std::size_t count, bool traced) {
  const bool duel = opt.workload == "duel";
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  PassResult pass;
  pass.t0 = mono_s();
  const double deadline = pass.t0 + seconds;
  const auto worker = [&](int w) {
    std::vector<TrialRecord> mine;
    for (;;) {
      if (seconds > 0.0 && mono_s() >= deadline) break;
      const std::size_t i = next.fetch_add(1);
      if (seconds <= 0.0 && i >= count) break;
      const Input& in = inputs[i % inputs.size()];
      TrialRecord rec;
      rec.index = i;
      rec.entry = in.entry;
      rec.worker = w;
      std::unique_ptr<obs::MetricsRegistry> registry;
      std::unique_ptr<SpanLog> log;
      if (traced) {
        registry = std::make_unique<obs::MetricsRegistry>();
        log = std::make_unique<SpanLog>(opt.workload + "/" + std::to_string(i));
      }
      rec.t0 = mono_s();
      {
        sim::TrialObsScope sinks(registry.get(), nullptr, nullptr);
        if (log) log->open("bench.trial");
        try {
          if (duel) {
            run_duel_trial(in, log.get(), rec);
          } else {
            run_overhead_trial(in, log.get(), rec);
          }
          rec.ok = true;
        } catch (const std::exception& e) {
          rec.error = e.what();
        }
        if (log) log->close();
      }
      rec.t1 = mono_s();
      if (log) rec.spans = log->spans();
      mine.push_back(std::move(rec));
    }
    std::lock_guard<std::mutex> lock(mu);
    for (auto& r : mine) pass.trials.push_back(std::move(r));
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < opt.jobs; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();
  pass.t1 = mono_s();
  return pass;
}

// ---------------------------------------------------------------------------
// Campaigns (fault_campaign).

struct CampaignRecord {
  std::size_t index = 0;
  std::uint64_t entry = 0;
  double t0 = 0.0;  // run_campaign entered
  double t1 = 0.0;  // run_campaign returned
  double worker_cpu_s = 0.0;  // user+sys CPU of the workers it reaped
  bool ok = false;
  std::string error;
  campaign::CampaignOutcome outcome;
  std::string stats;  // the campaign stats JSON document
  std::string stats_fingerprint;
  std::map<std::uint64_t, std::string> trial_fingerprints;  // journal lines
  std::uint64_t journal_bytes = 0;
  std::uint64_t artifact_bytes = 0;
  std::string counters;  // traced pass only
  std::string replays;   // traced pass only: JSON array
  std::vector<Span> spans;
};

struct CampaignInput {
  std::uint64_t entry = 0;
  std::string spec_path;
};

std::vector<CampaignInput> read_campaign_inputs(const std::string& path) {
  std::vector<CampaignInput> inputs;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    CampaignInput in;
    fields >> in.entry >> in.spec_path;
    inputs.push_back(in);
  }
  if (inputs.empty()) throw std::runtime_error(path + ": no inputs");
  return inputs;
}

// Journal trial records ("R i=<n> ..."), fingerprinted per trial index.
std::map<std::uint64_t, std::string> journal_fingerprints(
    const std::string& path) {
  std::map<std::uint64_t, std::string> out;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, 4, "R i=") != 0) continue;
    out[std::stoull(line.substr(4))] = hex64(fnv1a(line));
  }
  return out;
}

void run_one_campaign(const Options& opt, const std::string& base,
                      const campaign::CampaignSpec& spec, SpanLog* log,
                      CampaignRecord& rec) {
  campaign::CampaignOptions options;
  options.journal_path = base + ".journal";
  options.stats_path = base + ".stats.json";
  options.jobs = opt.jobs;

  std::unique_ptr<obs::MetricsRegistry> merged;
  if (log != nullptr) merged = std::make_unique<obs::MetricsRegistry>();
  {
    sim::TrialObsScope sinks(merged.get(), nullptr, nullptr);
    const double cpu0 = children_cpu_s();
    rec.t0 = mono_s();
    rec.outcome = spanned(log, "campaign.run", [&] {
      return campaign::run_campaign(spec, options);
    });
    rec.t1 = mono_s();
    rec.worker_cpu_s = children_cpu_s() - cpu0;
  }
  rec.ok = rec.outcome.ok;
  if (!rec.ok) {
    rec.error = rec.outcome.error;
    return;
  }
  rec.stats = read_file(options.stats_path);
  rec.stats_fingerprint = hex64(fnv1a(rec.stats));
  rec.trial_fingerprints = journal_fingerprints(options.journal_path);
  rec.journal_bytes = tree_bytes(options.journal_path);
  rec.artifact_bytes = tree_bytes(options.journal_path + ".d");
  if (log == nullptr) return;

  rec.counters = counters_json(*merged, {});
  // Sampled trials replayed in-process: the trial without the process
  // boundary, journal or artifacts. Each must reproduce its journal line.
  rec.replays = "[";
  const std::uint64_t n = spec.trials;
  const std::uint64_t picks[] = {0, n / 2, n - 1};
  for (std::size_t k = 0; k < 3; ++k) {
    if (k > 0 && picks[k] == picks[k - 1]) continue;
    obs::MetricsRegistry registry;
    sim::TrialObsScope sinks(&registry, nullptr, nullptr);
    const double t0 = mono_s();
    std::string fp;
    std::string error;
    try {
      const campaign::TrialResult result = spanned(
          log, "campaign.trial_inproc",
          [&] { return campaign::run_campaign_trial(spec, picks[k]); });
      fp = hex64(fnv1a(campaign::encode_trial_record(result)));
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double t1 = mono_s();
    const auto gauge = [&registry](const char* name) {
      const obs::Gauge* g = registry.find_gauge(name);
      return num(g != nullptr ? g->value() : 0.0);
    };
    rec.replays += std::string(k > 0 ? "," : "") + "{\"i\":" +
                   std::to_string(picks[k]) + ",\"fp\":" + quote(fp) +
                   ",\"error\":" + quote(error) + ",\"t0\":" + num(t0) +
                   ",\"t1\":" + num(t1) +
                   ",\"events\":" + gauge("engine.events_fired") +
                   ",\"queue_high_water\":" + gauge("engine.queue_high_water") +
                   "}";
  }
  rec.replays += "]";
}

struct CampaignPass {
  std::vector<CampaignRecord> campaigns;
  double t0 = 0.0;
  double t1 = 0.0;
};

// Runs campaigns back to back: until `seconds` have passed, or exactly
// `count` when seconds <= 0. `before_first` runs after the first spec is
// parsed, just before the first run_campaign call; returning false stops.
// Journals and artifacts go to <tmp>/<pass>-<n>.journal{,.d}.
CampaignPass run_campaign_pass(const Options& opt,
                               const std::vector<CampaignInput>& inputs,
                               const std::string& pass_name, double seconds,
                               std::size_t count, bool traced,
                               const std::function<bool()>& before_first) {
  CampaignPass pass;
  double deadline = 0.0;
  for (std::size_t c = 0;; ++c) {
    if (seconds > 0.0 && c > 0 && mono_s() >= deadline) break;
    if (seconds <= 0.0 && c >= count) break;
    const CampaignInput& in = inputs[c % inputs.size()];
    std::unique_ptr<SpanLog> log;
    if (traced) {
      log = std::make_unique<SpanLog>(opt.workload + "/" + std::to_string(c));
    }
    CampaignRecord rec;
    rec.index = c;
    rec.entry = in.entry;
    try {
      const std::string text = read_file(in.spec_path);
      const campaign::CampaignSpec spec =
          spanned(log.get(), "campaign.parse", [&] {
            return campaign::parse_campaign_spec(text, in.spec_path);
          });
      if (c == 0) {
        if (before_first && !before_first()) return pass;
        pass.t0 = mono_s();
        deadline = pass.t0 + seconds;
      }
      run_one_campaign(opt, opt.tmp + "/" + pass_name + "-" + std::to_string(c),
                       spec, log.get(), rec);
    } catch (const std::exception& e) {
      rec.ok = false;
      rec.error = e.what();
      if (c == 0 && pass.t0 == 0.0) {
        pass.t0 = mono_s();
        deadline = pass.t0 + seconds;
      }
    }
    if (log) rec.spans = log->spans();
    pass.campaigns.push_back(std::move(rec));
  }
  pass.t1 = mono_s();
  return pass;
}

// ---------------------------------------------------------------------------
// Report.

struct Usage {
  double cpu_s = 0.0;
  long maxrss_self_kb = 0;
  long maxrss_children_kb = 0;
};

Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.cpu_s = seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
            seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
  u.maxrss_self_kb = self.ru_maxrss;
  u.maxrss_children_kb = children.ru_maxrss;
  return u;
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += std::string(i > 0 ? "," : "") + "{\"name\":" + quote(s.name) +
           ",\"trace\":" + quote(s.trace) + ",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"t0\":" + num(s.t0) +
           ",\"t1\":" + num(s.t1) + "}";
  }
  return out + "]";
}

std::string trials_json(const PassResult& pass) {
  std::string out = "{\"t0\":" + num(pass.t0) + ",\"t1\":" + num(pass.t1) +
                    ",\"trials\":[";
  for (std::size_t i = 0; i < pass.trials.size(); ++i) {
    const TrialRecord& r = pass.trials[i];
    out += std::string(i > 0 ? ",\n" : "\n") +
           "{\"i\":" + std::to_string(r.index) +
           ",\"entry\":" + std::to_string(r.entry) +
           ",\"worker\":" + std::to_string(r.worker) + ",\"t0\":" + num(r.t0) +
           ",\"t1\":" + num(r.t1) + ",\"ok\":" + (r.ok ? "true" : "false") +
           ",\"error\":" + quote(r.error) + ",\"fp\":" + quote(r.fingerprint) +
           r.detail;
    if (!r.counters.empty()) out += ",\"counters\":" + r.counters;
    if (!r.spans.empty()) out += ",\"spans\":" + spans_json(r.spans);
    out += "}";
  }
  return out + "]}";
}

std::string campaigns_json(const CampaignPass& pass) {
  std::string out = "{\"t0\":" + num(pass.t0) + ",\"t1\":" + num(pass.t1) +
                    ",\"campaigns\":[";
  for (std::size_t i = 0; i < pass.campaigns.size(); ++i) {
    const CampaignRecord& r = pass.campaigns[i];
    const campaign::CampaignOutcome& o = r.outcome;
    std::string failed = "[";
    for (std::size_t k = 0; k < o.failed_trials.size(); ++k) {
      failed += (k > 0 ? "," : "") + std::to_string(o.failed_trials[k]);
    }
    failed += "]";
    std::string fps = "{";
    for (const auto& [idx, fp] : r.trial_fingerprints) {
      fps += std::string(fps.size() > 1 ? "," : "") + "\"" +
             std::to_string(idx) + "\":" + quote(fp);
    }
    fps += "}";
    out += std::string(i > 0 ? ",\n" : "\n") +
           "{\"i\":" + std::to_string(r.index) +
           ",\"entry\":" + std::to_string(r.entry) + ",\"t0\":" + num(r.t0) +
           ",\"t1\":" + num(r.t1) + ",\"worker_cpu_s\":" + num(r.worker_cpu_s) +
           ",\"ok\":" + (r.ok ? "true" : "false") +
           ",\"error\":" + quote(r.error) +
           ",\"trials\":" + std::to_string(o.trials) +
           ",\"completed\":" + std::to_string(o.completed) +
           ",\"degraded\":" + (o.degraded ? "true" : "false") +
           ",\"failed_trials\":" + failed +
           ",\"retries\":" + std::to_string(o.retries) +
           ",\"workers_spawned\":" + std::to_string(o.workers_spawned) +
           ",\"journal_bytes\":" + std::to_string(r.journal_bytes) +
           ",\"artifact_bytes\":" + std::to_string(r.artifact_bytes) +
           ",\"stats_fp\":" + quote(r.stats_fingerprint) +
           ",\"stats\":" + (r.stats.empty() ? std::string("null") : r.stats) +
           ",\"trial_fps\":" + fps;
    if (!r.counters.empty()) out += ",\"counters\":" + r.counters;
    if (!r.replays.empty()) out += ",\"replays\":" + r.replays;
    if (!r.spans.empty()) out += ",\"spans\":" + spans_json(r.spans);
    out += "}";
  }
  return out + "]}";
}

std::string provenance_json() {
  std::string out = "{\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
                    ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
                    ",\"sanitize\":" + quote(PERFBENCH_SANITIZE) +
                    ",\"profile\":" + (PERFBENCH_PROFILE ? "true" : "false") +
                    ",\"satin_enable_obs\":" +
                    (PERFBENCH_OBS ? "true" : "false");
#if defined(__OPTIMIZE__)
  out += ",\"optimized\":true";
#else
  out += ",\"optimized\":false";
#endif
  return out + "}";
}

// Numbers from a Debug, sanitizer or -pg build are not comparable.
std::string refuse_reason() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Debug" || type.empty()) {
    return "build type '" + type + "' is not an optimised build";
  }
  if (std::strlen(PERFBENCH_SANITIZE) > 0) return "sanitizer build";
  if (PERFBENCH_PROFILE) return "-pg profiling build";
#if !defined(__OPTIMIZE__)
  return "compiled without optimisation";
#else
  return "";
#endif
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--inputs=")) {
      opt.inputs = v;
    } else if (const char* v = value("--out=")) {
      opt.out = v;
    } else if (const char* v = value("--tmp=")) {
      opt.tmp = v;
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--jobs=")) {
      opt.jobs = std::atoi(v);
    } else if (const char* v = value("--trials=")) {
      opt.trials = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--t-spawn=")) {
      opt.t_spawn = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (opt.workload != "duel" && opt.workload != "overhead" &&
      opt.workload != "fault_campaign") {
    throw std::invalid_argument(
        "--workload must be duel|overhead|fault_campaign");
  }
  if (opt.inputs.empty() || opt.out.empty() || opt.tmp.empty()) {
    throw std::invalid_argument("--inputs, --out and --tmp are required");
  }
  if (opt.jobs < 1) throw std::invalid_argument("--jobs must be >= 1");
  if (opt.trace && opt.trials == 0) {
    throw std::invalid_argument("--trace needs --trials=N");
  }
  return opt;
}

void write_report(const Options& opt, const std::string& body) {
  const std::string tmp = opt.out + ".part";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << body;
    if (!out) throw std::runtime_error(tmp + ": write failed");
  }
  std::filesystem::rename(tmp, opt.out);
}

int run(const Options& opt) {
  const bool campaign = opt.workload == "fault_campaign";
  std::vector<Input> trial_inputs;
  std::vector<CampaignInput> campaign_inputs;
  if (campaign) {
    campaign_inputs = read_campaign_inputs(opt.inputs);
  } else {
    trial_inputs = read_trial_inputs(opt.inputs);
  }

  double setup_s = 0.0;
  const auto mark_setup = [&] {
    setup_s = mono_s() - opt.t_spawn;
    return !opt.setup_only;
  };
  const std::string head = "{\"workload\":" + quote(opt.workload) +
                           ",\"jobs\":" + std::to_string(opt.jobs) +
                           ",\"provenance\":" + provenance_json();

  std::string body;
  Usage u0;
  const bool suite = opt.workload == "overhead";
  const std::uint64_t warm_seed =
      campaign ? hw::PlatformConfig{}.seed : trial_inputs.front().seed;
  // Set-up ends where the first trial call would be made; the host
  // warm-up that follows is not part of it.
  const auto prepare = [&] {
    if (!mark_setup()) return false;
    if (campaign) {
      warm_up_processes(opt.jobs, warm_seed);
    } else {
      warm_up(opt.jobs, suite, warm_seed);
    }
    u0 = usage_now();
    return true;
  };
  const auto setup_report = [&] {
    write_report(opt, head + ",\"setup_s\":" + num(setup_s) + "}\n");
    return 0;
  };
  const double seconds = opt.trials > 0 ? 0.0 : opt.seconds;
  if (!campaign) {
    if (!prepare()) return setup_report();
    const PassResult first =
        run_pass(opt, trial_inputs, seconds, opt.trials, false);
    if (opt.trace) {
      const PassResult traced =
          run_pass(opt, trial_inputs, 0.0, opt.trials, true);
      body = ",\"untraced\":" + trials_json(first) +
             ",\"traced\":" + trials_json(traced);
    } else {
      body = ",\"measured\":" + trials_json(first);
    }
  } else {
    const CampaignPass first = run_campaign_pass(
        opt, campaign_inputs, "measured", seconds, opt.trials, false, prepare);
    if (opt.setup_only) return setup_report();
    if (opt.trace) {
      const CampaignPass traced = run_campaign_pass(
          opt, campaign_inputs, "traced", 0.0, opt.trials, true, {});
      body = ",\"untraced\":" + campaigns_json(first) +
             ",\"traced\":" + campaigns_json(traced);
    } else {
      body = ",\"measured\":" + campaigns_json(first);
    }
  }
  const Usage u1 = usage_now();
  write_report(opt, head + ",\"setup_s\":" + num(setup_s) +
                        ",\"cpu_s\":" + num(u1.cpu_s - u0.cpu_s) +
                        ",\"maxrss_self_kb\":" +
                        std::to_string(u1.maxrss_self_kb) +
                        ",\"maxrss_children_kb\":" +
                        std::to_string(u1.maxrss_children_kb) + body + "}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    const std::string refuse = refuse_reason();
    if (!refuse.empty()) {
      std::fprintf(stderr, "perfbench_loadgen: refusing to measure: %s\n",
                   refuse.c_str());
      return 3;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 2;
  }
}
