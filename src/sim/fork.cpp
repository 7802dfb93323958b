#include "sim/fork.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/flight/audit.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace satin::sim {

namespace {

constexpr int kBackoffBaseMs = 25;
constexpr int kBackoffCapMs = 500;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Raw-fd line write; children must never touch inherited stdio buffers.
bool write_line(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  const char* p = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string sanitize_message(std::string msg) {
  for (char& c : msg) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return msg;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex16(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = v;
  return true;
}

}  // namespace

std::uint64_t ForkServer::record_checksum(const std::string& payload) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : payload) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string trial_metrics_path(const std::string& dir, std::uint64_t index) {
  return dir + "/trial_" + std::to_string(index) + ".met";
}

std::string trial_flight_path(const std::string& dir, std::uint64_t index) {
  return dir + "/trial_" + std::to_string(index) + ".flt";
}

std::string make_trial_scratch_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string templ =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/satin-trials-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) return {};
  return buf.data();
}

struct ForkServer::Slot {
  pid_t pid = -1;
  int fd = -1;  // child's result pipe (read end)
  std::size_t pos = 0;  // position in indices_
  std::string buf;
  double last_activity = 0.0;
  bool resolved = false;  // an "R"/"E" record landed; EOF is expected
};

ForkServer::ForkServer(ForkServerOptions options)
    : options_(std::move(options)) {}

ForkServer::~ForkServer() {
  // run() reaps everything it forked; nothing to do beyond scratch
  // cleanup if the caller never merged.
  if (!scratch_.empty() && merged_) ::rmdir(scratch_.c_str());
}

void ForkServer::remove_artifacts(std::size_t index) const {
  if (want_metrics_) {
    ::unlink(trial_metrics_path(artifacts_dir_, index).c_str());
  }
  if (want_flight_) ::unlink(trial_flight_path(artifacts_dir_, index).c_str());
}

void ForkServer::child_main(std::size_t index, bool first_attempt, int fd) {
  // A dead parent must kill us on the next pipe write, not wedge us.
  signal(SIGPIPE, SIG_DFL);
  if (!write_line(fd, "B " + std::to_string(index))) _exit(3);

  const auto chaos = [&](int knob) {
    return first_attempt && knob >= 0 &&
           static_cast<std::size_t>(knob) == index;
  };
  if (chaos(options_.chaos_kill_branch)) raise(SIGKILL);
  if (chaos(options_.chaos_hang_branch)) {
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::string payload;
  std::string error;
  bool failed = false;
  const auto run_body = [&] {
    try {
      payload = (*child_body_)(index);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    } catch (...) {
      failed = true;
      error = "unknown exception";
    }
  };

  const std::string mpath = trial_metrics_path(artifacts_dir_, index);
  const std::string fpath = trial_flight_path(artifacts_dir_, index);

  if (options_.inherit_sinks) {
    // The installed sinks are this process's COW copies of the caller's
    // warm-prefix recorders: keep recording into them, then persist the
    // whole stream (prefix + branch). Traces are not transportable over
    // the pipe — drop the inherited tracer so records aren't lost
    // silently into a copy (the parent warns once).
    obs::install_tracer(nullptr);
    run_body();
    // Artifacts are persisted even for a failed index: the unforked
    // TrialRunner merges partially-recorded sinks before rethrowing.
    if (auto* m = obs::metrics(); m != nullptr && want_metrics_) {
      std::string err;
      if (!m->save_binary(mpath, &err)) _exit(4);
    }
    if (auto* f = obs::flight(); f != nullptr && want_flight_) {
      if (!f->save_to(fpath)) _exit(4);
    }
  } else {
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<obs::FlightRecorder> flight;
    if (want_metrics_) metrics = std::make_unique<obs::MetricsRegistry>();
    if (want_flight_) {
      obs::FlightRecorder::Options fopts;
      fopts.path = fpath;
      fopts.ring = options_.flight_ring;
      flight = std::make_unique<obs::FlightRecorder>(fopts);
    }
    TrialObsScope scope(metrics.get(), nullptr, flight.get());
    run_body();
    // Durable artifacts BEFORE the result record, so a record implies
    // mergeable files.
    if (flight != nullptr && !flight->close()) _exit(4);
    if (metrics != nullptr) {
      std::string err;
      if (!metrics->save_binary(mpath, &err)) _exit(4);
    }
  }

  std::string line;
  if (failed) {
    line = "E " + std::to_string(index) + " " + sanitize_message(error);
  } else {
    std::string crc = hex16(record_checksum(payload));
    if (chaos(options_.chaos_torn_branch)) {
      // Simulate a torn pipe record: checksum no longer matches.
      crc[0] = crc[0] == '0' ? '1' : '0';
    }
    line = "R " + std::to_string(index) + " crc=" + crc + " " + payload;
  }
  write_line(fd, line);
  _exit(failed ? 1 : 0);
}

bool ForkServer::spawn(std::size_t pos, std::vector<Slot>& active,
                       std::vector<int>& attempts) {
  int fds[2];
  if (::pipe(fds) != 0) {
    outcomes_[pos].error = "pipe() failed";
    return false;
  }
  const bool first_attempt = attempts[pos] == 0;
  ++attempts[pos];
  // The child inherits our stdio buffers; flush so it can't re-flush
  // half-written output (it uses _exit, but body() code could flush).
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    outcomes_[pos].error = "fork() failed";
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    // Close sibling pipes so one child's death can't be masked by
    // another holding the write end open.
    for (const Slot& s : active) {
      if (s.fd >= 0) ::close(s.fd);
    }
    child_main(indices_[pos], first_attempt, fds[1]);  // never returns
  }
  ::close(fds[1]);
  Slot slot;
  slot.pid = pid;
  slot.fd = fds[0];
  slot.pos = pos;
  slot.last_activity = now_seconds();
  active.push_back(std::move(slot));
  ++forks_;
  return true;
}

std::vector<ForkOutcome> ForkServer::run(
    const std::vector<std::size_t>& indices, const Body& body,
    const Settled& on_settled) {
  if (ran_) throw std::logic_error("ForkServer::run: single-use");
  ran_ = true;
  indices_ = indices;
  outcomes_.assign(indices_.size(), ForkOutcome{});
  const auto settle = [&](std::size_t pos) {
    if (on_settled) on_settled(indices_[pos], outcomes_[pos]);
  };
  if (indices_.empty()) return outcomes_;
  const double wall_start = now_seconds();

  want_metrics_ = obs::metrics() != nullptr;
  want_flight_ = obs::flight() != nullptr;
  if (obs::tracer() != nullptr) {
    std::fprintf(stderr,
                 "fork: per-trial traces are not captured across fork(); "
                 "run unforked for --trace\n");
  }
  artifacts_dir_ = options_.scratch_dir;
  if ((want_metrics_ || want_flight_) && artifacts_dir_.empty()) {
    scratch_ = make_trial_scratch_dir();
    if (scratch_.empty()) {
      for (std::size_t pos = 0; pos < outcomes_.size(); ++pos) {
        outcomes_[pos].error = "mkdtemp() failed";
        settle(pos);
      }
      return outcomes_;
    }
    artifacts_dir_ = scratch_;
  }

  int jobs = options_.jobs > 0 ? options_.jobs : TrialRunner::hardware_jobs();
  if (static_cast<std::size_t>(jobs) > indices_.size()) {
    jobs = static_cast<int>(indices_.size());
  }
  if (jobs < 1) jobs = 1;

  child_body_ = &body;
  std::deque<std::size_t> queue;  // positions in indices_
  for (std::size_t pos = 0; pos < indices_.size(); ++pos) queue.push_back(pos);
  std::vector<int> attempts(indices_.size(), 0);
  std::vector<Slot> active;
  active.reserve(static_cast<std::size_t>(jobs));

  const auto fail_attempt = [&](Slot& slot, bool timed_out,
                                const char* reason) {
    if (timed_out && slot.pid > 0) ::kill(slot.pid, SIGKILL);
    if (slot.pid > 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
    if (slot.fd >= 0) {
      ::close(slot.fd);
      slot.fd = -1;
    }
    ++crashes_;
    if (timed_out) ++timeouts_;
    const std::size_t pos = slot.pos;
    // A crashed attempt may have left partial artifacts; they must never
    // leak into a merge or survive a retry.
    remove_artifacts(indices_[pos]);
    if (attempts[pos] > options_.max_retries) {
      outcomes_[pos].ok = false;
      outcomes_[pos].error = "trial " + std::to_string(indices_[pos]) + " " +
                             reason + " after " +
                             std::to_string(attempts[pos]) + " attempt(s)";
      outcomes_[pos].attempts = attempts[pos];
      settle(pos);
      return;
    }
    ++retries_;
    // Exponential backoff before the re-fork: a systematic crash loop
    // shouldn't melt the host while it burns its budget.
    const int shift = std::min(attempts[pos] - 1, 8);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min(kBackoffCapMs, kBackoffBaseMs << shift)));
    queue.push_front(pos);
  };

  // One line of child protocol. Returns false when the slot must be
  // treated as crashed (kill + retry ladder).
  const auto handle_line = [&](Slot& slot, const std::string& line) -> bool {
    slot.last_activity = now_seconds();
    if (slot.resolved) return true;  // settled exactly once; ignore the rest
    if (line.rfind("B ", 0) == 0) return true;  // heartbeat
    const std::string index = std::to_string(indices_[slot.pos]);
    ForkOutcome& out = outcomes_[slot.pos];
    if (line.rfind("E ", 0) == 0) {
      std::size_t sp = line.find(' ', 2);
      const std::string idx_str =
          line.substr(2, sp == std::string::npos ? std::string::npos : sp - 2);
      if (idx_str != index) return false;
      out.ok = false;
      out.error = sp == std::string::npos ? "trial failed"
                                          : line.substr(sp + 1);
    } else if (line.rfind("R ", 0) == 0) {
      const std::size_t sp = line.find(' ', 2);
      if (sp == std::string::npos) return false;
      if (line.substr(2, sp - 2) != index) return false;
      if (line.compare(sp + 1, 4, "crc=") != 0) return false;
      const std::size_t crc_begin = sp + 5;
      const std::size_t crc_end = line.find(' ', crc_begin);
      std::uint64_t crc = 0;
      if (crc_end == std::string::npos ||
          !parse_hex16(
              std::string_view(line).substr(crc_begin, crc_end - crc_begin),
              crc)) {
        return false;
      }
      std::string payload = line.substr(crc_end + 1);
      if (record_checksum(payload) != crc) return false;  // torn record
      out.ok = true;
      out.payload = std::move(payload);
      out.error.clear();
    } else {
      return false;  // protocol violation
    }
    out.attempts = attempts[slot.pos];
    out.has_artifacts = true;  // the child persisted its sinks first
    slot.resolved = true;
    settle(slot.pos);
    return true;
  };

  while (!queue.empty() || !active.empty()) {
    while (!queue.empty() &&
           active.size() < static_cast<std::size_t>(jobs)) {
      const std::size_t pos = queue.front();
      queue.pop_front();
      if (!spawn(pos, active, attempts)) settle(pos);
    }
    if (active.empty()) break;  // spawns failed outright

    std::vector<pollfd> fds;
    fds.reserve(active.size());
    double next_deadline = now_seconds() + 60.0;
    for (const Slot& slot : active) {
      fds.push_back(pollfd{slot.fd, POLLIN, 0});
      next_deadline =
          std::min(next_deadline, slot.last_activity + options_.timeout_s);
    }
    const double wait_s = next_deadline - now_seconds();
    const int timeout_ms =
        wait_s <= 0.0
            ? 0
            : static_cast<int>(std::min(wait_s * 1000.0, 60000.0)) + 10;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    // Sweep slots newest-last; erase finished ones after the pass.
    std::vector<std::size_t> dead;
    for (std::size_t k = 0; k < active.size(); ++k) {
      Slot& slot = active[k];
      bool crashed = false;
      bool eof = false;
      if (ready > 0 &&
          (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[4096];
        const ssize_t n = ::read(slot.fd, chunk, sizeof(chunk));
        if (n > 0) {
          slot.buf.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0) {
          eof = true;
        }
        std::size_t nl;
        while (!crashed &&
               (nl = slot.buf.find('\n')) != std::string::npos) {
          const std::string line = slot.buf.substr(0, nl);
          slot.buf.erase(0, nl + 1);
          if (!handle_line(slot, line)) crashed = true;
        }
      }
      if (!crashed && !eof &&
          now_seconds() - slot.last_activity > options_.timeout_s &&
          !slot.resolved) {
        std::fprintf(stderr,
                     "fork: trial %zu (pid %d) wedged for %.1fs, killing\n",
                     indices_[slot.pos], static_cast<int>(slot.pid),
                     options_.timeout_s);
        fail_attempt(slot, /*timed_out=*/true, "timed out");
        dead.push_back(k);
        continue;
      }
      if (crashed) {
        if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
        fail_attempt(slot, /*timed_out=*/false, "sent a corrupt record");
        dead.push_back(k);
        continue;
      }
      if (eof) {
        if (slot.resolved) {
          int status = 0;
          ::waitpid(slot.pid, &status, 0);
          ::close(slot.fd);
          dead.push_back(k);
        } else {
          fail_attempt(slot, /*timed_out=*/false, "crashed");
          dead.push_back(k);
        }
      }
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(*it));
    }
  }

  child_body_ = nullptr;
  wall_seconds_ += now_seconds() - wall_start;
  return outcomes_;
}

void ForkServer::merge_obs() {
  if (merged_) return;
  merged_ = true;
  obs::MetricsRegistry* metrics = obs::metrics();
  obs::FlightRecorder* flight = obs::flight();
  for (std::size_t pos = 0; pos < outcomes_.size(); ++pos) {
    if (!outcomes_[pos].has_artifacts) continue;
    const std::size_t index = indices_[pos];
    if (metrics != nullptr && want_metrics_) {
      std::string error;
      if (!metrics->load_merge_binary(
              trial_metrics_path(artifacts_dir_, index), &error)) {
        std::fprintf(stderr, "fork: %s (metrics gap)\n", error.c_str());
      }
    }
    if (flight != nullptr && want_flight_) {
      std::string error;
      if (!obs::append_trial_flight_file(
              *flight, index,
              options_.marker_seed ? options_.marker_seed(index) : 0,
              trial_flight_path(artifacts_dir_, index), &error)) {
        std::fprintf(stderr, "fork: %s (flight gap)\n", error.c_str());
      }
    }
    remove_artifacts(index);
  }
  if (!scratch_.empty()) ::rmdir(scratch_.c_str());
}

std::vector<std::string> run_fork_groups(std::size_t trials,
                                         std::size_t group_size,
                                         const ForkServerOptions& options,
                                         const ForkServer::Body& branch,
                                         const GroupPrefix& warm_prefix) {
  if (group_size < 1) group_size = 1;
  ForkServerOptions group_options = options;
  group_options.inherit_sinks = warm_prefix != nullptr;
  std::vector<std::string> payloads;
  payloads.reserve(trials);
  for (std::size_t base = 0; base < trials; base += group_size) {
    std::vector<std::size_t> group(std::min(group_size, trials - base));
    std::iota(group.begin(), group.end(), base);
    ForkServer server(group_options);
    std::vector<ForkOutcome> outcomes;
    if (warm_prefix == nullptr) {
      outcomes = server.run(group, branch);
    } else {
      // Group sinks, created only when the session records: children
      // inherit them (already holding the prefix's records) by COW and
      // persist the whole per-branch stream for merge_obs().
      std::unique_ptr<obs::MetricsRegistry> group_metrics;
      std::unique_ptr<obs::FlightRecorder> group_flight;
      if (obs::metrics() != nullptr) {
        group_metrics = std::make_unique<obs::MetricsRegistry>();
      }
      if (obs::flight() != nullptr) {
        obs::FlightRecorder::Options flight_options;
        flight_options.ring = options.flight_ring;
        group_flight = std::make_unique<obs::FlightRecorder>(flight_options);
      }
      TrialObsScope scope(group_metrics.get(), nullptr, group_flight.get());
      const ForkServer::Body body = warm_prefix(base);
      outcomes = server.run(group, body);
    }  // the warm state, then the group scope, are gone
    server.merge_obs();  // into the session sinks
    for (ForkOutcome& outcome : outcomes) {
      if (!outcome.ok) throw std::runtime_error(outcome.error);
      payloads.push_back(std::move(outcome.payload));
    }
  }
  return payloads;
}

}  // namespace satin::sim
