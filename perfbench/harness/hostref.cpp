#include "hostref.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "gen/rng.hpp"

namespace perfbench {

namespace {

/// The reference workload, once; returns seconds.
double churn_once() {
  constexpr std::size_t kStrings = 60000;
  const Clock::time_point start = Clock::now();
  wsx::gen::Rng rng(1, "perfbench.hostref");
  std::vector<std::string> strings;
  strings.reserve(kStrings);
  for (std::size_t i = 0; i < kStrings; ++i) {
    std::string text(8 + rng.below(40), ' ');
    for (char& c : text) c = static_cast<char>('a' + rng.below(26));
    strings.push_back(std::move(text));
  }
  std::sort(strings.begin(), strings.end());
  std::unordered_map<std::string, std::size_t> counts;
  for (const std::string& text : strings) ++counts[text];
  const double seconds = seconds_since(start);
  return counts.empty() ? 0 : seconds;  // uses the map, so the work stays
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

}  // namespace

void HostReference::sample() {
  // The reference runs in a child process so its memory never counts
  // towards the program's peak RSS; the child reports its two times
  // through a pipe.
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("host reference: cannot create a pipe");
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("host reference: cannot fork");
  }
  if (child == 0) {
    ::close(pipe_fds[0]);
    double times[2] = {churn_once(), 0};
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < workers(); ++i) threads.emplace_back(churn_once);
    for (std::thread& thread : threads) thread.join();
    times[1] = seconds_since(start);
    const bool sent = ::write(pipe_fds[1], times, sizeof times) == sizeof times;
    ::_exit(sent ? 0 : 1);
  }
  ::close(pipe_fds[1]);
  double times[2] = {0, 0};
  std::size_t got = 0;
  while (got < sizeof times) {
    const ssize_t n = ::read(pipe_fds[0], reinterpret_cast<char*>(times) + got, sizeof times - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(pipe_fds[0]);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof times || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("host reference: the child did not report");
  }
  one_.push_back(times[0]);
  all_.push_back(times[1]);
}

double HostReference::factor_1t() const { return mean(one_) / kNominalChurn1tSeconds; }
double HostReference::factor_nt() const { return mean(all_) / kNominalChurnNtSeconds; }

void HostReference::add_duration(Outcome& outcome, const char* name, double value,
                                 const char* unit, double factor) {
  outcome.raw.push_back({name, value, unit});
  outcome.add(name, value / factor, unit);
}

void HostReference::add_rate(Outcome& outcome, const char* name, double value, const char* unit,
                             double factor) {
  outcome.raw.push_back({name, value, unit});
  outcome.add(name, value * factor, unit);
}

void HostReference::report(Outcome& outcome) const {
  outcome.host.push_back({"churn_1t_s", mean(one_), "s"});
  outcome.host.push_back({"churn_nt_s", mean(all_), "s"});
  outcome.host.push_back({"factor_1t", factor_1t(), "ratio"});
  outcome.host.push_back({"factor_nt", factor_nt(), "ratio"});
}

}  // namespace perfbench
