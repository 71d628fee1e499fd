// The `serve` workload: the compatibility oracle over the full corpus,
// queried in a closed loop by one client over one loopback TCP connection
// (TcpServer serves connections one at a time), interleaved with the same
// seeded sequence replayed in-process on one thread; and the serve half of
// the traced layer table.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/predict.hpp"
#include "analysis/substitution.hpp"
#include "bench.hpp"
#include "corpus.hpp"
#include "hostref.hpp"
#include "gen/rng.hpp"
#include "requests.hpp"
#include "serve/admission.hpp"
#include "serve/daemon.hpp"
#include "serve/oracle.hpp"
#include "serve/protocol.hpp"
#include "serve/tcp.hpp"
#include "stats.hpp"
#include "wsdl/parser.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kLintBodies = 12;
/// One TCP chunk plus one replay chunk of the serve run, in seconds.
constexpr double kChunkSeconds = 2.5;
/// The traced run times at least this many substitutes, so their p99 has
/// ten samples beyond it.
constexpr std::size_t kMinSubstitutes = 1000;

std::uint64_t fnv(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The client end of the loopback connection (RAII over the socket).
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("cannot create client socket");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the serve listener");
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Writes one frame and spins until the response frame is complete.
  std::string round_trip(std::string_view frame) {
    while (!frame.empty()) {
      const ssize_t wrote = ::write(fd_, frame.data(), frame.size());
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) throw std::runtime_error("cannot send request frame");
      frame.remove_prefix(static_cast<std::size_t>(wrote));
    }
    std::string payload;
    for (;;) {
      wsx::Result<bool> complete = reader_.next(payload);
      if (!complete.ok()) throw std::runtime_error(complete.error().message);
      if (complete.value()) return payload;
      // Poll instead of blocking: a sleeping client would add its own
      // wake-up, which on a shared host is the noisiest part of a round trip.
      const ssize_t got = ::recv(fd_, buffer_, sizeof buffer_, MSG_DONTWAIT);
      if (got < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (got <= 0) throw std::runtime_error("connection closed before a response frame");
      reader_.feed(std::string_view(buffer_, static_cast<std::size_t>(got)));
    }
  }

 private:
  int fd_ = -1;
  serve::FrameReader reader_;
  char buffer_[4096];
};

/// A loaded oracle behind a listening socket with the client connected —
/// what `setup_s` times.
struct Stack {
  std::optional<serve::Oracle> oracle;
  std::optional<serve::TcpServer> listener;
  std::unique_ptr<Connection> client;
};

Stack set_up() {
  Stack stack;
  wsx::Result<serve::Oracle> oracle = serve::Oracle::load({});
  if (!oracle.ok()) throw std::runtime_error("Oracle::load: " + oracle.error().message);
  stack.oracle.emplace(std::move(oracle.value()));
  wsx::Result<serve::TcpServer> listener = serve::TcpServer::listen(0);
  if (!listener.ok()) throw std::runtime_error("listen: " + listener.error().message);
  stack.listener.emplace(std::move(listener.value()));
  stack.client = std::make_unique<Connection>(stack.listener->port());
  return stack;
}

/// Served WSDL documents of `kLintBodies` deployable services drawn by the
/// seed: the lint uploads of the request sequence.
std::vector<std::string> lint_bodies(std::uint64_t seed) {
  const std::unique_ptr<Corpus> corpus = Corpus::build();
  const std::vector<std::size_t> deployable = sweep_indices(*corpus, 0, 1);
  wsx::gen::Rng rng(seed, "perfbench.lint");
  std::vector<std::string> bodies;
  while (bodies.size() < kLintBodies) {
    const Candidate& candidate = corpus->candidates[deployable[rng.below(deployable.size())]];
    wsx::Result<wsx::frameworks::DeployedService> deployed =
        candidate.server->deploy(candidate.spec);
    if (deployed.ok() && wsx::wsdl::parse(deployed->wsdl_text).ok()) {
      bodies.push_back(std::move(deployed->wsdl_text));
    }
  }
  return bodies;
}

RequestStream request_stream(std::uint64_t seed, const serve::Oracle& oracle,
                             const std::vector<std::string>& bodies) {
  std::vector<std::string> services;
  for (const auto& record : oracle.records()) {
    services.push_back(record.server + "/" + record.service);
  }
  return RequestStream(seed, std::move(services), oracle.clients(), bodies);
}

/// Serves the one client connection on its own thread until the client
/// closes it. join() (or the destructor, when unwinding) closes the client
/// first, so the server's blocking read always returns.
class ServerThread {
 public:
  ServerThread(serve::TcpServer& listener, serve::Daemon& daemon, Connection& client)
      : client_(client), thread_([this, &listener, &daemon] {
          try {
            wsx::Result<std::size_t> served = listener.serve(daemon, 1, now_ms_);
            if (!served.ok()) error_ = served.error().message;
          } catch (const std::exception& error) {
            error_ = error.what();
          }
        }) {}
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  ~ServerThread() {
    if (thread_.joinable()) {
      client_.close();
      thread_.join();
    }
  }

  /// Closes the client, waits for the server to finish and returns its
  /// virtual clock.
  std::uint64_t join() {
    client_.close();
    thread_.join();
    if (!error_.empty()) throw std::runtime_error("serve thread: " + error_);
    return now_ms_;
  }

 private:
  Connection& client_;
  std::uint64_t now_ms_ = 0;
  std::string error_;
  std::thread thread_;  // declared last: it reads the members above
};

/// One response as the checker sees it: status and body identity.
struct Answer {
  bool ok = false;
  std::uint64_t body_hash = 0;

  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer answer_of(const serve::Response& response) {
  return {response.status == serve::StatusCode::kOk, fnv(response.body)};
}

/// The closed loop: one request in flight, timed from write to the last
/// byte of the response frame.
struct LoopResult {
  std::vector<double> rtt_us;
  std::vector<Answer> answers;
  double seconds = 0;
};

/// Appends to `loop` until `seconds` have passed.
void closed_loop(Connection& client, RequestStream& stream, double seconds, LoopResult& loop) {
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds) {
    const serve::Request request = stream.next();
    const std::string frame = serve::frame(serve::encode_request(request));
    const Clock::time_point sent = Clock::now();
    const std::string payload = client.round_trip(frame);
    loop.rtt_us.push_back(seconds_since(sent) * 1e6);
    wsx::Result<serve::Response> response = serve::decode_response(payload);
    loop.answers.push_back(response.ok() ? answer_of(response.value()) : Answer{});
  }
  loop.seconds += seconds_since(start);
}

/// The in-process answer to `request`: the oracle called directly for
/// lookups, the daemon's lint path for uploads (admitted far in the virtual
/// future so admission never interferes).
serve::Response direct_answer(serve::Daemon& daemon, const serve::Request& request,
                              std::uint64_t& now_ms) {
  wsx::Result<std::string> body = std::string();
  switch (request.kind) {
    case serve::QueryKind::kVerdict:
      body = daemon.oracle().verdict(request.client, request.service);
      break;
    case serve::QueryKind::kExplain:
      body = daemon.oracle().explain(request.client, request.service);
      break;
    case serve::QueryKind::kSubstitute:
      body = daemon.oracle().substitute(request.client, request.service, request.top);
      break;
    default:
      now_ms += 1000;
      return daemon.handle(request, now_ms);
  }
  serve::Response response;
  if (body.ok()) {
    response.body = std::move(body.value());
  } else {
    response.status = serve::StatusCode::kNotFound;
  }
  return response;
}

/// Checks every closed-loop answer against the in-process answer, on all
/// workers (the oracle is immutable; lint answers are computed once per
/// body up front). Returns the number of mismatches.
std::size_t check_answers(serve::Daemon& daemon, const RequestStream& stream,
                          const std::vector<std::string>& bodies,
                          const std::vector<Answer>& answers, std::uint64_t now_ms) {
  std::map<std::uint64_t, Answer> lint;
  for (const std::string& body : bodies) {
    serve::Request request;
    request.kind = serve::QueryKind::kLint;
    request.body = body;
    lint[fnv(body)] = answer_of(direct_answer(daemon, request, now_ms));
  }
  const std::size_t threads = workers();
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      RequestStream mine = stream;
      for (std::size_t i = 0; i < answers.size(); ++i) {
        const serve::Request request = mine.next();
        if (i % threads != t) continue;
        std::uint64_t unused = 0;
        const Answer expected = request.kind == serve::QueryKind::kLint
                                    ? lint.at(fnv(request.body))
                                    : answer_of(direct_answer(daemon, request, unused));
        if (!expected.ok || !(answers[i] == expected)) ++mismatches;
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  return mismatches.load();
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome outcome;
  HostReference host;
  std::vector<double> setup;
  std::optional<Stack> stack;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    host.sample();
    stack.reset();  // one oracle in memory at a time
    const Clock::time_point start = Clock::now();
    stack.emplace(set_up());
    setup.push_back(seconds_since(start));
  }

  const std::vector<std::string> bodies = lint_bodies(options.seed);
  // The in-process replay gets its own daemon: each daemon's admission
  // clock must only move forward, and the two loops interleave.
  serve::Daemon replay_daemon(*stack->oracle, serve::DaemonSettings{});
  serve::Daemon daemon(std::move(*stack->oracle), serve::DaemonSettings{});
  const RequestStream stream = request_stream(options.seed, daemon.oracle(), bodies);

  // Alternate TCP chunks (60% of the run) with chunks replaying the same
  // sequence in-process (40%), so both see the same host.
  ServerThread server(*stack->listener, daemon, *stack->client);
  RequestStream sent = stream, replay = stream;
  LoopResult loop;
  std::size_t replayed = 0, replay_mismatches = 0;
  std::uint64_t replay_now_ms = 0;
  double replay_seconds = 0;
  while (loop.seconds + replay_seconds < options.seconds) {
    host.sample();
    closed_loop(*stack->client, sent, 0.6 * kChunkSeconds, loop);
    const Clock::time_point chunk_start = Clock::now();
    while (replayed < loop.answers.size() && seconds_since(chunk_start) < 0.4 * kChunkSeconds) {
      const std::string payload = serve::encode_request(replay.next());
      wsx::Result<serve::Request> request = serve::decode_request(payload);
      if (!request.ok()) throw std::runtime_error("decode_request: " + request.error().message);
      const serve::Response response = replay_daemon.handle(request.value(), ++replay_now_ms);
      const std::string frame = serve::frame(serve::encode_response(response));
      if (!(answer_of(response) == loop.answers[replayed]) || frame.empty()) ++replay_mismatches;
      ++replayed;
    }
    replay_seconds += seconds_since(chunk_start);
  }
  const std::uint64_t now_ms = server.join();

  const std::size_t mismatches = check_answers(daemon, stream, bodies, loop.answers, now_ms);
  outcome.attempted = loop.answers.size() + replayed;
  if (mismatches != 0) {
    outcome.fail(mismatches, std::to_string(mismatches) +
                                 " TCP responses not ok or differing from the oracle's answer");
  }
  if (replay_mismatches != 0) {
    outcome.fail(replay_mismatches, "in-process replay differs from the TCP responses");
  }

  // One connection and one replay thread: every figure is normalised by
  // the one-thread reference.
  std::vector<double> rtt_ms;
  for (const double us : loop.rtt_us) rtt_ms.push_back(us / 1e3);
  const double one = host.factor_1t();
  HostReference::add_duration(outcome, "setup_s", median(setup), "s", one);
  HostReference::add_rate(outcome, "ops_per_s",
                          static_cast<double>(loop.answers.size()) / loop.seconds, "1/s", one);
  HostReference::add_rate(outcome, "ops_1t_per_s", static_cast<double>(replayed) / replay_seconds,
                          "1/s", one);
  HostReference::add_duration(outcome, "latency_p50_ms", median(rtt_ms), "ms", one);
  if (const auto p99 = percentile(rtt_ms, 99)) {
    HostReference::add_duration(outcome, "latency_p99_ms", *p99, "ms", one);
  }
  outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
  host.report(outcome);
  return outcome;
}

void serve_layers(const Options& options, Outcome& outcome) {
  wsx::analysis::predict::PredictOptions predict_options;
  predict_options.join_study = false;
  Clock::time_point start = Clock::now();
  const wsx::analysis::predict::PredictReport report =
      wsx::analysis::predict::predict_corpus(predict_options);
  outcome.add("analysis.predict_ms", seconds_since(start) * 1e3, "ms");
  start = Clock::now();
  const wsx::analysis::predict::SubstitutionIndex index = wsx::analysis::predict::build_index(report);
  outcome.add("analysis.index_build_ms", seconds_since(start) * 1e3, "ms");

  start = Clock::now();
  Stack stack = set_up();
  outcome.add("serve.oracle_load_ms", seconds_since(start) * 1e3, "ms");
  ++outcome.attempted;
  if (!(index == stack.oracle->index())) {
    outcome.fail(1, "predict_corpus + build_index differ from the oracle's index");
  }

  const std::vector<std::string> bodies = lint_bodies(options.seed);
  serve::Daemon daemon(std::move(*stack.oracle), serve::DaemonSettings{});
  const RequestStream stream = request_stream(options.seed, daemon.oracle(), bodies);
  ServerThread server(*stack.listener, daemon, *stack.client);
  RequestStream sent = stream;
  LoopResult loop;
  closed_loop(*stack.client, sent, 0.3 * options.seconds, loop);
  std::uint64_t now_ms = server.join();

  // Replay the same sequence in-process, timing each stage of the handling
  // path; what the round trip spends beyond them is transport.
  serve::AdmissionController admission;
  RequestStream replay = stream;
  std::map<serve::QueryKind, std::vector<double>> handle_us;
  std::vector<double> decode_us, admit_us, encode_us, transport_us;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < loop.answers.size(); ++i) {
    const std::string payload = serve::encode_request(replay.next());
    Clock::time_point t = Clock::now();
    wsx::Result<serve::Request> request = serve::decode_request(payload);
    const double decode = seconds_since(t) * 1e6;
    if (!request.ok()) throw std::runtime_error("decode_request: " + request.error().message);
    t = Clock::now();
    const serve::Admission admitted = admission.admit(request->kind, i + 1);
    const double admit = seconds_since(t) * 1e6;
    t = Clock::now();
    const serve::Response response = direct_answer(daemon, request.value(), now_ms);
    const double handle = seconds_since(t) * 1e6;
    t = Clock::now();
    const std::string frame = serve::frame(serve::encode_response(response));
    const double encode = seconds_since(t) * 1e6;
    decode_us.push_back(decode);
    admit_us.push_back(admit);
    encode_us.push_back(encode);
    handle_us[request->kind].push_back(handle);
    transport_us.push_back(loop.rtt_us[i] - (decode + admit + handle + encode));
    const Answer expected = answer_of(response);
    if (admitted.status != serve::StatusCode::kOk || !expected.ok ||
        !(loop.answers[i] == expected) || frame.empty()) {
      ++mismatches;
    }
  }
  // Top up the substitute sample from the rest of the sequence so its p99
  // has ten samples beyond it.
  std::vector<double>& substitute_us = handle_us[serve::QueryKind::kSubstitute];
  while (substitute_us.size() < kMinSubstitutes) {
    const serve::Request request = replay.next();
    if (request.kind != serve::QueryKind::kSubstitute) continue;
    const Clock::time_point t = Clock::now();
    const serve::Response response = direct_answer(daemon, request, now_ms);
    substitute_us.push_back(seconds_since(t) * 1e6);
    ++outcome.attempted;
    if (response.status != serve::StatusCode::kOk) outcome.fail(1, "substitute not ok");
  }
  outcome.attempted += 2 * loop.answers.size();
  if (mismatches != 0) {
    outcome.fail(mismatches, std::to_string(mismatches) +
                                 " TCP responses not admitted, not ok or differing in-process");
  }
  outcome.add("serve.decode_us_p50", median(decode_us), "us");
  outcome.add("serve.admit_us_p50", median(admit_us), "us");
  outcome.add("serve.encode_us_p50", median(encode_us), "us");
  outcome.add("serve.transport_us_p50", median(transport_us), "us");
  using serve::QueryKind;
  const auto add_percentile = [&](const char* name, QueryKind kind, double p) {
    if (const auto value = percentile(handle_us[kind], p)) outcome.add(name, *value, "us");
  };
  outcome.add("serve.verdict_us_p50", median(handle_us[QueryKind::kVerdict]), "us");
  add_percentile("serve.verdict_us_p99", QueryKind::kVerdict, 99);
  outcome.add("serve.explain_us_p50", median(handle_us[QueryKind::kExplain]), "us");
  outcome.add("serve.substitute_us_p50", median(handle_us[QueryKind::kSubstitute]), "us");
  add_percentile("serve.substitute_us_p99", QueryKind::kSubstitute, 99);
  outcome.add("serve.lint_us_p50", median(handle_us[QueryKind::kLint]), "us");
}

}  // namespace perfbench
