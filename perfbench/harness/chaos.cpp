// The `chaos` workload: run_chaos_study at N workers and at 1 worker under
// the default FaultPlan seeded by the workload seed; and the SOAP and
// resilience half of the traced layer table.
#include <array>
#include <string>

#include "bench.hpp"
#include "chaos/campaign.hpp"
#include "chaos/policy.hpp"
#include "chaos/wire.hpp"
#include "batch.hpp"
#include "corpus.hpp"
#include "frameworks/invocation.hpp"
#include "frameworks/shared_description.hpp"
#include "soap/envelope.hpp"
#include "soap/validate.hpp"
#include "stats.hpp"

namespace perfbench {

namespace fw = wsx::frameworks;
namespace chaos = wsx::chaos;

namespace {


chaos::ChaosConfig chaos_config(std::uint64_t seed, std::size_t jobs) {
  chaos::ChaosConfig config;
  config.plan.seed = seed;  // default rate (30%) and all fault kinds
  config.jobs = jobs;
  return config;
}

/// Campaign-wide sums the harness compares between passes and replays.
struct Totals {
  std::array<std::size_t, chaos::kChaosOutcomeCount> outcomes{};
  std::size_t retransmits = 0, faulted_attempts = 0, challenged = 0, challenged_ok = 0,
              breaker_trips = 0;

  void add(const chaos::ChainDelta& delta) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) outcomes[i] += delta.outcomes[i];
    retransmits += delta.retransmits;
    faulted_attempts += delta.faulted_attempts;
    challenged += delta.challenged;
    challenged_ok += delta.challenged_ok;
    breaker_trips += delta.breaker_trips;
  }
  Totals& operator+=(const Totals& other) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) outcomes[i] += other.outcomes[i];
    retransmits += other.retransmits;
    faulted_attempts += other.faulted_attempts;
    challenged += other.challenged;
    challenged_ok += other.challenged_ok;
    breaker_trips += other.breaker_trips;
    return *this;
  }
  std::size_t calls() const {
    std::size_t sum = 0;
    for (const std::size_t count : outcomes) sum += count;
    return sum;
  }
  friend bool operator==(const Totals&, const Totals&) = default;
};

Totals totals_of(const chaos::ChaosResult& result) {
  Totals totals;
  for (const chaos::ChaosServerResult& server : result.servers) {
    for (const chaos::ChaosCell& cell : server.cells) {
      chaos::ChainDelta delta;
      delta.outcomes = cell.outcomes;
      delta.retransmits = cell.retransmits;
      delta.faulted_attempts = cell.faulted_attempts;
      delta.challenged = cell.challenged;
      delta.challenged_ok = cell.challenged_ok;
      delta.breaker_trips = cell.breaker_trips;
      totals.add(delta);
    }
  }
  return totals;
}

/// Every per-cell figure of a chaos result, in report order: two passes
/// agree exactly when their signatures are equal.
std::string signature(const chaos::ChaosResult& result) {
  std::string out;
  for (const chaos::ChaosServerResult& server : result.servers) {
    out += server.server + ':' + std::to_string(server.services_deployed) + '\n';
    for (const chaos::ChaosCell& cell : server.cells) {
      out += cell.client;
      for (const std::size_t count : cell.outcomes) out += ' ' + std::to_string(count);
      for (const std::size_t count : {cell.retransmits, cell.faulted_attempts, cell.challenged,
                                      cell.challenged_ok, cell.breaker_trips}) {
        out += ' ' + std::to_string(count);
      }
      out += ' ' + std::to_string(cell.virtual_ms) + '\n';
    }
  }
  return out;
}

/// The per-service pieces a chain needs: one wire per server, one policy
/// per client, as run_chaos_study builds them.
struct ChainKit {
  chaos::ChaosConfig config;
  std::vector<chaos::FaultyWire> wires;  ///< Corpus::servers order
  std::vector<chaos::ResiliencePolicy> policies;

  ChainKit(const Corpus& corpus, std::uint64_t seed) : config(chaos_config(seed, 1)) {
    for (const auto& server : corpus.servers) wires.emplace_back(*server, config.plan);
    for (const auto& client : corpus.clients) policies.push_back(chaos::policy_for(client->name()));
  }

  const chaos::FaultyWire& wire_for(const Corpus& corpus, const fw::ServerFramework& server) const {
    for (std::size_t i = 0; i < corpus.servers.size(); ++i) {
      if (corpus.servers[i].get() == &server) return wires[i];
    }
    return wires.front();
  }
};

/// One service through the chaos drill: deploy, describe, then every
/// client's chain. `chain_ns` accumulates the chain time alone.
Totals drill(const Corpus& corpus, const ChainKit& kit, const Candidate& candidate,
             double& chain_ns) {
  Totals totals;
  wsx::Result<fw::DeployedService> deployed = candidate.server->deploy(candidate.spec);
  if (!deployed.ok()) return totals;
  const fw::DeployedService& service = deployed.value();
  const fw::SharedDescription description =
      fw::SharedDescription::from_deployed(service, /*with_wsi=*/false);
  const chaos::FaultyWire& wire = kit.wire_for(corpus, *candidate.server);
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < corpus.clients.size(); ++c) {
    totals.add(chaos::run_chaos_chain(wire, *candidate.server, service, &description,
                                      *corpus.clients[c], corpus.compilers[c].get(),
                                      kit.policies[c], kit.config));
  }
  chain_ns += ns_since(start);
  return totals;
}

}  // namespace

Outcome run_chaos(const Options& options) {
  Outcome outcome;
  std::string reference;  // signature of the run's first pass
  const auto pass = [&](std::size_t jobs) {
    const chaos::ChaosResult result = chaos::run_chaos_study(chaos_config(options.seed, jobs));
    const std::size_t calls = totals_of(result).calls();
    outcome.attempted += calls;
    if (reference.empty()) {
      reference = signature(result);
    } else if (signature(result) != reference) {
      outcome.fail(calls, "chaos pass at " + std::to_string(jobs) +
                              " worker(s) differs from the first pass");
    }
    return calls;
  };
  add_batch_metrics(run_rounds(options, pass), outcome);
  return outcome;
}

void chaos_layers(const Options& options, Outcome& outcome) {
  const chaos::ChaosResult pass =
      chaos::run_chaos_study(chaos_config(options.seed, workers()));
  const Totals expected = totals_of(pass);
  const std::unique_ptr<Corpus> corpus = Corpus::build();
  const ChainKit kit(*corpus, options.seed);

  Totals replayed;
  double chain_ns = 0;
  for (const Candidate& candidate : corpus->candidates) {
    replayed += drill(*corpus, kit, candidate, chain_ns);
  }
  outcome.attempted += replayed.calls();
  if (!(replayed == expected)) {
    outcome.fail(replayed.calls(), "traced chain replay disagrees with run_chaos_study");
  }
  outcome.add("chaos.chain_ms", chain_ns * 1e-6, "ms");
  outcome.add("chaos.calls", static_cast<double>(replayed.calls()), "count");
  outcome.add("chaos.faulted_attempts", static_cast<double>(replayed.faulted_attempts), "count");
  outcome.add("chaos.retransmits", static_cast<double>(replayed.retransmits), "count");
  outcome.add("chaos.breaker_trips", static_cast<double>(replayed.breaker_trips), "count");
  outcome.add("chaos.recovered_share",
              static_cast<double>(replayed.challenged_ok) /
                  static_cast<double>(replayed.challenged),
              "ratio");

  // The envelope path on the clean requests the clients would send: one
  // sweep of the corpus, every client. The streaming sniffer must agree
  // with parse-then-validate on each.
  double parse_ns = 0, sniff_ns = 0;
  std::size_t bytes = 0, envelopes = 0;
  std::vector<double> handle_us;
  for (const std::size_t index : sweep_indices(*corpus, 0, 2)) {  // every other service
    const Candidate& candidate = corpus->candidates[index];
    wsx::Result<fw::DeployedService> deployed = candidate.server->deploy(candidate.spec);
    if (!deployed.ok()) continue;
    const fw::SharedDescription description = fw::SharedDescription::from_deployed(*deployed, false);
    for (std::size_t c = 0; c < corpus->clients.size(); ++c) {
      const fw::PreparedCall call = fw::prepare_echo_call(
          *deployed, description, *corpus->clients[c], corpus->compilers[c].get());
      if (call.status != fw::PreparedCall::Status::kReady) continue;
      const std::string& text = call.request.body;
      Clock::time_point start = Clock::now();
      const wsx::Result<wsx::soap::Envelope> envelope = wsx::soap::parse(text);
      parse_ns += ns_since(start);
      start = Clock::now();
      const auto sniffed = wsx::soap::validate_request_text(description.definitions(), text);
      sniff_ns += ns_since(start);
      start = Clock::now();
      const wsx::soap::HttpResponse response = candidate.server->handle_http(*deployed, call.request);
      handle_us.push_back(seconds_since(start) * 1e6);
      bytes += text.size();
      ++envelopes;
      const bool agree =
          envelope.ok() == sniffed.ok() &&
          (!envelope.ok() ||
           wsx::soap::validate_request(description.definitions(), envelope.value()) ==
               sniffed.value());
      if (!agree) outcome.fail(1, "streaming sniffer disagrees with parse+validate");
    }
  }
  outcome.attempted += envelopes;
  outcome.add("soap.envelope_bytes", static_cast<double>(bytes), "B");
  outcome.add("soap.parse_ns_per_byte", parse_ns / static_cast<double>(bytes), "ns/B");
  outcome.add("soap.sniff_ns_per_byte", sniff_ns / static_cast<double>(bytes), "ns/B");
  outcome.add("frameworks.handle_http_us_p50", median(handle_us), "us");
}

}  // namespace perfbench
