// requests.hpp — the seeded request sequence of the `serve` workload.
//
// Services are drawn uniformly over the corpus and clients uniformly over
// the roster; the kind mix is mostly verdict/explain lookups with a few
// percent substitute rankings and lint uploads. Two spacing rules keep the
// sequence inside what the daemon's default AdmissionSettings admit when
// requests arrive one virtual millisecond apart (as TcpServer clocks them):
// a lint (20 ms class cost) never follows another within kLintSpacing
// requests, and a substitute (4 ms) never within kSubstituteSpacing. In
// the worst case that books 1 lane for lint, 0.8 for substitutes and 2 for
// back-to-back explains — under the 4 lanes, so no queue ever builds and
// nothing is shed or deadline-rejected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace serve = wsx::serve;

inline constexpr unsigned kExplainPercent = 32;
inline constexpr unsigned kSubstitutePercent = 4;
inline constexpr unsigned kLintPercent = 2;
inline constexpr std::size_t kLintSpacing = 25;
inline constexpr std::size_t kSubstituteSpacing = 5;
inline constexpr std::size_t kSubstituteTop = 5;

/// An endless, seeded stream of serve requests. The same seed and inputs
/// give the same sequence, request for request.
class RequestStream {
 public:
  /// `services` are "Server/Service" names, `clients` roster names, and
  /// `lint_bodies` WSDL documents that parse (uploads are drawn from them).
  RequestStream(std::uint64_t seed, std::vector<std::string> services,
                std::vector<std::string> clients, std::vector<std::string> lint_bodies);

  serve::Request next();

 private:
  wsx::gen::Rng rng_;
  std::vector<std::string> services_;
  std::vector<std::string> clients_;
  std::vector<std::string> lint_bodies_;
  std::size_t since_lint_ = kLintSpacing;
  std::size_t since_substitute_ = kSubstituteSpacing;
};

}  // namespace perfbench
