#include "requests.hpp"

#include <utility>

namespace perfbench {

RequestStream::RequestStream(std::uint64_t seed, std::vector<std::string> services,
                             std::vector<std::string> clients,
                             std::vector<std::string> lint_bodies)
    : rng_(seed, "perfbench.serve"),
      services_(std::move(services)),
      clients_(std::move(clients)),
      lint_bodies_(std::move(lint_bodies)) {}

serve::Request RequestStream::next() {
  using serve::QueryKind;
  ++since_lint_;
  ++since_substitute_;
  const std::size_t roll = rng_.below(100);
  QueryKind kind = QueryKind::kVerdict;
  if (roll < kLintPercent) {
    kind = QueryKind::kLint;
  } else if (roll < kLintPercent + kSubstitutePercent) {
    kind = QueryKind::kSubstitute;
  } else if (roll < kLintPercent + kSubstitutePercent + kExplainPercent) {
    kind = QueryKind::kExplain;
  }
  if (kind == QueryKind::kLint && (since_lint_ < kLintSpacing || lint_bodies_.empty())) {
    kind = QueryKind::kVerdict;
  }
  if (kind == QueryKind::kSubstitute && since_substitute_ < kSubstituteSpacing) {
    kind = QueryKind::kVerdict;
  }

  serve::Request request;
  request.kind = kind;
  if (kind == QueryKind::kLint) {
    since_lint_ = 0;
    request.body = lint_bodies_[rng_.below(lint_bodies_.size())];
    return request;
  }
  if (kind == QueryKind::kSubstitute) {
    since_substitute_ = 0;
    request.top = kSubstituteTop;
  }
  request.client = clients_[rng_.below(clients_.size())];
  request.service = services_[rng_.below(services_.size())];
  return request;
}

}  // namespace perfbench
