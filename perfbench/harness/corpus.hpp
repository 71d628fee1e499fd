// corpus.hpp — the paper's population, prepared once for the per-service
// operations the harness times itself (the traced layer replay, the serve
// lint uploads). The campaign passes build their own, as the CLI does.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "catalog/dotnet_catalog.hpp"
#include "catalog/java_catalog.hpp"
#include "compilers/compiler.hpp"
#include "frameworks/client.hpp"
#include "frameworks/server.hpp"
#include "frameworks/service.hpp"

namespace perfbench {

/// One candidate service of the study: which server it targets and its
/// spec. `deployable` is the server's own verdict, so samples of deployed
/// services can skip the 14,785 refusals.
struct Candidate {
  const wsx::frameworks::ServerFramework* server = nullptr;
  wsx::frameworks::ServiceSpec spec;
  bool deployable = false;
};

struct Corpus {
  wsx::catalog::TypeCatalog java;    ///< the service specs point into these
  wsx::catalog::TypeCatalog dotnet;
  std::vector<std::unique_ptr<wsx::frameworks::ServerFramework>> servers;
  std::vector<std::unique_ptr<wsx::frameworks::ClientFramework>> clients;
  std::vector<std::unique_ptr<wsx::compilers::Compiler>> compilers;  ///< per client
  std::vector<Candidate> candidates;  ///< server order, then catalog order

  /// Builds the catalogs, services and rosters in place (specs point into
  /// the catalogs, so a Corpus never moves).
  static std::unique_ptr<Corpus> build();
};

/// Times one run of the preparation phase run_study and run_chaos_study
/// open with (make_java_catalog, make_dotnet_catalog, make_services,
/// make_servers, make_clients), in seconds.
double prepare_seconds();

/// Indices into Corpus::candidates of the deployable services in sweep
/// `sweep` of `sweeps`: every sweeps-th deployable service, offset by the
/// sweep, so `sweeps` consecutive sweeps cover each exactly once.
std::vector<std::size_t> sweep_indices(const Corpus& corpus, std::size_t sweep,
                                       std::size_t sweeps);

}  // namespace perfbench
