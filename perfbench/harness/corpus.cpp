#include "corpus.hpp"

#include "bench.hpp"
#include "frameworks/registry.hpp"

namespace perfbench {

namespace fw = wsx::frameworks;

std::unique_ptr<Corpus> Corpus::build() {
  auto corpus = std::unique_ptr<Corpus>(new Corpus{
      wsx::catalog::make_java_catalog(), wsx::catalog::make_dotnet_catalog(), {}, {}, {}, {}});
  const std::vector<fw::ServiceSpec> java_services = fw::make_services(corpus->java);
  const std::vector<fw::ServiceSpec> dotnet_services = fw::make_services(corpus->dotnet);
  corpus->servers = fw::make_servers();
  corpus->clients = fw::make_clients();
  for (const auto& client : corpus->clients) {
    corpus->compilers.push_back(wsx::compilers::make_compiler(client->language()));
  }
  for (const auto& server : corpus->servers) {
    // run_study's rule: the C# server hosts the .NET catalog.
    for (const fw::ServiceSpec& spec :
         server->language() == "C#" ? dotnet_services : java_services) {
      corpus->candidates.push_back({server.get(), spec, server->can_deploy(*spec.type)});
    }
  }
  return corpus;
}

double prepare_seconds() {
  const Clock::time_point start = Clock::now();
  const wsx::catalog::TypeCatalog java = wsx::catalog::make_java_catalog();
  const wsx::catalog::TypeCatalog dotnet = wsx::catalog::make_dotnet_catalog();
  const std::vector<fw::ServiceSpec> java_services = fw::make_services(java);
  const std::vector<fw::ServiceSpec> dotnet_services = fw::make_services(dotnet);
  const auto servers = fw::make_servers();
  const auto clients = fw::make_clients();
  return seconds_since(start);
}

std::vector<std::size_t> sweep_indices(const Corpus& corpus, std::size_t sweep,
                                       std::size_t sweeps) {
  std::vector<std::size_t> indices;
  std::size_t deployable = 0;
  for (std::size_t i = 0; i < corpus.candidates.size(); ++i) {
    if (!corpus.candidates[i].deployable) continue;
    if (deployable++ % sweeps == sweep % sweeps) indices.push_back(i);
  }
  return indices;
}

}  // namespace perfbench
