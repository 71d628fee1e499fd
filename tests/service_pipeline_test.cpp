// service_pipeline_test — the per-service pipeline (interop::run_service):
// every candidate is deployed, described, WS-I checked and tested inside
// its worker slice, and slices fold in order. The reports must therefore
// be byte-identical at any worker count, odd ones included (uneven
// slices), with the WS-I deploy gate on and with the parse cache off; the
// chaos round must hold the same contract; and a supervised journal whose
// task records lack the deployment/flag bits must be refused, not folded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "interop/persistence.hpp"
#include "interop/report.hpp"
#include "interop/report_formats.hpp"
#include "interop/study.hpp"
#include "interop/supervised.hpp"
#include "resilience/journal.hpp"

namespace wsx {
namespace {

/// Enough candidates that eight workers × the balanced grain still see
/// refusals, flagged and clean services scattered across slices.
void small_specs(catalog::JavaCatalogSpec& java, catalog::DotNetCatalogSpec& dotnet) {
  java.plain_beans = 30;
  java.throwable_clean = 6;
  java.throwable_raw = 2;
  java.raw_generic_beans = 3;
  java.anytype_array_beans = 2;
  java.no_default_ctor = 9;
  java.abstract_classes = 5;
  java.interfaces = 6;
  java.generic_types = 4;
  dotnet.plain_types = 30;
  dotnet.dataset_plain = 2;
  dotnet.deep_nesting_clean = 4;
  dotnet.deep_nesting_pathological = 1;
  dotnet.non_serializable = 10;
  dotnet.no_default_ctor = 8;
  dotnet.generic_types = 5;
  dotnet.abstract_classes = 4;
  dotnet.interfaces = 3;
}

/// Every rendered artefact of a study run plus the counters no report
/// prints, and the observer log (sorted: workers interleave it).
std::string render_study(interop::StudyConfig config, std::size_t threads) {
  config.threads = threads;
  std::vector<std::string> log;
  config.observer = [&log](const interop::TestRecord& record) {
    log.push_back(interop::to_json_line(record));
  };
  const interop::StudyResult result = interop::run_study(config);
  std::sort(log.begin(), log.end());
  std::ostringstream out;
  out << interop::format_fig4(result) << interop::format_table3(result)
      << interop::format_findings(result) << interop::format_failure_catalog(result)
      << interop::fig4_csv(result) << interop::table3_csv(result)
      << interop::to_snapshot_csv(result);
  for (const interop::ServerResult& server : result.servers) {
    out << server.server << ' ' << server.services_created << ' ' << server.services_deployed
        << ' ' << server.deployment_refusals << ' ' << server.description_warnings << ' '
        << server.wsi_failures << ' ' << server.zero_operation_services << ' '
        << server.gate_rejections << '\n';
  }
  out << result.same_framework_failures << ' ' << result.same_platform_failures << ' '
      << result.flagged_services << ' ' << result.flagged_services_with_downstream_error << ' '
      << result.generation_errors_on_flagged << ' ' << result.generation_errors_on_compliant
      << '\n';
  for (const std::string& line : log) out << line << '\n';
  return out.str();
}

void expect_jobs_independent(const interop::StudyConfig& config) {
  const std::string one = render_study(config, 1);
  EXPECT_NE(one.find("tests"), std::string::npos);
  EXPECT_EQ(render_study(config, 3), one);
  EXPECT_EQ(render_study(config, 8), one);
}

interop::StudyConfig small_study() {
  interop::StudyConfig config;
  small_specs(config.java_spec, config.dotnet_spec);
  return config;
}

TEST(ServicePipeline, StudyReportsIdenticalAtOneThreeAndEightThreads) {
  expect_jobs_independent(small_study());
}

TEST(ServicePipeline, GatedStudyReportsIdenticalAtOneThreeAndEightThreads) {
  interop::StudyConfig config = small_study();
  config.wsi_deploy_gate = true;
  const interop::StudyResult gated = interop::run_study(config);
  std::size_t rejections = 0;
  for (const interop::ServerResult& server : gated.servers) rejections += server.gate_rejections;
  EXPECT_GT(rejections, 0u);  // the gate has something to withdraw
  expect_jobs_independent(config);
}

TEST(ServicePipeline, UncachedStudyReportsIdenticalAtOneThreeAndEightThreads) {
  interop::StudyConfig config = small_study();
  config.parse_cache = false;
  expect_jobs_independent(config);
  // And the cache stays invisible in the reports.
  EXPECT_EQ(render_study(config, 3), render_study(small_study(), 3));
}

TEST(ServicePipeline, ChaosCsvIdenticalAtOneThreeAndEightJobs) {
  chaos::ChaosConfig config;
  small_specs(config.java_spec, config.dotnet_spec);
  config.plan.seed = 7;
  config.calls_per_pair = 2;
  const auto csv = [&config](std::size_t jobs) {
    chaos::ChaosConfig run = config;
    run.jobs = jobs;
    return chaos::chaos_csv(chaos::run_chaos_study(run));
  };
  const std::string one = csv(1);
  EXPECT_EQ(csv(3), one);
  EXPECT_EQ(csv(8), one);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(ServicePipeline, SupervisedResumeRejectsRecordsWithoutFlagBits) {
  interop::StudyConfig config = small_study();
  const std::string path = testing::TempDir() + "wsx_service_pipeline_old.journal";
  std::remove(path.c_str());

  interop::SupervisedOptions tripping;
  tripping.jobs = 2;
  tripping.journal.checkpoint_every = 4;
  tripping.checkpoint_path = path;
  tripping.trip_after_tasks = 5;
  Result<interop::SupervisedStudyResult> tripped =
      interop::run_study_supervised(config, tripping);
  ASSERT_TRUE(tripped.ok()) << tripped.error().message;
  ASSERT_TRUE(tripped->supervisor.tripped);

  // Rewrite every record into the shape journals had when a task began
  // after deployment: client rows only, no refusal/WS-I/gate bits.
  std::string text = read_file(path);
  const std::string bits =
      R"("refused":false,"wsi_failure":false,"zero_operations":false,"gated":false,)";
  std::size_t stripped = 0;
  for (std::size_t at = text.find(bits); at != std::string::npos; at = text.find(bits, at)) {
    text.erase(at, bits.size());
    ++stripped;
  }
  ASSERT_GT(stripped, 0u);
  std::remove(path.c_str());

  Result<resilience::Journal> journal = resilience::Journal::parse(text);
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  interop::SupervisedOptions resuming;
  resuming.jobs = 2;
  resuming.journal.checkpoint_every = 4;
  resuming.resume = &journal.value();
  Result<interop::SupervisedStudyResult> resumed =
      interop::run_study_supervised(config, resuming);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, "resilience.bad-record");
  EXPECT_NE(resumed.error().message.find("refused"), std::string::npos)
      << resumed.error().message;
}

}  // namespace
}  // namespace wsx
