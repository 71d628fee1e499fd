// Tests for two serve edge paths: the FrameReader's declared-length cap,
// which must hold at exactly 2^26 bytes (checked after every digit, so an
// oversized header is refused before anything is buffered), and the
// Oracle's load-time service index, which must answer every lookup
// exactly like a corpus-order scan matching either "Server/Service" or
// the bare service name.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "analysis/predict.hpp"
#include "serve/oracle.hpp"
#include "serve/protocol.hpp"

namespace wsx::serve {
namespace {

Result<bool> next_of(std::string_view bytes) {
  FrameReader reader;
  reader.feed(bytes);
  std::string payload;
  return reader.next(payload);
}

TEST(ServeFrameCap, LengthAtTheCapWaitsForItsPayload) {
  const Result<bool> next = next_of("#67108864\n");
  ASSERT_TRUE(next.ok()) << next.error().message;
  EXPECT_FALSE(next.value());  // header accepted, payload still arriving
}

TEST(ServeFrameCap, LengthOneOverTheCapIsABadFrame) {
  const Result<bool> next = next_of("#67108865\n");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, "serve.bad-frame");
}

TEST(ServeFrameCap, LengthPastTheLastDigitCheckIsABadFrame) {
  // 671088649 = 67108864 * 10 + 9: every prefix but the whole number is
  // within the cap, so a check before the final multiply-add let it in.
  const Result<bool> next = next_of("#671088649\n");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, "serve.bad-frame");
}

TEST(ServeFrameCap, LongDigitRunsNeverOverflow) {
  const Result<bool> next = next_of("#99999999999999999999999999999\n");
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, "serve.bad-frame");
}

analysis::predict::PredictOptions small_predict() {
  analysis::predict::PredictOptions options;
  options.java_spec.plain_beans = 6;
  options.java_spec.throwable_clean = 2;
  options.java_spec.throwable_raw = 1;
  options.java_spec.raw_generic_beans = 1;
  options.java_spec.anytype_array_beans = 1;
  options.java_spec.no_default_ctor = 1;
  options.java_spec.abstract_classes = 1;
  options.java_spec.interfaces = 2;
  options.java_spec.generic_types = 1;
  options.dotnet_spec.plain_types = 6;
  options.dotnet_spec.dataset_plain = 1;
  options.dotnet_spec.dataset_duplicated = 1;
  options.dotnet_spec.deep_nesting_clean = 1;
  options.dotnet_spec.deep_nesting_pathological = 1;
  options.dotnet_spec.non_serializable = 1;
  options.join_study = false;
  options.jobs = 2;
  return options;
}

/// The lookup the index replaced: the first corpus-order record whose
/// "server/service" or bare service name equals the query.
const analysis::predict::ServicePredictionRecord* scan(const Oracle& oracle,
                                                       std::string_view service) {
  for (const analysis::predict::ServicePredictionRecord& record : oracle.records()) {
    if (service == record.server + "/" + record.service || service == record.service) {
      return &record;
    }
  }
  return nullptr;
}

TEST(OracleServiceIndex, AgreesWithTheCorpusOrderScanOnEveryKey) {
  OracleOptions options;
  options.predict = small_predict();
  Result<Oracle> loaded = Oracle::load(options);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const Oracle& oracle = loaded.value();
  ASSERT_GT(oracle.services(), 0u);

  std::set<std::string> bare_names;
  std::size_t shared_names = 0;  // bare names deployed on more than one server
  for (const analysis::predict::ServicePredictionRecord& record : oracle.records()) {
    const std::string full = record.server + "/" + record.service;
    EXPECT_EQ(oracle.find_service(full), scan(oracle, full)) << full;
    EXPECT_EQ(oracle.find_service(full), &record) << full;
    if (!bare_names.insert(record.service).second) ++shared_names;
  }
  for (const std::string& name : bare_names) {
    EXPECT_EQ(oracle.find_service(name), scan(oracle, name)) << name;
  }
  // The first-match rule only matters when bare names repeat; the corpus
  // deploys the same Java types on two servers, so they do.
  EXPECT_GT(shared_names, 0u);
  EXPECT_EQ(oracle.find_service("NoSuchServer/EchoNothing"), nullptr);
  EXPECT_EQ(scan(oracle, "NoSuchServer/EchoNothing"), nullptr);
}

}  // namespace
}  // namespace wsx::serve
