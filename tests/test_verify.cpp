// Contract tests of the static verifier (src/verify): every documented
// tamper class yields its exact diagnostic code, and every shipped
// strategy's output verifies clean at paper scale.  Codes (not message
// substrings) are the stable interface — docs/verification.md is the
// catalog these tests pin.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "compile/compiler.hpp"
#include "compile/program.hpp"
#include "snn/benchmarks.hpp"
#include "verify/verifier.hpp"

namespace resparc::verify {
namespace {

using compile::CompiledProgram;
using compile::Compiler;

// One compiled MNIST MLP at the default (MCA 64) configuration, shared
// read-only across tests; each tamper test works on its own copy.
const CompiledProgram& base_program() {
  static const CompiledProgram program = Compiler(core::default_config())
      .compile(snn::mnist_mlp().topology, "paper");
  return program;
}

std::string base_blob() {
  std::ostringstream os;
  base_program().save(os);
  return os.str();
}

// Replaces the first occurrence of `from` in `blob` (asserts it exists —
// a silent no-op would make the tamper test vacuous).
std::string tampered(std::string blob, const std::string& from,
                     const std::string& to) {
  const std::size_t pos = blob.find(from);
  EXPECT_NE(pos, std::string::npos) << "tamper anchor not found: " << from;
  if (pos != std::string::npos) blob.replace(pos, from.size(), to);
  return blob;
}

// The diagnostic code CompiledProgram::parse throws for `blob`, or "" when
// it parses clean.
std::string parse_code(const std::string& blob) {
  std::istringstream is(blob);
  try {
    CompiledProgram::parse(is, core::default_config());
    return "";
  } catch (const Error& e) {
    return e.code();
  }
}

// ----------------------------------------------------------- error codes --

TEST(ErrorCodes, RequireCarriesTheMachineReadableCode) {
  EXPECT_NO_THROW(require(true, "never thrown", "RV-TEST-NEVER"));
  try {
    require(false, "tested failure", "RV-TEST-CODE");
    FAIL() << "require(false) must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), "RV-TEST-CODE");
    EXPECT_NE(std::string(e.what()).find("tested failure"), std::string::npos);
  }
}

TEST(ErrorCodes, RequireWithoutCodeLeavesCodeEmpty) {
  try {
    require(false, "uncoded failure");
    FAIL() << "require(false) must throw";
  } catch (const Error& e) {
    EXPECT_TRUE(e.code().empty());
  }
}

// ---------------------------------------------------------- clean outputs --

TEST(VerifyClean, CompiledProgramHasNoFindings) {
  const VerifyReport report = verify_program(base_program());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(VerifyClean, FreshBlobLintsCleanIncludingRoundTrip) {
  const VerifyReport report = verify_blob(base_blob(), core::default_config());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Every shipped strategy must produce verifiable programs at paper scale:
// both MNIST topologies across the MCA sweep the paper's figures use.
// (compile() already runs the verifier as a hard post-pass; asserting on
// an explicit report additionally pins that no *warnings* regress into
// errors silently.)
TEST(VerifyClean, AllStrategiesVerifyCleanAtPaperScale) {
  const snn::BenchmarkSpec specs[] = {snn::mnist_mlp(), snn::mnist_cnn()};
  for (const char* strategy : {"paper", "greedy-pack", "anneal", "beam"}) {
    for (const auto& spec : specs) {
      for (const std::size_t mca : {64u, 128u, 256u}) {
        const core::ResparcConfig cfg = core::config_with_mca(mca);
        const CompiledProgram program =
            Compiler(cfg).compile(spec.topology, strategy);
        VerifyOptions options;
        options.topology = &spec.topology;
        const VerifyReport report = verify_program(program, options);
        EXPECT_TRUE(report.ok())
            << strategy << "/" << spec.topology.name() << "/mca" << mca
            << "\n" << report.to_string();
      }
    }
  }
}

// The committed golden fixture (MNIST MLP at MCA 64).
std::string golden_blob() {
  const std::string path = std::string(RESPARC_SOURCE_DIR) +
                           "/tests/data/golden_mnist_mlp_mca64.rcp";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing golden fixture " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(VerifyClean, CommittedGoldenBlobVerifies) {
  const VerifyReport report = verify_blob_auto(golden_blob());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --------------------------------------------------------- tampered blobs --

TEST(VerifyTamper, TruncatedHeaderIsMalformed) {
  EXPECT_EQ(parse_code(base_blob().substr(0, 10)), "RV-BLOB-MALFORMED");
}

TEST(VerifyTamper, TruncatedPayloadIsMalformed) {
  const std::string blob = base_blob();
  EXPECT_EQ(parse_code(blob.substr(0, blob.size() / 2)), "RV-BLOB-MALFORMED");
}

TEST(VerifyTamper, WrongVersionIsRejectedWithVersionCode) {
  const std::string blob =
      tampered(base_blob(), "resparc-compiled-program v3",
               "resparc-compiled-program v9");
  EXPECT_EQ(parse_code(blob), "RV-BLOB-VERSION");
}

TEST(VerifyTamper, TrailingBytesAreRejected) {
  EXPECT_EQ(parse_code(base_blob() + "surplus\n"), "RV-BLOB-TRAILING");
  // A trailing newline alone is NOT trailing bytes — whitespace-padding a
  // blob (editors do) must stay loadable.
  EXPECT_EQ(parse_code(base_blob() + "\n"), "");
}

TEST(VerifyTamper, CorruptedFingerprintIsACodedFinding) {
  const std::string blob = tampered(
      base_blob(), "fingerprint " +
          std::to_string(core::default_config().fingerprint()),
      "fingerprint 12345");
  EXPECT_EQ(parse_code(blob), "RV-CONS-FINGERPRINT");
  // The lint path reports the same code as a diagnostic instead of
  // throwing, and the auto sweep cannot bind 12345 to any standard
  // configuration.
  EXPECT_TRUE(verify_blob(blob, core::default_config())
                  .has("RV-CONS-FINGERPRINT"));
  EXPECT_TRUE(verify_blob_auto(blob).has("RV-CONS-FINGERPRINT"));
}

TEST(VerifyTamper, EditedRouteTableIsCaughtByTheRoutingPass) {
  // Bump one route's tree_hops: still parseable, but the H-tree maths no
  // longer re-derives (tree_hops must equal 2 * lca_height between cells).
  const std::string blob =
      tampered(base_blob(), "route 1 2 2 5 1 0 6 3 3",
               "route 1 2 2 5 1 0 7 3 3");
  ASSERT_EQ(parse_code(blob), "");  // parse alone accepts it...
  const VerifyReport report = verify_blob(blob, core::default_config());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("RV-ROUTE-TREE-HOPS")) << report.to_string();
  // ...which is exactly why load() runs the verifier.
  std::istringstream is(blob);
  try {
    CompiledProgram::load(is, core::default_config());
    FAIL() << "load() must reject the tampered route table";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.code(), "RV-ROUTE-TREE-HOPS");
  }
}

// A corrupt NeuroCell total must be rejected promptly, before any loop or
// allocation scales with it: -1 parses as SIZE_MAX, and 999999999 would
// size a multi-gigabyte per-cell table.
TEST(VerifyTamper, CorruptNeuroCellTotalIsRejectedPromptly) {
  for (const char* total : {"-1", "999999999"}) {
    const std::string blob =
        tampered(golden_blob(), "totals 351 90 6 ",
                 std::string("totals 351 90 ") + total + " ");
    const auto start = std::chrono::steady_clock::now();
    std::istringstream is(blob);
    try {
      CompiledProgram::load(is, core::default_config());
      ADD_FAILURE() << "load() must reject total_neurocells " << total;
    } catch (const VerifyError& e) {
      EXPECT_EQ(e.code(), "RV-CONS-TOTALS") << total << ": " << e.what();
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 0.5) << total;
  }
}

// The golden blob's cost line records the assumed activity as its last
// field and the per-step energy as its first; a blob that disagrees with
// the cost model on either is rejected with RV-CONS-COST-MODEL.
VerifyReport verify_golden_with_topology(const std::string& blob) {
  std::istringstream is(blob);
  const CompiledProgram program =
      CompiledProgram::parse(is, core::default_config());
  VerifyOptions options;
  const snn::Topology topology = snn::mnist_mlp().topology;
  options.topology = &topology;
  return verify_program(program, options);
}

TEST(VerifyTamper, ForeignActivityIsACostModelFinding) {
  const std::string blob =
      tampered(golden_blob(), " 6 0x1.999999999999ap-4\n",
               " 6 0x1.999999999999ap-3\n");
  const VerifyReport report = verify_golden_with_topology(blob);
  ASSERT_EQ(report.error_count(), 1u) << report.to_string();
  EXPECT_EQ(report.diagnostics().front().code, "RV-CONS-COST-MODEL");
  EXPECT_NE(report.diagnostics().front().message.find(
                "activity 0x1.999999999999ap-3"),
            std::string::npos)
      << report.to_string();
  // The activity check needs no topology, so load() refuses it too.
  std::istringstream is(blob);
  try {
    CompiledProgram::load(is, core::default_config());
    FAIL() << "load() must reject a program with a foreign activity";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.code(), "RV-CONS-COST-MODEL");
  }
}

TEST(VerifyTamper, EditedEnergyIsACostModelFinding) {
  const std::string blob = tampered(golden_blob(), "cost 0x1.8fcd43fca98cbp+12",
                                    "cost 0x1.8fcd43fca98cbp+13");
  const VerifyReport report = verify_golden_with_topology(blob);
  ASSERT_EQ(report.error_count(), 1u) << report.to_string();
  EXPECT_EQ(report.diagnostics().front().code, "RV-CONS-COST-MODEL");
}

// ------------------------------------------------------ hand-built damage --

TEST(VerifyTamper, CapacityOverflowInAHandEditedMappingIsCaught) {
  CompiledProgram program = base_program();
  // Claim more crosspoints than the group's MCAs physically have
  // (mca_count * N^2) — a tiling-pass bug this verifier exists to catch.
  auto& group = program.mapping.layers[0].groups[0];
  group.synapses = group.mca_count *
      program.mapping.config.mca_size * program.mapping.config.mca_size + 1;
  const VerifyReport report = verify_program(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("RV-CAP-MCA-SYNAPSES")) << report.to_string();
}

TEST(VerifyTamper, DroppedRouteIsAStructureFinding) {
  CompiledProgram program = base_program();
  program.routes.boundaries.pop_back();
  const VerifyReport report = verify_program(program);
  EXPECT_TRUE(report.has("RV-STRUCT-ROUTE-COUNT")) << report.to_string();
}

TEST(VerifyTamper, InconsistentTotalsAreAConsistencyFinding) {
  CompiledProgram program = base_program();
  program.mapping.total_mcas += 1;
  const VerifyReport report = verify_program(program);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("RV-CONS-TOTALS")) << report.to_string();
}

// ------------------------------------------------------------- report API --

TEST(VerifyReportApi, CountsSeveritiesAndRaisesWithFirstErrorCode) {
  VerifyReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_NO_THROW(report.raise_if_errors("empty"));

  report.warning("RV-TEST-WARN", "here", "only a warning");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_NO_THROW(report.raise_if_errors("warnings only"));

  report.error("RV-TEST-FIRST", "layer 0", "first error");
  report.error("RV-TEST-SECOND", "layer 1", "second error");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 2u);
  EXPECT_TRUE(report.has("RV-TEST-FIRST"));
  EXPECT_FALSE(report.has("RV-TEST-ABSENT"));
  try {
    report.raise_if_errors("test context");
    FAIL() << "raise_if_errors must throw with errors present";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.code(), "RV-TEST-FIRST");
    const std::string what = e.what();
    EXPECT_NE(what.find("test context"), std::string::npos);
    EXPECT_NE(what.find("RV-TEST-SECOND"), std::string::npos);
  }
}

TEST(VerifyReportApi, JsonDumpIsWellFormedEnoughToGrep) {
  VerifyReport report;
  report.error("RV-TEST-X", "boundary \"1\"", "quoted \"location\"");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("RV-TEST-X"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"location\\\""), std::string::npos) << json;
}

}  // namespace
}  // namespace resparc::verify
