// Contract-macro coverage: the always-on tier aborts with the documented
// diagnostic, and the audit tier (NCDN_AUDIT) is a real check under
// -DNCDN_AUDIT=ON while compiling to an unevaluated no-op otherwise.
// This file builds in BOTH modes — CI runs it from the release and the
// audit build trees, which is the on/off compile test in itself.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/contracts.hpp"
#include "core/session.hpp"
#include "linalg/decoder.hpp"

namespace ncdn {
namespace {

TEST(contracts, expects_aborts_with_precondition_diagnostic) {
  EXPECT_DEATH(NCDN_EXPECTS(1 + 1 == 3), "precondition violation");
}

TEST(contracts, ensures_aborts_with_postcondition_diagnostic) {
  EXPECT_DEATH(NCDN_ENSURES(false), "postcondition violation");
}

TEST(contracts, assert_aborts_with_invariant_diagnostic) {
  EXPECT_DEATH(NCDN_ASSERT(false), "invariant violation");
}

// The death-test child: stdout goes to a file, so the line below sits in
// stdio's buffer when the contract fails.
void print_then_fail(const std::string& path) {
  if (std::freopen(path.c_str(), "w", stdout) == nullptr) std::abort();
  std::printf("table row before the gate\n");
  NCDN_ASSERT(false);
}

// A bench whose gate fires after its tables must not lose them when stdout
// is a file: abort() alone would drop the unflushed stdio buffer.
TEST(contracts, failure_keeps_what_stdout_already_printed) {
  std::string path = ::testing::TempDir();
  path += "ncdn_contract_stdout_" + std::to_string(::getpid()) + ".txt";
  std::fflush(stdout);
  EXPECT_DEATH(print_then_fail(path), "invariant violation");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "table row before the gate");
  in.close();
  std::remove(path.c_str());
}

TEST(contracts, passing_contracts_are_silent) {
  NCDN_EXPECTS(true);
  NCDN_ENSURES(2 > 1);
  NCDN_ASSERT(!false);
  NCDN_AUDIT(true);
}

TEST(contracts, audit_tier_matches_build_mode) {
#ifdef NCDN_AUDIT_ENABLED
  EXPECT_DEATH(NCDN_AUDIT(false), "audit invariant violation");
#else
  // Release builds must not even evaluate the audit expression (it may be
  // superlinear); NCDN_AUDIT keeps it as an unevaluated sizeof operand.
  int calls = 0;
  auto probe = [&calls]() {
    ++calls;
    return false;
  };
  NCDN_AUDIT(probe());
  EXPECT_EQ(calls, 0);
#endif
}

TEST(contracts, decoder_contract_rejects_misshaped_row) {
  bit_decoder dec(4, 8);
  EXPECT_DEATH(dec.insert(bitvec(5)), "precondition violation");
}

// The audit build must be behaviorally identical to release: a session
// run under audit instrumentation produces the same report as the same
// seed produces without it.  Run twice here (the cross-build comparison
// is CI's sweep cmp); a divergence inside one build would already show
// as a flaky report.
TEST(contracts, audited_session_is_reproducible) {
  run_report first;
  for (int run = 0; run < 2; ++run) {
    problem prob;
    prob.n = 16;
    prob.k = 16;
    prob.d = 8;
    prob.b = 32;
    session s(prob, protocol_spec{"greedy-forward", {}},
              adversary_spec{"permuted-path", {}}, /*seed=*/17);
    const run_report& rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete);
    if (run == 0) {
      first = rep;
    } else {
      EXPECT_EQ(first.rounds, rep.rounds);
      EXPECT_EQ(first.metrics.total_message_bits,
                rep.metrics.total_message_bits);
      EXPECT_EQ(first.metrics.total_elimination_xors,
                rep.metrics.total_elimination_xors);
      EXPECT_EQ(first.metrics.observed_completion_round,
                rep.metrics.observed_completion_round);
    }
  }
}

}  // namespace
}  // namespace ncdn
