// Runs every fuzz target under the deterministic driver: replay the
// checked-in regression corpus first, then a budget of seeded mutants.
// FBS_FUZZ_ITERS overrides the per-target budget (tools/check.sh
// --fuzz-smoke raises it under ASan/UBSan).
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

#include "fuzz/corpus.hpp"
#include "fuzz/driver.hpp"
#include "fuzz/targets.hpp"

namespace fbs::fuzz {

// Found by ADL for the `const FuzzTarget*` test parameter. Without it the
// listing prints the pointer, so the discovered ctest names would carry an
// address that changes with every (ASLR-randomised) discovery run.
void PrintTo(const FuzzTarget* target, std::ostream* os) {
  *os << target->name;
}

namespace {

std::uint64_t iteration_budget(const std::string& name) {
  if (const char* env = std::getenv("FBS_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  // The engine target pays real crypto per execution; everything else is a
  // bare codec and can afford a larger default budget.
  return name == "engine" ? 300 : 1500;
}

class FuzzDriver : public ::testing::TestWithParam<const FuzzTarget*> {};

TEST_P(FuzzDriver, CorpusReplaysAndDriverBudgetRunsClean) {
  const FuzzTarget& target = *GetParam();
  const auto corpus =
      load_corpus(std::string(FBS_FUZZ_CORPUS_DIR) + "/" + target.name);
  ASSERT_TRUE(corpus.has_value())
      << "unparseable corpus entry under " << target.name;

  DriverOptions options;
  options.iterations = iteration_budget(target.name);
  options.seed = 0x5EED;
  options.extra_seeds = *corpus;
  const DriverStats stats = run_target(target, options);

  // Replay + mutation budget all executed (an oracle violation would have
  // aborted the process), and the structure-aware seeds ensured the target
  // exercised its accept path, not just its reject paths.
  EXPECT_EQ(stats.executions,
            options.iterations + target.seeds().size() + corpus->size());
  EXPECT_GT(stats.accepted, 0u) << target.name;
}

// Two different driver seeds must explore different inputs but reach the
// same verdicts on the shared seed corpus; mostly this pins determinism:
// same seed -> identical stats, so a corpus-replay failure is reproducible.
TEST_P(FuzzDriver, DeterministicForAFixedSeed) {
  const FuzzTarget& target = *GetParam();
  if (target.name == "engine") {
    GTEST_SKIP() << "stateful world: protect() draws a fresh confounder per "
                    "call, so whether an edit is a no-op varies between runs";
  }
  DriverOptions options;
  options.iterations = 60;
  options.seed = 42;
  const DriverStats a = run_target(target, options);
  const DriverStats b = run_target(target, options);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.pool_size, b.pool_size);
}

std::string target_name(
    const ::testing::TestParamInfo<const FuzzTarget*>& info) {
  return info.param->name;
}

std::vector<const FuzzTarget*> target_pointers() {
  std::vector<const FuzzTarget*> out;
  for (const FuzzTarget& t : all_targets()) out.push_back(&t);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllTargets, FuzzDriver,
                         ::testing::ValuesIn(target_pointers()),
                         target_name);

TEST(FuzzRegistry, FindsEveryTargetByName) {
  for (const FuzzTarget& t : all_targets()) {
    const FuzzTarget* found = find_target(t.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, t.name);
  }
  EXPECT_EQ(find_target("no-such-target"), nullptr);
}

TEST(FuzzCorpus, HexTextParserHandlesCommentsAndWhitespace) {
  const auto bytes = parse_hex_text("# a comment\nde ad\nbe# tail comment\nef");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, (util::Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
  EXPECT_FALSE(parse_hex_text("abc").has_value());   // odd digits
  EXPECT_FALSE(parse_hex_text("zz").has_value());    // non-hex
  EXPECT_TRUE(parse_hex_text("").has_value());       // empty entry is legal
}

}  // namespace
}  // namespace fbs::fuzz
