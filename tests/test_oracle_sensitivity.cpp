// Oracle-sensitivity (mutation) tests: the Definition-1/2 checkers must
// *fail* deliberately broken algorithm variants. A test suite whose oracle
// passes everything proves nothing; each mutant here models a realistic
// implementation bug, and the matching oracle has to catch it.

#include <gtest/gtest.h>

#include <memory>

#include "core/distance_sequence.h"
#include "core/targets.h"
#include "sim/checker.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace udring::core {
namespace {

// ---- mutants of Algorithm 1 ---------------------------------------------------

/// Base: a faithful Algorithm 1 whose deployment distance is produced by a
/// (possibly broken) policy hook. Concrete variants derive through
/// sim::CopyableProgram<Variant, MutantAlgo1>.
class MutantAlgo1 : public sim::AgentProgram {
 public:
  explicit MutantAlgo1(std::size_t k) : k_(k) {}

  [[nodiscard]] std::string_view name() const override { return "mutant-algo1"; }

 protected:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    if (drop_token()) ctx.release_token();
    while (d_.size() < k_) {
      dis_ = 0;
      do {
        UDRING_AWAIT(ctx.move());
        ++dis_;
      } while (ctx.tokens_here() == 0);
      d_.push_back(dis_);
    }
    for (steps_left_ = deployment_distance(); steps_left_ > 0; --steps_left_) {
      UDRING_AWAIT(ctx.move());
    }
    UDRING_END;
  }

  [[nodiscard]] virtual bool drop_token() const { return true; }

  /// Faithful policy; mutants override.
  [[nodiscard]] virtual std::size_t deployment_distance() const {
    const std::size_t rank = min_rotation(d_);
    std::size_t dis_base = 0;
    for (std::size_t i = 0; i < rank; ++i) dis_base += d_[i];
    const TargetPlan plan =
        make_target_plan(sum(d_), k_, symmetry_degree(d_));
    return dis_base + plan.offset(rank);
  }

  std::size_t k_;
  DistanceSeq d_;
  std::size_t dis_ = 0;
  std::size_t steps_left_ = 0;
};

/// The un-mutated control.
class FaithfulAlgo1 final : public sim::CopyableProgram<FaithfulAlgo1, MutantAlgo1> {
 public:
  using CopyableProgram::CopyableProgram;
};

/// Bug: clamped rank (a saturating decrement) — two agents compute the same
/// target offset and collide. (A pure cyclic shift of all ranks would still
/// be uniform; the bug must break the bijection, not rotate it.)
class RankCollisionMutant final
    : public sim::CopyableProgram<RankCollisionMutant, MutantAlgo1> {
 public:
  using CopyableProgram::CopyableProgram;

 protected:
  std::size_t deployment_distance() const override {
    const std::size_t rank = min_rotation(d_);
    const std::size_t buggy_rank = rank > 0 ? rank - 1 : 0;  // 0 and 1 collide
    std::size_t dis_base = 0;
    for (std::size_t i = 0; i < rank; ++i) dis_base += d_[i];
    const TargetPlan plan = make_target_plan(sum(d_), k_, symmetry_degree(d_));
    return dis_base + plan.offset(buggy_rank);
  }
};

/// Bug: stops one node short of the target.
class OneShortMutant final
    : public sim::CopyableProgram<OneShortMutant, MutantAlgo1> {
 public:
  using CopyableProgram::CopyableProgram;

 protected:
  std::size_t deployment_distance() const override {
    const std::size_t faithful = MutantAlgo1::deployment_distance();
    return faithful == 0 ? 0 : faithful - 1;
  }
};

/// Bug: every agent treats *itself* as the base (forgets the rotation
/// agreement entirely) — the deployment degenerates to "stay home", which
/// keeps whatever irregular spacing the start had. (Note a *consistent*
/// wrong choice — e.g. everyone using the max rotation — would still be
/// uniform; the dangerous bug is the one that destroys agreement.)
class SelfishBaseMutant final
    : public sim::CopyableProgram<SelfishBaseMutant, MutantAlgo1> {
 public:
  using CopyableProgram::CopyableProgram;

 protected:
  std::size_t deployment_distance() const override {
    return 0;  // "I am rank 0 at my own base node."
  }
};

/// Bug: forgets to drop the token (poisons *everyone's* measurement).
class NoTokenMutant final
    : public sim::CopyableProgram<NoTokenMutant, MutantAlgo1> {
 public:
  using CopyableProgram::CopyableProgram;

 protected:
  bool drop_token() const override { return false; }
};

/// Bug: never halts — walks forever after deployment (livelock).
class NeverHaltsMutant final : public sim::CopyableProgram<NeverHaltsMutant> {
 public:
  [[nodiscard]] std::string_view name() const override { return "never-halts"; }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    ctx.release_token();
    for (;;) {
      UDRING_AWAIT(ctx.move());
    }
    UDRING_END;
  }
};

template <typename Mutant>
sim::ProgramFactory mutant_factory(std::size_t k) {
  return [k](sim::AgentId) { return std::make_unique<Mutant>(k); };
}

struct Outcome {
  bool quiescent;
  bool uniform;
};

template <typename Mutant>
Outcome run_mutant(std::size_t n, std::vector<std::size_t> homes) {
  sim::SimOptions options;
  options.max_actions = 64 * n * homes.size() + 4096;
  sim::Simulator simulator(n, std::move(homes), mutant_factory<Mutant>(4),
                           options);
  sim::RoundRobinScheduler scheduler;
  const auto result = simulator.run(scheduler);
  return {result.quiescent(),
          sim::UniformDeploymentOracle(true).check_goal(simulator).ok};
}

constexpr std::size_t kN = 16;
const std::vector<std::size_t> kHomes = {0, 1, 5, 7};

TEST(OracleSensitivity, FaithfulBaselinePasses) {
  const Outcome outcome = run_mutant<FaithfulAlgo1>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_TRUE(outcome.uniform) << "the un-mutated control must pass";
}

TEST(OracleSensitivity, RankCollisionIsCaught) {
  const Outcome outcome = run_mutant<RankCollisionMutant>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_FALSE(outcome.uniform) << "two agents share a target";
}

TEST(OracleSensitivity, StoppingOneShortIsCaught) {
  const Outcome outcome = run_mutant<OneShortMutant>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_FALSE(outcome.uniform) << "every gap shifts off the ⌊n/k⌋/⌈n/k⌉ grid";
}

TEST(OracleSensitivity, SelfishBaseIsCaught) {
  const Outcome outcome = run_mutant<SelfishBaseMutant>(kN, kHomes);
  EXPECT_TRUE(outcome.quiescent);
  EXPECT_FALSE(outcome.uniform)
      << "staying home keeps the irregular start spacing";
}

TEST(OracleSensitivity, MissingTokenIsCaught) {
  // Without tokens the "move to next token node" walk spins until the
  // action limit: the run must NOT quiesce (and must not pass).
  const Outcome outcome = run_mutant<NoTokenMutant>(kN, kHomes);
  EXPECT_FALSE(outcome.quiescent && outcome.uniform);
}

TEST(OracleSensitivity, LivelockIsReportedAsActionLimit) {
  sim::SimOptions options;
  options.max_actions = 5000;
  sim::Simulator simulator(
      kN, kHomes, [](sim::AgentId) { return std::make_unique<NeverHaltsMutant>(); },
      options);
  sim::RoundRobinScheduler scheduler;
  const auto result = simulator.run(scheduler);
  EXPECT_EQ(result.outcome, sim::RunResult::Outcome::ActionLimit);
  EXPECT_FALSE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
}

TEST(OracleSensitivity, SuspendedIsNotHalted) {
  // An algorithm that parks in the Definition-2 state must fail the
  // Definition-1 oracle even at perfect positions — and vice versa. (The
  // distinction is the whole content of Theorem 5.)
  class SuspendAtTarget final : public sim::CopyableProgram<SuspendAtTarget> {
   public:
    [[nodiscard]] std::string_view name() const override { return "suspender"; }

   private:
    sim::Request act(sim::AgentContext& ctx) override {
      UDRING_BEGIN;
      ctx.release_token();
      for (moved_ = 0; moved_ < 8; ++moved_) {
        UDRING_AWAIT(ctx.move());
      }
      UDRING_AWAIT(ctx.suspend());
      UDRING_END;
    }

    int moved_ = 0;
  };
  sim::Simulator simulator(16, {0, 8}, [](sim::AgentId) {
    return std::make_unique<SuspendAtTarget>();
  });
  sim::RoundRobinScheduler scheduler;
  (void)simulator.run(scheduler);
  EXPECT_FALSE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
  EXPECT_TRUE(sim::UniformDeploymentOracle(false).check_goal(simulator).ok);
}

}  // namespace
}  // namespace udring::core
