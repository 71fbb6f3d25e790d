#include "core/runner.h"

#include <stdexcept>
#include <utility>

#include "core/disperse_ring.h"
#include "core/gather_ring.h"
#include "core/known_k_full.h"
#include "core/known_k_logmem.h"
#include "core/rendezvous.h"
#include "core/unknown_relaxed.h"

namespace udring::core {

std::string_view to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::KnownKFull: return "known-k-full";
    case Algorithm::KnownNFull: return "known-n-full";
    case Algorithm::KnownKLogMem: return "known-k-logmem";
    case Algorithm::KnownKLogMemStrict: return "known-k-logmem-strict";
    case Algorithm::UnknownRelaxed: return "unknown-relaxed";
    case Algorithm::Rendezvous: return "rendezvous";
    case Algorithm::GatherRing: return "gather-ring";
    case Algorithm::DisperseRing: return "disperse-ring";
  }
  return "?";
}

sim::ProgramFactory make_program_factory(Algorithm algorithm, std::size_t k,
                                         std::size_t n,
                                         const ProblemSpec& problem) {
  switch (algorithm) {
    case Algorithm::KnownKFull:
      return [k](sim::AgentId) { return std::make_unique<KnownKFullAgent>(k); };
    case Algorithm::KnownNFull:
      return [n](sim::AgentId) { return std::make_unique<KnownNFullAgent>(n); };
    case Algorithm::KnownKLogMem:
      return [k](sim::AgentId) { return std::make_unique<KnownKLogMemAgent>(k); };
    case Algorithm::KnownKLogMemStrict:
      return [k](sim::AgentId) {
        return std::make_unique<KnownKLogMemAgent>(
            k, KnownKLogMemAgent::Options{.strict_paper = true});
      };
    case Algorithm::UnknownRelaxed:
      return [](sim::AgentId) { return std::make_unique<UnknownRelaxedAgent>(); };
    case Algorithm::Rendezvous:
      return [k](sim::AgentId) { return std::make_unique<RendezvousAgent>(k); };
    case Algorithm::GatherRing: {
      // g = 0 means total gathering; the agent realizes it as g = k, which
      // degenerates to exactly the rendezvous protocol.
      const std::size_t resolved_g = resolve_problem(algorithm, problem).gather_g;
      const std::size_t g = resolved_g == 0 ? k : resolved_g;
      return [k, g](sim::AgentId) {
        return std::make_unique<PartialGatherAgent>(k, g);
      };
    }
    case Algorithm::DisperseRing:
      return [k](sim::AgentId) { return std::make_unique<DisperseAgent>(k); };
  }
  throw std::invalid_argument("make_program_factory: unknown algorithm");
}

sim::Instance make_instance(Algorithm algorithm, const RunSpec& spec) {
  // A non-empty topology supersedes node_count; KnownNFull's knowledge of n
  // is the *virtual* ring size either way (that is the ring the agents walk).
  sim::Topology topology =
      spec.topology.empty() ? sim::Topology::ring(spec.node_count)
                            : spec.topology;
  const std::size_t n = topology.size();
  return sim::Instance(
      std::move(topology), spec.homes,
      make_program_factory(algorithm, spec.homes.size(), n, spec.problem),
      spec.sim_options);
}

std::unique_ptr<sim::Simulator> make_simulator(Algorithm algorithm,
                                               const RunSpec& spec) {
  return std::make_unique<sim::Simulator>(
      std::make_shared<const sim::Instance>(make_instance(algorithm, spec)));
}

sim::CheckResult evaluate_goal(Algorithm algorithm, const ProblemSpec& problem,
                               const sim::Simulator& sim) {
  return make_goal_oracle(algorithm, problem)->check_goal(sim);
}

sim::CheckResult evaluate_goal(Algorithm algorithm, const sim::Simulator& sim) {
  return evaluate_goal(algorithm, ProblemSpec{}, sim);
}

namespace {

/// Shared epilogue of the one-shot and pooled paths: oracle + measures.
RunReport finish_report(const sim::GoalOracle& oracle,
                        const ProblemSpec& resolved,
                        const sim::ExecutionState& state,
                        const sim::Scheduler& scheduler,
                        const sim::RunResult& result) {
  RunReport report;
  report.result = result;
  report.problem = resolved;
  if (result.quiescent()) {
    const sim::CheckResult goal = oracle.check_goal(state);
    report.success = goal.ok;
    report.failure = goal.reason;
  } else {
    report.success = false;
    report.failure = "action limit reached (livelock or broken algorithm)";
  }
  report.total_moves = state.metrics().total_moves();
  report.makespan = state.metrics().makespan();
  report.scheduler_rounds = scheduler.rounds();
  report.max_memory_bits = state.metrics().max_memory_bits();
  report.moves_by_phase = state.metrics().moves_by_phase();
  report.final_positions = state.staying_nodes();
  if (state.topology().has_labels()) {
    report.final_labels.reserve(report.final_positions.size());
    for (const std::size_t v : report.final_positions) {
      report.final_labels.push_back(state.topology().label(v));
    }
  }
  return report;
}

}  // namespace

RunReport run_algorithm(Algorithm algorithm, const RunSpec& spec) {
  const sim::Instance instance = make_instance(algorithm, spec);
  sim::ExecutionState state;
  state.reset(instance);
  auto scheduler =
      sim::make_scheduler(spec.scheduler, spec.seed, spec.homes.size());
  const sim::RunResult result = state.run(*scheduler);
  const auto oracle = make_goal_oracle(algorithm, spec.problem);
  return finish_report(*oracle, resolve_problem(algorithm, spec.problem),
                       state, *scheduler, result);
}

sim::Scheduler& RunContext::scheduler(sim::SchedulerKind kind,
                                      std::uint64_t seed,
                                      std::size_t agent_count) {
  auto& slot = schedulers_[static_cast<std::size_t>(kind)];
  if (!slot) {
    slot = sim::make_scheduler(kind, seed, agent_count);
  } else {
    // Cached object: swap in this run's seed; ExecutionState::run will
    // reset() it, which re-derives all mutable state from the seed (the
    // pooled reuse contract in sim/scheduler.h).
    slot->reseed(seed);
  }
  return *slot;
}

const sim::GoalOracle& RunContext::oracle(Algorithm algorithm,
                                          const ProblemSpec& problem) {
  if (!oracle_ || oracle_algorithm_ != algorithm ||
      oracle_problem_ != problem) {
    oracle_ = make_goal_oracle(algorithm, problem);
    oracle_algorithm_ = algorithm;
    oracle_problem_ = problem;
  }
  return *oracle_;
}

RunReport RunContext::run(Algorithm algorithm, const RunSpec& spec) {
  // The Instance lives in the context so state_ remains inspectable after
  // this returns (and the arena pointer never dangles between runs).
  instance_.emplace(make_instance(algorithm, spec));
  state_.reset(*instance_);
  sim::Scheduler& sched =
      scheduler(spec.scheduler, spec.seed, spec.homes.size());
  const sim::RunResult result = state_.run(sched);
  return finish_report(oracle(algorithm, spec.problem),
                       resolve_problem(algorithm, spec.problem), state_, sched,
                       result);
}

}  // namespace udring::core
