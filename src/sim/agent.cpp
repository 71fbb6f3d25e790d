#include "sim/agent.h"

#include <stdexcept>

#include "sim/simulator.h"

namespace udring::sim {

void AgentProgram::throw_not_resumable() {
  throw std::logic_error("AgentProgram::resume: program has halted");
}

void AgentProgram::throw_no_request() {
  throw std::logic_error(
      "AgentProgram::resume: agent program yielded no control request");
}

std::size_t AgentContext::tokens_here() const { return sim_->tokens_at_agent(self_); }

std::size_t AgentContext::others_staying_here() const {
  return sim_->others_staying_at_agent(self_);
}

void AgentContext::release_token() { sim_->agent_release_token(self_); }

void AgentContext::broadcast(Message message) {
  sim_->agent_broadcast(self_, std::move(message));
}

void AgentContext::set_phase(std::size_t phase) { sim_->agent_set_phase(self_, phase); }

}  // namespace udring::sim
