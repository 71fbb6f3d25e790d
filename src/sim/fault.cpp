#include "sim/fault.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace udring::sim {

void FaultPlan::normalize() {
  std::sort(crashes.begin(), crashes.end(),
            [](const CrashFault& a, const CrashFault& b) {
              return a.at_action != b.at_action ? a.at_action < b.at_action
                                                : a.agent < b.agent;
            });
  std::sort(rewire_at.begin(), rewire_at.end());
}

void FaultPlan::validate(std::size_t node_count,
                         std::size_t agent_count) const {
  for (const CrashFault& crash : crashes) {
    if (crash.agent >= agent_count) {
      throw std::invalid_argument(
          "FaultPlan: crash fault names an agent outside the instance");
    }
  }
  for (std::size_t i = 0; i + 1 < crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < crashes.size(); ++j) {
      if (crashes[i].agent == crashes[j].agent) {
        throw std::invalid_argument(
            "FaultPlan: an agent can crash at most once");
      }
    }
  }
  if (!rewire_at.empty()) {
    if (rewire_candidate_count(node_count) == 0) {
      throw std::invalid_argument(
          "FaultPlan: rewiring needs a topology with at least 2 nodes");
    }
    for (std::size_t i = 0; i + 1 < rewire_at.size(); ++i) {
      if (rewire_at[i] == rewire_at[i + 1]) {
        throw std::invalid_argument(
            "FaultPlan: rewire points must be distinct action indices");
      }
    }
  }
}

std::string FaultPlan::label() const {
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (!out.empty()) out += '+';
    out += part;
  };
  for (const CrashFault& crash : crashes) {
    append("crash:" + std::to_string(crash.agent) + "@" +
           std::to_string(crash.at_action));
  }
  if (non_fifo) {
    std::string part = "nonfifo";
    if (non_fifo_min_phase > 0) {
      part += ":p" + std::to_string(non_fifo_min_phase);
    }
    append(part);
  }
  if (!rewire_at.empty()) {
    std::string part = "rewire:";
    for (std::size_t i = 0; i < rewire_at.size(); ++i) {
      if (i > 0) part += ',';
      part += std::to_string(rewire_at[i]);
    }
    append(part);
  }
  return out;
}

void FaultPlan::fold_into(std::uint64_t& state) const {
  state ^= 0xfa17ab1ed5eed000ULL;  // "fault-plan" domain
  fold64(state, crashes.size());
  for (const CrashFault& crash : crashes) {
    fold64(state, crash.agent);
    fold64(state, crash.at_action);
  }
  fold64(state, non_fifo ? 1 : 0);
  fold64(state, non_fifo_min_phase);
  // Five zeros where retired link-fault settings sat (a non-FIFO action
  // bound, broadcast drop and dup budgets): digests and fingerprints keep
  // their values.
  for (int retired = 0; retired < 5; ++retired) fold64(state, 0);
  fold64(state, rewire_at.size());
  for (const std::size_t at : rewire_at) fold64(state, at);
}

std::size_t rewire_candidate_count(std::size_t node_count) noexcept {
  if (node_count < 2) return 0;
  std::size_t count = 0;
  for (std::size_t d = 1; d < node_count; ++d) {
    if (std::gcd(d, node_count) == 1) ++count;
  }
  return count;
}

std::size_t rewire_candidate_stride(std::size_t node_count, std::size_t index) {
  std::size_t seen = 0;
  for (std::size_t d = 1; d < node_count; ++d) {
    if (std::gcd(d, node_count) == 1) {
      if (seen == index) return d;
      ++seen;
    }
  }
  throw std::out_of_range("rewire_candidate_stride: index out of range");
}

bool is_single_cycle_stride(std::size_t node_count,
                            std::size_t stride) noexcept {
  return node_count >= 2 && stride >= 1 && stride < node_count &&
         std::gcd(stride, node_count) == 1;
}

}  // namespace udring::sim
