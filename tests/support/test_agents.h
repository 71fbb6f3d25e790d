// tests/support/test_agents.h
//
// Minimal agent programs used by the simulator, scheduler and checker tests.
// They exercise the model's primitives directly (move/stay/wait/suspend/
// broadcast/token) without any of the paper's algorithm logic on top.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/agent.h"
#include "sim/message.h"

namespace udring::test {

/// Optionally drops a token at its home, then makes `steps` moves and halts.
class WalkerAgent final : public sim::CopyableProgram<WalkerAgent> {
 public:
  explicit WalkerAgent(std::size_t steps, bool drop_token = false)
      : steps_(steps), drop_token_(drop_token) {}

  [[nodiscard]] std::string_view name() const override { return "test-walker"; }
  [[nodiscard]] std::size_t arrivals() const noexcept { return arrivals_; }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    if (drop_token_) ctx.release_token();
    while (arrivals_ < steps_) {
      UDRING_AWAIT(ctx.move());
      ++arrivals_;
    }
    UDRING_END;
  }

  std::size_t steps_;
  bool drop_token_;
  std::size_t arrivals_ = 0;
};

/// Walks forever (for action-limit and burst-scheduler tests).
class EndlessWalkerAgent final
    : public sim::CopyableProgram<EndlessWalkerAgent> {
 public:
  [[nodiscard]] std::string_view name() const override { return "test-endless"; }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    for (;;) {
      UDRING_AWAIT(ctx.move());
    }
    UDRING_END;
  }
};

/// Stays `rounds` schedulable actions at home, then halts in place.
class SitterAgent final : public sim::CopyableProgram<SitterAgent> {
 public:
  explicit SitterAgent(std::size_t rounds) : rounds_(rounds) {}

  [[nodiscard]] std::string_view name() const override { return "test-sitter"; }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    for (stayed_ = 0; stayed_ < rounds_; ++stayed_) {
      UDRING_AWAIT(ctx.stay());
    }
    UDRING_END;
  }

  std::size_t rounds_;
  std::size_t stayed_ = 0;
};

/// Waits for messages, recording every received text until it has collected
/// `expected` of them, then halts.
class CollectorAgent final : public sim::CopyableProgram<CollectorAgent> {
 public:
  explicit CollectorAgent(std::size_t expected) : expected_(expected) {}

  [[nodiscard]] std::string_view name() const override { return "test-collector"; }
  [[nodiscard]] const std::vector<std::string>& received() const noexcept {
    return received_;
  }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    while (received_.size() < expected_) {
      UDRING_AWAIT(ctx.wait_message());
      for (const sim::Message& message : ctx.inbox()) {
        if (const auto* text = std::get_if<sim::TextMessage>(&message)) {
          received_.push_back(text->text);
        }
      }
    }
    UDRING_END;
  }

  std::size_t expected_;
  std::vector<std::string> received_;
};

/// Moves `hops` nodes, then broadcasts `text` and halts there.
class MessengerAgent final : public sim::CopyableProgram<MessengerAgent> {
 public:
  MessengerAgent(std::size_t hops, std::string text)
      : hops_(hops), text_(std::move(text)) {}

  [[nodiscard]] std::string_view name() const override { return "test-messenger"; }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    for (moved_ = 0; moved_ < hops_; ++moved_) {
      UDRING_AWAIT(ctx.move());
    }
    ctx.broadcast(sim::TextMessage{text_});
    UDRING_END;
  }

  std::size_t hops_;
  std::string text_;
  std::size_t moved_ = 0;
};

/// Suspends immediately; each wake-up appends its inbox size and suspends
/// again (never terminates — models Definition-2 parking).
class SuspenderAgent final : public sim::CopyableProgram<SuspenderAgent> {
 public:
  [[nodiscard]] std::string_view name() const override { return "test-suspender"; }
  [[nodiscard]] const std::vector<std::size_t>& wakeups() const noexcept {
    return wakeups_;
  }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    for (;;) {
      UDRING_AWAIT(ctx.suspend());
      wakeups_.push_back(ctx.inbox().size());
    }
    UDRING_END;
  }

  std::vector<std::size_t> wakeups_;
};

/// Throws from inside its first action (error-propagation tests).
class ThrowerAgent final : public sim::CopyableProgram<ThrowerAgent> {
 public:
  [[nodiscard]] std::string_view name() const override { return "test-thrower"; }

 private:
  sim::Request act(sim::AgentContext& /*ctx*/) override {
    throw std::runtime_error("ThrowerAgent: intentional test failure");
  }
};

/// Probes what the agent can observe at each node along a fixed walk:
/// records (tokens_here, others_staying_here) after every arrival.
class ProberAgent final : public sim::CopyableProgram<ProberAgent> {
 public:
  explicit ProberAgent(std::size_t steps) : steps_(steps) {}

  struct Observation {
    std::size_t tokens;
    std::size_t others;
  };

  [[nodiscard]] std::string_view name() const override { return "test-prober"; }
  [[nodiscard]] const std::vector<Observation>& observations() const noexcept {
    return observations_;
  }

 private:
  sim::Request act(sim::AgentContext& ctx) override {
    UDRING_BEGIN;
    observations_.push_back({ctx.tokens_here(), ctx.others_staying_here()});
    for (moved_ = 0; moved_ < steps_; ++moved_) {
      UDRING_AWAIT(ctx.move());
      observations_.push_back({ctx.tokens_here(), ctx.others_staying_here()});
    }
    UDRING_END;
  }

  std::size_t steps_;
  std::vector<Observation> observations_;
  std::size_t moved_ = 0;
};

}  // namespace udring::test
