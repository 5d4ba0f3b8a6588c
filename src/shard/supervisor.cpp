#include "shard/supervisor.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace aimsc::shard {

namespace {

/// Backoff growth per retry and the key of its jitter.
constexpr double kBackoffMultiplier = 2.0;
constexpr std::uint64_t kJitterSeed = 0x5eedf00dULL;

}  // namespace

ShardSupervisor::ShardSupervisor(
    std::vector<std::unique_ptr<ShardChannel>> channels, ChannelFactory respawn,
    RetryPolicy policy, ShardFaultPlan faults)
    : respawn_(std::move(respawn)), policy_(policy), faults_(faults) {
  if (channels.empty()) {
    throw std::invalid_argument("ShardSupervisor: no channels");
  }
  shards_.resize(channels.size());
  for (std::size_t s = 0; s < channels.size(); ++s) {
    if (channels[s] == nullptr) {
      throw std::invalid_argument("ShardSupervisor: null channel");
    }
    shards_[s].channel = std::move(channels[s]);
    shards_[s].pid->store(shards_[s].channel->workerPid(),
                          std::memory_order_relaxed);
  }
}

void ShardSupervisor::start(std::size_t shard, std::vector<std::uint8_t> frame) {
  ShardState& st = shards_.at(shard);
  if (st.dead) throw ShardDead(shard, "dispatch to a dead shard");
  if (st.hasInflight) {
    throw std::logic_error("ShardSupervisor: dispatch already in flight");
  }
  st.inflight = std::move(frame);
  st.hasInflight = true;
  st.needRecovery = false;
  st.currentDispatch = st.dispatches++;
  st.attempt = 1;
  st.dispatchStart = std::chrono::steady_clock::now();
  st.sentAt = st.dispatchStart;

  // Chaos strikes ONLY here, at dispatch — collect()'s recovery steps
  // never re-consult the plan, so retries are fault-free and bounded
  // recovery always converges.
  bool dropAtRecv = false;
  if (const auto site = faults_.faultFor(shard, st.currentDispatch)) {
    ++stats_.faultsInjected;
    switch (*site) {
      case FaultSite::DropAtSend:
        st.channel->terminate();  // the send below fails into recovery
        break;
      case FaultSite::DropAtRecv:
        dropAtRecv = true;
        break;
      case FaultSite::CrashBeforeReply:
      case FaultSite::HangBeforeReply:
      case FaultSite::GarbageReply:
        try {
          st.channel->send(encodeMisbehave(workerFaultFor(*site)));
        } catch (const std::exception&) {
          st.needRecovery = true;
        }
        break;
    }
  }
  if (!st.needRecovery) {
    try {
      st.channel->send(st.inflight);
    } catch (const std::exception&) {
      st.needRecovery = true;
    }
  }
  if (dropAtRecv && !st.needRecovery) {
    // The frame went out; the connection dies before the reply comes back.
    st.channel->terminate();
  }
}

int ShardSupervisor::pollFd(std::size_t shard) const {
  const ShardState& st = shards_.at(shard);
  return st.needRecovery ? -1 : st.channel->pollFd();
}

std::chrono::steady_clock::time_point ShardSupervisor::replyDue(
    std::size_t shard) const {
  const ShardState& st = shards_.at(shard);
  const std::chrono::milliseconds budget = st.channel->recvDeadline();
  if (budget.count() <= 0) return std::chrono::steady_clock::time_point::max();
  return st.sentAt + budget;
}

std::optional<WireReply> ShardSupervisor::collect(std::size_t shard,
                                                  bool overdue) {
  ShardState& st = shards_.at(shard);
  if (st.dead) throw ShardDead(shard, "join on a dead shard");
  if (!st.hasInflight) {
    throw std::logic_error("ShardSupervisor: collect with nothing in flight");
  }
  std::string why = "send failed at dispatch";
  if (overdue) {
    ++stats_.timeouts;
    why = "shard channel: recv deadline expired";
  } else if (!st.needRecovery) {
    try {
      WireReply reply = decodeReply(st.channel->receive());
      // ok == false is a DETERMINISTIC execution failure — replaying the
      // same frame yields the same error, so it is returned, not retried.
      st.hasInflight = false;
      return reply;
    } catch (const ChannelTimeout& e) {
      ++stats_.timeouts;
      why = e.what();
    } catch (const DecodeError& e) {
      ++stats_.garbageReplies;
      why = e.what();
    } catch (const std::exception& e) {
      why = e.what();
    }
  }
  st.needRecovery = true;
  recover(shard, std::move(why));
  return std::nullopt;
}

void ShardSupervisor::recover(std::size_t shard, std::string why) {
  ShardState& st = shards_[shard];
  for (;;) {
    if (st.attempt >= policy_.maxAttempts) {
      markDead(shard);
      throw ShardDead(shard, "attempt budget exhausted (" + why + ")");
    }
    if (std::chrono::steady_clock::now() - st.dispatchStart >=
        policy_.totalDeadline) {
      markDead(shard);
      throw ShardDead(shard, "total deadline exceeded (" + why + ")");
    }
    const std::uint32_t retry = st.attempt++;  // 1-based retry ordinal
    ++stats_.retries;
    std::this_thread::sleep_for(backoffFor(shard, st, retry));
    if (!respawn(shard)) {
      throw ShardDead(shard, "no worker to retry on (" + why + ")");
    }
    try {
      st.channel->send(st.inflight);  // byte-identical replay
      st.needRecovery = false;
      st.sentAt = std::chrono::steady_clock::now();
      return;
    } catch (const std::exception& e) {
      why = e.what();  // burns another attempt
    }
  }
}

bool ShardSupervisor::respawn(std::size_t shard) {
  ShardState& st = shards_[shard];
  if (!respawn_) {
    // No factory: retry in place is all we have, and only a channel that is
    // still healthy can carry the replay.  (A wedged-but-healthy worker is
    // a factory-fabric concern — without respawn we accept the risk that
    // the retry times out again and the attempt budget ends it.)
    if (st.channel->healthy()) return true;
    markDead(shard);
    return false;
  }
  if (st.respawns >= policy_.maxRespawns) {
    markDead(shard);
    return false;
  }
  st.channel->terminate();  // SIGKILL — the answer to hung AND dead alike
  st.pid->store(-1, std::memory_order_relaxed);
  try {
    st.channel = respawn_();
  } catch (const std::exception&) {
    markDead(shard);  // socketpair or fork failed: no replacement to run
    return false;
  }
  st.pid->store(st.channel->workerPid(), std::memory_order_relaxed);
  ++st.respawns;
  ++stats_.respawns;
  // A newborn that cannot serve fails the resend, which burns an attempt.
  return true;
}

void ShardSupervisor::markDead(std::size_t shard) {
  ShardState& st = shards_[shard];
  if (!st.dead) {
    st.dead = true;
    ++stats_.deadShards;
  }
  st.hasInflight = false;
  st.channel->terminate();
  st.pid->store(-1, std::memory_order_relaxed);
}

std::chrono::milliseconds ShardSupervisor::backoffFor(
    std::size_t shard, const ShardState& st, std::uint32_t retry) const {
  double ms = static_cast<double>(policy_.initialBackoff.count());
  for (std::uint32_t i = 1; i < retry; ++i) ms *= kBackoffMultiplier;
  ms = std::min(ms, static_cast<double>(policy_.maxBackoff.count()));
  const auto base = static_cast<std::int64_t>(ms);
  // Deterministic jitter in [0, base/2]: same run, same sleeps.
  const std::uint64_t key = reliability::faultSiteKey(
      kJitterSeed, shard, st.currentDispatch, retry);
  const std::int64_t jitter =
      base >= 2 ? static_cast<std::int64_t>(key % (base / 2 + 1)) : 0;
  return std::chrono::milliseconds(base + jitter);
}

std::unique_ptr<ShardSupervisor> makeSupervisedFabric(ShardTransportKind kind,
                                                      std::size_t count,
                                                      ChannelDeadlines deadlines,
                                                      RetryPolicy policy,
                                                      ShardFaultPlan faults) {
  auto channels = makeShardChannels(kind, count, deadlines);
  ShardSupervisor::ChannelFactory factory = [kind, deadlines]() {
    return std::move(makeShardChannels(kind, 1, deadlines).front());
  };
  return std::make_unique<ShardSupervisor>(std::move(channels),
                                           std::move(factory), policy, faults);
}

}  // namespace aimsc::shard
