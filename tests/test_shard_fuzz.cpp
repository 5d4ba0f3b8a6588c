// Deterministic-seed mutation fuzzer for the shard wire codec (the
// sanitizer CI job runs this under ASan/UBSan).  Property: for ANY byte
// buffer — mutated valid frames, spliced frames, pure garbage — decode
// either succeeds and re-encodes canonically, or throws DecodeError.  It
// never crashes, over-reads, aborts, or allocates unboundedly.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "shard/wire.hpp"

namespace aimsc {
namespace {

using shard::DecodeError;
using shard::WireReply;
using shard::WireRequest;

/// Valid frames the mutator starts from (small, varied).
std::vector<std::uint8_t> seedRequestFrame(std::mt19937_64& rng) {
  WireRequest wq;
  wq.tenant = static_cast<std::uint32_t>(rng());
  wq.seedNamespace = rng();
  wq.app = static_cast<apps::AppKind>(rng() % 6);
  wq.design = static_cast<core::DesignKind>(rng() % 7);  // incl. SwScSfmt
  wq.gamma = 1.0 + (rng() % 300) / 100.0;
  wq.streamLength = 32;
  wq.seed = rng();
  wq.faults.deviceVariability = (rng() & 1) != 0;
  wq.faults.stuckAtRate = (rng() % 10) / 1e3;
  wq.lanes = 1 + rng() % 8;
  wq.rowsPerTile = 1 + rng() % 4;
  wq.assignment.laneSeedBase = rng();
  wq.assignment.laneStride = 1 + rng() % wq.lanes;
  wq.assignment.laneBegin = rng() % wq.assignment.laneStride;
  const std::uint32_t w = 1 + rng() % 16;
  const std::uint32_t h = 1 + rng() % 16;
  wq.assignment.rowEnd = h;
  wq.src.width = w;
  wq.src.height = h;
  wq.src.pixels.resize(static_cast<std::size_t>(w) * h);
  for (auto& px : wq.src.pixels) px = static_cast<std::uint8_t>(rng());
  return encodeRequest(wq);
}

std::vector<std::uint8_t> seedReplyFrame(std::mt19937_64& rng) {
  WireReply reply;
  if (rng() % 5 == 0) {
    reply.ok = false;
    reply.error = "fuzz seed error";
    return encodeReply(reply);
  }
  reply.width = 1 + rng() % 16;
  reply.height = 4 + rng() % 16;
  shard::RowSegment s;
  s.rowBegin = 0;
  s.rowEnd = 2;
  s.pixels.resize(2 * reply.width);
  for (auto& px : s.pixels) px = static_cast<std::uint8_t>(rng());
  reply.segments.push_back(std::move(s));
  shard::LaneStats ls;
  ls.lane = static_cast<std::uint32_t>(rng() % 4);
  ls.opCount = rng();
  ls.events.slReads = rng() % 1000;
  reply.laneStats.push_back(std::move(ls));
  return encodeReply(reply);
}

/// One mutation step: bit flips, byte stomps, truncation, junk extension,
/// or splicing a window of another frame in.
void mutate(std::vector<std::uint8_t>& frame,
            const std::vector<std::uint8_t>& donor, std::mt19937_64& rng) {
  if (frame.empty()) {
    frame.push_back(static_cast<std::uint8_t>(rng()));
    return;
  }
  switch (rng() % 5) {
    case 0: {  // flip 1..8 bits
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t bit = rng() % (frame.size() * 8);
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 1: {  // stomp a run of bytes
      const std::size_t at = rng() % frame.size();
      const std::size_t run = std::min(frame.size() - at, 1 + rng() % 16);
      for (std::size_t i = 0; i < run; ++i) {
        frame[at + i] = static_cast<std::uint8_t>(rng());
      }
      break;
    }
    case 2:  // truncate
      frame.resize(rng() % frame.size());
      break;
    case 3: {  // extend with junk
      const std::size_t extra = 1 + rng() % 32;
      for (std::size_t i = 0; i < extra; ++i) {
        frame.push_back(static_cast<std::uint8_t>(rng()));
      }
      break;
    }
    default: {  // splice a donor window over this frame
      if (!donor.empty()) {
        const std::size_t at = rng() % frame.size();
        const std::size_t from = rng() % donor.size();
        const std::size_t n = std::min({frame.size() - at,
                                        donor.size() - from,
                                        std::size_t{1} + rng() % 64});
        std::copy(donor.begin() + from, donor.begin() + from + n,
                  frame.begin() + at);
      }
      break;
    }
  }
}

/// The fuzz property: decode never misbehaves, and any accepted frame is
/// canonical (decode -> encode -> decode is a fixpoint).
template <typename Decoded>
void checkFrame(const std::vector<std::uint8_t>& frame,
                Decoded (*decode)(std::span<const std::uint8_t>),
                std::vector<std::uint8_t> (*encode)(const Decoded&)) {
  Decoded value;
  try {
    value = decode(frame);
  } catch (const DecodeError&) {
    return;  // clean rejection is a pass
  }
  // Accepted: re-encoding must reproduce a frame that decodes equal (the
  // checksum makes byte-exact acceptance of a mutant astronomically
  // unlikely, but canonicality must hold for whatever gets through).
  const std::vector<std::uint8_t> reencoded = encode(value);
  ASSERT_EQ(decode(reencoded), value);
}

TEST(ShardFuzz, MutatedRequestFramesNeverMisbehave) {
  std::mt19937_64 rng(0xf0220001);
  std::vector<std::uint8_t> frame = seedRequestFrame(rng);
  std::vector<std::uint8_t> donor = seedRequestFrame(rng);
  for (int i = 0; i < 3000; ++i) {
    mutate(frame, donor, rng);
    checkFrame<WireRequest>(frame, shard::decodeRequest,
                            shard::encodeRequest);
    if (frame.empty() || rng() % 16 == 0) {
      donor = std::move(frame);
      frame = seedRequestFrame(rng);  // restart from a fresh valid frame
    }
  }
}

TEST(ShardFuzz, MutatedReplyFramesNeverMisbehave) {
  std::mt19937_64 rng(0xf0220002);
  std::vector<std::uint8_t> frame = seedReplyFrame(rng);
  std::vector<std::uint8_t> donor = seedReplyFrame(rng);
  for (int i = 0; i < 3000; ++i) {
    mutate(frame, donor, rng);
    checkFrame<WireReply>(frame, shard::decodeReply, shard::encodeReply);
    if (frame.empty() || rng() % 16 == 0) {
      donor = std::move(frame);
      frame = seedReplyFrame(rng);
    }
  }
}

TEST(ShardFuzz, PureGarbageIsAlwaysRejectedCleanly) {
  std::mt19937_64 rng(0xf0220003);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng() % 256);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    checkFrame<WireRequest>(junk, shard::decodeRequest, shard::encodeRequest);
    checkFrame<WireReply>(junk, shard::decodeReply, shard::encodeReply);
  }
}

TEST(ShardFuzz, CorruptLengthFieldsCannotForceHugeAllocations) {
  // Stomp the frame-count/size regions with 0xff: decodes must reject via
  // the validated caps, not attempt multi-gigabyte allocations.
  std::mt19937_64 rng(0xf0220004);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> frame = seedRequestFrame(rng);
    const std::size_t at = rng() % frame.size();
    const std::size_t run = std::min(frame.size() - at, std::size_t{8});
    for (std::size_t j = 0; j < run; ++j) frame[at + j] = 0xff;
    EXPECT_THROW(shard::decodeRequest(frame), DecodeError);
  }
}

}  // namespace
}  // namespace aimsc
