/// \file wire.hpp
/// \brief Versioned, endian-fixed wire codec for the sharded lane-fleet
///        service (docs/SHARDING.md).
///
/// A shard request serializes everything a worker process needs to execute
/// a slice of one replica of a `service::Request` bit-identically to the
/// in-process path: the request fields (app, design, stream length, gamma,
/// upscale factor, the full `reliability::FaultPlan`), the tenant identity
/// + seed namespace (accounting metadata), the pixel
/// payloads of every input frame, the fleet shape (`lanes`, `rowsPerTile` —
/// part of the bit contract), and a `TileAssignment` naming the lanes this
/// shard owns.  The reply carries the output rows those lanes produced plus
/// the per-lane cost ledgers (`reram::EventCounts`, backend op counts).
///
/// Format rules:
///  * every multi-byte integer is little-endian ON THE WIRE regardless of
///    host endianness (bytes are composed/decomposed by shifts, never
///    memcpy'd structs);
///  * doubles travel as the IEEE-754 bit pattern in a u64;
///  * each message ends with a FNV-1a 64 checksum over all preceding bytes;
///  * decoding NEVER trusts a length field: every read is bounds-checked
///    and every size/enum is validated, so a truncated or bit-flipped frame
///    raises `DecodeError` — it cannot crash, over-read, or allocate
///    unboundedly (fuzzed by tests/test_shard_fuzz.cpp under ASan/UBSan).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "reram/events.hpp"
#include "service/request.hpp"

/// \namespace aimsc::shard
/// \brief Multi-process tile fan-out: wire codec, transports, worker loop
///        and the shard coordinator.
namespace aimsc::shard {

/// Malformed frame (truncation, bad magic/version/checksum, out-of-range
/// field, inconsistent sizes).  Decoders throw this and nothing else for
/// bad input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::uint32_t kRequestMagic = 0x41575251u;  ///< "AWRQ" (LE bytes)
constexpr std::uint32_t kReplyMagic = 0x41575250u;    ///< "AWRP"
/// Version 3 retired the heartbeat and crash request kinds, the
/// drop-connection fault, the reply's kind byte and the Execute body's
/// redundancy fields (docs/SHARDING.md "Wire format").
constexpr std::uint16_t kWireVersion = 3;

/// Shard request kinds.  The coordinator sends `Execute`; the supervisor
/// sends `Misbehave`, which arms a `WorkerFault` that fires on the
/// worker's NEXT Execute frame (the chaos suite's injection hook).  Kinds
/// 2 and 3 are retired and decode as DecodeError.
enum class MessageKind : std::uint8_t {
  Execute = 1,
  Misbehave = 4,
};

/// A misbehavior a `Misbehave` frame arms for the worker's next Execute.
/// Each models one real failure: a crash after the work but before the
/// reply, a wedged worker that never replies, and a corrupted reply frame.
/// `ShardFaultPlan` (fault_plan.hpp) drives these from counter-based
/// randomness; the supervisor recovers from all of them.
enum class WorkerFault : std::uint8_t {
  None = 0,
  CrashBeforeReply = 1,  ///< execute, then _exit without replying
  HangBeforeReply = 2,   ///< execute, then sleep forever (needs SIGKILL)
  GarbageReply = 3,      ///< reply with a junk frame, stay alive
};

/// The lane slice a worker executes: lanes `laneBegin, laneBegin +
/// laneStride, ...` of the request's `lanes`-wide fleet, over image rows
/// [rowBegin, rowEnd).  `laneSeedBase` is the fleet master seed of the
/// replica being executed (already namespaced and replica-strided); lane i
/// derives its own seed from it exactly as `core::makeBackendLanes` does,
/// so a lane computes the same bits in any process.
struct TileAssignment {
  std::uint64_t laneSeedBase = 0;
  std::uint32_t laneBegin = 0;
  std::uint32_t laneStride = 1;
  std::uint32_t rowBegin = 0;
  std::uint32_t rowEnd = 0;

  friend bool operator==(const TileAssignment&,
                         const TileAssignment&) = default;
};

/// Owning pixel payload of one input frame (views on the client side, owned
/// bytes once decoded in the worker).
struct WireFrame {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::uint8_t> pixels;  ///< width * height bytes

  bool empty() const { return pixels.empty(); }
  img::ImageView view() const {
    return empty() ? img::ImageView{}
                   : img::ImageView(pixels.data(), width, height);
  }

  friend bool operator==(const WireFrame&, const WireFrame&) = default;
};

/// The decoded (owning) form of a shard request.
struct WireRequest {
  MessageKind kind = MessageKind::Execute;

  /// The armed misbehavior (Misbehave frames only; None otherwise).
  WorkerFault fault = WorkerFault::None;

  // Accounting metadata (the worker echoes nothing back; carried so a shard
  // log line can attribute work without the coordinator's ledger).
  std::uint32_t tenant = 0;
  std::uint64_t seedNamespace = 0;

  // The service::Request fields.
  apps::AppKind app = apps::AppKind::Gamma;
  core::DesignKind design = core::DesignKind::SwScLfsr;
  double gamma = 2.2;
  std::uint32_t upscaleFactor = 2;
  std::uint32_t streamLength = 256;
  std::uint64_t seed = 0;  ///< effective (namespaced) request seed
  reliability::FaultPlan faults{};

  // Fleet shape — part of the request's bit contract (ServiceConfig role).
  std::uint32_t lanes = 4;
  std::uint32_t rowsPerTile = 4;

  TileAssignment assignment;

  WireFrame src, aux1, aux2;

  /// Rebuilds the non-owning `service::Request` over this message's frame
  /// payloads (`out` stays empty — workers stage output internally;
  /// `redundancy` stays at its default — the coordinator runs each replica
  /// and the service votes).  The wire request must outlive the returned
  /// views.
  service::Request toRequest() const;

  friend bool operator==(const WireRequest&, const WireRequest&) = default;
};

/// Output rows produced by one shard: rows [rowBegin, rowEnd) of the final
/// output image, `(rowEnd - rowBegin) * width` bytes.
struct RowSegment {
  std::uint32_t rowBegin = 0;
  std::uint32_t rowEnd = 0;
  std::vector<std::uint8_t> pixels;

  friend bool operator==(const RowSegment&, const RowSegment&) = default;
};

/// Cost ledger of one lane the shard owned (idle lanes report zeros so the
/// coordinator's merged bill equals the solo fleet sum exactly).
struct LaneStats {
  std::uint32_t lane = 0;
  std::uint64_t opCount = 0;
  reram::EventCounts events;

  friend bool operator==(const LaneStats&, const LaneStats&) = default;
};

/// The decoded (owning) form of a shard reply.
struct WireReply {
  bool ok = true;
  std::string error;  ///< set when !ok

  std::uint32_t width = 0;   ///< output image width
  std::uint32_t height = 0;  ///< output image height
  std::vector<RowSegment> segments;
  std::vector<LaneStats> laneStats;

  friend bool operator==(const WireReply&, const WireReply&) = default;
};

/// Builds a Misbehave frame arming \p fault on the worker's next Execute.
std::vector<std::uint8_t> encodeMisbehave(WorkerFault fault);

/// Builds the owning wire form of \p q for one replica execution: frame
/// bytes are copied out of the request's views, \p effectiveSeed is the
/// tenant-namespaced request seed and \p assignment names the lane slice
/// (its laneSeedBase already includes the replica stride).
WireRequest makeWireRequest(const service::Request& q,
                            service::TenantId tenant,
                            std::uint64_t seedNamespace,
                            std::uint64_t effectiveSeed, std::uint32_t lanes,
                            std::uint32_t rowsPerTile,
                            const TileAssignment& assignment);

/// Serializes \p q (magic, version, fields, frames, checksum).
std::vector<std::uint8_t> encodeRequest(const WireRequest& q);

/// Parses and validates a request frame.  Throws DecodeError on any
/// malformation; never reads out of bounds.
WireRequest decodeRequest(std::span<const std::uint8_t> bytes);

/// Serializes \p r (magic, version, status, payload, checksum).
std::vector<std::uint8_t> encodeReply(const WireReply& r);

/// Parses and validates a reply frame (same guarantees as decodeRequest).
WireReply decodeReply(std::span<const std::uint8_t> bytes);

/// FNV-1a 64 over \p bytes — the frame checksum (also exposed for tests).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

}  // namespace aimsc::shard
