#include "shard/wire.hpp"

#include <cstring>

namespace aimsc::shard {

namespace {

// Decoder sanity caps: a corrupt length field must not drive an unbounded
// allocation.  Frames are images (<= 4096 x 4096 here), segment/stat counts
// are bounded by rows/lanes of such an image.
constexpr std::uint32_t kMaxDim = 4096;
constexpr std::size_t kMaxSegments = kMaxDim;
constexpr std::size_t kMaxLaneStats = 65536;
constexpr std::size_t kMaxErrorLength = 4096;

/// Append-only little-endian serializer.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Appends the FNV-1a 64 checksum and yields the finished frame.
  std::vector<std::uint8_t> finish() {
    u64(fnv1a64(buf_));
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian deserializer over a checksum-verified
/// payload.  Every read throws DecodeError instead of over-reading.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (data_[pos_ + i] << (8 * i)));
    }
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    need(n);
    std::vector<std::uint8_t> out(data_.begin() + pos_,
                                  data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  void expectExhausted() const {
    if (pos_ != data_.size()) {
      throw DecodeError("wire: trailing bytes after message body");
    }
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw DecodeError("wire: truncated message body");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Strips and verifies the trailing checksum, returning the payload span.
std::span<const std::uint8_t> checksummedPayload(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint64_t)) {
    throw DecodeError("wire: frame shorter than its checksum");
  }
  const std::span<const std::uint8_t> payload =
      bytes.first(bytes.size() - sizeof(std::uint64_t));
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(bytes[payload.size() + i]) << (8 * i);
  }
  if (fnv1a64(payload) != stored) {
    throw DecodeError("wire: checksum mismatch");
  }
  return payload;
}

void writeFrame(WireWriter& w, const WireFrame& f) {
  if (f.pixels.size() !=
      static_cast<std::size_t>(f.width) * static_cast<std::size_t>(f.height)) {
    throw std::invalid_argument("wire: frame pixel count != width * height");
  }
  w.u32(f.width);
  w.u32(f.height);
  w.bytes(f.pixels);
}

WireFrame readFrame(WireReader& r) {
  WireFrame f;
  f.width = r.u32();
  f.height = r.u32();
  if (f.width > kMaxDim || f.height > kMaxDim) {
    throw DecodeError("wire: frame dimensions out of range");
  }
  f.pixels = r.bytes(static_cast<std::size_t>(f.width) *
                     static_cast<std::size_t>(f.height));
  return f;
}

void writeFaultPlan(WireWriter& w, const reliability::FaultPlan& p) {
  w.u8(p.deviceVariability ? 1 : 0);
  w.f64(p.device.rLrsOhm);
  w.f64(p.device.rHrsOhm);
  w.f64(p.device.sigmaLrs);
  w.f64(p.device.sigmaHrs);
  w.f64(p.device.vRead);
  w.u64(p.device.enduranceCycles);
  w.u64(p.faultModelSamples);
  w.f64(p.stuckAtRate);
  w.f64(p.stuckAtHighFraction);
  w.f64(p.transientFlipRate);
  w.f64(p.wearDriftPerMegaCycle);
  w.u64(p.wearPreloadCycles);
}

reliability::FaultPlan readFaultPlan(WireReader& r) {
  reliability::FaultPlan p;
  const std::uint8_t dv = r.u8();
  if (dv > 1) throw DecodeError("wire: bad deviceVariability flag");
  p.deviceVariability = dv != 0;
  p.device.rLrsOhm = r.f64();
  p.device.rHrsOhm = r.f64();
  p.device.sigmaLrs = r.f64();
  p.device.sigmaHrs = r.f64();
  p.device.vRead = r.f64();
  p.device.enduranceCycles = r.u64();
  p.faultModelSamples = static_cast<std::size_t>(r.u64());
  p.stuckAtRate = r.f64();
  p.stuckAtHighFraction = r.f64();
  p.transientFlipRate = r.f64();
  p.wearDriftPerMegaCycle = r.f64();
  p.wearPreloadCycles = r.u64();
  return p;
}

apps::AppKind readAppKind(WireReader& r) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(apps::AppKind::Morphology)) {
    throw DecodeError("wire: unknown AppKind");
  }
  return static_cast<apps::AppKind>(v);
}

core::DesignKind readDesignKind(WireReader& r) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(core::DesignKind::SwScSfmt)) {
    throw DecodeError("wire: unknown DesignKind");
  }
  return static_cast<core::DesignKind>(v);
}

void writeEventCounts(WireWriter& w, const reram::EventCounts& e) {
  w.u64(e.slReads);
  w.u64(e.rowWrites);
  w.u64(e.cellWrites);
  w.u64(e.latchOps);
  w.u64(e.adcConversions);
  w.u64(e.trngBits);
  w.u64(e.cordivIterations);
}

reram::EventCounts readEventCounts(WireReader& r) {
  reram::EventCounts e;
  e.slReads = r.u64();
  e.rowWrites = r.u64();
  e.cellWrites = r.u64();
  e.latchOps = r.u64();
  e.adcConversions = r.u64();
  e.trngBits = r.u64();
  e.cordivIterations = r.u64();
  return e;
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

service::Request WireRequest::toRequest() const {
  service::Request q;
  q.app = app;
  q.design = design;
  q.src = src.view();
  q.aux1 = aux1.view();
  q.aux2 = aux2.view();
  q.gamma = gamma;
  q.upscaleFactor = upscaleFactor;
  q.streamLength = streamLength;
  q.seed = seed;
  q.faults = faults;
  return q;
}

WireRequest makeWireRequest(const service::Request& q,
                            service::TenantId tenant,
                            std::uint64_t seedNamespace,
                            std::uint64_t effectiveSeed, std::uint32_t lanes,
                            std::uint32_t rowsPerTile,
                            const TileAssignment& assignment) {
  WireRequest wq;
  wq.kind = MessageKind::Execute;
  wq.tenant = tenant;
  wq.seedNamespace = seedNamespace;
  wq.app = q.app;
  wq.design = q.design;
  wq.gamma = q.gamma;
  wq.upscaleFactor = static_cast<std::uint32_t>(q.upscaleFactor);
  wq.streamLength = static_cast<std::uint32_t>(q.streamLength);
  wq.seed = effectiveSeed;
  wq.faults = q.faults;
  wq.lanes = lanes;
  wq.rowsPerTile = rowsPerTile;
  wq.assignment = assignment;
  const auto copyFrame = [](const img::ImageView& v) {
    WireFrame f;
    if (v.data() != nullptr && !v.empty()) {
      f.width = static_cast<std::uint32_t>(v.width());
      f.height = static_cast<std::uint32_t>(v.height());
      f.pixels.assign(v.data(), v.data() + v.size());
    }
    return f;
  };
  wq.src = copyFrame(q.src);
  wq.aux1 = copyFrame(q.aux1);
  wq.aux2 = copyFrame(q.aux2);
  return wq;
}

std::vector<std::uint8_t> encodeMisbehave(WorkerFault fault) {
  WireRequest arm;
  arm.kind = MessageKind::Misbehave;
  arm.fault = fault;
  return encodeRequest(arm);
}

std::vector<std::uint8_t> encodeRequest(const WireRequest& q) {
  WireWriter w;
  w.u32(kRequestMagic);
  w.u16(kWireVersion);
  w.u8(static_cast<std::uint8_t>(q.kind));
  if (q.kind == MessageKind::Misbehave) {
    w.u8(static_cast<std::uint8_t>(q.fault));
  }
  if (q.kind == MessageKind::Execute) {
    w.u32(q.tenant);
    w.u64(q.seedNamespace);
    w.u8(static_cast<std::uint8_t>(q.app));
    w.u8(static_cast<std::uint8_t>(q.design));
    w.f64(q.gamma);
    w.u32(q.upscaleFactor);
    w.u32(q.streamLength);
    w.u64(q.seed);
    writeFaultPlan(w, q.faults);
    w.u32(q.lanes);
    w.u32(q.rowsPerTile);
    w.u64(q.assignment.laneSeedBase);
    w.u32(q.assignment.laneBegin);
    w.u32(q.assignment.laneStride);
    w.u32(q.assignment.rowBegin);
    w.u32(q.assignment.rowEnd);
    writeFrame(w, q.src);
    writeFrame(w, q.aux1);
    writeFrame(w, q.aux2);
  }
  return w.finish();
}

WireRequest decodeRequest(std::span<const std::uint8_t> bytes) {
  WireReader r(checksummedPayload(bytes));
  if (r.u32() != kRequestMagic) throw DecodeError("wire: bad request magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw DecodeError("wire: unsupported request version " +
                      std::to_string(version));
  }
  WireRequest q;
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(MessageKind::Execute) &&
      kind != static_cast<std::uint8_t>(MessageKind::Misbehave)) {
    throw DecodeError("wire: unknown message kind");
  }
  q.kind = static_cast<MessageKind>(kind);
  if (q.kind == MessageKind::Misbehave) {
    const std::uint8_t fault = r.u8();
    if (fault < static_cast<std::uint8_t>(WorkerFault::CrashBeforeReply) ||
        fault > static_cast<std::uint8_t>(WorkerFault::GarbageReply)) {
      throw DecodeError("wire: unknown worker fault");
    }
    q.fault = static_cast<WorkerFault>(fault);
    r.expectExhausted();
    return q;
  }
  q.tenant = r.u32();
  q.seedNamespace = r.u64();
  q.app = readAppKind(r);
  q.design = readDesignKind(r);
  q.gamma = r.f64();
  q.upscaleFactor = r.u32();
  q.streamLength = r.u32();
  q.seed = r.u64();
  q.faults = readFaultPlan(r);
  q.lanes = r.u32();
  q.rowsPerTile = r.u32();
  q.assignment.laneSeedBase = r.u64();
  q.assignment.laneBegin = r.u32();
  q.assignment.laneStride = r.u32();
  q.assignment.rowBegin = r.u32();
  q.assignment.rowEnd = r.u32();
  if (q.lanes == 0 || q.lanes > kMaxLaneStats || q.rowsPerTile == 0) {
    throw DecodeError("wire: bad fleet shape");
  }
  if (q.assignment.laneStride == 0 || q.assignment.laneBegin >= q.lanes) {
    throw DecodeError("wire: bad tile assignment");
  }
  q.src = readFrame(r);
  q.aux1 = readFrame(r);
  q.aux2 = readFrame(r);
  r.expectExhausted();
  return q;
}

std::vector<std::uint8_t> encodeReply(const WireReply& reply) {
  WireWriter w;
  w.u32(kReplyMagic);
  w.u16(kWireVersion);
  w.u8(reply.ok ? 0 : 1);
  if (!reply.ok) {
    const std::size_t n = std::min(reply.error.size(), kMaxErrorLength);
    w.u32(static_cast<std::uint32_t>(n));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(reply.error.data()), n));
    return w.finish();
  }
  w.u32(reply.width);
  w.u32(reply.height);
  w.u32(static_cast<std::uint32_t>(reply.segments.size()));
  for (const RowSegment& s : reply.segments) {
    if (s.rowEnd < s.rowBegin ||
        s.pixels.size() != static_cast<std::size_t>(s.rowEnd - s.rowBegin) *
                               static_cast<std::size_t>(reply.width)) {
      throw std::invalid_argument("wire: row segment size mismatch");
    }
    w.u32(s.rowBegin);
    w.u32(s.rowEnd);
    w.bytes(s.pixels);
  }
  w.u32(static_cast<std::uint32_t>(reply.laneStats.size()));
  for (const LaneStats& ls : reply.laneStats) {
    w.u32(ls.lane);
    w.u64(ls.opCount);
    writeEventCounts(w, ls.events);
  }
  return w.finish();
}

WireReply decodeReply(std::span<const std::uint8_t> bytes) {
  WireReader r(checksummedPayload(bytes));
  if (r.u32() != kReplyMagic) throw DecodeError("wire: bad reply magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw DecodeError("wire: unsupported reply version " +
                      std::to_string(version));
  }
  WireReply reply;
  const std::uint8_t status = r.u8();
  if (status > 1) throw DecodeError("wire: bad reply status");
  reply.ok = status == 0;
  if (!reply.ok) {
    const std::uint32_t n = r.u32();
    if (n > kMaxErrorLength) throw DecodeError("wire: oversized error text");
    const std::vector<std::uint8_t> raw = r.bytes(n);
    reply.error.assign(raw.begin(), raw.end());
    r.expectExhausted();
    return reply;
  }
  reply.width = r.u32();
  reply.height = r.u32();
  if (reply.width > kMaxDim || reply.height > kMaxDim) {
    throw DecodeError("wire: reply dimensions out of range");
  }
  const std::uint32_t segments = r.u32();
  if (segments > kMaxSegments) throw DecodeError("wire: too many segments");
  reply.segments.reserve(segments);
  for (std::uint32_t i = 0; i < segments; ++i) {
    RowSegment s;
    s.rowBegin = r.u32();
    s.rowEnd = r.u32();
    if (s.rowEnd < s.rowBegin || s.rowEnd > reply.height) {
      throw DecodeError("wire: segment rows out of range");
    }
    s.pixels = r.bytes(static_cast<std::size_t>(s.rowEnd - s.rowBegin) *
                       static_cast<std::size_t>(reply.width));
    reply.segments.push_back(std::move(s));
  }
  const std::uint32_t stats = r.u32();
  if (stats > kMaxLaneStats) throw DecodeError("wire: too many lane stats");
  reply.laneStats.reserve(stats);
  for (std::uint32_t i = 0; i < stats; ++i) {
    LaneStats ls;
    ls.lane = r.u32();
    ls.opCount = r.u64();
    ls.events = readEventCounts(r);
    reply.laneStats.push_back(std::move(ls));
  }
  r.expectExhausted();
  return reply;
}

}  // namespace aimsc::shard
