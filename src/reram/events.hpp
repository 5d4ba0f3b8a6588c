/// \file events.hpp
/// \brief NVMain-style event accounting for the in-memory design.
///
/// The paper extracts latency/energy from scouting-logic literature [24] and
/// integrates them into NVMain [36] via traces.  We reproduce the same
/// accounting by counting the primitive events each array performs; the
/// cost model (src/energy) turns counts into ns / nJ using the calibrated
/// constants in energy/calibration.hpp.
#pragma once

#include <cstdint>

namespace aimsc::reram {

/// Primitive hardware event kinds.
enum class EventKind {
  SlRead,          ///< scouting-logic sensing step (bulk, one row set)
  RowWrite,        ///< full-row ReRAM write (incl. intermediate writes)
  CellWrite,       ///< individual cells actually programmed
  LatchOp,         ///< standalone peripheral latch capture (L0/L1)
  AdcConversion,   ///< 8-bit ADC S-to-B conversion
  TrngBit,         ///< true-random bit deposited by the TRNG
  CordivIteration, ///< serial CORDIV bit iteration
};

/// Aggregated event counters.
struct EventCounts {
  std::uint64_t slReads = 0;
  std::uint64_t rowWrites = 0;
  std::uint64_t cellWrites = 0;
  std::uint64_t latchOps = 0;
  std::uint64_t adcConversions = 0;
  std::uint64_t trngBits = 0;
  std::uint64_t cordivIterations = 0;

  std::uint64_t& of(EventKind k) {
    switch (k) {
      case EventKind::SlRead: return slReads;
      case EventKind::RowWrite: return rowWrites;
      case EventKind::CellWrite: return cellWrites;
      case EventKind::LatchOp: return latchOps;
      case EventKind::AdcConversion: return adcConversions;
      case EventKind::TrngBit: return trngBits;
      case EventKind::CordivIteration: return cordivIterations;
    }
    return slReads;  // unreachable
  }
  std::uint64_t of(EventKind k) const {
    return const_cast<EventCounts*>(this)->of(k);
  }

  EventCounts& operator+=(const EventCounts& o) {
    slReads += o.slReads;
    rowWrites += o.rowWrites;
    cellWrites += o.cellWrites;
    latchOps += o.latchOps;
    adcConversions += o.adcConversions;
    trngBits += o.trngBits;
    cordivIterations += o.cordivIterations;
    return *this;
  }
  friend EventCounts operator+(EventCounts a, const EventCounts& b) {
    a += b;
    return a;
  }

  /// Field-wise equality — the contract the tile engine's determinism tests
  /// assert: merged lane counts must be identical at any thread count.
  friend bool operator==(const EventCounts& a, const EventCounts& b) {
    return a.slReads == b.slReads && a.rowWrites == b.rowWrites &&
           a.cellWrites == b.cellWrites && a.latchOps == b.latchOps &&
           a.adcConversions == b.adcConversions && a.trngBits == b.trngBits &&
           a.cordivIterations == b.cordivIterations;
  }
  friend bool operator!=(const EventCounts& a, const EventCounts& b) {
    return !(a == b);
  }

  void reset() { *this = EventCounts{}; }
};

/// Mutable event sink shared by array / scouting / periphery components.
class EventLog {
 public:
  /// Records \p count events of \p kind.
  void add(EventKind kind, std::uint64_t count = 1) {
    counts_.of(kind) += count;
  }

  const EventCounts& counts() const { return counts_; }
  void reset() { counts_.reset(); }

 private:
  EventCounts counts_;
};

}  // namespace aimsc::reram
