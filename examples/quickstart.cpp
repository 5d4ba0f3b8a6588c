// Quickstart: the full all-in-memory SC flow on a few scalars.
//
//   1. binary -> stochastic (IMSNG: TRNG planes + in-memory greater-than)
//   2. stochastic arithmetic with scouting logic
//   3. stochastic -> binary (reference column + 8-bit ADC)
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/accelerator.hpp"
#include "sc/correlation.hpp"

int main() {
  using namespace aimsc;

  core::AcceleratorConfig cfg;
  cfg.streamLength = 1024;  // bit-stream length N
  cfg.mBits = 8;            // TRNG segment size M
  core::Accelerator acc(cfg);

  std::puts("All-in-Memory Stochastic Computing quickstart");
  std::printf("stream length N = %zu, segment size M = %d\n\n",
              acc.streamLength(), cfg.mBits);

  // --- independent streams: multiplication and scaled addition ------------
  // Every stage writes into a caller-owned stream (buffers are reused).
  const double px = 0.40;
  const double py = 0.65;
  sc::Bitstream x, y, half, result;
  acc.encodeProbInto(x, px);  // fresh TRNG planes
  acc.encodeProbInto(y, py);
  acc.encodeProbInto(half, 0.5);  // MAJ select stream

  std::printf("x = %.2f encoded as SBS with value %.3f (SCC(x,y) = %+.3f)\n",
              px, x.value(), sc::scc(x, y));
  acc.ops().multiplyInto(result, x, y);
  std::printf("x * y       : SC %.3f   exact %.3f\n", acc.decodeProb(result),
              px * py);
  acc.ops().scaledAddInto(result, x, y, half);
  std::printf("(x + y) / 2 : SC %.3f   exact %.3f  (single MAJ cycle)\n",
              acc.decodeProb(result), (px + py) / 2);

  // --- correlated streams: subtraction and CORDIV division ----------------
  sc::Bitstream xc, yc;
  acc.encodeProbInto(xc, px);            // fresh planes...
  acc.encodeProbCorrelatedInto(yc, py);  // ...shared here
  std::printf("\ncorrelated pair: SCC = %+.3f\n", sc::scc(xc, yc));
  acc.ops().absSubInto(result, xc, yc);
  std::printf("|x - y|     : SC %.3f   exact %.3f\n", acc.decodeProb(result),
              py - px);
  acc.ops().divideInto(result, xc, yc);
  std::printf("x / y       : SC %.3f   exact %.3f  (CORDIV)\n",
              acc.decodeProb(result), px / py);

  // --- what did the memory do? ---------------------------------------------
  const auto& ev = acc.events();
  std::printf(
      "\nevent ledger: %llu SL reads, %llu row writes, %llu TRNG bits, "
      "%llu ADC conversions, %llu CORDIV iterations\n",
      static_cast<unsigned long long>(ev.slReads),
      static_cast<unsigned long long>(ev.rowWrites),
      static_cast<unsigned long long>(ev.trngBits),
      static_cast<unsigned long long>(ev.adcConversions),
      static_cast<unsigned long long>(ev.cordivIterations));
  return 0;
}
