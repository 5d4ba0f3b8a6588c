// Golden-bytes pin: every AppKind x DesignKind run at 32x32, N = 256 and a
// fixed seed, plus the Table IV faulty rows, stream-level FaultPlan rows
// (through the FaultedBackend decorator), a 3-replica vote row, 16x16
// binary-CIM rows on high-variability corners, a 16x16 faulty ReRAM
// matting row, rows on the service's lane-fleet shape (4 lanes, one
// worker thread, 4 rows per tile), faulty ReRAM-SC rows on every
// scouting op and at two more variability corners, and stream-level
// FaultPlan rows on the lane-fleet shape.  Each row pins three
// values from runAppDetailed: the FNV-1a-64 of the output bytes, the
// backend op count and a digest of the ReRAM event ledger.
//
// The other conformance suites compare two code paths of the SAME build with
// each other; this table is the only check that holds across commits.  A
// refactor that claims "no byte moved" must pass it unchanged.  A change
// that moves bytes on purpose re-records the table (the failure message
// prints the regenerated rows) and says so in its description.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "shard/wire.hpp"

namespace aimsc::apps {
namespace {

constexpr std::uint64_t kSeed = 0x601d;

struct Case {
  std::string label;
  AppKind app;
  DesignKind design;
  RunConfig cfg;
  ParallelConfig par{};
};

struct Pin {
  const char* label;
  std::uint64_t outputFnv;
  std::uint64_t opCount;
  std::uint64_t eventsFnv;
};

RunConfig baseConfig() {
  RunConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.streamLength = 256;
  cfg.seed = kSeed;
  return cfg;
}

const char* appTag(AppKind app) {
  switch (app) {
    case AppKind::Compositing: return "compositing";
    case AppKind::Bilinear: return "bilinear";
    case AppKind::Matting: return "matting";
    case AppKind::Filters: return "filters";
    case AppKind::Gamma: return "gamma";
    case AppKind::Morphology: return "morphology";
  }
  return "?";
}

std::vector<Case> goldenCases() {
  constexpr AppKind kApps[] = {AppKind::Compositing, AppKind::Bilinear,
                               AppKind::Matting,     AppKind::Filters,
                               AppKind::Gamma,       AppKind::Morphology};
  constexpr DesignKind kDesigns[] = {
      DesignKind::Reference, DesignKind::SwScLfsr, DesignKind::SwScSobol,
      DesignKind::SwScSimd,  DesignKind::ReramSc,  DesignKind::BinaryCim,
      DesignKind::SwScSfmt};
  std::vector<Case> cases;
  for (const AppKind app : kApps) {
    for (const DesignKind design : kDesigns) {
      cases.push_back({std::string(appTag(app)) + "/" + designKindName(design),
                       app, design, baseConfig()});
    }
  }

  // Table IV faulty columns: device variability on the native fault models.
  RunConfig faulty = baseConfig();
  faulty.faults = reliability::FaultPlan::deviceOnly(defaultFaultyDevice());
  cases.push_back({"tableIV-faulty/compositing/ReRAM-SC", AppKind::Compositing,
                   DesignKind::ReramSc, faulty});
  cases.push_back({"tableIV-faulty/compositing/Binary CIM",
                   AppKind::Compositing, DesignKind::BinaryCim, faulty});

  // Stream/word-level classes, realised by the FaultedBackend decorator.
  RunConfig plan = baseConfig();
  plan.faults.transientFlipRate = 2e-3;
  plan.faults.stuckAtRate = 0.02;
  cases.push_back({"faultplan/compositing/SW-SC (LFSR)", AppKind::Compositing,
                   DesignKind::SwScLfsr, plan});
  cases.push_back({"faultplan/gamma/SW-SC (SIMD)", AppKind::Gamma,
                   DesignKind::SwScSimd, plan});
  cases.push_back({"faultplan/matting/ReRAM-SC", AppKind::Matting,
                   DesignKind::ReramSc, plan});
  cases.push_back({"faultplan/filters/Binary CIM", AppKind::Filters,
                   DesignKind::BinaryCim, plan});

  // N-modular redundancy: three replicas, per-pixel vote.
  RunConfig voted = baseConfig();
  voted.faults =
      reliability::FaultPlan::deviceOnly(defaultFaultyDevice(), 4000);
  voted.redundancy.replicas = 3;
  cases.push_back({"vote3/compositing/ReRAM-SC", AppKind::Compositing,
                   DesignKind::ReramSc, voted});

  // Binary CIM at 16x16 on a corner with 3x the HRS spread: misdecisions
  // are frequent enough that most full adders take the gate-by-gate walk
  // (retry-and-vote, restoring division and the lerp chain included).
  RunConfig hot = baseConfig();
  hot.width = 16;
  hot.height = 16;
  reram::DeviceParams hotDevice = defaultFaultyDevice();
  hotDevice.sigmaHrs *= 3;
  hot.faults = reliability::FaultPlan::deviceOnly(hotDevice);
  RunConfig hotDmr = hot;
  hotDmr.bincimProtection = core::CimProtection::Dmr;
  RunConfig hotTmr = hot;
  hotTmr.bincimProtection = core::CimProtection::Tmr;
  cases.push_back({"hrs3x/compositing/Binary CIM+DMR", AppKind::Compositing,
                   DesignKind::BinaryCim, hotDmr});
  cases.push_back({"hrs3x/compositing/Binary CIM+TMR", AppKind::Compositing,
                   DesignKind::BinaryCim, hotTmr});
  cases.push_back({"hrs3x/matting/Binary CIM", AppKind::Matting,
                   DesignKind::BinaryCim, hot});
  cases.push_back({"hrs3x/bilinear/Binary CIM", AppKind::Bilinear,
                   DesignKind::BinaryCim, hot});

  // Faulty ReRAM CORDIV, which draws its own per-iteration misdecisions.
  RunConfig faultyMatting = faulty;
  faultyMatting.width = 16;
  faultyMatting.height = 16;
  cases.push_back({"tableIV-faulty-16/matting/ReRAM-SC", AppKind::Matting,
                   DesignKind::ReramSc, faultyMatting});

  // Binary CIM with a wide LRS spread as well: all five MAGIC patterns
  // misdecide, so the order of sibling gates inside a full adder shows in
  // the bytes.
  RunConfig wide = hot;
  reram::DeviceParams wideDevice = defaultFaultyDevice();
  wideDevice.sigmaLrs = 0.8;
  wideDevice.sigmaHrs = 2.4;
  wide.faults = reliability::FaultPlan::deviceOnly(wideDevice);
  cases.push_back({"lrs-hrs-wide/compositing/Binary CIM", AppKind::Compositing,
                   DesignKind::BinaryCim, wide});

  // The lane-fleet shape the service and the shard workers run: every
  // design tiled over 4 independently seeded lanes, on a one-stage and the
  // two-stage (erode, then dilate) app, plus a voted and a faulty fleet.
  ParallelConfig fleet;
  fleet.lanes = 4;
  fleet.threads = 1;
  fleet.rowsPerTile = 4;
  for (const AppKind app : {AppKind::Compositing, AppKind::Morphology}) {
    for (const DesignKind design : kDesigns) {
      cases.push_back({std::string("fleet4/") + appTag(app) + "/" +
                           designKindName(design),
                       app, design, baseConfig(), fleet});
    }
  }
  RunConfig fleetVoted = baseConfig();
  fleetVoted.redundancy.replicas = 3;
  cases.push_back({"fleet4-vote3/filters/SW-SC (LFSR)", AppKind::Filters,
                   DesignKind::SwScLfsr, fleetVoted, fleet});
  cases.push_back({"fleet4-tableIV-faulty/compositing/ReRAM-SC",
                   AppKind::Compositing, DesignKind::ReramSc, faulty, fleet});

  // Faulty scouting sensing on the ops compositing does not reach: majMux4
  // (bilinear), XOR and MAJ3 (filters), the Bernstein inputs (gamma), the
  // AND and OR trees (morphology).
  for (const AppKind app : {AppKind::Bilinear, AppKind::Filters,
                            AppKind::Gamma, AppKind::Morphology}) {
    cases.push_back({std::string("tableIV-faulty/") + appTag(app) +
                         "/ReRAM-SC",
                     app, DesignKind::ReramSc, faulty});
  }
  // The benchmark's second faulty corner (sigma_HRS x1.25), and the 3x
  // corner, where misdecisions are frequent enough (count * p >= 8) that
  // the binomial draw takes its rejection branch.
  RunConfig corner = baseConfig();
  reram::DeviceParams cornerDevice = defaultFaultyDevice();
  cornerDevice.sigmaHrs *= 1.25;
  corner.faults = reliability::FaultPlan::deviceOnly(cornerDevice);
  cases.push_back({"hrs1.25x/compositing/ReRAM-SC", AppKind::Compositing,
                   DesignKind::ReramSc, corner});
  cases.push_back({"hrs3x/compositing/ReRAM-SC", AppKind::Compositing,
                   DesignKind::ReramSc, hot});

  // Stream-level faults on the lane-fleet shape pin both fault keys: ReRAM
  // lanes key their draws (fleet seed, lane index), every other design
  // (lane seed, 0).
  cases.push_back({"fleet4-faultplan/matting/ReRAM-SC", AppKind::Matting,
                   DesignKind::ReramSc, plan, fleet});
  cases.push_back({"fleet4-faultplan/compositing/SW-SC (LFSR)",
                   AppKind::Compositing, DesignKind::SwScLfsr, plan, fleet});
  cases.push_back({"fleet4-faultplan/filters/Binary CIM", AppKind::Filters,
                   DesignKind::BinaryCim, plan, fleet});
  return cases;
}

std::uint64_t eventsDigest(const reram::EventCounts& ev) {
  const std::uint64_t fields[] = {ev.slReads,        ev.rowWrites,
                                  ev.cellWrites,     ev.latchOps,
                                  ev.adcConversions, ev.trngBits,
                                  ev.cordivIterations};
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t f : fields) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(f >> (8 * b)));
    }
  }
  return shard::fnv1a64(bytes);
}

// clang-format off
constexpr Pin kPins[] = {
    {"compositing/Reference", 0xa7b89837a735dee5ull, 0ull, 0x8ac123d6f7dce585ull},
    {"compositing/SW-SC (LFSR)", 0x0d2b93aaa2f9a386ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"compositing/SW-SC (Sobol)", 0x0a1644e1351b54ccull, 1024ull, 0x8ac123d6f7dce585ull},
    {"compositing/SW-SC (SIMD)", 0x0d2b93aaa2f9a386ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"compositing/ReRAM-SC", 0x39e23f309bca2c97ull, 0ull, 0xdb05911395e38d70ull},
    {"compositing/Binary CIM", 0xc856da68e209f3dbull, 5875712ull, 0x8ac123d6f7dce585ull},
    {"compositing/SW-SC (SFMT)", 0x0eb64fab71eacb06ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"bilinear/Reference", 0x8b487b24909f15b7ull, 0ull, 0x8ac123d6f7dce585ull},
    {"bilinear/SW-SC (LFSR)", 0x850a797324da25fdull, 12288ull, 0x8ac123d6f7dce585ull},
    {"bilinear/SW-SC (Sobol)", 0xf4f0e1537352734aull, 12288ull, 0x8ac123d6f7dce585ull},
    {"bilinear/SW-SC (SIMD)", 0x850a797324da25fdull, 12288ull, 0x8ac123d6f7dce585ull},
    {"bilinear/ReRAM-SC", 0xaa967ec93843075eull, 0ull, 0xa20434ca736efc17ull},
    {"bilinear/Binary CIM", 0xbcf028615aa1b14aull, 70508544ull, 0x8ac123d6f7dce585ull},
    {"bilinear/SW-SC (SFMT)", 0x8d64875d55f8b97dull, 12288ull, 0x8ac123d6f7dce585ull},
    {"matting/Reference", 0x52e17ed79dffc271ull, 0ull, 0x8ac123d6f7dce585ull},
    {"matting/SW-SC (LFSR)", 0xfbba92068ec90ad1ull, 3072ull, 0x8ac123d6f7dce585ull},
    {"matting/SW-SC (Sobol)", 0x546a74a32fb32393ull, 3072ull, 0x8ac123d6f7dce585ull},
    {"matting/SW-SC (SIMD)", 0xfbba92068ec90ad1ull, 3072ull, 0x8ac123d6f7dce585ull},
    {"matting/ReRAM-SC", 0xfc0a0ac114e3c2d4ull, 0ull, 0xdafbff385688b0ecull},
    {"matting/Binary CIM", 0x821695ee6d5b9e5dull, 6291456ull, 0x8ac123d6f7dce585ull},
    {"matting/SW-SC (SFMT)", 0xe085d9176ae1c7d3ull, 3072ull, 0x8ac123d6f7dce585ull},
    {"filters/Reference", 0xfe8ddc0d5e5b679full, 0ull, 0x8ac123d6f7dce585ull},
    {"filters/SW-SC (LFSR)", 0xd9cee647467c9caeull, 6300ull, 0x8ac123d6f7dce585ull},
    {"filters/SW-SC (Sobol)", 0xad71d81c43e71e33ull, 6300ull, 0x8ac123d6f7dce585ull},
    {"filters/SW-SC (SIMD)", 0xd9cee647467c9caeull, 6300ull, 0x8ac123d6f7dce585ull},
    {"filters/ReRAM-SC", 0x05b6f02812b9ded3ull, 0ull, 0x80f52474d3832e59ull},
    {"filters/Binary CIM", 0xf64a76b58968412aull, 2154600ull, 0x8ac123d6f7dce585ull},
    {"filters/SW-SC (SFMT)", 0xc9f0284741dbbf1full, 6300ull, 0x8ac123d6f7dce585ull},
    {"gamma/Reference", 0xed579ab9e25c63a1ull, 0ull, 0x8ac123d6f7dce585ull},
    {"gamma/SW-SC (LFSR)", 0x9a98a566e044b205ull, 8192ull, 0x8ac123d6f7dce585ull},
    {"gamma/SW-SC (Sobol)", 0xfcce7dd4db87f8e7ull, 8192ull, 0x8ac123d6f7dce585ull},
    {"gamma/SW-SC (SIMD)", 0x9a98a566e044b205ull, 8192ull, 0x8ac123d6f7dce585ull},
    {"gamma/ReRAM-SC", 0x2a359063fd854773ull, 0ull, 0x4579a71a007ade90ull},
    {"gamma/Binary CIM", 0x73a35fe600950237ull, 58757120ull, 0x8ac123d6f7dce585ull},
    {"gamma/SW-SC (SFMT)", 0x1c9ceccb3009b235ull, 8192ull, 0x8ac123d6f7dce585ull},
    {"morphology/Reference", 0x59313049cbe4ce98ull, 0ull, 0x8ac123d6f7dce585ull},
    {"morphology/SW-SC (LFSR)", 0x40bedfc0789cd0c4ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"morphology/SW-SC (Sobol)", 0xc1a1e62e3bf70520ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"morphology/SW-SC (SIMD)", 0x40bedfc0789cd0c4ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"morphology/ReRAM-SC", 0x0a43d88abc5a79fcull, 0ull, 0xd4bb18fda84cfb99ull},
    {"morphology/Binary CIM", 0x59313049cbe4ce98ull, 4320000ull, 0x8ac123d6f7dce585ull},
    {"morphology/SW-SC (SFMT)", 0x80c97403820a7671ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"tableIV-faulty/compositing/ReRAM-SC", 0x77dc40368be23032ull, 0ull, 0xcbfd2cd77460d6e7ull},
    {"tableIV-faulty/compositing/Binary CIM", 0xbf09cca990d981bcull, 5875712ull, 0x8ac123d6f7dce585ull},
    {"faultplan/compositing/SW-SC (LFSR)", 0x5c256f65cd15e1b4ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"faultplan/gamma/SW-SC (SIMD)", 0x82a7e5c701ecf013ull, 8192ull, 0x8ac123d6f7dce585ull},
    {"faultplan/matting/ReRAM-SC", 0x4b439a20e989a19dull, 0ull, 0x1849b9b56e41cdccull},
    {"faultplan/filters/Binary CIM", 0xb746197c095198e4ull, 2154600ull, 0x8ac123d6f7dce585ull},
    {"vote3/compositing/ReRAM-SC", 0xb58b2322152fef62ull, 0ull, 0xbe1481c65c9a9e36ull},
    {"hrs3x/compositing/Binary CIM+DMR", 0xbf7e838c791805b8ull, 3000893ull, 0x8ac123d6f7dce585ull},
    {"hrs3x/compositing/Binary CIM+TMR", 0xcabdd800bf2521e4ull, 4406784ull, 0x8ac123d6f7dce585ull},
    {"hrs3x/matting/Binary CIM", 0x01787e250fb35daaull, 1572864ull, 0x8ac123d6f7dce585ull},
    {"hrs3x/bilinear/Binary CIM", 0xee02b34c9e3e03acull, 17627136ull, 0x8ac123d6f7dce585ull},
    {"tableIV-faulty-16/matting/ReRAM-SC", 0xf060c5456c1bff35ull, 0ull, 0x1d1e83f31a1e6a1dull},
    {"lrs-hrs-wide/compositing/Binary CIM", 0xe6b2b810fbc1b9b0ull, 1468928ull, 0x8ac123d6f7dce585ull},
    {"fleet4/compositing/Reference", 0xa7b89837a735dee5ull, 0ull, 0x8ac123d6f7dce585ull},
    {"fleet4/compositing/SW-SC (LFSR)", 0x5fa6fae87833a5b1ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"fleet4/compositing/SW-SC (Sobol)", 0x0c929cabc2ed70d5ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"fleet4/compositing/SW-SC (SIMD)", 0x5fa6fae87833a5b1ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"fleet4/compositing/ReRAM-SC", 0xa76ec1f8b65eaa4eull, 0ull, 0xb4c56c79ffb1d6a8ull},
    {"fleet4/compositing/Binary CIM", 0xc856da68e209f3dbull, 5875712ull, 0x8ac123d6f7dce585ull},
    {"fleet4/compositing/SW-SC (SFMT)", 0x521f01be2349e782ull, 1024ull, 0x8ac123d6f7dce585ull},
    {"fleet4/morphology/Reference", 0x59313049cbe4ce98ull, 0ull, 0x8ac123d6f7dce585ull},
    {"fleet4/morphology/SW-SC (LFSR)", 0xb9c2e8fe666e2d09ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"fleet4/morphology/SW-SC (Sobol)", 0xb55b254714d8f210ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"fleet4/morphology/SW-SC (SIMD)", 0xb9c2e8fe666e2d09ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"fleet4/morphology/ReRAM-SC", 0x79bc553764e31565ull, 0ull, 0x8ec030ad08c12568ull},
    {"fleet4/morphology/Binary CIM", 0x59313049cbe4ce98ull, 4320000ull, 0x8ac123d6f7dce585ull},
    {"fleet4/morphology/SW-SC (SFMT)", 0x29ec8bfc77afe1f2ull, 14400ull, 0x8ac123d6f7dce585ull},
    {"fleet4-vote3/filters/SW-SC (LFSR)", 0x5015c5c22e8fcd6bull, 18900ull, 0x8ac123d6f7dce585ull},
    {"fleet4-tableIV-faulty/compositing/ReRAM-SC", 0x102d885a169fde2full, 0ull, 0x45dbf6c03239636full},
    {"tableIV-faulty/bilinear/ReRAM-SC", 0x5a0d79b96efbb75cull, 0ull, 0x9e4076b6b0ef74f1ull},
    {"tableIV-faulty/filters/ReRAM-SC", 0xfa32331d14fd9db7ull, 0ull, 0x7441febb492370f6ull},
    {"tableIV-faulty/gamma/ReRAM-SC", 0x8d3b43c5ab2ed750ull, 0ull, 0xda6b16938f147bbdull},
    {"tableIV-faulty/morphology/ReRAM-SC", 0xb373cf42066ec50aull, 0ull, 0xcde7dc2e31fabe9cull},
    {"hrs1.25x/compositing/ReRAM-SC", 0x6ac06ee7f8297ef4ull, 0ull, 0x1453292a49168797ull},
    {"hrs3x/compositing/ReRAM-SC", 0x1ee0743bbb6017e2ull, 0ull, 0xd91b4f2929377525ull},
    {"fleet4-faultplan/matting/ReRAM-SC", 0x08142ea865c5db59ull, 0ull, 0xcc309bda0449f8c7ull},
    {"fleet4-faultplan/compositing/SW-SC (LFSR)", 0x8e8a93bb881736fbull, 1024ull, 0x8ac123d6f7dce585ull},
    {"fleet4-faultplan/filters/Binary CIM", 0xca6541857d26f0eaull, 2154600ull, 0x8ac123d6f7dce585ull},
};
// clang-format on

TEST(GoldenBytes, EveryRowMatchesThePinnedTable) {
  const std::vector<Case> cases = goldenCases();
  std::string regenerated;
  bool mismatch = cases.size() != std::size(kPins);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const RunResult r = runAppDetailed(c.app, c.design, c.cfg, c.par);
    const Pin actual{c.label.c_str(), shard::fnv1a64(r.output.pixels()),
                     r.opCount, eventsDigest(r.events)};
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", 0x%016" PRIx64 "ull, %" PRIu64
                  "ull, 0x%016" PRIx64 "ull},\n",
                  actual.label, actual.outputFnv, actual.opCount,
                  actual.eventsFnv);
    regenerated += line;
    if (i >= std::size(kPins)) continue;
    const Pin& want = kPins[i];
    EXPECT_EQ(c.label, want.label) << "row " << i;
    EXPECT_EQ(actual.outputFnv, want.outputFnv) << c.label << ": output bytes";
    EXPECT_EQ(actual.opCount, want.opCount) << c.label << ": opCount";
    EXPECT_EQ(actual.eventsFnv, want.eventsFnv) << c.label << ": EventCounts";
    mismatch = mismatch || c.label != want.label ||
               actual.outputFnv != want.outputFnv ||
               actual.opCount != want.opCount ||
               actual.eventsFnv != want.eventsFnv;
  }
  EXPECT_EQ(cases.size(), std::size(kPins)) << "row count";
  if (mismatch) {
    ADD_FAILURE() << "regenerated golden table:\n" << regenerated;
  }
}

}  // namespace
}  // namespace aimsc::apps
