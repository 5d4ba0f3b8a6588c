// Reliability campaign beyond the paper (ROADMAP "Scenario breadth (c)"):
// sweeps the unified FaultPlan fault classes across fault rate x design x
// app x replica count and quantifies the graceful-degradation story that
// Table IV only samples at one corner.
//
// Four sections, each emitted into BENCH_reliability.json:
//
//  1. Fault-rate sweep — transient flip rate from 0 to 3e-2 on all five
//     substrates (identical per-site rate; SC takes it on stream columns,
//     binary CIM on word bits).  The headline is the QUALITY CROSSOVER:
//     fault-free the exact binary CIM wins, but its SSIM collapses within a
//     decade of fault rate while the SC designs shed 1/N per flip, so the
//     curves cross.
//  2. Mitigation — N-modular redundancy (replicas x vote) and the MAGIC
//     TMR knob at the Table IV default faulty corner, with the op-count
//     overhead each mitigation costs.  Contract: some vote configuration
//     recovers binary CIM gamma above SSIM 80.
//  3. Determinism — the same faulty plan run at 1/2/8 worker threads on
//     every substrate must produce BIT-IDENTICAL images (counter-based
//     fault RNG + lane-pinned tiles).
//  4. Endurance — wear-driven drift vs preloaded write cycles on aged
//     ReRAM-SC devices, with the wear-leveling rotation active; rotation
//     itself must not change a single output bit.
//
// Usage: bench_reliability [imageSize] [runs]
//   (committed baseline: defaults, 32x32 / 2 runs; CI smoke: 16x16 / 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "energy/report.hpp"
#include "reliability/fault_plan.hpp"
#include "reliability/redundancy.hpp"

namespace {

using namespace aimsc;

constexpr apps::DesignKind kDesigns[] = {
    apps::DesignKind::SwScLfsr, apps::DesignKind::SwScSobol,
    apps::DesignKind::SwScSimd, apps::DesignKind::ReramSc,
    apps::DesignKind::BinaryCim};

/// JSON-safe snake_case key for a design (designKindName has punctuation).
const char* designKey(apps::DesignKind d) {
  switch (d) {
    case apps::DesignKind::Reference: return "reference";
    case apps::DesignKind::SwScLfsr: return "swsc_lfsr";
    case apps::DesignKind::SwScSobol: return "swsc_sobol";
    case apps::DesignKind::SwScSimd: return "swsc_simd";
    case apps::DesignKind::ReramSc: return "reram_sc";
    case apps::DesignKind::BinaryCim: return "binary_cim";
    case apps::DesignKind::SwScSfmt: return "swsc_sfmt";
  }
  return "?";
}

apps::RunConfig baseCfg(std::size_t size, std::uint64_t seed) {
  apps::RunConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = 42 + seed * 1000003;
  return cfg;
}

/// Mean SSIM over `runs` seeds of one (app, design, plan, mitigation) cell.
double meanSsim(apps::AppKind app, apps::DesignKind design, std::size_t size,
                int runs, const reliability::FaultPlan& plan,
                std::size_t replicas = 1,
                core::CimProtection prot = core::CimProtection::None) {
  double acc = 0;
  for (int r = 0; r < runs; ++r) {
    apps::RunConfig cfg = baseCfg(size, r);
    cfg.faults = plan;
    cfg.redundancy.replicas = replicas;
    cfg.bincimProtection = prot;
    acc += apps::runApp(app, design, cfg).ssimPct;
  }
  return acc / runs;
}

// --- section 1: fault-rate sweep -------------------------------------------

struct SweepRow {
  double rate;
  double ssim[std::size(kDesigns)];
};

std::vector<SweepRow> faultRateSweep(apps::AppKind app, std::size_t size,
                                     int runs) {
  const double rates[] = {0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2};
  std::vector<SweepRow> rows;
  for (const double rate : rates) {
    SweepRow row{rate, {}};
    reliability::FaultPlan plan;
    plan.transientFlipRate = rate;
    for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
      // Rate 0 is deterministic per seed but still averaged for symmetry.
      row.ssim[d] = meanSsim(app, kDesigns[d], size, runs, plan);
    }
    rows.push_back(row);
  }
  return rows;
}

// --- section 2: mitigation at the Table IV faulty corner --------------------

struct MitigationRow {
  apps::DesignKind design;
  const char* label;
  std::size_t replicas;
  core::CimProtection prot;
  reliability::FaultPlan plan;
  double ssim = 0;
  double opOverhead = 0;  ///< opCount relative to the replicas=1 row
};

std::vector<MitigationRow> mitigationTable(std::size_t size, int runs) {
  reliability::FaultPlan corner =
      reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice());
  // The SC vote rows run SW-SC at the harshest sweep corner.  They are
  // deliberately reported as DATA, not gated: SC errors are low-variance
  // and largely common-mode across replicas (the expectation shift of the
  // flip channel is the same for every replica even though the flipped
  // sites differ), so image-level votes hover within a point or two of the
  // unmitigated run — redundancy budget is better spent on the CIM side,
  // where the median vote doubles quality and gate-level TMR restores it.
  // That asymmetry IS the graceful-degradation result.
  reliability::FaultPlan harshSc;
  harshSc.transientFlipRate = 3e-2;

  std::vector<MitigationRow> rows = {
      {apps::DesignKind::BinaryCim, "none", 1, core::CimProtection::None,
       corner},
      {apps::DesignKind::BinaryCim, "vote R=3", 3, core::CimProtection::None,
       corner},
      {apps::DesignKind::BinaryCim, "vote R=5", 5, core::CimProtection::None,
       corner},
      {apps::DesignKind::BinaryCim, "TMR", 1, core::CimProtection::Tmr,
       corner},
      {apps::DesignKind::BinaryCim, "TMR + vote R=3", 3,
       core::CimProtection::Tmr, corner},
      {apps::DesignKind::SwScLfsr, "none", 1, core::CimProtection::None,
       harshSc},
      {apps::DesignKind::SwScLfsr, "vote R=3", 3, core::CimProtection::None,
       harshSc},
      {apps::DesignKind::SwScLfsr, "vote R=5", 5, core::CimProtection::None,
       harshSc},
  };

  // Cost reference: unmitigated op count per design (first run's ledger).
  double baseOps[2] = {0, 0};
  for (MitigationRow& row : rows) {
    double ssim = 0;
    double ops = 0;
    for (int r = 0; r < runs; ++r) {
      apps::RunConfig cfg = baseCfg(size, r);
      cfg.faults = row.plan;
      cfg.redundancy.replicas = row.replicas;
      cfg.bincimProtection = row.prot;
      const apps::RunResult res =
          apps::runAppDetailed(apps::AppKind::Gamma, row.design, cfg);
      ssim += res.quality.ssimPct;
      // Cost proxy: the backend op counter where the substrate keeps one
      // (binary CIM gate ledger), sensing steps otherwise (ReRAM-SC).
      ops += res.opCount != 0 ? static_cast<double>(res.opCount)
                              : static_cast<double>(res.events.slReads);
    }
    row.ssim = ssim / runs;
    const std::size_t designIdx =
        row.design == apps::DesignKind::BinaryCim ? 0u : 1u;
    if (baseOps[designIdx] == 0) baseOps[designIdx] = ops;
    row.opOverhead = ops / baseOps[designIdx];
  }
  return rows;
}

// --- section 3: bit-identity of faulty runs across thread counts -----------

bool faultyDeterministic(apps::DesignKind design, std::size_t size) {
  reliability::FaultPlan plan;
  plan.deviceVariability = true;  // exercised on ReRAM-SC / binary CIM
  plan.device = apps::defaultFaultyDevice();
  plan.transientFlipRate = 2e-3;
  plan.stuckAtRate = 0.02;

  apps::RunConfig cfg = baseCfg(size, 0);
  cfg.faults = plan;
  std::vector<std::uint8_t> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    apps::ParallelConfig par;
    par.lanes = 4;
    par.rowsPerTile = 2;
    par.threads = threads;
    const apps::RunResult res =
        apps::runAppDetailed(apps::AppKind::Gamma, design, cfg, par);
    if (reference.empty()) {
      reference = res.output.pixels();
    } else if (res.output.pixels() != reference) {
      return false;
    }
  }
  return true;
}

// --- section 4: endurance (wear drift on aged devices) ----------------------

struct EnduranceRow {
  double preloadMegaCycles;
  double ssim;
};

std::vector<EnduranceRow> enduranceSweep(std::size_t size, int runs) {
  std::vector<EnduranceRow> rows;
  for (const double mega : {0.0, 5.0, 20.0, 80.0}) {
    reliability::FaultPlan plan;
    plan.wearDriftPerMegaCycle = 1e-3;  // +0.1% flip rate per 1M writes
    plan.wearPreloadCycles = static_cast<std::uint64_t>(mega * 1e6);
    double ssim = 0;
    for (int r = 0; r < runs; ++r) {
      apps::RunConfig cfg = baseCfg(size, r);
      cfg.faults = plan;
      cfg.wearWindowRows = 16;  // rotation active while the device ages
      ssim += apps::runApp(apps::AppKind::Gamma, apps::DesignKind::ReramSc,
                           cfg).ssimPct;
    }
    rows.push_back({mega, ssim / runs});
  }
  return rows;
}

/// Wear-leveling rotation relocates the TRNG planes but must never change
/// WHICH bits any stream holds: clean runs with and without the rotation
/// window have to be bit-identical.
bool wearRotationBitIdentical(std::size_t size) {
  apps::RunConfig plain = baseCfg(size, 0);
  apps::RunConfig rotated = plain;
  rotated.wearWindowRows = 16;
  const img::Image a =
      apps::runAppDetailed(apps::AppKind::Gamma, apps::DesignKind::ReramSc,
                           plain).output;
  const img::Image b =
      apps::runAppDetailed(apps::AppKind::Gamma, apps::DesignKind::ReramSc,
                           rotated).output;
  return a.pixels() == b.pixels();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t size =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 32;
  const int runs = argc > 2 ? std::atoi(argv[2]) : 2;

  std::printf(
      "Reliability campaign: FaultPlan sweep + mitigations (%zux%zu, %d "
      "runs)\n\n",
      size, size, runs);

  // --- 1: crossover sweep ---------------------------------------------------
  const std::vector<SweepRow> sweep =
      faultRateSweep(apps::AppKind::Gamma, size, runs);
  const std::vector<SweepRow> sweepComp =
      faultRateSweep(apps::AppKind::Compositing, size, runs);
  {
    energy::Table t({"flip rate", "SW-SC LFSR", "SW-SC Sobol", "SW-SC SIMD",
                     "ReRAM-SC", "Binary CIM"});
    for (const SweepRow& row : sweep) {
      std::vector<std::string> cells{energy::fmt(row.rate, 4)};
      for (const double s : row.ssim) cells.push_back(energy::fmt(s, 1));
      t.addRow(cells);
    }
    std::printf("Gamma SSIM(%%) vs transient flip rate:\n%s\n",
                t.toString().c_str());
  }

  // Crossover contracts: exact CIM wins fault-free, SC wins at high rates.
  const std::size_t iReram = 3;
  const std::size_t iCim = 4;
  const bool cimBeatsScFaultFree =
      sweep.front().ssim[iCim] > sweep.front().ssim[iReram];
  const bool scBeatsCimAtHighRate =
      sweep.back().ssim[iReram] > sweep.back().ssim[iCim];
  double crossoverRate = -1;
  for (const SweepRow& row : sweep) {
    if (row.ssim[iReram] >= row.ssim[iCim]) {
      crossoverRate = row.rate;
      break;
    }
  }
  std::printf("crossover: CIM ahead fault-free %s, SC ahead at 3e-2 %s, "
              "first SC>=CIM rate %.4g\n\n",
              cimBeatsScFaultFree ? "yes" : "NO",
              scBeatsCimAtHighRate ? "yes" : "NO", crossoverRate);

  // --- 2: mitigation --------------------------------------------------------
  const std::vector<MitigationRow> mit = mitigationTable(size, runs);
  {
    energy::Table t({"Design", "Mitigation", "SSIM", "op overhead"});
    for (const MitigationRow& row : mit) {
      t.addRow({core::designKindName(row.design), row.label,
                energy::fmt(row.ssim, 1),
                energy::fmt(row.opOverhead, 2) + "x"});
    }
    std::printf("Mitigation at the Table IV faulty corner (gamma):\n%s\n",
                t.toString().c_str());
  }
  double cimUnmitigated = 0;
  double cimRecovered = 0;
  bool voteMonotone = true;
  {
    // Rows 0..4 are binary CIM, 5..7 SW-SC (by construction above).  The
    // monotonicity contract covers the CIM vote ladder, where the median
    // vote has heavy-tailed outliers to kill; the SW-SC rows are data (see
    // mitigationTable — their votes sit within noise of the baseline).
    cimUnmitigated = mit[0].ssim;
    for (std::size_t i = 1; i < 5; ++i) {
      cimRecovered = std::max(cimRecovered, mit[i].ssim);
    }
    constexpr double kTol = 0.5;  // averaging noise at small sizes
    voteMonotone = mit[1].ssim + kTol >= mit[0].ssim &&
                   mit[2].ssim + kTol >= mit[1].ssim;
  }
  const bool voteRecovers = cimRecovered > 80.0;

  // --- 3: determinism -------------------------------------------------------
  bool deterministic[std::size(kDesigns)];
  bool allDeterministic = true;
  for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
    deterministic[d] =
        faultyDeterministic(kDesigns[d], std::min<std::size_t>(size, 16));
    allDeterministic = allDeterministic && deterministic[d];
    std::printf("faulty run bit-identical at 1/2/8 threads: %-14s %s\n",
                core::designKindName(kDesigns[d]),
                deterministic[d] ? "yes" : "NO");
  }

  // --- 4: endurance ---------------------------------------------------------
  const std::vector<EnduranceRow> endurance = enduranceSweep(size, runs);
  {
    energy::Table t({"preload (Mcycles)", "SSIM"});
    for (const EnduranceRow& row : endurance) {
      t.addRow({energy::fmt(row.preloadMegaCycles, 0),
                energy::fmt(row.ssim, 1)});
    }
    std::printf("\nReRAM-SC gamma vs preloaded wear (drift 1e-3/Mcycle, "
                "rotation window 16 rows):\n%s",
                t.toString().c_str());
  }
  const bool rotationClean = wearRotationBitIdentical(std::min<std::size_t>(size, 16));
  std::printf("wear rotation bit-identical: %s\n", rotationClean ? "yes" : "NO");

  // --- JSON -----------------------------------------------------------------
  if (FILE* f = std::fopen("BENCH_reliability.json", "w")) {
    const auto b = [](bool v) { return v ? "true" : "false"; };
    std::fprintf(f,
                 "{\n"
                 "  \"runs\": %d,\n"
                 "  \"width\": %zu,\n"
                 "  \"height\": %zu,\n"
                 "  \"cim_beats_sc_fault_free\": %s,\n"
                 "  \"sc_beats_cim_at_high_rate\": %s,\n"
                 "  \"crossover_observed\": %s,\n"
                 "  \"crossover_flip_rate\": %.6g,\n"
                 "  \"vote_monotone\": %s,\n"
                 "  \"bincim_gamma_vote_recovers_above_80\": %s,\n"
                 "  \"bincim_gamma_faulty_ssim\": %.2f,\n"
                 "  \"bincim_gamma_recovered_ssim\": %.2f,\n"
                 "  \"wear_rotation_bit_identical\": %s,\n"
                 "  \"faulty_deterministic_all_designs\": %s,\n"
                 "  \"determinism\": {\n",
                 runs, size, size, b(cimBeatsScFaultFree),
                 b(scBeatsCimAtHighRate),
                 b(cimBeatsScFaultFree && scBeatsCimAtHighRate), crossoverRate,
                 b(voteMonotone), b(voteRecovers), cimUnmitigated,
                 cimRecovered, b(rotationClean), b(allDeterministic));
    for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
      std::fprintf(f, "    \"%s\": %s%s\n", designKey(kDesigns[d]),
                   b(deterministic[d]),
                   d + 1 < std::size(kDesigns) ? "," : "");
    }
    std::fprintf(f, "  },\n  \"sweep_gamma\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepRow& row = sweep[i];
      std::fprintf(f, "    {\"rate\": %.6g", row.rate);
      for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
        std::fprintf(f, ", \"%s\": %.2f", designKey(kDesigns[d]), row.ssim[d]);
      }
      std::fprintf(f, "}%s\n", i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"sweep_compositing\": [\n");
    for (std::size_t i = 0; i < sweepComp.size(); ++i) {
      const SweepRow& row = sweepComp[i];
      std::fprintf(f, "    {\"rate\": %.6g", row.rate);
      for (std::size_t d = 0; d < std::size(kDesigns); ++d) {
        std::fprintf(f, ", \"%s\": %.2f", designKey(kDesigns[d]), row.ssim[d]);
      }
      std::fprintf(f, "}%s\n", i + 1 < sweepComp.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"mitigation\": [\n");
    for (std::size_t i = 0; i < mit.size(); ++i) {
      std::fprintf(
          f,
          "    {\"design\": \"%s\", \"mitigation\": \"%s\", \"ssim\": %.2f, "
          "\"op_overhead\": %.2f}%s\n",
          designKey(mit[i].design), mit[i].label, mit[i].ssim,
          mit[i].opOverhead, i + 1 < mit.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"endurance\": [\n");
    for (std::size_t i = 0; i < endurance.size(); ++i) {
      std::fprintf(f,
                   "    {\"preload_megacycles\": %.0f, \"ssim\": %.2f}%s\n",
                   endurance[i].preloadMegaCycles, endurance[i].ssim,
                   i + 1 < endurance.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::puts("wrote BENCH_reliability.json");
  }
  return 0;
}
