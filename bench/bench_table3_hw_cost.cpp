// Reproduces paper Table III: hardware cost (total latency ns / total
// energy nJ) of the CMOS-based and ReRAM-based SC designs at N = 256, plus
// the Sec. IV-B IMSNG-naive vs IMSNG-opt per-conversion comparison.
//
// CMOS rows are the paper's synthesized 45nm numbers (dataset in
// energy/cmos_baseline.*); ReRAM rows are *measured from simulation*: the
// accelerator executes each flow, the event ledger is priced by the
// calibrated cost model (energy/calibration.hpp documents the derivations).
#include <cstdio>

#include "core/accelerator.hpp"
#include "energy/calibration.hpp"
#include "energy/cmos_baseline.hpp"
#include "energy/cost_model.hpp"
#include "energy/report.hpp"

namespace {

using namespace aimsc;

struct Measured {
  double latencyNs;
  double energyNJ;
};

core::AcceleratorConfig reramConfig(core::ImsngConfig::Variant variant) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  cfg.commitSbs = false;  // Table III reports the conversion+op logic
  cfg.imsngVariant = variant;
  return cfg;
}

Measured measureOp(energy::ScOpKind op) {
  core::Accelerator acc(reramConfig(core::ImsngConfig::Variant::Opt));
  sc::Bitstream y;
  sc::Bitstream x;
  sc::Bitstream out;
  acc.encodeProbInto(y, 0.8);
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(x, 0.4);
  switch (op) {
    case energy::ScOpKind::Multiplication:
      acc.ops().multiplyInto(out, x, y);
      break;
    case energy::ScOpKind::ScaledAddition: {
      acc.ops().scaledAddInto(out, x, y, y);
      break;
    }
    case energy::ScOpKind::ApproxAddition:
      acc.ops().addApproxInto(out, x, y);
      break;
    case energy::ScOpKind::AbsSubtraction:
      acc.ops().absSubInto(out, x, y);
      break;
    case energy::ScOpKind::Division:
      acc.ops().divideInto(out, x, y);
      break;
    case energy::ScOpKind::Minimum:
      acc.ops().minimumInto(out, x, y);
      break;
    case energy::ScOpKind::Maximum:
      acc.ops().maximumInto(out, x, y);
      break;
  }
  const auto cost = energy::CostModel(256).cost(acc.events());
  return {cost.totalLatencyNs(), cost.totalEnergyNJ()};
}

Measured measureConversion(core::ImsngConfig::Variant variant) {
  core::Accelerator acc(reramConfig(variant));
  sc::Bitstream s;
  acc.encodeProbInto(s, 0.5);
  acc.resetEvents();
  acc.encodeProbCorrelatedInto(s, 0.5);
  const auto cost = energy::CostModel(256).cost(acc.events());
  return {cost.totalLatencyNs(), cost.totalEnergyNJ()};
}

}  // namespace

int main() {
  std::puts("Table III: hardware cost evaluation, N = 256\n");

  const energy::ScOpKind ops[] = {
      energy::ScOpKind::Multiplication, energy::ScOpKind::ScaledAddition,
      energy::ScOpKind::AbsSubtraction, energy::ScOpKind::Division};

  std::puts("CMOS-based design (paper dataset, Synopsys DC 45 nm):");
  energy::Table cmos({"SNG", "SC operation", "Total latency (ns)",
                      "Total energy (nJ)"});
  for (const auto sng : {energy::CmosSng::Lfsr, energy::CmosSng::Sobol}) {
    for (const auto op : ops) {
      const auto c = energy::cmosScCost(sng, op, 256);
      cmos.addRow({energy::cmosSngName(sng), energy::scOpName(op),
                   energy::fmt(c.latencyNs, 2), energy::fmt(c.energyNJ, 2)});
    }
    cmos.addRule();
  }
  std::fputs(cmos.toString().c_str(), stdout);

  std::puts("\nReRAM-based design (measured from the simulator event ledger):");
  energy::Table rr({"SNG", "SC operation", "Total latency (ns)",
                    "Total energy (nJ)", "Paper (ns / nJ)"});
  const char* paperRef[] = {"80.8 / 3.50", "80.8 / 3.50", "81.6 / 3.51",
                            "12544.0 / 4.48"};
  int i = 0;
  for (const auto op : ops) {
    const Measured m = measureOp(op);
    rr.addRow({"IMSNG-opt", energy::scOpName(op), energy::fmt(m.latencyNs, 1),
               energy::fmt(m.energyNJ, 2), paperRef[i++]});
  }
  std::fputs(rr.toString().c_str(), stdout);
  std::printf("S-to-B: 8-bit ADC [ISAAC]: %.2f ns / %.4f nJ per conversion\n",
              energy::cal::kTAdcNs, energy::cal::kEAdcNJ);

  std::puts("\nIMSNG variants, per conversion (paper Sec. IV-B:"
            " naive 395.4 ns / 10.23 nJ, opt 78.2 ns / 3.42 nJ):");
  energy::Table var({"Variant", "Latency (ns)", "Energy (nJ)"});
  const Measured naive = measureConversion(core::ImsngConfig::Variant::Naive);
  const Measured opt = measureConversion(core::ImsngConfig::Variant::Opt);
  var.addRow({"IMSNG-naive", energy::fmt(naive.latencyNs, 1),
              energy::fmt(naive.energyNJ, 2)});
  var.addRow({"IMSNG-opt", energy::fmt(opt.latencyNs, 1),
              energy::fmt(opt.energyNJ, 2)});
  var.addRow({"naive / opt", energy::fmt(naive.latencyNs / opt.latencyNs, 2),
              energy::fmt(naive.energyNJ / opt.energyNJ, 2)});
  std::fputs(var.toString().c_str(), stdout);
  return 0;
}
