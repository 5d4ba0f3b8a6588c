#include "logic/synth.hpp"

#include <stdexcept>
#include <string>

namespace aimsc::logic {

namespace {

/// Input name: \p prefix then the bit index ("a7", "r0").  Appending to a
/// one-character string keeps GCC 12's -Wrestrict false positive on
/// `"a" + std::to_string(i)` out of the build.
std::string inputName(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

/// Core construction shared by the generic and constant-folded builders:
/// A literal vector (constants or inputs) compared against R inputs.
GreaterThanNetwork buildCore(int nbits, const std::uint32_t* aValue) {
  if (nbits < 1 || nbits > 31) {
    throw std::invalid_argument("buildGreaterThan: nbits out of range");
  }
  GreaterThanNetwork net;
  std::vector<Literal> aLits;
  for (int i = nbits - 1; i >= 0; --i) {  // MSB first
    if (aValue == nullptr) {
      const Literal l = net.xag.addInput(inputName('a', i));
      net.aInputs.push_back(l);
      aLits.push_back(l);
    } else {
      const bool bit = ((*aValue) >> i) & 1u;
      aLits.push_back(bit ? net.xag.constantTrue() : net.xag.constantFalse());
    }
  }
  for (int i = nbits - 1; i >= 0; --i) {
    net.rInputs.push_back(net.xag.addInput(inputName('r', i)));
  }

  Xag& g = net.xag;
  Literal flag = g.constantTrue();   // "all higher bits equal so far"
  Literal out = g.constantFalse();   // greater-than detected
  for (int i = 0; i < nbits; ++i) {
    const Literal a = aLits[static_cast<std::size_t>(i)];
    const Literal r = net.rInputs[static_cast<std::size_t>(i)];
    const Literal neq = g.addXor(a, r);                         // A_i != R_i
    const Literal gt = g.addAnd(a, complementLiteral(r));       // A_i > R_i
    const Literal term = g.addAnd(flag, gt);                    // first divergence wins
    out = g.addOr(out, term);
    flag = g.addAnd(flag, complementLiteral(neq));              // still equal
  }
  net.output = out;
  g.addOutput(out);
  return net;
}

}  // namespace

GreaterThanNetwork buildGreaterThan(int nbits) { return buildCore(nbits, nullptr); }

GreaterThanNetwork buildGreaterThanConst(std::uint32_t aValue, int nbits) {
  if (nbits < 31 && aValue >= (std::uint32_t{1} << nbits)) {
    throw std::invalid_argument("buildGreaterThanConst: value does not fit");
  }
  return buildCore(nbits, &aValue);
}

SlSchedule scheduleForSl(const Xag& xag) {
  return SlSchedule{xag.numGatesInCone(), xag.depth()};
}

}  // namespace aimsc::logic
