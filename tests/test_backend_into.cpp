// Conformance of the destination-passing (*Into) ScBackend forms on every
// substrate.  The allocating forms are base wrappers over the *Into forms,
// so the op-level test checks that plumbing (destination sizing, epochs,
// event/op accounting); the kernel-level oracles below are verbatim copies
// of the pre-arena allocating row loops, run against the fused kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/morphology.hpp"
#include "apps/runner.hpp"
#include "core/backend.hpp"
#include "core/stream_arena.hpp"
#include "img/image.hpp"
#include "img/synth.hpp"
#include "sc/bernstein.hpp"

namespace aimsc::core {
namespace {

// --- op-level conformance ---------------------------------------------------

class IntoConformance : public ::testing::TestWithParam<DesignKind> {
 protected:
  std::unique_ptr<ScBackend> make() const {
    BackendFactoryConfig cfg;
    cfg.streamLength = 256;
    cfg.seed = 0xabcd;
    return makeBackend(GetParam(), cfg);
  }

  /// Full payload equality: exactly one member is live per substrate, the
  /// others compare equal at their defaults.
  static void expectSame(const ScValue& a, const ScValue& b,
                         const char* what) {
    EXPECT_EQ(a.stream, b.stream) << what;
    EXPECT_EQ(a.prob, b.prob) << what;
    EXPECT_EQ(a.word, b.word) << what;
  }
};

TEST_P(IntoConformance, EveryOpMatchesAllocatingFormCallForCall) {
  // Two identically seeded backends driven through the SAME call sequence:
  // `a` through the allocating forms, `i` through the *Into forms.  Any
  // divergence in randomness-epoch bookkeeping would desynchronize the
  // streams immediately.
  const auto a = make();
  const auto i = make();
  const std::vector<std::uint8_t> xs{10, 100, 200};
  const std::vector<std::uint8_t> ys{30, 60, 250};

  auto ax = a->encodePixels(xs);
  auto ay = a->encodePixelsCorrelated(ys);
  std::vector<ScValue> ix(xs.size());
  std::vector<ScValue> iy(ys.size());
  i->encodePixelsInto(xs, ix);
  i->encodePixelsCorrelatedInto(ys, iy);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    expectSame(ax[k], ix[k], "encodePixels");
    expectSame(ay[k], iy[k], "encodePixelsCorrelated");
  }

  ScValue dst;
  expectSame(a->multiply(ax[0], ax[1]),
             (i->multiplyInto(dst, ix[0], ix[1]), dst), "multiply");
  const ScValue ah = a->halfStream();
  ScValue ih;
  i->halfStreamInto(ih);
  expectSame(ah, ih, "halfStream");
  expectSame(a->scaledAdd(ax[0], ax[1], ah),
             (i->scaledAddInto(dst, ix[0], ix[1], ih), dst), "scaledAdd");
  expectSame(a->addApprox(ax[0], ax[1]),
             (i->addApproxInto(dst, ix[0], ix[1]), dst), "addApprox");
  expectSame(a->absSub(ax[0], ay[0]),
             (i->absSubInto(dst, ix[0], iy[0]), dst), "absSub");
  expectSame(a->minimum(ax[0], ay[0]),
             (i->minimumInto(dst, ix[0], iy[0]), dst), "minimum");
  expectSame(a->maximum(ax[0], ay[0]),
             (i->maximumInto(dst, ix[0], iy[0]), dst), "maximum");
  expectSame(a->majMux(ax[0], ay[0], ax[2]),
             (i->majMuxInto(dst, ix[0], iy[0], ix[2]), dst), "majMux");
  expectSame(a->majMux4(ax[0], ax[1], ay[0], ay[1], ax[2], ay[2]),
             (i->majMux4Into(dst, ix[0], ix[1], iy[0], iy[1], ix[2], iy[2]),
              dst),
             "majMux4");
  expectSame(a->divide(ax[0], ay[2]),
             (i->divideInto(dst, ix[0], iy[2]), dst), "divide");

  const ScValue ac = a->encodeProb(0.3);
  ScValue ic;
  i->encodeProbInto(ic, 0.3);
  expectSame(ac, ic, "encodeProb");

  // Bernstein: the epoch-advancing encodeCopies + the select network.
  const auto aCopies = a->encodeCopies(140, 3);
  std::vector<ScValue> iCopies(3);
  i->encodeCopiesInto(140, iCopies);
  for (std::size_t k = 0; k < 3; ++k) {
    expectSame(aCopies[k], iCopies[k], "encodeCopies");
  }
  std::vector<ScValue> aCoeffs;
  std::vector<ScValue> iCoeffs(4);
  for (const double bk : {0.0, 0.25, 0.5, 1.0}) aCoeffs.push_back(a->encodeProb(bk));
  std::size_t ci = 0;
  for (const double bk : {0.0, 0.25, 0.5, 1.0}) i->encodeProbInto(iCoeffs[ci++], bk);
  ScValue iSel;
  i->bernsteinSelectInto(iSel, iCopies, iCoeffs);
  expectSame(a->bernsteinSelect(aCopies, aCoeffs), iSel, "bernsteinSelect");

  // Decode: borrow-based Into vs consuming allocating form.
  std::vector<std::uint8_t> iDecoded(ix.size());
  i->decodePixelsInto(iy, iDecoded);
  const auto aDecoded = a->decodePixels(ay);
  EXPECT_EQ(aDecoded, iDecoded) << "decodePixels";

  // Events and op counters advanced identically through both forms.
  EXPECT_EQ(a->events(), i->events());
  EXPECT_EQ(a->opCount(), i->opCount());
}

TEST_P(IntoConformance, IntoOpsAllowDestinationAliasing) {
  const auto a = make();
  const auto i = make();
  const auto ax = a->encodePixels(std::vector<std::uint8_t>{180});
  const auto ay = a->encodePixelsCorrelated(std::vector<std::uint8_t>{70});
  std::vector<ScValue> ix(1);
  std::vector<ScValue> iy(1);
  i->encodePixelsInto(std::vector<std::uint8_t>{180}, ix);
  i->encodePixelsCorrelatedInto(std::vector<std::uint8_t>{70}, iy);

  // The morphology fold shape: dst aliases the first operand.
  ScValue aAcc = ax[0];
  aAcc = a->minimum(aAcc, ay[0]);
  aAcc = a->maximum(aAcc, ax[0]);
  ScValue iAcc = ix[0];
  i->minimumInto(iAcc, iAcc, iy[0]);
  i->maximumInto(iAcc, iAcc, ix[0]);
  EXPECT_EQ(aAcc.stream, iAcc.stream);
  EXPECT_EQ(aAcc.prob, iAcc.prob);
  EXPECT_EQ(aAcc.word, iAcc.word);
}

TEST_P(IntoConformance, SizeMismatchThrows) {
  const auto b = make();
  const std::vector<std::uint8_t> values{1, 2, 3};
  std::vector<ScValue> wrong(2);
  EXPECT_THROW(b->encodePixelsInto(values, wrong), std::invalid_argument);
  EXPECT_THROW(b->encodePixelsCorrelatedInto(values, wrong),
               std::invalid_argument);
  std::vector<ScValue> three(3);
  b->encodePixelsInto(values, three);
  std::vector<std::uint8_t> out2(2);
  EXPECT_THROW(b->decodePixelsInto(three, out2), std::invalid_argument);
  // bernsteinSelectInto enforces the allocating wrapper's contract.
  ScValue dst;
  std::vector<ScValue> copies(2);
  b->encodeCopiesInto(99, copies);
  std::vector<ScValue> tooFew(2);
  EXPECT_THROW(b->bernsteinSelectInto(dst, copies, tooFew),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IntoConformance,
    ::testing::Values(DesignKind::Reference, DesignKind::SwScLfsr,
                      DesignKind::SwScSobol, DesignKind::SwScSfmt,
                      DesignKind::SwScSimd, DesignKind::ReramSc,
                      DesignKind::BinaryCim),
    [](const ::testing::TestParamInfo<DesignKind>& info) {
      switch (info.param) {
        case DesignKind::Reference: return "Reference";
        case DesignKind::SwScLfsr: return "SwScLfsr";
        case DesignKind::SwScSobol: return "SwScSobol";
        case DesignKind::SwScSfmt: return "SwScSfmt";
        case DesignKind::SwScSimd: return "SwScSimd";
        case DesignKind::ReramSc: return "ReramSc";
        case DesignKind::BinaryCim: return "BinaryCim";
      }
      return "Unknown";
    });

// --- kernel-level conformance: fused vs verbatim allocating loops -----------
//
// Each seed* function is the pre-arena (PR-4) allocating kernel body,
// running against the allocating backend API only.

img::Image seedComposite(const apps::CompositingScene& scene, ScBackend& b) {
  const std::size_t w = scene.background.width();
  img::Image out(w, scene.background.height());
  std::vector<std::uint8_t> frow(w), brow(w), arow(w);
  std::vector<ScValue> blended(w);
  for (std::size_t y = 0; y < out.height(); ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      frow[x] = scene.foreground.at(x, y);
      brow[x] = scene.background.at(x, y);
      arow[x] = scene.alpha.at(x, y);
    }
    const auto fs = b.encodePixels(frow);
    const auto bs = b.encodePixelsCorrelated(brow);
    const auto as = b.encodePixels(arow);
    for (std::size_t x = 0; x < w; ++x) blended[x] = b.majMux(fs[x], bs[x], as[x]);
    const auto row = b.decodePixels(blended);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = row[x];
  }
  return out;
}

img::Image seedUpscale(const img::Image& src, std::size_t factor, ScBackend& b) {
  const std::size_t W = src.width() * factor;
  const std::size_t H = src.height() * factor;
  img::Image out(W, H);
  std::vector<std::uint8_t> data(4 * W), dxRow(W);
  std::vector<ScValue> blended(W);
  for (std::size_t Y = 0; Y < H; ++Y) {
    const apps::SampleCoord cy = apps::mapCoord(Y, H, src.height());
    for (std::size_t X = 0; X < W; ++X) {
      const apps::SampleCoord cx = apps::mapCoord(X, W, src.width());
      data[X] = src.at(cx.i0, cy.i0);
      data[W + X] = src.at(cx.i0, cy.i1);
      data[2 * W + X] = src.at(cx.i1, cy.i0);
      data[3 * W + X] = src.at(cx.i1, cy.i1);
      dxRow[X] = cx.frac;
    }
    const auto ds = b.encodePixels(data);
    const auto sxs = b.encodePixels(dxRow);
    const ScValue sy = b.encodePixel(cy.frac);
    for (std::size_t X = 0; X < W; ++X) {
      blended[X] = b.majMux4(ds[X], ds[W + X], ds[2 * W + X], ds[3 * W + X],
                             sxs[X], sy);
    }
    const auto row = b.decodePixels(blended);
    for (std::size_t X = 0; X < W; ++X) out.at(X, Y) = row[X];
  }
  return out;
}

img::Image seedMatting(const apps::MattingScene& scene, ScBackend& b) {
  const std::size_t w = scene.composite.width();
  img::Image out(w, scene.composite.height());
  std::vector<std::uint8_t> irow(w), brow(w), frow(w);
  std::vector<ScValue> quotients(w);
  for (std::size_t y = 0; y < out.height(); ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      irow[x] = scene.composite.at(x, y);
      brow[x] = scene.background.at(x, y);
      frow[x] = scene.foreground.at(x, y);
    }
    const auto is = b.encodePixels(irow);
    const auto bs = b.encodePixelsCorrelated(brow);
    const auto fs = b.encodePixelsCorrelated(frow);
    for (std::size_t x = 0; x < w; ++x) {
      const ScValue num = b.absSub(is[x], bs[x]);
      const ScValue den = b.absSub(fs[x], bs[x]);
      quotients[x] = b.divide(num, den);
    }
    const auto row = b.decodePixelsStored(quotients);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = row[x];
  }
  return out;
}

constexpr int kNb[8][2] = {{-1, -1}, {1, 1}, {-1, 1}, {1, -1},
                           {-1, 0},  {1, 0}, {0, -1}, {0, 1}};

img::Image seedSmooth(const img::Image& src, ScBackend& b) {
  img::Image out = src;
  if (src.width() < 3 || src.height() < 3) return out;
  const std::size_t iw = src.width() - 2;
  std::vector<std::uint8_t> data(8 * iw);
  std::vector<ScValue> means(iw);
  for (std::size_t y = 1; y + 1 < src.height(); ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      for (int i = 0; i < 8; ++i) {
        data[static_cast<std::size_t>(i) * iw + (x - 1)] =
            src.at(x + static_cast<std::size_t>(kNb[i][0]),
                   y + static_cast<std::size_t>(kNb[i][1]));
      }
    }
    const auto ns = b.encodePixels(data);
    ScValue half[7];
    for (auto& h : half) h = b.halfStream();
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      const std::size_t c = x - 1;
      ScValue l1[4];
      for (std::size_t i = 0; i < 4; ++i) {
        l1[i] = b.scaledAdd(ns[2 * i * iw + c], ns[(2 * i + 1) * iw + c], half[i]);
      }
      const ScValue l2a = b.scaledAdd(l1[0], l1[1], half[4]);
      const ScValue l2b = b.scaledAdd(l1[2], l1[3], half[5]);
      means[c] = b.scaledAdd(l2a, l2b, half[6]);
    }
    const auto row = b.decodePixels(means);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) out.at(x, y) = row[x - 1];
  }
  return out;
}

img::Image seedEdge(const img::Image& src, ScBackend& b) {
  img::Image out(src.width(), src.height(), 0);
  if (src.width() < 2 || src.height() < 2) return out;
  const std::size_t iw = src.width() - 1;
  std::vector<std::uint8_t> data(4 * iw);
  std::vector<ScValue> mags(iw);
  for (std::size_t y = 0; y + 1 < src.height(); ++y) {
    for (std::size_t x = 0; x + 1 < src.width(); ++x) {
      data[x] = src.at(x, y);
      data[iw + x] = src.at(x + 1, y + 1);
      data[2 * iw + x] = src.at(x + 1, y);
      data[3 * iw + x] = src.at(x, y + 1);
    }
    const auto ws = b.encodePixels(data);
    const ScValue half = b.halfStream();
    for (std::size_t x = 0; x + 1 < src.width(); ++x) {
      const ScValue g1 = b.absSub(ws[x], ws[iw + x]);
      const ScValue g2 = b.absSub(ws[2 * iw + x], ws[3 * iw + x]);
      mags[x] = b.scaledAdd(g1, g2, half);
    }
    const auto row = b.decodePixels(mags);
    for (std::size_t x = 0; x + 1 < src.width(); ++x) out.at(x, y) = row[x];
  }
  return out;
}

img::Image seedGamma(const img::Image& src, double gamma, ScBackend& b,
                     int degree) {
  const std::vector<double> coeffValues = sc::bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, degree);
  img::Image out(src.width(), src.height());
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      const auto xCopies =
          b.encodeCopies(src.at(x, y), static_cast<std::size_t>(degree));
      std::vector<ScValue> coeffs;
      for (const double bk : coeffValues) coeffs.push_back(b.encodeProb(bk));
      out.at(x, y) = b.decodePixel(b.bernsteinSelect(xCopies, coeffs));
    }
  }
  return out;
}

constexpr int kWin[9][2] = {{0, 0},  {-1, -1}, {0, -1}, {1, -1}, {-1, 0},
                            {1, 0},  {-1, 1},  {0, 1},  {1, 1}};

template <typename Fold>
img::Image seedMorph(const img::Image& src, ScBackend& b, Fold&& fold) {
  img::Image out = src;
  if (src.width() < 3 || src.height() < 3) return out;
  const std::size_t iw = src.width() - 2;
  std::vector<std::uint8_t> data(9 * iw);
  std::vector<ScValue> folded(iw);
  for (std::size_t y = 1; y + 1 < src.height(); ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      for (int i = 0; i < 9; ++i) {
        data[static_cast<std::size_t>(i) * iw + (x - 1)] =
            src.at(x + static_cast<std::size_t>(kWin[i][0]),
                   y + static_cast<std::size_t>(kWin[i][1]));
      }
    }
    const auto ws = b.encodePixels(data);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      const std::size_t c = x - 1;
      ScValue acc = ws[c];
      for (std::size_t i = 1; i < 9; ++i) acc = fold(b, acc, ws[i * iw + c]);
      folded[c] = std::move(acc);
    }
    const auto row = b.decodePixels(folded);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) out.at(x, y) = row[x - 1];
  }
  return out;
}

class FusedKernelConformance : public ::testing::TestWithParam<DesignKind> {
 protected:
  std::unique_ptr<ScBackend> make() const {
    BackendFactoryConfig cfg;
    cfg.streamLength = 128;
    cfg.seed = 0x77;
    return makeBackend(GetParam(), cfg);
  }
};

TEST_P(FusedKernelConformance, AllSevenKernelsMatchAllocatingOracles) {
  const apps::CompositingScene scene = apps::makeCompositingScene(14, 10, 5);
  const apps::MattingScene mscene = apps::makeMattingScene(12, 8, 3);
  const img::Image src = img::naturalScene(12, 9, 21);

  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::compositeKernel(scene, *f).pixels(),
              seedComposite(scene, *a).pixels())
        << "compositing";
    EXPECT_EQ(a->events(), f->events());
    EXPECT_EQ(a->opCount(), f->opCount());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::upscaleKernel(src, 2, *f).pixels(),
              seedUpscale(src, 2, *a).pixels())
        << "bilinear";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::mattingKernel(mscene, *f).pixels(),
              seedMatting(mscene, *a).pixels())
        << "matting";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::smoothKernel(src, *f).pixels(),
              seedSmooth(src, *a).pixels())
        << "smooth";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::edgeKernel(src, *f).pixels(), seedEdge(src, *a).pixels())
        << "edge";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::gammaKernel(src, 2.2, *f, 4).pixels(),
              seedGamma(src, 2.2, *a, 4).pixels())
        << "gamma";
    EXPECT_EQ(a->events(), f->events());
    EXPECT_EQ(a->opCount(), f->opCount());
  }
  {
    auto a = make();
    auto f = make();
    const auto minFold = [](ScBackend& b, const ScValue& x, const ScValue& y) {
      return b.minimum(x, y);
    };
    EXPECT_EQ(apps::erodeKernel(src, *f).pixels(),
              seedMorph(src, *a, minFold).pixels())
        << "erode";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    const auto maxFold = [](ScBackend& b, const ScValue& x, const ScValue& y) {
      return b.maximum(x, y);
    };
    EXPECT_EQ(apps::dilateKernel(src, *f).pixels(),
              seedMorph(src, *a, maxFold).pixels())
        << "dilate";
    EXPECT_EQ(a->events(), f->events());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, FusedKernelConformance,
    ::testing::Values(DesignKind::Reference, DesignKind::SwScLfsr,
                      DesignKind::SwScSobol, DesignKind::SwScSfmt,
                      DesignKind::SwScSimd, DesignKind::ReramSc,
                      DesignKind::BinaryCim),
    [](const ::testing::TestParamInfo<DesignKind>& info) {
      switch (info.param) {
        case DesignKind::Reference: return "Reference";
        case DesignKind::SwScLfsr: return "SwScLfsr";
        case DesignKind::SwScSobol: return "SwScSobol";
        case DesignKind::SwScSfmt: return "SwScSfmt";
        case DesignKind::SwScSimd: return "SwScSimd";
        case DesignKind::ReramSc: return "ReramSc";
        case DesignKind::BinaryCim: return "BinaryCim";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace aimsc::core
