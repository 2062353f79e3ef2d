// Bit-identity battery for the lane-vectorized (struct-of-arrays) batch hot
// path.  Every batch primitive vectorizes ONLY across the window/lane
// dimension and keeps the scalar per-window accumulation order, so its
// output must equal the scalar path's to the last bit -- at every layer:
// the lane-tile kernels in every ISA build the host runs, FFT, CWT (full
// transform and sparse extraction), fused feature transform, blocked
// Mahalanobis/QDA scoring.  Per-window classify() is itself a one-window
// batch, so the full hierarchical classify_batch is held to batch-n vs
// batch-1 invariance (batch sizes, mixed content, mixed trace lengths,
// streaming worker counts) and to frozen goldens of the former per-window
// path (tests/golden/).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/csa.hpp"
#include "core/hierarchical.hpp"
#include "core/serialize.hpp"
#include "dsp/fft.hpp"
#include "dsp/wavelet.hpp"
#include "features/pipeline.hpp"
#include "golden.hpp"
#include "linalg/lane_kernels.hpp"
#include "ml/discriminant.hpp"
#include "runtime/streaming.hpp"
#include "sim/acquisition.hpp"
#include "stats/gaussian.hpp"
#include "stats/pca.hpp"

namespace sidis {
namespace {

// Kernel-level identity sweeps run every lane count up to here: one and two
// full 16-lane tiles, alone and followed by every 8/4/2/1 tail combination.
constexpr std::size_t kSweepLanes = 40;

std::vector<double> random_signal(std::size_t n, std::mt19937_64& rng) {
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) v = dist(rng);
  return out;
}

// Same bits, not just equal values (+0.0 vs -0.0 and NaN payloads count).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// -- lane-tile kernels, every ISA build ---------------------------------------

TEST(LaneKernels, DispatcherPicksWidestSupportedBuild) {
  const std::vector<const linalg::LaneKernels*> builds = linalg::lane_kernel_builds();
  ASSERT_FALSE(builds.empty());
  EXPECT_EQ(&linalg::lane_kernels(), builds.back());
  EXPECT_STREQ(linalg::lane_isa(), builds.back()->isa);
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_STREQ(builds.front()->isa, "sse2");
  const char* widest = __builtin_cpu_supports("avx512f") ? "avx512"
                       : __builtin_cpu_supports("avx2")  ? "avx2"
                                                         : "sse2";
  EXPECT_STREQ(linalg::lane_isa(), widest);
#endif
}

// Each ISA build is called directly on the raw kernels -- the sparse CWT
// gather and direct CWT rows (dots), the PCA projection and the Cholesky
// forward solve behind Mahalanobis/QDA -- and must reproduce the scalar
// reference, hence the baseline build, bit for bit at every lane count.
TEST(LaneKernels, EveryIsaBuildMatchesScalarReferenceBitForBit) {
  std::mt19937_64 rng(41);
  const auto random_vec = [&](std::size_t n) { return random_signal(n, rng); };

  // dots: 7 jobs (not a multiple of any interleave) with unequal tap counts,
  // as coefficients_soa sees them, and 9 equal-length jobs as direct rows.
  const std::vector<double> kern = random_vec(19);
  const std::vector<std::vector<std::size_t>> tap_sets = {
      {19, 3, 11, 1, 19, 7, 5}, {13, 13, 13, 13, 13, 13, 13, 13, 12}};
  // projection: 23 points onto 9 of 11 stored components.
  const std::size_t points = 23, stride = 11, components = 9;
  const std::vector<double> axes = random_vec(points * stride);
  // forward solve: an odd-sized SPD factor.
  const std::size_t dim = 13;
  linalg::Matrix a(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) a(r, c) = random_signal(1, rng)[0];
  }
  linalg::Matrix spd(dim, dim, 0.0);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      for (std::size_t k = 0; k < dim; ++k) spd(r, c) += a(k, r) * a(k, c);
    }
    spd(r, r) += 1.0;
  }
  const linalg::Cholesky chol = linalg::Cholesky::compute(spd);
  ASSERT_TRUE(chol.valid);
  const double* lf = chol.l.data().data();

  const std::vector<const linalg::LaneKernels*> builds = linalg::lane_kernel_builds();
  for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
    const std::vector<double> x = random_vec(21 * lanes);  // rows 0..20
    const std::vector<double> f = random_vec(points * lanes);
    const std::vector<double> xs = random_vec(dim * lanes);

    // Scalar references, in the scalar paths' operation order.
    std::vector<std::vector<double>> dots_ref;
    for (const auto& taps : tap_sets) {
      std::vector<double> ref(taps.size() * lanes);
      for (std::size_t j = 0; j < taps.size(); ++j) {
        for (std::size_t l = 0; l < lanes; ++l) {
          double acc = 0.0;
          for (std::size_t d = 0; d < taps[j]; ++d) {
            acc += kern[19 - taps[j] + d] * x[(j % 3 + d) * lanes + l];
          }
          ref[j * lanes + l] = acc;
        }
      }
      dots_ref.push_back(ref);
    }
    std::vector<double> z_ref(components * lanes);
    for (std::size_t c = 0; c < components; ++c) {
      for (std::size_t l = 0; l < lanes; ++l) {
        double acc = 0.0;
        for (std::size_t p = 0; p < points; ++p) acc += axes[p * stride + c] * f[p * lanes + l];
        z_ref[c * lanes + l] = acc;
      }
    }
    std::vector<double> y_ref(dim * lanes), out_ref(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      linalg::Vector col(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        double v = xs[i * lanes + l];
        for (std::size_t k = 0; k < i; ++k) v -= chol.l(i, k) * y_ref[k * lanes + l];
        y_ref[i * lanes + l] = v / chol.l(i, i);
        col[i] = xs[i * lanes + l];
      }
      out_ref[l] = chol.mahalanobis_squared(col);
    }

    for (const linalg::LaneKernels* build : builds) {
      const std::string where = std::string(build->isa) + " lanes " + std::to_string(lanes);
      for (std::size_t s = 0; s < tap_sets.size(); ++s) {
        const auto& taps = tap_sets[s];
        std::vector<double> got(taps.size() * lanes, -1.0);
        std::vector<linalg::LaneDot> jobs;
        for (std::size_t j = 0; j < taps.size(); ++j) {
          jobs.push_back({kern.data() + (19 - taps[j]), x.data() + (j % 3) * lanes, taps[j],
                          got.data() + j * lanes});
        }
        build->dots(jobs.data(), jobs.size(), lanes);
        ASSERT_TRUE(same_bits(got, dots_ref[s])) << "dots set " << s << ", " << where;
      }
      std::vector<double> z(components * lanes, -1.0);
      build->project(axes.data(), stride, points, components, f.data(), lanes, lanes,
                     z.data());
      ASSERT_TRUE(same_bits(z, z_ref)) << "project, " << where;
      std::vector<double> y(dim * lanes, -1.0), out(lanes, -1.0);
      build->forward_solve(lf, dim, xs.data(), lanes, y.data(), out.data());
      ASSERT_TRUE(same_bits(y, y_ref)) << "forward_solve y, " << where;
      ASSERT_TRUE(same_bits(out, out_ref)) << "forward_solve out, " << where;
    }
  }
}

// The other lane axes of a bucket too small to fill a register tile: the
// per-lane-factor forward solve (classes as lanes) against the scalar
// Cholesky::mahalanobis_squared of each class, and the swapped projection
// (components as lanes, the window's centered feature column as the
// broadcast operand) against the scalar Pca::transform -- every ISA build,
// class counts 1..33 and dimensions {1, 2, 3, 5, 43, 50, 64}.
TEST(LaneKernels, ClassAndComponentLanesMatchScalarReferenceBitForBit) {
  std::mt19937_64 rng(43);
  const std::vector<const linalg::LaneKernels*> builds = linalg::lane_kernel_builds();
  constexpr std::size_t kMaxClasses = 33;
  for (const std::size_t dim : {1, 2, 3, 5, 43, 50, 64}) {
    std::vector<linalg::Cholesky> chols;
    for (std::size_t c = 0; c < kMaxClasses; ++c) {
      linalg::Matrix a(dim, dim), spd(dim, dim, 0.0);
      for (double& v : a.data()) v = random_signal(1, rng)[0];
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t col = 0; col < dim; ++col) {
          for (std::size_t k = 0; k < dim; ++k) spd(r, col) += a(k, r) * a(k, col);
        }
        spd(r, r) += 1.0;
      }
      chols.push_back(linalg::Cholesky::compute(spd));
      ASSERT_TRUE(chols.back().valid);
    }
    for (std::size_t classes = 1; classes <= kMaxClasses; ++classes) {
      std::vector<double> tri;
      tri.reserve(dim * (dim + 1) / 2 * classes);
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t k = 0; k <= i; ++k) {
          for (std::size_t c = 0; c < classes; ++c) tri.push_back(chols[c].l(i, k));
        }
      }
      const std::vector<double> xs = random_signal(dim * classes, rng);
      std::vector<double> out_ref(classes);
      for (std::size_t c = 0; c < classes; ++c) {
        linalg::Vector col(dim);
        for (std::size_t i = 0; i < dim; ++i) col[i] = xs[i * classes + c];
        out_ref[c] = chols[c].mahalanobis_squared(col);
      }
      for (const linalg::LaneKernels* build : builds) {
        std::vector<double> y(dim * classes, -1.0), out(classes, -1.0);
        build->forward_solve_lanes(tri.data(), dim, xs.data(), classes, y.data(),
                                   out.data());
        ASSERT_TRUE(same_bits(out, out_ref))
            << "forward_solve_lanes, " << build->isa << " dim " << dim << " classes "
            << classes;
      }
    }

    // Projection: `dim` points onto every k of 64 stored components, the
    // feature column read at stride 3 as a bucket's middle window.
    constexpr std::size_t kStored = 64, kBucket = 3;
    linalg::Matrix axes(dim, kStored);
    for (double& v : axes.data()) v = random_signal(1, rng)[0];
    const stats::Pca pca = stats::Pca::from_parts(
        random_signal(dim, rng), linalg::Vector(kStored, 1.0), axes, double(kStored));
    const linalg::Vector x = random_signal(dim, rng);
    std::vector<double> block(dim * kBucket, -1.0);
    for (std::size_t p = 0; p < dim; ++p) block[p * kBucket + 1] = x[p] - pca.mean()[p];
    for (std::size_t k = 1; k <= kStored; ++k) {
      const linalg::Vector z_ref = pca.transform(x, k);
      for (const linalg::LaneKernels* build : builds) {
        std::vector<double> z(k, -1.0);
        build->project(block.data() + 1, kBucket, dim, 1, axes.data().data(), kStored, k,
                       z.data());
        ASSERT_TRUE(same_bits(z, z_ref))
            << "swapped project, " << build->isa << " dim " << dim << " k " << k;
      }
    }
  }
}

// -- FFT ---------------------------------------------------------------------

TEST(FftBatch, ForwardAndInverseMatchScalarLaneForLane) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{512}}) {
    const dsp::FftPlan plan(n);
    for (const std::size_t lanes :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{16}}) {
      // Independent random complex content per lane.
      std::vector<dsp::ComplexVector> scalar(lanes, dsp::ComplexVector(n));
      dsp::BatchComplex batch;
      batch.assign(n, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto v = dsp::Complex(random_signal(1, rng)[0], random_signal(1, rng)[0]);
          scalar[l][i] = v;
          batch.re[i * lanes + l] = v.real();
          batch.im[i * lanes + l] = v.imag();
        }
      }
      plan.forward_batch(batch);
      for (std::size_t l = 0; l < lanes; ++l) plan.forward(scalar[l]);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batch.re[i * lanes + l], scalar[l][i].real())
              << "fwd n=" << n << " lane " << l << " bin " << i;
          ASSERT_EQ(batch.im[i * lanes + l], scalar[l][i].imag())
              << "fwd n=" << n << " lane " << l << " bin " << i;
        }
      }
      plan.inverse_batch(batch);
      for (std::size_t l = 0; l < lanes; ++l) plan.inverse(scalar[l]);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batch.re[i * lanes + l], scalar[l][i].real())
              << "inv n=" << n << " lane " << l << " bin " << i;
          ASSERT_EQ(batch.im[i * lanes + l], scalar[l][i].imag())
              << "inv n=" << n << " lane " << l << " bin " << i;
        }
      }
    }
  }
}

// -- CWT ---------------------------------------------------------------------

class CwtBatchTest : public ::testing::TestWithParam<dsp::CwtBackend> {};

TEST_P(CwtBatchTest, TransformBatchMatchesScalarTransforms) {
  std::mt19937_64 rng(11);
  dsp::CwtConfig cfg;
  cfg.num_scales = 12;  // spans both sides of the direct/spectral crossover
  cfg.backend = GetParam();
  const dsp::Cwt cwt(cfg);
  dsp::CwtBatchWorkspace bws;
  for (const std::size_t n : {std::size_t{315}, std::size_t{200}}) {
    std::vector<std::vector<double>> traces;
    std::vector<const std::vector<double>*> ptrs;
    std::vector<dsp::Scalogram> refs;
    for (std::size_t l = 0; l < kSweepLanes; ++l) {
      traces.push_back(random_signal(n, rng));
      refs.push_back(cwt.transform(traces.back()));
    }
    for (const auto& t : traces) ptrs.push_back(&t);
    for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
      const std::vector<dsp::Scalogram> batch =
          cwt.transform_batch({ptrs.data(), lanes}, bws);
      ASSERT_EQ(batch.size(), lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        const dsp::Scalogram& ref = refs[l];
        ASSERT_EQ(batch[l].rows(), ref.rows());
        ASSERT_EQ(batch[l].cols(), ref.cols());
        for (std::size_t j = 0; j < ref.rows(); ++j) {
          for (std::size_t k = 0; k < ref.cols(); ++k) {
            ASSERT_EQ(batch[l](j, k), ref(j, k)) << "n=" << n << " lanes " << lanes
                                                 << " lane " << l << " scale " << j
                                                 << " t " << k;
          }
        }
      }
    }
  }
}

TEST_P(CwtBatchTest, CoefficientsBatchMatchesScalarColumns) {
  std::mt19937_64 rng(13);
  dsp::CwtConfig cfg;
  cfg.num_scales = 12;
  cfg.backend = GetParam();
  const dsp::Cwt cwt(cfg);
  dsp::CwtWorkspace sws;
  dsp::CwtBatchWorkspace bws;
  const std::size_t n = 315;

  // Point pattern mixing a dense scale (enough points to cross into the
  // spectral row path), sparse scales, duplicates, and out-of-order indices.
  std::vector<std::size_t> js, ks;
  for (std::size_t k = 0; k < 40; ++k) {
    js.push_back(3);
    ks.push_back((k * 7) % n);
  }
  for (std::size_t j = 0; j < cfg.num_scales; ++j) {
    js.push_back(j);
    ks.push_back((j * 31) % n);
  }
  js.push_back(3);  // duplicate of a dense-scale point
  ks.push_back(7);

  std::vector<std::vector<double>> traces;
  std::vector<const std::vector<double>*> ptrs;
  std::vector<linalg::Vector> refs;
  for (std::size_t l = 0; l < kSweepLanes; ++l) {
    traces.push_back(random_signal(n, rng));
    refs.push_back(cwt.coefficients(traces.back(), js, ks, sws));
  }
  for (const auto& t : traces) ptrs.push_back(&t);
  for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
    const linalg::Matrix batch =
        cwt.coefficients_batch({ptrs.data(), lanes}, js, ks, bws);
    ASSERT_EQ(batch.rows(), js.size());
    ASSERT_EQ(batch.cols(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < js.size(); ++i) {
        ASSERT_EQ(batch(i, l), refs[l][i])
            << "lanes " << lanes << " lane " << l << " point " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CwtBatchTest,
                         ::testing::Values(dsp::CwtBackend::kAuto,
                                           dsp::CwtBackend::kDirect,
                                           dsp::CwtBackend::kSpectral));

TEST(CwtBatch, RejectsEmptyAndMixedLengthBatches) {
  const dsp::Cwt cwt;
  dsp::CwtBatchWorkspace ws;
  EXPECT_THROW(cwt.transform_batch({}, ws), std::invalid_argument);
  const std::vector<double> a(100, 0.0), b(101, 0.0);
  const std::vector<const std::vector<double>*> mixed{&a, &b};
  EXPECT_THROW(cwt.transform_batch({mixed.data(), mixed.size()}, ws),
               std::invalid_argument);
}

// -- linalg / stats / ml ------------------------------------------------------

TEST(LinalgBatch, MahalanobisBatchMatchesScalar) {
  std::mt19937_64 rng(17);
  const std::size_t dim = 12;
  // SPD matrix: A^T A + I.
  linalg::Matrix a(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) a(r, c) = random_signal(1, rng)[0];
  }
  linalg::Matrix spd(dim, dim, 0.0);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      for (std::size_t k = 0; k < dim; ++k) spd(r, c) += a(k, r) * a(k, c);
    }
    spd(r, r) += 1.0;
  }
  const linalg::Cholesky chol = linalg::Cholesky::compute(spd);
  ASSERT_TRUE(chol.valid);

  linalg::Matrix scratch;
  for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
    linalg::Matrix x_cols(dim, lanes);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t l = 0; l < lanes; ++l) x_cols(r, l) = random_signal(1, rng)[0];
    }
    std::vector<double> out(lanes);
    chol.mahalanobis_squared_batch(x_cols, out, scratch);
    for (std::size_t l = 0; l < lanes; ++l) {
      linalg::Vector x(dim);
      for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
      ASSERT_EQ(out[l], chol.mahalanobis_squared(x))
          << "lanes " << lanes << " lane " << l;
    }
  }
}

TEST(StatsBatch, GaussianLogPdfBatchMatchesScalar) {
  std::mt19937_64 rng(19);
  const std::size_t dim = 8, samples = 40;
  linalg::Matrix data(samples, dim);
  for (std::size_t r = 0; r < samples; ++r) {
    for (std::size_t c = 0; c < dim; ++c) data(r, c) = random_signal(1, rng)[0];
  }
  const auto g = stats::MultivariateGaussian::fit(data);

  linalg::Matrix centered, solve;
  for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
    linalg::Matrix x_cols(dim, lanes);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t l = 0; l < lanes; ++l) x_cols(r, l) = random_signal(1, rng)[0];
    }
    std::vector<double> out(lanes);
    g.log_pdf_batch(x_cols, out, centered, solve);
    for (std::size_t l = 0; l < lanes; ++l) {
      linalg::Vector x(dim);
      for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
      ASSERT_EQ(out[l], g.log_pdf(x)) << "lanes " << lanes << " lane " << l;
    }
  }
}

TEST(MlBatch, QdaPredictScoredBatchMatchesScalar) {
  std::mt19937_64 rng(23);
  const std::size_t dim = 6, per_class = 30;
  ml::Dataset train;
  train.x = linalg::Matrix(3 * per_class, dim);
  for (int cls = 0; cls < 3; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t r = static_cast<std::size_t>(cls) * per_class + i;
      for (std::size_t c = 0; c < dim; ++c) {
        train.x(r, c) = random_signal(1, rng)[0] + 2.0 * cls;
      }
      train.y.push_back(cls);
    }
  }
  ml::Qda qda;
  qda.fit(train);

  linalg::Matrix x_cols;
  for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
    x_cols = linalg::Matrix(dim, lanes);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t l = 0; l < lanes; ++l) {
        x_cols(r, l) = random_signal(1, rng)[0] + 2.0 * (l % 3);
      }
    }
    const std::vector<ml::ScoredPrediction> batch = qda.predict_scored_batch(x_cols);
    const linalg::Matrix scores = qda.scores_batch(x_cols);
    ASSERT_EQ(batch.size(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      linalg::Vector x(dim);
      for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
      const ml::ScoredPrediction ref = qda.predict_scored(x);
      ASSERT_EQ(batch[l].label, ref.label) << "lanes " << lanes << " lane " << l;
      ASSERT_EQ(batch[l].top_score, ref.top_score) << "lanes " << lanes << " lane " << l;
      ASSERT_EQ(batch[l].margin, ref.margin) << "lanes " << lanes << " lane " << l;
      const linalg::Vector sref = qda.scores(x);
      for (std::size_t c = 0; c < sref.size(); ++c) {
        ASSERT_EQ(scores(c, l), sref[c])
            << "lanes " << lanes << " lane " << l << " class " << c;
        // The per-class scalar Gaussian is the reference both axes answer to.
        ASSERT_EQ(sref[c], qda.models()[c].log_pdf(x) + qda.log_priors()[c])
            << "lanes " << lanes << " lane " << l << " class " << c;
      }
    }
  }

  // The base-class fallback (classifiers without a vectorized override) must
  // satisfy the same contract.
  ml::Lda lda;
  lda.fit(train);
  const ml::Classifier& base = lda;
  const std::vector<ml::ScoredPrediction> fallback = base.predict_scored_batch(x_cols);
  for (std::size_t l = 0; l < x_cols.cols(); ++l) {
    linalg::Vector x(dim);
    for (std::size_t r = 0; r < dim; ++r) x[r] = x_cols(r, l);
    const ml::ScoredPrediction ref = lda.predict_scored(x);
    EXPECT_EQ(fallback[l].label, ref.label);
    EXPECT_EQ(fallback[l].top_score, ref.top_score);
    EXPECT_EQ(fallback[l].margin, ref.margin);
  }
}

// Buckets below linalg::kWindowLanesMin score with the classes as lanes,
// larger ones with the windows as lanes: every window of a 1..16-lane call
// must carry the bits of its column in a 64-lane call, here on enough
// classes (20) to fill a class tile and a tail.
TEST(MlBatch, QdaSmallBucketsMatchTheColumnsOfA64LaneCall) {
  std::mt19937_64 rng(47);
  const std::size_t dim = 11, per_class = 24, classes = 20;
  ml::Dataset train;
  train.x = linalg::Matrix(classes * per_class, dim);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      for (std::size_t c = 0; c < dim; ++c) {
        train.x(cls * per_class + i, c) =
            random_signal(1, rng)[0] + 0.5 * double((cls * 7 + c) % 5);
      }
      train.y.push_back(static_cast<int>(cls));
    }
  }
  ml::Qda qda;
  qda.fit(train);

  linalg::Matrix all(dim, 64);
  for (double& v : all.data()) v = 2.0 * random_signal(1, rng)[0];
  const linalg::Matrix ref = qda.scores_batch(all);
  for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
    for (std::size_t first = 0; first + lanes <= 64; first += 13) {
      linalg::Matrix x(dim, lanes);
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t l = 0; l < lanes; ++l) x(r, l) = all(r, first + l);
      }
      const linalg::Matrix got = qda.scores_batch(x);
      for (std::size_t c = 0; c < classes; ++c) {
        for (std::size_t l = 0; l < lanes; ++l) {
          ASSERT_EQ(got(c, l), ref(c, first + l))
              << "lanes " << lanes << " window " << first + l << " class " << c;
        }
      }
    }
  }
}

// -- feature pipeline ---------------------------------------------------------

TEST(FeaturesBatch, TransformPreparedBatchMatchesScalarColumns) {
  sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                    sim::SessionContext::make(0)};
  std::mt19937_64 rng(29);
  features::LabeledTraces input;
  std::vector<sim::TraceSet> sets;
  for (avr::Mnemonic m : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi}) {
    sets.push_back(campaign.capture_class(*avr::class_index(m), 40, 5, rng));
  }
  input.labels = {0, 1};
  for (const auto& s : sets) input.sets.push_back(&s);
  features::PipelineConfig cfg = core::csa_config();
  cfg.pca_components = 12;
  const auto pipeline = features::FeaturePipeline::fit(input, cfg);

  std::vector<std::vector<double>> prepared;
  for (std::size_t i = 0; i < kSweepLanes; ++i) {
    const sim::Trace t = campaign.capture_trace(
        avr::random_instance(*avr::class_index(avr::Mnemonic::kAdd), rng),
        sim::ProgramContext::make(static_cast<int>(i % 3)), rng);
    prepared.push_back(features::FeaturePipeline::preprocess_window(
        t, cfg.per_trace_normalization));
  }
  std::vector<const std::vector<double>*> ptrs;
  for (const auto& p : prepared) ptrs.push_back(&p);

  dsp::CwtWorkspace sws;
  dsp::CwtBatchWorkspace bws;
  const std::size_t fitted = pipeline.max_components();
  ASSERT_GE(fitted, 2u);
  for (const std::size_t components : {fitted, fitted - 1}) {
    std::vector<linalg::Vector> refs;
    for (const auto& p : prepared) {
      refs.push_back(pipeline.transform_prepared(p, components, sws));
      ASSERT_EQ(refs.back().size(), components);
    }
    for (std::size_t lanes = 1; lanes <= kSweepLanes; ++lanes) {
      const linalg::Matrix batch =
          pipeline.transform_prepared_batch({ptrs.data(), lanes}, components, bws);
      ASSERT_EQ(batch.rows(), components);
      ASSERT_EQ(batch.cols(), lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        for (std::size_t c = 0; c < components; ++c) {
          ASSERT_EQ(batch(c, w), refs[w][c])
              << "lanes " << lanes << " window " << w << " component " << c;
        }
      }
    }
  }
}

// -- hierarchical classify_batch ----------------------------------------------

class BatchModelFixture : public ::testing::Test {
 protected:
  static const core::ProfilingData& profiling_data() {
    static const core::ProfilingData data = [] {
      sim::AcquisitionCampaign campaign{sim::DeviceModel::make(0),
                                        sim::SessionContext::make(0)};
      std::mt19937_64 rng{31};
      core::ProfilingData d;
      for (avr::Mnemonic mn : {avr::Mnemonic::kAdd, avr::Mnemonic::kLdi,
                               avr::Mnemonic::kCom, avr::Mnemonic::kRjmp}) {
        d.classes[*avr::class_index(mn)] =
            campaign.capture_class(*avr::class_index(mn), 50, 5, rng);
      }
      for (std::uint8_t r : {4, 20}) {
        d.rd_classes[r] = campaign.capture_register(true, r, 120, 5, rng);
        d.rr_classes[r] = campaign.capture_register(false, r, 120, 5, rng);
      }
      return d;
    }();
    return data;
  }

  static core::HierarchicalDisassembler train(ml::ClassifierKind kind) {
    core::HierarchicalConfig cfg;
    cfg.pipeline = core::csa_config();
    cfg.pipeline.pca_components = 10;
    cfg.group_components = 8;
    cfg.instruction_components = 8;
    cfg.register_components = 10;
    cfg.classifier = kind;
    cfg.factory.discriminant.shrinkage = 0.15;
    auto model = core::HierarchicalDisassembler::train(profiling_data(), cfg);
    // Armed gates make verdict/headroom equality a real statement.
    model.calibrate_reject(profiling_data(), core::RejectOperatingPoint::kBalanced);
    return model;
  }

  static const core::HierarchicalDisassembler& model() {
    static const core::HierarchicalDisassembler m = train(ml::ClassifierKind::kQda);
    return m;
  }

  /// Same corpus, hard-decision kNN at every level: no score surface, so the
  /// scored path composes one-hot posterior factors at the predictions.
  static const core::HierarchicalDisassembler& hard_model() {
    static const core::HierarchicalDisassembler m = train(ml::ClassifierKind::kKnn);
    return m;
  }

  /// Mixed-content eval pool: several classes, several programs, plus
  /// off-distribution windows from a different process corner and session so
  /// the reject gates actually trip on some windows.
  static sim::TraceSet mixed_windows(std::size_t n) {
    sim::AcquisitionCampaign clean{sim::DeviceModel::make(0),
                                   sim::SessionContext::make(0)};
    sim::AcquisitionCampaign corner{sim::DeviceModel::make(7),
                                    sim::SessionContext::make(3)};
    std::mt19937_64 rng{37};
    const std::size_t classes[] = {*avr::class_index(avr::Mnemonic::kAdd),
                                   *avr::class_index(avr::Mnemonic::kLdi),
                                   *avr::class_index(avr::Mnemonic::kCom),
                                   *avr::class_index(avr::Mnemonic::kRjmp)};
    sim::TraceSet out;
    for (std::size_t i = 0; i < n; ++i) {
      sim::AcquisitionCampaign& campaign = i % 5 == 4 ? corner : clean;
      out.push_back(campaign.capture_trace(
          avr::random_instance(classes[i % 4], rng),
          sim::ProgramContext::make(static_cast<int>(i % 6)), rng));
    }
    return out;
  }

  /// Four length buckets: the native window length (>= 2 windows), a
  /// truncated length (>= 2 windows), a one-window bucket, and a pair so
  /// short that some feature points lie past the end of the window by more
  /// than the wavelet's reach (zero taps).
  static sim::TraceSet mixed_length_windows() {
    sim::TraceSet pool = mixed_windows(12);
    for (std::size_t i = 0; i < 5; ++i) pool[i].samples.resize(250);
    pool[5].samples.resize(120);
    pool[6].samples.resize(12);
    pool[7].samples.resize(12);
    return pool;
  }

  /// Every entry point on `pool` against the frozen per-window results in
  /// `file`: per-window classify()/classify_scored() and the whole pool as
  /// one classify_batch()/classify_batch_scored() call.
  static void expect_goldens(const core::HierarchicalDisassembler& m,
                             const std::string& file, const std::string& name,
                             const sim::TraceSet& pool) {
    std::vector<core::Disassembly> plain, scored;
    for (const sim::Trace& t : pool) {
      plain.push_back(m.classify(t));
      scored.push_back(m.classify_scored(t));
    }
    golden::expect_case(file, name + ".plain", plain);
    golden::expect_case(file, name + ".scored", scored);
    golden::expect_case(file, name + ".plain", m.classify_batch(pool));
    golden::expect_case(file, name + ".scored", m.classify_batch_scored(pool));
  }

  static void expect_identical(const core::Disassembly& batch,
                               const core::Disassembly& single,
                               std::size_t window) {
    EXPECT_EQ(batch.group, single.group) << "window " << window;
    EXPECT_EQ(batch.class_idx, single.class_idx) << "window " << window;
    EXPECT_EQ(batch.rd, single.rd) << "window " << window;
    EXPECT_EQ(batch.rr, single.rr) << "window " << window;
    EXPECT_EQ(batch.verdict, single.verdict) << "window " << window;
    EXPECT_EQ(batch.margin_headroom, single.margin_headroom) << "window " << window;
    EXPECT_EQ(batch.score_headroom, single.score_headroom) << "window " << window;
    EXPECT_TRUE(same_bits(batch.log_posterior, single.log_posterior)) << "window " << window;
  }
};

// The class-lane QDA form is packed at load as well as at fit: a model read
// back from its archive scores a one-window call with the trained bits.
TEST_F(BatchModelFixture, ArchiveLoadedModelScoresOneWindowLikeTheTrainedOne) {
  std::stringstream archive;
  core::save_disassembler(archive, model());
  const core::HierarchicalDisassembler loaded = core::load_disassembler(archive);
  const sim::TraceSet pool = mixed_windows(12);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    expect_identical(loaded.classify_scored(pool[i]), model().classify_scored(pool[i]), i);
    expect_identical(loaded.classify(pool[i]), model().classify(pool[i]), i);
  }
}

// classify() is a one-window batch; every batch size from 1 to 64 must
// reproduce it window for window, plain and scored (posterior included).
TEST_F(BatchModelFixture, BitIdenticalAcrossBatchSizes) {
  const sim::TraceSet pool = mixed_windows(64);
  std::vector<core::Disassembly> reference, reference_scored;
  for (const sim::Trace& t : pool) {
    reference.push_back(model().classify(t));
    reference_scored.push_back(model().classify_scored(t));
  }
  // Some mixed-content windows must actually exercise the gates and the
  // operand levels, or the equality checks are vacuous.
  std::size_t gated = 0, with_rd = 0;
  for (const auto& d : reference) {
    if (d.verdict != core::Verdict::kOk) ++gated;
    if (d.rd.has_value()) ++with_rd;
  }
  EXPECT_GT(gated, 0u) << "eval pool never tripped a reject gate";
  EXPECT_GT(with_rd, 0u) << "eval pool never reached the register level";

  for (std::size_t k = 1; k <= pool.size(); ++k) {
    const sim::TraceSet windows(pool.begin(), pool.begin() + static_cast<long>(k));
    const std::vector<core::Disassembly> batch = model().classify_batch(windows);
    const std::vector<core::Disassembly> scored = model().classify_batch_scored(windows);
    ASSERT_EQ(batch.size(), k);
    ASSERT_EQ(scored.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      expect_identical(batch[i], reference[i], i);
      expect_identical(scored[i], reference_scored[i], i);
    }
  }
}

TEST_F(BatchModelFixture, BitIdenticalWithMixedTraceLengths) {
  const sim::TraceSet pool = mixed_length_windows();
  const std::vector<core::Disassembly> batch = model().classify_batch(pool);
  ASSERT_EQ(batch.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    expect_identical(batch[i], model().classify(pool[i]), i);
  }
}

// The frozen goldens hold the results of the per-window classify path as it
// stood before classify() became a one-window batch: labels, operands,
// verdicts and the bits of headrooms and posteriors.
TEST_F(BatchModelFixture, MatchesFrozenGoldens) {
  expect_goldens(model(), "batch_model.txt", "mixed", mixed_windows(64));
  expect_goldens(model(), "batch_model.txt", "lengths", mixed_length_windows());
}

TEST_F(BatchModelFixture, HardDecisionModelMatchesFrozenGoldens) {
  expect_goldens(hard_model(), "hard_decision.txt", "mixed", mixed_windows(24));
  expect_goldens(hard_model(), "hard_decision.txt", "lengths", mixed_length_windows());
}

TEST_F(BatchModelFixture, StreamingBatchesAreWorkerCountInvariant) {
  const sim::TraceSet pool = mixed_windows(48);
  const std::vector<core::Disassembly> reference = model().classify_batch(pool);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    runtime::StreamingConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 8;
    runtime::StreamingDisassembler engine(model(), cfg);
    // Submit as batches of 16 so the worker pool takes the batched path.
    for (std::size_t base = 0; base < pool.size(); base += 16) {
      sim::TraceSet chunk(pool.begin() + static_cast<long>(base),
                          pool.begin() + static_cast<long>(base + 16));
      ASSERT_TRUE(engine.submit_batch(std::move(chunk)).has_value());
    }
    const std::vector<runtime::StreamResult> got = engine.drain();
    ASSERT_EQ(got.size(), pool.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].sequence, i) << "workers=" << workers;
      expect_identical(got[i].value, reference[i], i);
    }

    // The amortization telemetry must reflect the batched passes.
    const runtime::RuntimeStats stats = engine.stats();
    EXPECT_EQ(stats.batch_classified_windows, pool.size()) << "workers=" << workers;
    EXPECT_EQ(stats.scalar_classified_windows, 0u) << "workers=" << workers;
    EXPECT_EQ(stats.windows_per_batch.count(), pool.size() / 16)
        << "workers=" << workers;
    EXPECT_GT(stats.batch_classify_nanos, 0u) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace sidis
