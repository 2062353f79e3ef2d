// Lane-tile kernels of the batch (struct-of-arrays) hot path, behind a
// function-pointer table chosen once per process.
//
// Each kernel works on lane-contiguous blocks (element i of lane l at
// [i * lanes + l]) and keeps tiles of lanes in registers across its
// reduction (lanes.hpp).  The lanes are a bucket's windows once it holds at
// least kWindowLanesMin of them; a smaller bucket runs each window alone
// with another axis as the lanes -- the classes of a QDA level
// (forward_solve_lanes) or the components of a PCA projection (project with
// the operands swapped) -- so a window that arrives alone still runs
// SIMD-wide.  The bodies live in lane_kernels_body.hpp and are compiled once
// per vector ISA: a baseline build (SSE2 on x86-64, whatever the target
// offers elsewhere) and, on x86-64 with GCC or Clang, an AVX2 and an
// AVX-512F build.  The first call to lane_kernels() picks the widest build
// the CPU supports; there is no knob.  Every build, on either axis,
// performs each output's IEEE operations in the same order as the scalar
// code, so all of them return the same bits.
//
// This header carries no vector types, so baseline translation units can
// include it freely.
#pragma once

#include <cstddef>
#include <vector>

namespace sidis::linalg {

/// The axis rule of the batch hot path: a bucket of at least this many
/// windows runs with windows as lanes; a smaller one runs window by window
/// with classes (QDA) or components (PCA) as lanes.  Eight windows fill one
/// zmm, the widest register any build uses; the b = 1, 2, 4, 8, 16 sweep in
/// EXPERIMENTS.md puts the crossover between four and eight windows.
inline constexpr std::size_t kWindowLanesMin = 8;

/// One lane-parallel dot product: for every lane l in [0, lanes),
///   out[l] = sum over d in [0, taps) of kern[d] * x[d * lanes + l],
/// accumulated from +0.0 in ascending d -- the tap order of the scalar
/// correlation (dsp::Cwt::coefficient).
struct LaneDot {
  const double* kern;
  const double* x;
  std::size_t taps;
  double* out;
};

/// The lane-tile kernels of one ISA build.
struct LaneKernels {
  /// "sse2", "avx2" or "avx512" on x86-64; "generic" elsewhere.
  const char* isa;

  /// Runs `count` independent LaneDots over `lanes` lanes (the sparse CWT
  /// gather and the direct CWT rows).
  void (*dots)(const LaneDot* jobs, std::size_t count, std::size_t lanes);

  /// PCA projection as a product of two p-major blocks: for r in [0, rows)
  /// and every lane l in [0, lanes),
  ///   z[r * lanes + l] = sum over p in [0, points) of
  ///                      w[p * w_stride + r] * x[p * x_stride + l],
  /// from +0.0 in ascending p.  Windows as lanes: w is the axes (rows =
  /// components) and x the centered features (x_stride = lanes).
  /// Components as lanes: w is one window's centered feature column
  /// (w_stride = 1, rows = 1) and x the axes (x_stride = the axes' row
  /// length).  The product commutes exactly, so both orientations return
  /// the scalar Pca::transform bits.
  void (*project)(const double* w, std::size_t w_stride, std::size_t points,
                  std::size_t rows, const double* x, std::size_t x_stride,
                  std::size_t lanes, double* z);

  /// Lane-parallel Cholesky::mahalanobis_squared: with L the n x n
  /// row-major lower factor, solves L y = x for every lane (row i of y is
  /// (x_i - sum over k < i of L(i,k) y_k) / L(i,i), ascending k) and writes
  /// out[l] = sum over i of y_il^2, ascending i from +0.0.  x and y are
  /// n x lanes.
  void (*forward_solve)(const double* chol, std::size_t n, const double* x,
                        std::size_t lanes, double* y, double* out);

  /// forward_solve with a factor per lane (classes as lanes): L_l(i, k),
  /// k <= i, is tri[(i * (i + 1) / 2 + k) * lanes + l] -- lower triangles
  /// only, packed row by row and interleaved across lanes.  Each lane runs
  /// the forward_solve operation sequence on its own factor.
  void (*forward_solve_lanes)(const double* tri, std::size_t n, const double* x,
                              std::size_t lanes, double* y, double* out);
};

/// The kernels of the widest ISA build this CPU supports, chosen on first
/// use.
const LaneKernels& lane_kernels();

/// Name of the ISA build lane_kernels() runs ("sse2", "avx2", "avx512" or
/// "generic"), for stamping benchmark output.
const char* lane_isa();

/// Every ISA build this CPU can run, baseline first and widest last, for
/// tests that compare the builds against each other.
std::vector<const LaneKernels*> lane_kernel_builds();

}  // namespace sidis::linalg
