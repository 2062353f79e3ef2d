// The one source body of the lane-tile kernels (declared in
// lane_kernels.hpp).  Each ISA build -- lane_kernels_base.cpp,
// lane_kernels_avx2.cpp, lane_kernels_avx512.cpp -- includes this file once,
// under its own -m flags, and publishes make_lane_kernels<VecBytes>() as its
// table.  Include it from nowhere else.
//
// Everything below has internal linkage and calls nothing out of line, so no
// function compiled for a wider ISA can be merged with, or called by, code
// that runs before the CPU check; the isa_leak ctest checks the objects.
//
// Bit-identity: each kernel interleaves several independent reductions per
// tile (kInterleave), but every lane of every reduction still performs its
// IEEE mul/add/sub/div sequence in the scalar order, so the result does not
// depend on the ISA, the tile or the interleave.
#pragma once

#include "linalg/lane_kernels.hpp"
#include "linalg/lanes.hpp"

#include <cstddef>

namespace sidis::linalg {
namespace {

/// Reductions one pass interleaves per tile.  One add chain per register is
/// bound by add latency, so a pass aims for about eight accumulator
/// registers in flight without spilling: one reduction for a 16-lane SSE2
/// tile (eight xmm), two for AVX2 (four ymm each), four for AVX-512 (two
/// zmm each) and for the 1- and 2-lane tails.
template <class Tile>
constexpr std::size_t kInterleave = Tile::kRegs >= 8 ? 1 : Tile::kRegs >= 4 ? 2 : 4;

/// P LaneDots over one tile: the common tap prefix interleaved, then each
/// job's remaining taps on its own.
template <std::size_t P, class Tile>
SIDIS_LANE_INLINE void dots_pass(const LaneDot* jobs, std::size_t lanes,
                                 std::size_t l0) {
  Tile acc[P] = {};
  const double* kern[P];
  const double* x[P];
  std::size_t common = jobs[0].taps;
#pragma GCC unroll 4
  for (std::size_t p = 0; p < P; ++p) {
    kern[p] = jobs[p].kern;
    x[p] = jobs[p].x + l0;
    if (jobs[p].taps < common) common = jobs[p].taps;
  }
  for (std::size_t d = 0; d < common; ++d) {
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      acc[p].mul_add(kern[p][d], x[p]);
      x[p] += lanes;
    }
  }
#pragma GCC unroll 4
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t d = common; d < jobs[p].taps; ++d) {
      acc[p].mul_add(kern[p][d], x[p]);
      x[p] += lanes;
    }
    acc[p].store(jobs[p].out + l0);
  }
}

template <std::size_t VecBytes>
void dots(const LaneDot* jobs, std::size_t count, std::size_t lanes) {
  for_each_lane_tile<VecBytes>(lanes, [&](auto tile, std::size_t l0) {
    using Tile = decltype(tile);
    constexpr std::size_t kP = kInterleave<Tile>;
    std::size_t i = 0;
    for (; i + kP <= count; i += kP) dots_pass<kP, Tile>(jobs + i, lanes, l0);
    for (; i < count; ++i) dots_pass<1, Tile>(jobs + i, lanes, l0);
  });
}

/// Components [c, c + P) of the projection over one tile; the centered
/// feature row is loaded once and feeds all P accumulators.
template <std::size_t P, class Tile>
SIDIS_LANE_INLINE void project_pass(const double* axes, std::size_t axes_stride,
                                    std::size_t points, const double* f,
                                    std::size_t lanes, double* z, std::size_t l0) {
  Tile acc[P] = {};
  const double* fp = f + l0;
  for (std::size_t p = 0; p < points; ++p) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < P; ++q) acc[q].mul_add(axes[q], fp);
    axes += axes_stride;
    fp += lanes;
  }
#pragma GCC unroll 4
  for (std::size_t q = 0; q < P; ++q) acc[q].store(z + q * lanes + l0);
}

template <std::size_t VecBytes>
void project(const double* axes, std::size_t axes_stride, std::size_t points,
             std::size_t components, const double* f, std::size_t lanes,
             double* z) {
  for_each_lane_tile<VecBytes>(lanes, [&](auto tile, std::size_t l0) {
    using Tile = decltype(tile);
    constexpr std::size_t kP = kInterleave<Tile>;
    std::size_t c = 0;
    for (; c + kP <= components; c += kP) {
      project_pass<kP, Tile>(axes + c, axes_stride, points, f, lanes, z + c * lanes, l0);
    }
    for (; c < components; ++c) {
      project_pass<1, Tile>(axes + c, axes_stride, points, f, lanes, z + c * lanes, l0);
    }
  });
}

/// Rows [i, i + P) of the forward substitution over one tile.  The rows
/// share the k < i prefix of their sums, interleaved; then each row in turn
/// finishes its k in [i, i + q) terms against the rows just solved, divides
/// by its diagonal, and adds its square into out.
template <std::size_t P, class Tile>
SIDIS_LANE_INLINE void solve_pass(const double* chol, std::size_t n, std::size_t i,
                                  const double* x, std::size_t lanes, double* y,
                                  double* out, std::size_t l0) {
  Tile v[P];
#pragma GCC unroll 4
  for (std::size_t q = 0; q < P; ++q) v[q].load(x + (i + q) * lanes + l0);
  const double* yk = y + l0;
  for (std::size_t k = 0; k < i; ++k) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < P; ++q) v[q].mul_sub(chol[(i + q) * n + k], yk);
    yk += lanes;
  }
#pragma GCC unroll 4
  for (std::size_t q = 0; q < P; ++q) {
    const double* row = chol + (i + q) * n;
    for (std::size_t k = i; k < i + q; ++k) v[q].mul_sub(row[k], y + k * lanes + l0);
    v[q].div(row[i + q]);
    v[q].store(y + (i + q) * lanes + l0);
    Tile sum;
    sum.load(out + l0);
    sum.add_square(v[q]);
    sum.store(out + l0);
  }
}

template <std::size_t VecBytes>
void forward_solve(const double* chol, std::size_t n, const double* x,
                   std::size_t lanes, double* y, double* out) {
  for_each_lane_tile<VecBytes>(lanes, [&](auto tile, std::size_t l0) {
    using Tile = decltype(tile);
    constexpr std::size_t kP = kInterleave<Tile>;
    tile.store(out + l0);
    std::size_t i = 0;
    for (; i + kP <= n; i += kP) solve_pass<kP, Tile>(chol, n, i, x, lanes, y, out, l0);
    for (; i < n; ++i) solve_pass<1, Tile>(chol, n, i, x, lanes, y, out, l0);
  });
}

template <std::size_t VecBytes>
constexpr LaneKernels make_lane_kernels(const char* isa) {
  return {isa, &dots<VecBytes>, &project<VecBytes>, &forward_solve<VecBytes>};
}

}  // namespace
}  // namespace sidis::linalg
