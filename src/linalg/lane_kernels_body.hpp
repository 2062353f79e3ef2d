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

/// Reductions one pass interleaves per tile -- or, where there is a single
/// reduction (components as lanes), full tiles one pass runs side by side.
/// One add chain per register is bound by add latency, so a pass aims for
/// about eight accumulator registers in flight without spilling: one
/// reduction for a 16-lane SSE2 tile (eight xmm), two for AVX2 (four ymm
/// each), four for AVX-512 (two zmm each) and for the 1- and 2-lane tails.
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

/// Rows [r, r + R) of the projection over T adjacent tiles starting at
/// lane l0: each w scalar is broadcast once into all T tiles, and each x
/// row segment loaded once feeds all R rows.  Windows as lanes interleave
/// rows (R = kInterleave, T = 1); components as lanes have one row and
/// interleave tiles instead (R = 1, T = kInterleave).
template <std::size_t R, std::size_t T, class Tile>
SIDIS_LANE_INLINE void project_pass(const double* w, std::size_t w_stride,
                                    std::size_t points, const double* x,
                                    std::size_t x_stride, std::size_t lanes,
                                    double* z, std::size_t l0) {
  Tile acc[R][T] = {};
  const double* xp = x + l0;
  for (std::size_t p = 0; p < points; ++p) {
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t t = 0; t < T; ++t) acc[r][t].mul_add(w[r], xp + t * Tile::kWidth);
    }
    w += w_stride;
    xp += x_stride;
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t t = 0; t < T; ++t) acc[r][t].store(z + r * lanes + l0 + t * Tile::kWidth);
  }
}

/// One row over `count` (< T) adjacent full tiles: the remainder of the
/// tile-interleaved projection, dispatched to a compile-time tile count.
template <std::size_t T, class Tile>
SIDIS_LANE_INLINE void project_row_rest(std::size_t count, const double* w,
                                        std::size_t w_stride, std::size_t points,
                                        const double* x, std::size_t x_stride,
                                        std::size_t lanes, double* z, std::size_t l0) {
  if constexpr (T > 1) {
    if (count == T - 1) {
      project_pass<1, T - 1, Tile>(w, w_stride, points, x, x_stride, lanes, z, l0);
    } else {
      project_row_rest<T - 1, Tile>(count, w, w_stride, points, x, x_stride, lanes, z, l0);
    }
  }
}

template <std::size_t VecBytes>
void project(const double* w, std::size_t w_stride, std::size_t points,
             std::size_t rows, const double* x, std::size_t x_stride,
             std::size_t lanes, double* z) {
  if (rows == 1) {
    // Components as lanes: one reduction, so the chains in flight come from
    // kInterleave full tiles side by side; the sub-tile rest runs as tails.
    using Full = LaneTileN<kLaneTile, VecBytes>;
    constexpr std::size_t kT = kInterleave<Full>;
    std::size_t l0 = 0;
    for (; l0 + kT * kLaneTile <= lanes; l0 += kT * kLaneTile) {
      project_pass<1, kT, Full>(w, w_stride, points, x, x_stride, lanes, z, l0);
    }
    const std::size_t full = (lanes - l0) / kLaneTile;
    project_row_rest<kT, Full>(full, w, w_stride, points, x, x_stride, lanes, z, l0);
    l0 += full * kLaneTile;
    for_each_lane_tile<VecBytes>(lanes - l0, [&](auto tile, std::size_t t0) {
      project_pass<1, 1, decltype(tile)>(w, w_stride, points, x, x_stride, lanes, z,
                                         l0 + t0);
    });
    return;
  }
  for_each_lane_tile<VecBytes>(lanes, [&](auto tile, std::size_t l0) {
    using Tile = decltype(tile);
    constexpr std::size_t kP = kInterleave<Tile>;
    std::size_t r = 0;
    for (; r + kP <= rows; r += kP) {
      project_pass<kP, 1, Tile>(w + r, w_stride, points, x, x_stride, lanes, z + r * lanes, l0);
    }
    for (; r < rows; ++r) {
      project_pass<1, 1, Tile>(w + r, w_stride, points, x, x_stride, lanes, z + r * lanes, l0);
    }
  });
}

/// The factor of forward_solve: one matrix shared by every lane, each entry
/// broadcast across the tile.
struct SharedFactor {
  const double* chol;
  std::size_t n;
  struct Row {
    const double* p;
    SIDIS_LANE_INLINE double operator[](std::size_t k) const { return p[k]; }
  };
  SIDIS_LANE_INLINE Row row(std::size_t i, std::size_t) const { return {chol + i * n}; }
};

/// The factor of forward_solve_lanes: one matrix per lane, packed as
/// lane_kernels.hpp documents, each entry loaded as one value per lane.
struct LaneFactor {
  const double* tri;
  std::size_t lanes;
  struct Row {
    const double* p;
    std::size_t lanes;
    SIDIS_LANE_INLINE const double* operator[](std::size_t k) const { return p + k * lanes; }
  };
  SIDIS_LANE_INLINE Row row(std::size_t i, std::size_t l0) const {
    return {tri + i * (i + 1) / 2 * lanes + l0, lanes};
  }
};

/// Rows [i, i + P) of the forward substitution over one tile.  The rows
/// share the k < i prefix of their sums, interleaved; then each row in turn
/// finishes its k in [i, i + q) terms against the rows just solved, divides
/// by its diagonal, and adds its square into out.
template <std::size_t P, class Tile, class Factor>
SIDIS_LANE_INLINE void solve_pass(const Factor& factor, std::size_t i, const double* x,
                                  std::size_t lanes, double* y, double* out,
                                  std::size_t l0) {
  Tile v[P];
  typename Factor::Row row[P];
#pragma GCC unroll 4
  for (std::size_t q = 0; q < P; ++q) {
    v[q].load(x + (i + q) * lanes + l0);
    row[q] = factor.row(i + q, l0);
  }
  const double* yk = y + l0;
  for (std::size_t k = 0; k < i; ++k) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < P; ++q) v[q].mul_sub(row[q][k], yk);
    yk += lanes;
  }
#pragma GCC unroll 4
  for (std::size_t q = 0; q < P; ++q) {
    for (std::size_t k = i; k < i + q; ++k) v[q].mul_sub(row[q][k], y + k * lanes + l0);
    v[q].div(row[q][i + q]);
    v[q].store(y + (i + q) * lanes + l0);
    Tile sum;
    sum.load(out + l0);
    sum.add_square(v[q]);
    sum.store(out + l0);
  }
}

template <std::size_t VecBytes, class Factor>
SIDIS_LANE_INLINE void solve(const Factor& factor, std::size_t n, const double* x,
                             std::size_t lanes, double* y, double* out) {
  for_each_lane_tile<VecBytes>(lanes, [&](auto tile, std::size_t l0) {
    using Tile = decltype(tile);
    constexpr std::size_t kP = kInterleave<Tile>;
    tile.store(out + l0);
    std::size_t i = 0;
    for (; i + kP <= n; i += kP) solve_pass<kP, Tile>(factor, i, x, lanes, y, out, l0);
    for (; i < n; ++i) solve_pass<1, Tile>(factor, i, x, lanes, y, out, l0);
  });
}

template <std::size_t VecBytes>
void forward_solve(const double* chol, std::size_t n, const double* x,
                   std::size_t lanes, double* y, double* out) {
  solve<VecBytes>(SharedFactor{chol, n}, n, x, lanes, y, out);
}

template <std::size_t VecBytes>
void forward_solve_lanes(const double* tri, std::size_t n, const double* x,
                         std::size_t lanes, double* y, double* out) {
  solve<VecBytes>(LaneFactor{tri, lanes}, n, x, lanes, y, out);
}

template <std::size_t VecBytes>
constexpr LaneKernels make_lane_kernels(const char* isa) {
  return {isa, &dots<VecBytes>, &project<VecBytes>, &forward_solve<VecBytes>,
          &forward_solve_lanes<VecBytes>};
}

}  // namespace
}  // namespace sidis::linalg
