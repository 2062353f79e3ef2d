#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>

namespace sidis::linalg {

/// Register-tile primitive for lane-parallel (struct-of-arrays) inner loops.
///
/// A LaneTileN<W> holds W per-lane accumulators in registers and exposes only
/// elementwise operations, so each lane's IEEE arithmetic -- and therefore
/// its bits -- matches the corresponding scalar loop exactly.  The point of
/// the tile is WHERE the accumulators live: a lane-innermost loop with memory
/// accumulators re-loads and re-stores every partial sum on every step and
/// runs at store throughput; keeping a tile of lanes in registers across the
/// whole reduction runs at multiply-add throughput instead (measured
/// ~1.5-1.7x on the sparse CWT gather at baseline x86-64).
///
/// GNU vector extensions compile to whatever vector ISA the target offers
/// (SSE2 on baseline x86-64, AVX/AVX-512 under SIDIS_NATIVE, NEON on
/// aarch64) without arch-specific intrinsics.  The vector width is pinned at
/// compile time to the native register width -- wider generic vectors get
/// scalarized through the stack at baseline arch, which is slower than not
/// tiling at all.  A tile whose width is not a multiple of one native vector
/// holds one double per register instead; other compilers use doubles
/// throughout and leave vectorization to the optimizer.
#if defined(__GNUC__) || defined(__clang__)
#define SIDIS_LANE_VEC 1
#if defined(__AVX512F__)
#define SIDIS_LANE_VEC_BYTES 64
#elif defined(__AVX__)
#define SIDIS_LANE_VEC_BYTES 32
#else
#define SIDIS_LANE_VEC_BYTES 16
#endif
#endif

/// Lanes covered by one full tile.  16 matches the serving runtime's
/// batch_max, so a saturated fleet batch is exactly one tile.
inline constexpr std::size_t kLaneTile = 16;

namespace lane_detail {
#ifdef SIDIS_LANE_VEC
typedef double LaneVec __attribute__((vector_size(SIDIS_LANE_VEC_BYTES)));
/// The register type of a W-lane tile.
template <std::size_t W>
using Reg =
    std::conditional_t<W % (sizeof(LaneVec) / sizeof(double)) == 0, LaneVec, double>;
#else
template <std::size_t W>
using Reg = double;
#endif
}  // namespace lane_detail

/// A tile of W lanes; see above.  Default-constructed tiles are zero.  The
/// scalar operand of each operation is broadcast to every lane.
template <std::size_t W>
struct LaneTileN {
  using Reg = lane_detail::Reg<W>;
  static constexpr std::size_t kWidth = W;
  static constexpr std::size_t kStep = sizeof(Reg) / sizeof(double);
  static constexpr std::size_t kRegs = W / kStep;
  Reg v[kRegs] = {};

  void load(const double* p) { std::memcpy(v, p, sizeof(v)); }
  void store(double* p) const { std::memcpy(p, v, sizeof(v)); }

  /// v[l] += s * x[l] for each lane l.
  void mul_add(double s, const double* x) {
    for (std::size_t i = 0; i < kRegs; ++i) v[i] += s * reg(x, i);
  }
  /// v[l] -= s * x[l] for each lane l.
  void mul_sub(double s, const double* x) {
    for (std::size_t i = 0; i < kRegs; ++i) v[i] -= s * reg(x, i);
  }
  /// v[l] /= s for each lane l (a true division -- scalar paths divide, and
  /// multiplying by a reciprocal would round differently).
  void div(double s) {
    for (std::size_t i = 0; i < kRegs; ++i) v[i] /= s;
  }

 private:
  static Reg reg(const double* x, std::size_t i) {
    Reg r;
    std::memcpy(&r, x + i * kStep, sizeof(r));
    return r;
  }
};

using LaneTile = LaneTileN<kLaneTile>;

/// Covers lanes [0, lanes) with register tiles: body(tile, l0) runs once per
/// tile on a zeroed LaneTileN<W> covering lanes [l0, l0 + W), first as full
/// kLaneTile tiles and then as at most one tile each of 8, 4, 2 and 1 lanes
/// for the remainder.  A kernel is written once against the tile's
/// interface and instantiated per width, so a fragmented bucket (level-2
/// group splits routinely leave 1-8 lanes) keeps its partial sums in
/// registers like a full tile does.  Which lane runs when changes; each
/// lane's operation sequence does not.
template <class Body>
inline void for_each_lane_tile(std::size_t lanes, Body&& body) {
  static_assert(kLaneTile == 16, "the 8/4/2/1 tail covers under 16 lanes");
  std::size_t l0 = 0;
  for (; l0 + kLaneTile <= lanes; l0 += kLaneTile) body(LaneTile{}, l0);
  if (lanes - l0 >= 8) {
    body(LaneTileN<8>{}, l0);
    l0 += 8;
  }
  if (lanes - l0 >= 4) {
    body(LaneTileN<4>{}, l0);
    l0 += 4;
  }
  if (lanes - l0 >= 2) {
    body(LaneTileN<2>{}, l0);
    l0 += 2;
  }
  if (lanes - l0 >= 1) body(LaneTileN<1>{}, l0);
}

}  // namespace sidis::linalg
