#pragma once

#include <cstddef>
#include <cstring>

namespace sidis::linalg {

/// Register-tile primitive for lane-parallel (struct-of-arrays) inner loops.
///
/// A LaneTileN<W, VecBytes> holds W per-lane accumulators in registers and
/// exposes only elementwise operations, so each lane's IEEE arithmetic -- and
/// therefore its bits -- matches the corresponding scalar loop exactly.  The
/// point of the tile is WHERE the accumulators live: a lane-innermost loop
/// with memory accumulators re-loads and re-stores every partial sum on every
/// step and runs at store throughput; keeping a tile of lanes in registers
/// across the whole reduction runs at multiply-add throughput instead
/// (measured ~1.5-1.7x on the sparse CWT gather at baseline x86-64).
///
/// A lane is whatever axis a kernel runs in parallel: windows of a batch,
/// or -- when a bucket holds too few windows to fill a register -- the
/// classes of one window's QDA solve or the components of its PCA
/// projection (lane_kernels.hpp, kWindowLanesMin).
///
/// GNU vector extensions compile to whatever vector ISA the translation unit
/// targets, without arch-specific intrinsics.  VecBytes is the widest
/// register the tile may use: 16 (SSE2, NEON), 32 (AVX2) or 64 (AVX-512F).
/// It is a template parameter, not a property of the build: the kernels in
/// lane_kernels_body.hpp are compiled once per x86 vector ISA and the widest
/// one the CPU supports is picked at run time (lane_kernels.hpp).  Each tile
/// uses the widest register of at most VecBytes that divides its width -- an
/// 8-lane tile under AVX-512 is one zmm, a 4-lane tile one ymm, a 2-lane tile
/// one xmm -- and a 1-lane tile one double.  Generic vectors wider than the
/// target's registers are scalarized through the stack, which is slower than
/// not tiling at all, so VecBytes must not exceed what the unit targets.
/// Other compilers use doubles throughout and leave vectorization to the
/// optimizer.
///
/// Every member is always inlined: an out-of-line copy compiled in an AVX
/// unit would be a COMDAT the linker could hand to baseline callers.  Each
/// member's loop over registers is fully unrolled: left rolled, GCC kept
/// the eight xmm of a 16-lane SSE2 tile in memory, one load and store per
/// register per step.
#if defined(__GNUC__) || defined(__clang__)
#define SIDIS_LANE_VEC 1
#define SIDIS_LANE_INLINE inline __attribute__((always_inline))
#else
#define SIDIS_LANE_INLINE inline
#endif

/// Lanes covered by one full tile.  16 matches the serving runtime's
/// batch_max, so a saturated fleet batch is exactly one tile.
inline constexpr std::size_t kLaneTile = 16;

namespace lane_detail {
/// Bytes of the widest register of at most VecBytes that divides W doubles.
constexpr std::size_t reg_bytes(std::size_t w, std::size_t vec_bytes) {
#ifdef SIDIS_LANE_VEC
  for (std::size_t b = vec_bytes; b >= 16; b /= 2) {
    if (w * sizeof(double) % b == 0) return b;
  }
#else
  (void)w;
  (void)vec_bytes;
#endif
  return sizeof(double);
}

#ifdef SIDIS_LANE_VEC
template <std::size_t Bytes>
struct RegOf {
  typedef double type __attribute__((vector_size(Bytes)));
};
#else
template <std::size_t Bytes>
struct RegOf;
#endif
template <>
struct RegOf<sizeof(double)> {
  using type = double;
};
}  // namespace lane_detail

/// A tile of W lanes; see above.  Value-initialized tiles (`Tile{}`) are
/// zero; the type stays trivial so no constructor is ever emitted out of
/// line.  A scalar operand is broadcast to every lane; a pointer operand
/// supplies one value per lane.
template <std::size_t W, std::size_t VecBytes>
struct LaneTileN {
  using Reg = typename lane_detail::RegOf<lane_detail::reg_bytes(W, VecBytes)>::type;
  static constexpr std::size_t kWidth = W;
  static constexpr std::size_t kStep = sizeof(Reg) / sizeof(double);
  static constexpr std::size_t kRegs = W / kStep;
  Reg v[kRegs];

  SIDIS_LANE_INLINE void load(const double* p) { std::memcpy(v, p, sizeof(v)); }
  SIDIS_LANE_INLINE void store(double* p) const { std::memcpy(p, v, sizeof(v)); }

  /// v[l] += s * x[l] for each lane l.
  SIDIS_LANE_INLINE void mul_add(double s, const double* x) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRegs; ++i) v[i] += s * reg(x, i);
  }
  /// v[l] -= s * x[l] for each lane l.
  SIDIS_LANE_INLINE void mul_sub(double s, const double* x) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRegs; ++i) v[i] -= s * reg(x, i);
  }
  /// v[l] -= s[l] * x[l] for each lane l: a per-lane operand, for kernels
  /// whose lanes each carry their own matrix (classes as lanes).
  SIDIS_LANE_INLINE void mul_sub(const double* s, const double* x) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRegs; ++i) v[i] -= reg(s, i) * reg(x, i);
  }
  /// v[l] += y[l] * y[l] for each lane l.
  SIDIS_LANE_INLINE void add_square(const LaneTileN& y) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRegs; ++i) v[i] += y.v[i] * y.v[i];
  }
  /// v[l] /= s for each lane l (a true division -- scalar paths divide, and
  /// multiplying by a reciprocal would round differently).
  SIDIS_LANE_INLINE void div(double s) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRegs; ++i) v[i] /= s;
  }
  /// v[l] /= s[l] for each lane l (per-lane operand, true division).
  SIDIS_LANE_INLINE void div(const double* s) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRegs; ++i) v[i] /= reg(s, i);
  }

 private:
  SIDIS_LANE_INLINE static Reg reg(const double* x, std::size_t i) {
    Reg r;
    std::memcpy(&r, x + i * kStep, sizeof(r));
    return r;
  }
};

/// Covers lanes [0, lanes) with register tiles: body(tile, l0) runs once per
/// tile on a zero LaneTileN<W, VecBytes> covering lanes [l0, l0 + W), first
/// as full kLaneTile tiles and then as at most one tile each of 8, 4, 2 and 1
/// lanes for the remainder.  A kernel is written once against the tile's
/// interface and instantiated per width, so a fragmented bucket (level-2
/// group splits routinely leave 1-8 lanes) keeps its partial sums in
/// registers like a full tile does.  Which lane runs when changes; each
/// lane's operation sequence does not.
template <std::size_t VecBytes, class Body>
SIDIS_LANE_INLINE void for_each_lane_tile(std::size_t lanes, Body&& body) {
  static_assert(kLaneTile == 16, "the 8/4/2/1 tail covers under 16 lanes");
  std::size_t l0 = 0;
  for (; l0 + kLaneTile <= lanes; l0 += kLaneTile) {
    body(LaneTileN<kLaneTile, VecBytes>{}, l0);
  }
  if (lanes - l0 >= 8) {
    body(LaneTileN<8, VecBytes>{}, l0);
    l0 += 8;
  }
  if (lanes - l0 >= 4) {
    body(LaneTileN<4, VecBytes>{}, l0);
    l0 += 4;
  }
  if (lanes - l0 >= 2) {
    body(LaneTileN<2, VecBytes>{}, l0);
    l0 += 2;
  }
  if (lanes - l0 >= 1) body(LaneTileN<1, VecBytes>{}, l0);
}

}  // namespace sidis::linalg
