// Minimal FFT machinery.
//
// Used for spectral diagnostics of the simulated scope front-end, for fast
// convolution when CWT kernels get long at large scales, and as the engine
// behind the spectral CWT path in wavelet.hpp.  Radix-2 iterative
// Cooley-Tukey; callers zero-pad to a power of two with `next_pow2`.
//
// Hot paths should hold an `FftPlan`: it caches the bit-reversal permutation
// and per-stage twiddle tables once per size, so repeated transforms do no
// trig and no allocation.  The free `fft`/`ifft` functions route through a
// thread-local plan cache and keep their historical signatures.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

/// Marks a function whose loops multiply interleaved complex numbers.  GCC 12
/// vectorizes such loops into vfmaddsub/vfmadd on an FMA target even under
/// -ffp-contract=off, which rounds differently from the SoA batch FFT and
/// breaks batch/scalar bit-identity in a -march=native build; keeping the
/// vectorizer out of these few functions keeps them exact.  Baseline x86-64
/// has no FMA, so there the attribute is left off and the code is unchanged.
#if defined(__GNUC__) && !defined(__clang__) && defined(__FMA__)
#define SIDIS_NO_COMPLEX_FMA __attribute__((optimize("no-tree-vectorize")))
#else
#define SIDIS_NO_COMPLEX_FMA
#endif

namespace sidis::dsp {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/// Smallest power of two >= n (n = 0 maps to 1).
std::size_t next_pow2(std::size_t n);

/// Struct-of-arrays batch of complex sequences: `lanes` sequences of length
/// `length`, split into real/imaginary planes with lane-contiguous storage
/// (element i of lane l lives at [i * lanes + l]).  This is the layout the
/// batch CWT hot path runs on: every butterfly / spectral-multiply inner loop
/// walks a contiguous block of `lanes` doubles, which the compiler vectorizes
/// without any arch-specific intrinsics.
struct BatchComplex {
  std::vector<double> re;
  std::vector<double> im;
  std::size_t lanes = 0;

  std::size_t length() const { return lanes == 0 ? 0 : re.size() / lanes; }

  /// Resizes to `length` x `lanes` and zero-fills both planes.
  void assign(std::size_t length, std::size_t num_lanes) {
    lanes = num_lanes;
    re.assign(length * num_lanes, 0.0);
    im.assign(length * num_lanes, 0.0);
  }
};

/// Precomputed radix-2 FFT plan for one power-of-two size: bit-reversal
/// permutation plus stage-concatenated twiddle tables.  Construction is the
/// only place that touches libm; `forward`/`inverse` are allocation-free and
/// run in-place on caller-provided buffers.  A plan is immutable after
/// construction, so one instance may serve any number of threads.
class FftPlan {
 public:
  /// Throws std::invalid_argument unless `n` is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT; `x.size()` must equal `size()`.
  void forward(ComplexVector& x) const;

  /// In-place inverse DFT (includes the 1/N scaling).
  void inverse(ComplexVector& x) const;

  /// SoA batch transforms: every lane of `x` (length must equal `size()`)
  /// undergoes the same butterfly schedule as the scalar `forward`/`inverse`,
  /// with the lane dimension innermost, so each lane's result is
  /// bit-identical to a scalar transform of that lane while the twiddle and
  /// permutation work amortizes across the whole batch and the inner loops
  /// vectorize.
  void forward_batch(BatchComplex& x) const;
  void inverse_batch(BatchComplex& x) const;

  /// Thread-local plan cache keyed by size; the returned reference stays
  /// valid for the lifetime of the calling thread.
  static const FftPlan& shared(std::size_t n);

 private:
  void run(ComplexVector& x, bool inverse) const;
  void run_batch(BatchComplex& x, bool inverse) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> bitrev_;  ///< permutation, identity-skipping pairs
  ComplexVector twiddle_;              ///< forward twiddles, n-1 entries
};

/// In-place forward FFT; `x.size()` must be a power of two.
void fft(ComplexVector& x);

/// In-place inverse FFT (includes the 1/N scaling).
void ifft(ComplexVector& x);

/// Forward FFT of a real signal, zero-padded to the next power of two.
ComplexVector rfft(const std::vector<double>& x);

/// Magnitude spectrum |rfft(x)| truncated to the first N/2+1 bins.
std::vector<double> magnitude_spectrum(const std::vector<double>& x);

/// Linear convolution of two real signals via FFT; result length is
/// a.size() + b.size() - 1.  Falls back to direct convolution for tiny
/// inputs where FFT overhead dominates.
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace sidis::dsp
