// AVX-512F build of the lane-tile kernels (64-byte registers), compiled with
// -mavx512f; lane_kernels() selects it only on a CPU that supports AVX-512F.
#if !defined(__AVX512F__)
#error "lane_kernels_avx512.cpp must be compiled with -mavx512f"
#endif
#include "linalg/lane_kernels_body.hpp"

namespace sidis::linalg::lane_builds {
extern constinit const LaneKernels kAvx512 = make_lane_kernels<64>("avx512");
}  // namespace sidis::linalg::lane_builds
