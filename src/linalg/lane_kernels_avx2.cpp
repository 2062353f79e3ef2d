// AVX2 build of the lane-tile kernels (32-byte registers), compiled with
// -mavx2; lane_kernels() selects it only on a CPU that supports AVX2.
#if !defined(__AVX2__)
#error "lane_kernels_avx2.cpp must be compiled with -mavx2"
#endif
#include "linalg/lane_kernels_body.hpp"

namespace sidis::linalg::lane_builds {
extern constinit const LaneKernels kAvx2 = make_lane_kernels<32>("avx2");
}  // namespace sidis::linalg::lane_builds
