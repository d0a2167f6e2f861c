// Unit tests for the SIMD kernel layer: every kernel of every backend
// the host supports is compared against the scalar oracle on adversarial
// inputs — lengths straddling vector widths (0, 1, width-1, width,
// width+1, several widths plus a tail), unaligned heads, all-pass /
// all-fail / sparse match tables, negative and out-of-domain codes, and
// packed keys at maximum shift. Also covers backend selection: name
// parsing, THEMIS_SIMD resolution, capability degradation, and the
// probed cache topology feeding the shard policy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "simd/simd.h"
#include "util/cpu_topology.h"

namespace themis::simd {
namespace {

/// The backends actually runnable on this host, scalar always included.
std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends = {Backend::kScalar};
  for (const Backend b : {Backend::kSse4, Backend::kAvx2}) {
    if (Supported(b)) backends.push_back(b);
  }
  return backends;
}

/// Lengths that straddle every vector width in use (4 and 8 lanes):
/// empty, single, width +/- 1, and multi-vector with every tail size.
const std::vector<size_t>& AdversarialLengths() {
  static const std::vector<size_t> lengths = {0,  1,  2,  3,  4,  5,  7, 8,
                                              9,  15, 16, 17, 31, 32, 33, 63,
                                              64, 65, 100, 257};
  return lengths;
}

/// Deterministic code column with negative and >= domain_size outliers
/// sprinkled in, so the bounds check of every backend is exercised.
std::vector<int32_t> MakeCodes(size_t n, uint32_t domain_size) {
  std::vector<int32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 13 == 5) {
      codes[i] = -1 - static_cast<int32_t>(i);  // negative: must fail
    } else if (i % 13 == 9) {
      codes[i] = static_cast<int32_t>(domain_size + i % 7);  // out of domain
    } else {
      codes[i] = static_cast<int32_t>((i * 31 + 7) % domain_size);
    }
  }
  return codes;
}

/// A match table padded by kMatchPadBytes, with poison in the padding so
/// a kernel that honors a padded byte as a match would be caught.
std::vector<uint8_t> MakeMatch(uint32_t domain_size, int variant) {
  std::vector<uint8_t> match(domain_size + kMatchPadBytes, 0);
  for (uint32_t c = 0; c < domain_size; ++c) {
    switch (variant) {
      case 0: match[c] = 1; break;                    // all pass
      case 1: match[c] = 0; break;                    // all fail
      case 2: match[c] = c % 2; break;                // alternating
      default: match[c] = (c % 5 == 3) ? 1 : 0; break;  // sparse
    }
  }
  for (size_t p = 0; p < kMatchPadBytes; ++p) {
    match[domain_size + p] = 0xFF;  // poison: out-of-domain must not pass
  }
  return match;
}

TEST(SimdKernelTest, FilterScanMatchesScalarOnAdversarialInputs) {
  const Kernels& scalar = ScalarKernels();
  constexpr uint32_t kDomain = 23;
  for (const Backend backend : SupportedBackends()) {
    const Kernels& kernels = KernelsFor(backend);
    ASSERT_EQ(kernels.backend, backend);
    for (const size_t n : AdversarialLengths()) {
      const std::vector<int32_t> codes = MakeCodes(n + 11, kDomain);
      for (int variant = 0; variant < 4; ++variant) {
        const std::vector<uint8_t> match = MakeMatch(kDomain, variant);
        // Unaligned head: lo = 3 offsets the vector loop start.
        for (const uint32_t lo : {uint32_t{0}, uint32_t{3}}) {
          const uint32_t hi = lo + static_cast<uint32_t>(n);
          std::vector<uint32_t> expected(n + 1, 0xDEAD);
          std::vector<uint32_t> actual(n + 1, 0xBEEF);
          const size_t expected_n = scalar.FilterScan(
              codes.data(), lo, hi, match.data(), kDomain, expected.data());
          const size_t actual_n = kernels.FilterScan(
              codes.data(), lo, hi, match.data(), kDomain, actual.data());
          ASSERT_EQ(actual_n, expected_n)
              << BackendName(backend) << " n=" << n << " lo=" << lo
              << " variant=" << variant;
          for (size_t i = 0; i < expected_n; ++i) {
            ASSERT_EQ(actual[i], expected[i])
                << BackendName(backend) << " n=" << n << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, FilterCompactMatchesScalarOnAdversarialInputs) {
  const Kernels& scalar = ScalarKernels();
  constexpr uint32_t kDomain = 17;
  for (const Backend backend : SupportedBackends()) {
    const Kernels& kernels = KernelsFor(backend);
    for (const size_t n : AdversarialLengths()) {
      const std::vector<int32_t> codes = MakeCodes(4 * n + 7, kDomain);
      for (int variant = 0; variant < 4; ++variant) {
        const std::vector<uint8_t> match = MakeMatch(kDomain, variant);
        // Non-contiguous, non-monotonic-stride selection vector.
        std::vector<uint32_t> sel(n);
        for (size_t i = 0; i < n; ++i) {
          sel[i] = static_cast<uint32_t>((i * 3 + 1) % (4 * n + 7));
        }
        std::vector<uint32_t> expected = sel;
        std::vector<uint32_t> actual = sel;
        const size_t expected_n = scalar.FilterCompact(
            codes.data(), match.data(), kDomain, expected.data(), n);
        const size_t actual_n = kernels.FilterCompact(
            codes.data(), match.data(), kDomain, actual.data(), n);
        ASSERT_EQ(actual_n, expected_n)
            << BackendName(backend) << " n=" << n << " variant=" << variant;
        for (size_t i = 0; i < expected_n; ++i) {
          ASSERT_EQ(actual[i], expected[i])
              << BackendName(backend) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, GatherPackMatchesScalarIncludingMaxShift) {
  const Kernels& scalar = ScalarKernels();
  for (const Backend backend : SupportedBackends()) {
    const Kernels& kernels = KernelsFor(backend);
    for (const size_t n : AdversarialLengths()) {
      std::vector<int32_t> col(2 * n + 5);
      for (size_t i = 0; i < col.size(); ++i) {
        // Full unsigned 31-bit range: the widest code a column may hold.
        col[i] = static_cast<int32_t>((i * 2654435761u) & 0x7FFFFFFF);
      }
      std::vector<uint32_t> sel(n);
      for (size_t i = 0; i < n; ++i) {
        sel[i] = static_cast<uint32_t>((i * 7 + 2) % col.size());
      }
      // shift 32 is the max the executor uses for a second 32-bit-wide
      // component; shift 63 pins the top-bit edge.
      for (const uint32_t shift : {0u, 5u, 31u, 32u, 63u}) {
        for (const bool first : {true, false}) {
          std::vector<uint64_t> expected(n + 1, 0x0102030405060708ull);
          std::vector<uint64_t> actual = expected;
          scalar.GatherPack(col.data(), sel.data(), n, shift,
                            expected.data(), first);
          kernels.GatherPack(col.data(), sel.data(), n, shift, actual.data(),
                             first);
          ASSERT_EQ(actual, expected)
              << BackendName(backend) << " n=" << n << " shift=" << shift
              << " first=" << first;
        }
      }
    }
  }
}

TEST(SimdKernelTest, GatherAndTranslateMatchScalar) {
  const Kernels& scalar = ScalarKernels();
  for (const Backend backend : SupportedBackends()) {
    const Kernels& kernels = KernelsFor(backend);
    for (const size_t n : AdversarialLengths()) {
      std::vector<int32_t> col(3 * n + 9);
      std::vector<double> weights(col.size());
      for (size_t i = 0; i < col.size(); ++i) {
        col[i] = static_cast<int32_t>((i * 17 + 3) % 97);
        weights[i] = static_cast<double>(i) * 0.25 + 0.5;
      }
      std::vector<uint32_t> sel(n);
      for (size_t i = 0; i < n; ++i) {
        sel[i] = static_cast<uint32_t>((i * 11 + 4) % col.size());
      }
      std::vector<int32_t> table(97);
      std::vector<double> numeric(97);
      for (size_t i = 0; i < table.size(); ++i) {
        table[i] = static_cast<int32_t>(96 - i);
        numeric[i] = static_cast<double>(i) - 48.0;
      }

      std::vector<int32_t> exp_codes(n + 1, -7), act_codes(n + 1, -7);
      scalar.GatherCodes(col.data(), sel.data(), n, exp_codes.data());
      kernels.GatherCodes(col.data(), sel.data(), n, act_codes.data());
      ASSERT_EQ(act_codes, exp_codes) << BackendName(backend) << " n=" << n;

      std::vector<int32_t> exp_tr(n + 1, -7), act_tr(n + 1, -7);
      scalar.TranslateCodes(exp_codes.data(), table.data(), n, exp_tr.data());
      kernels.TranslateCodes(exp_codes.data(), table.data(), n,
                             act_tr.data());
      ASSERT_EQ(act_tr, exp_tr) << BackendName(backend) << " n=" << n;

      std::vector<double> exp_w(n + 1, -1.0), act_w(n + 1, -1.0);
      scalar.GatherDoubles(weights.data(), sel.data(), n, exp_w.data());
      kernels.GatherDoubles(weights.data(), sel.data(), n, act_w.data());
      ASSERT_EQ(act_w, exp_w) << BackendName(backend) << " n=" << n;

      std::vector<double> exp_v(n + 1, -1.0), act_v(n + 1, -1.0);
      scalar.GatherNumeric(col.data(), sel.data(), numeric.data(), n,
                           exp_v.data());
      kernels.GatherNumeric(col.data(), sel.data(), numeric.data(), n,
                            act_v.data());
      ASSERT_EQ(act_v, exp_v) << BackendName(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, ScaleByIndexMatchesScalarBitwise) {
  // Weights and factors that stress rounding: subnormals, signed zeros,
  // infinities, NaN, products that overflow or underflow, and an exact 1.0.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> factors = {
      1.0,   0.0,      -0.0,    kInf,   std::nan(""), 1e-310, 3.0 / 7.0,
      1e300, 1 - 1e-16, 0.5,    1e-300, 7.0 / 3.0};
  const std::vector<double> values = {
      1.0,  -0.0, 0.0,    1e-320, 5e-324, kInf, std::nan(""), 1e300,
      1e-300, 0.1, 1.0 / 3.0, 123456.789};
  for (const Backend backend : SupportedBackends()) {
    const Kernels& kernels = KernelsFor(backend);
    const Kernels& scalar = ScalarKernels();
    for (size_t n : AdversarialLengths()) {
      std::vector<uint32_t> idx(n);
      std::vector<double> expect(n + 1, -1.0);
      for (size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<uint32_t>((i * 7 + 3) % factors.size());
        expect[i] = values[(i * 5 + 1) % values.size()];
      }
      std::vector<double> actual = expect;
      scalar.ScaleByIndex(factors.data(), idx.data(), n, expect.data());
      kernels.ScaleByIndex(factors.data(), idx.data(), n, actual.data());
      ASSERT_EQ(std::memcmp(actual.data(), expect.data(),
                            actual.size() * sizeof(double)),
                0)
          << BackendName(backend) << " n=" << n;
    }
  }
}

TEST(SimdDispatchTest, ParseBackendNamesAndAuto) {
  bool ok = false;
  EXPECT_EQ(ParseBackend("scalar", &ok), Backend::kScalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ParseBackend("SSE4", &ok), Backend::kSse4);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ParseBackend("Avx2", &ok), Backend::kAvx2);
  EXPECT_TRUE(ok);
  EXPECT_EQ(ParseBackend("auto", &ok), BestSupported());
  EXPECT_TRUE(ok);
  // Empty and unset mean "auto": recognized defaults, not errors.
  EXPECT_EQ(ParseBackend("", &ok), BestSupported());
  EXPECT_TRUE(ok);
  EXPECT_EQ(ParseBackend(nullptr, &ok), BestSupported());
  EXPECT_TRUE(ok);
  EXPECT_EQ(ParseBackend("quantum", &ok), BestSupported());
  EXPECT_FALSE(ok);
  // "neon" names no backend: it parses like any unknown name.
  EXPECT_EQ(ParseBackend("neon", &ok), BestSupported());
  EXPECT_FALSE(ok);
}

TEST(SimdDispatchTest, KernelsForDegradesToSupportedBackend) {
  // Whatever is requested, the returned table must be executable here and
  // the degradation order never skips past a supported backend.
  for (const Backend requested :
       {Backend::kScalar, Backend::kSse4, Backend::kAvx2}) {
    const Kernels& kernels = KernelsFor(requested);
    EXPECT_TRUE(Supported(kernels.backend)) << BackendName(requested);
    if (Supported(requested)) {
      EXPECT_EQ(kernels.backend, requested);
    }
  }
  EXPECT_TRUE(Supported(Backend::kScalar));
  EXPECT_TRUE(Supported(BestSupported()));
  EXPECT_EQ(KernelsFor(Backend::kScalar).backend, Backend::kScalar);
}

TEST(SimdDispatchTest, FromEnvHonorsOverrideAndDefaultsToAuto) {
  const char* prev = std::getenv("THEMIS_SIMD");
  const std::string saved = prev ? prev : "";

  setenv("THEMIS_SIMD", "scalar", 1);
  EXPECT_EQ(FromEnv(), Backend::kScalar);
  setenv("THEMIS_SIMD", "auto", 1);
  EXPECT_EQ(FromEnv(), BestSupported());
  unsetenv("THEMIS_SIMD");
  EXPECT_EQ(FromEnv(), BestSupported());
  // An unsupported request degrades rather than failing; on any host the
  // result must still be executable.
  setenv("THEMIS_SIMD", "avx2", 1);
  EXPECT_TRUE(Supported(FromEnv()));
  setenv("THEMIS_SIMD", "neon", 1);
  EXPECT_EQ(FromEnv(), BestSupported());

  if (prev) {
    setenv("THEMIS_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("THEMIS_SIMD");
  }
}

TEST(SimdDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kSse4), "sse4");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
}

TEST(CpuTopologyTest, ParseCacheSizeToBytes) {
  using util::ParseCacheSizeToBytes;
  EXPECT_EQ(ParseCacheSizeToBytes("48K"), 48u * 1024);
  EXPECT_EQ(ParseCacheSizeToBytes("2048K"), 2048u * 1024);
  EXPECT_EQ(ParseCacheSizeToBytes("12M"), 12u * 1024 * 1024);
  EXPECT_EQ(ParseCacheSizeToBytes("1G"), 1024u * 1024 * 1024);
  EXPECT_EQ(ParseCacheSizeToBytes("131072"), 131072u);
  EXPECT_EQ(ParseCacheSizeToBytes("48k"), 48u * 1024);
  EXPECT_EQ(ParseCacheSizeToBytes(""), 0u);
  EXPECT_EQ(ParseCacheSizeToBytes("K"), 0u);
  EXPECT_EQ(ParseCacheSizeToBytes("12X"), 0u);
  EXPECT_EQ(ParseCacheSizeToBytes("12K extra"), 0u);
}

TEST(CpuTopologyTest, ShardTargetBytesPolicy) {
  using util::CpuTopology;
  using util::kFallbackShardTargetBytes;

  CpuTopology topo;  // nothing probed
  EXPECT_EQ(topo.ShardTargetBytes(), kFallbackShardTargetBytes);

  topo.l2_bytes = 1024 * 1024;  // half-L2 policy
  EXPECT_EQ(topo.ShardTargetBytes(), 512u * 1024);

  topo.l2_bytes = 64 * 1024;  // tiny L2 clamps up to the floor
  EXPECT_EQ(topo.ShardTargetBytes(), kFallbackShardTargetBytes);

  topo.l2_bytes = 64 * 1024 * 1024;  // huge L2 clamps down to 2 MiB
  EXPECT_EQ(topo.ShardTargetBytes(), 2u * 1024 * 1024);

  topo.l2_bytes = 0;
  topo.l1d_bytes = 48 * 1024;  // L1-only probe: 8x L1d
  EXPECT_EQ(topo.ShardTargetBytes(), 384u * 1024);
}

TEST(CpuTopologyTest, HostProbeIsCachedAndSane) {
  const util::CpuTopology& host = util::CpuTopology::Host();
  EXPECT_EQ(&host, &util::CpuTopology::Host());  // same cached instance
  EXPECT_GE(host.num_cpus, 1u);
  EXPECT_GT(host.cache_line_bytes, 0u);
  EXPECT_GE(host.ShardTargetBytes(), util::kFallbackShardTargetBytes);
  EXPECT_LE(host.ShardTargetBytes(), 2u * 1024 * 1024);
  EXPECT_FALSE(host.ToString().empty());
  if (host.probed) {
    EXPECT_TRUE(host.l1d_bytes > 0 || host.l2_bytes > 0 ||
                host.l3_bytes > 0);
  }
}

}  // namespace
}  // namespace themis::simd
