#include "simd/simd.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace themis::simd {

namespace {

// --- Scalar reference kernels -----------------------------------------
// The bitwise oracle: every other backend must produce byte-identical
// output (tests/simd_test.cc). Also the fallback on hosts with no SIMD.

size_t FilterScanScalar(const int32_t* col, uint32_t lo, uint32_t hi,
                        const uint8_t* match, uint32_t domain_size,
                        uint32_t* out) {
  size_t n = 0;
  for (uint32_t r = lo; r < hi; ++r) {
    const int32_t c = col[r];
    // One unsigned compare covers both c < 0 and c >= domain_size
    // (domains never approach 2^31 codes).
    if (static_cast<uint32_t>(c) < domain_size && match[c] != 0) {
      out[n++] = r;
    }
  }
  return n;
}

size_t FilterCompactScalar(const int32_t* col, const uint8_t* match,
                           uint32_t domain_size, uint32_t* sel, size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    const int32_t c = col[r];
    if (static_cast<uint32_t>(c) < domain_size && match[c] != 0) {
      sel[out++] = r;
    }
  }
  return out;
}

void GatherPackScalar(const int32_t* col, const uint32_t* sel, size_t n,
                      uint32_t shift, uint64_t* keys, bool first) {
  if (first) {
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<uint64_t>(static_cast<uint32_t>(col[sel[i]]))
                << shift;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      keys[i] |= static_cast<uint64_t>(static_cast<uint32_t>(col[sel[i]]))
                 << shift;
    }
  }
}

void GatherCodesScalar(const int32_t* col, const uint32_t* sel, size_t n,
                       int32_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = col[sel[i]];
}

void TranslateCodesScalar(const int32_t* in, const int32_t* table, size_t n,
                          int32_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = table[in[i]];
}

void GatherDoublesScalar(const double* table, const uint32_t* idx, size_t n,
                         double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = table[idx[i]];
}

void GatherNumericScalar(const int32_t* col, const uint32_t* sel,
                         const double* table, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = table[col[sel[i]]];
}

void ScaleByIndexScalar(const double* factor, const uint32_t* idx, size_t n,
                        double* w) {
  for (size_t i = 0; i < n; ++i) w[i] *= factor[idx[i]];
}

constexpr Kernels kScalarKernels = {
    Backend::kScalar,     FilterScanScalar,    FilterCompactScalar,
    GatherPackScalar,     GatherCodesScalar,   TranslateCodesScalar,
    GatherDoublesScalar,  GatherNumericScalar, ScaleByIndexScalar,
};

}  // namespace

const Kernels& ScalarKernels() { return kScalarKernels; }

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kSse4: return "sse4";
    case Backend::kAvx2: return "avx2";
  }
  return "scalar";
}

bool Supported(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse4:
#if defined(__x86_64__) || defined(_M_X64)
      return Sse4KernelsOrNull() != nullptr &&
             __builtin_cpu_supports("sse4.2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return Avx2KernelsOrNull() != nullptr && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Backend BestSupported() {
  if (Supported(Backend::kAvx2)) return Backend::kAvx2;
  if (Supported(Backend::kSse4)) return Backend::kSse4;
  return Backend::kScalar;
}

Backend ParseBackend(const char* name, bool* ok) {
  std::string lower;
  for (const char* p = name; p != nullptr && *p != '\0'; ++p) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (ok != nullptr) *ok = true;
  if (lower == "scalar") return Backend::kScalar;
  if (lower == "sse4") return Backend::kSse4;
  if (lower == "avx2") return Backend::kAvx2;
  if (ok != nullptr) *ok = lower.empty() || lower == "auto";
  return BestSupported();
}

Backend FromEnv() {
  const char* env = std::getenv("THEMIS_SIMD");
  const Backend requested =
      env != nullptr ? ParseBackend(env) : BestSupported();
  return KernelsFor(requested).backend;
}

const Kernels& KernelsFor(Backend backend) {
  // Degrade an unsupported request to the nearest supported backend so a
  // THEMIS_SIMD pin from another machine's config still runs.
  while (true) {
    if (Supported(backend)) {
      switch (backend) {
        case Backend::kScalar: return kScalarKernels;
        case Backend::kSse4: return *Sse4KernelsOrNull();
        case Backend::kAvx2: return *Avx2KernelsOrNull();
      }
    }
    switch (backend) {
      case Backend::kAvx2: backend = Backend::kSse4; break;
      default: return kScalarKernels;
    }
  }
}

}  // namespace themis::simd
