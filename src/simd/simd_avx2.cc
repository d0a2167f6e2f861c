// AVX2 kernel backend: 8-lane filter compare + movemask/permute
// compaction, hardware gathers for codes/doubles, and 4-lane 64-bit
// shift-or key packing. Compiled with -mavx2 (see CMakeLists); on other
// architectures this translation unit degenerates to a null table.
#include "simd/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace themis::simd {

namespace {

/// kCompact.idx[mask] permutes the lanes whose mask bit is set to the
/// front (order preserved) — the standard movemask-indexed compaction
/// table for _mm256_permutevar8x32_epi32.
struct CompactLut {
  alignas(32) uint32_t idx[256][8];
  constexpr CompactLut() : idx() {
    for (int mask = 0; mask < 256; ++mask) {
      int k = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if (mask & (1 << bit)) idx[mask][k++] = static_cast<uint32_t>(bit);
      }
      for (; k < 8; ++k) idx[mask][k] = 0;
    }
  }
};
constexpr CompactLut kCompact;

/// 8-bit pass mask for 8 codes: lane passes when 0 <= c < domain_size and
/// match[c] != 0. Lanes failing the bounds check are masked out of the
/// gather, so no out-of-range byte is ever read.
inline int PassMask(__m256i codes, __m256i vsize, const uint8_t* match) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i negative = _mm256_cmpgt_epi32(zero, codes);
  const __m256i below = _mm256_cmpgt_epi32(vsize, codes);
  const __m256i valid = _mm256_andnot_si256(negative, below);
  // 32-bit gather from the byte table (reads match[c..c+3]; the table is
  // padded by kMatchPadBytes); keep only the addressed byte.
  const __m256i gathered = _mm256_mask_i32gather_epi32(
      zero, reinterpret_cast<const int*>(match), codes, valid, 1);
  const __m256i byte0 =
      _mm256_and_si256(gathered, _mm256_set1_epi32(0xFF));
  const __m256i pass =
      _mm256_andnot_si256(_mm256_cmpeq_epi32(byte0, zero), valid);
  return _mm256_movemask_ps(_mm256_castsi256_ps(pass));
}

size_t FilterScanAvx2(const int32_t* col, uint32_t lo, uint32_t hi,
                      const uint8_t* match, uint32_t domain_size,
                      uint32_t* out) {
  const __m256i vsize = _mm256_set1_epi32(static_cast<int32_t>(domain_size));
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t n = 0;
  uint32_t r = lo;
  for (; r + 8 <= hi; r += 8) {
    const __m256i codes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    const int mask = PassMask(codes, vsize, match);
    const __m256i rows =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int32_t>(r)), iota);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompact.idx[mask]));
    // Full 8-lane store: with n <= r - lo and r + 8 <= hi, the write stays
    // inside the caller's hi - lo capacity.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n),
                        _mm256_permutevar8x32_epi32(rows, perm));
    n += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; r < hi; ++r) {
    const int32_t c = col[r];
    if (static_cast<uint32_t>(c) < domain_size && match[c] != 0) {
      out[n++] = r;
    }
  }
  return n;
}

size_t FilterCompactAvx2(const int32_t* col, const uint8_t* match,
                         uint32_t domain_size, uint32_t* sel, size_t n) {
  const __m256i vsize = _mm256_set1_epi32(static_cast<int32_t>(domain_size));
  size_t out = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i codes =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(col), rows, 4);
    const int mask = PassMask(codes, vsize, match);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompact.idx[mask]));
    // In place is safe: out <= i, and the 8 source lanes are already in
    // registers.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + out),
                        _mm256_permutevar8x32_epi32(rows, perm));
    out += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) {
    const uint32_t r = sel[i];
    const int32_t c = col[r];
    if (static_cast<uint32_t>(c) < domain_size && match[c] != 0) {
      sel[out++] = r;
    }
  }
  return out;
}

void GatherPackAvx2(const int32_t* col, const uint32_t* sel, size_t n,
                    uint32_t shift, uint64_t* keys, bool first) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i codes =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(col), rows, 4);
    const __m256i lo =
        _mm256_cvtepu32_epi64(_mm256_castsi256_si128(codes));
    const __m256i hi =
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(codes, 1));
    const __m256i lo_term = _mm256_sll_epi64(lo, count);
    const __m256i hi_term = _mm256_sll_epi64(hi, count);
    __m256i* dst = reinterpret_cast<__m256i*>(keys + i);
    if (first) {
      _mm256_storeu_si256(dst, lo_term);
      _mm256_storeu_si256(dst + 1, hi_term);
    } else {
      _mm256_storeu_si256(
          dst, _mm256_or_si256(_mm256_loadu_si256(dst), lo_term));
      _mm256_storeu_si256(
          dst + 1, _mm256_or_si256(_mm256_loadu_si256(dst + 1), hi_term));
    }
  }
  for (; i < n; ++i) {
    const uint64_t term =
        static_cast<uint64_t>(static_cast<uint32_t>(col[sel[i]])) << shift;
    if (first) {
      keys[i] = term;
    } else {
      keys[i] |= term;
    }
  }
}

void GatherCodesAvx2(const int32_t* col, const uint32_t* sel, size_t n,
                     int32_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(col), rows, 4));
  }
  for (; i < n; ++i) out[i] = col[sel[i]];
}

void TranslateCodesAvx2(const int32_t* in, const int32_t* table, size_t n,
                        int32_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i codes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(table), codes,
                               4));
  }
  for (; i < n; ++i) out[i] = table[in[i]];
}

/// All-lanes double gather via the masked form: the plain
/// _mm256_i32gather_pd expands to _mm256_undefined_pd in GCC's headers
/// and trips -Wmaybe-uninitialized there.
inline __m256d GatherPd(const double* table, __m128i idx4) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), table, idx4,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

void GatherDoublesAvx2(const double* table, const uint32_t* idx, size_t n,
                       double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    _mm256_storeu_pd(out + i, GatherPd(table, idx4));
  }
  for (; i < n; ++i) out[i] = table[idx[i]];
}

void GatherNumericAvx2(const int32_t* col, const uint32_t* sel,
                       const double* table, size_t n, double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i rows4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m128i codes4 =
        _mm_i32gather_epi32(reinterpret_cast<const int*>(col), rows4, 4);
    _mm256_storeu_pd(out + i, GatherPd(table, codes4));
  }
  for (; i < n; ++i) out[i] = table[col[sel[i]]];
}

void ScaleByIndexAvx2(const double* factor, const uint32_t* idx, size_t n,
                      double* w) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d lo = GatherPd(
        factor, _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i)));
    const __m256d hi = GatherPd(
        factor,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i + 4)));
    _mm256_storeu_pd(w + i, _mm256_mul_pd(_mm256_loadu_pd(w + i), lo));
    _mm256_storeu_pd(w + i + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(w + i + 4), hi));
  }
  for (; i < n; ++i) w[i] *= factor[idx[i]];
}

constexpr Kernels kAvx2Kernels = {
    Backend::kAvx2,     FilterScanAvx2,    FilterCompactAvx2,
    GatherPackAvx2,     GatherCodesAvx2,   TranslateCodesAvx2,
    GatherDoublesAvx2,  GatherNumericAvx2, ScaleByIndexAvx2,
};

}  // namespace

const Kernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }

}  // namespace themis::simd

#else  // !defined(__AVX2__)

namespace themis::simd {
const Kernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace themis::simd

#endif
