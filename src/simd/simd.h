#ifndef THEMIS_SIMD_SIMD_H_
#define THEMIS_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace themis::simd {

/// The instruction-set backends the kernel layer can run on. Exactly one
/// is selected per consumer (dispatch-by-capability: AVX2 > SSE4 > scalar
/// on x86, scalar elsewhere), overridable with THEMIS_SIMD.
enum class Backend { kScalar = 0, kSse4 = 1, kAvx2 = 2 };

/// FilterScan/FilterCompact may read up to this many bytes past
/// match[domain_size - 1] (the AVX2 path gathers 32-bit lanes from the
/// byte table); callers must pad their match tables accordingly.
inline constexpr size_t kMatchPadBytes = 4;

/// The vectorized inner-loop kernels of the code-native executor and of
/// IPF's scale step, as a table of function pointers bound to one
/// backend. Every kernel moves or compares integers / copies doubles
/// bit-for-bit, except ScaleByIndex, whose one float operation per element
/// is a single correctly rounded IEEE multiply that every backend rounds
/// alike — so each backend's output is bitwise identical to the scalar
/// table's by construction; tests/simd_test.cc proves it on adversarial
/// inputs and executor_diff_test proves the end-to-end contract simd ==
/// scalar == reference.
///
/// Common contracts: `sel` holds row ids valid for every indexed array;
/// row ids and codes must be < 2^31 (the AVX2 gathers take signed 32-bit
/// indices); `n` may be 0; no alignment requirements on any pointer.
struct Kernels {
  Backend backend = Backend::kScalar;

  /// Scans col[lo, hi) and writes the ascending row ids whose code c
  /// satisfies 0 <= c < domain_size && match[c] != 0 to `out`, returning
  /// how many passed. `out` must have capacity hi - lo; `match` must be
  /// padded by kMatchPadBytes.
  size_t (*FilterScan)(const int32_t* col, uint32_t lo, uint32_t hi,
                       const uint8_t* match, uint32_t domain_size,
                       uint32_t* out);

  /// Compacts sel[0, n) in place to the row ids passing the match table
  /// (same predicate as FilterScan), preserving order; returns the new
  /// count. `match` must be padded by kMatchPadBytes.
  size_t (*FilterCompact)(const int32_t* col, const uint8_t* match,
                          uint32_t domain_size, uint32_t* sel, size_t n);

  /// Packed-key gather: keys[i] op= uint64(uint32(col[sel[i]])) << shift
  /// for i in [0, n), where op is = when `first` (the key's first
  /// component) and |= otherwise. shift < 64. Codes must be non-negative.
  void (*GatherPack)(const int32_t* col, const uint32_t* sel, size_t n,
                     uint32_t shift, uint64_t* keys, bool first);

  /// out[i] = col[sel[i]].
  void (*GatherCodes)(const int32_t* col, const uint32_t* sel, size_t n,
                      int32_t* out);

  /// out[i] = table[in[i]]; every in[i] must be a valid table index
  /// (the executor's per-domain code translations guarantee this).
  void (*TranslateCodes)(const int32_t* in, const int32_t* table, size_t n,
                         int32_t* out);

  /// out[i] = table[idx[i]] over doubles (weight gather).
  void (*GatherDoubles)(const double* table, const uint32_t* idx, size_t n,
                        double* out);

  /// out[i] = table[col[sel[i]]] over doubles (per-code numeric cache
  /// lookup); every gathered code must be a valid table index.
  void (*GatherNumeric)(const int32_t* col, const uint32_t* sel,
                        const double* table, size_t n, double* out);

  /// w[i] *= factor[idx[i]] for i in [0, n); every idx[i] must be a valid
  /// factor index (IPF's per-tuple group ids into its per-group factors).
  void (*ScaleByIndex)(const double* factor, const uint32_t* idx, size_t n,
                       double* w);
};

/// Wire/log name of a backend: "scalar", "sse4", "avx2".
const char* BackendName(Backend backend);

/// True when the host CPU can execute `backend` (scalar always can).
bool Supported(Backend backend);

/// The most capable backend the host supports.
Backend BestSupported();

/// Parses "auto" / "scalar" / "sse4" / "avx2" (case-insensitive).
/// "auto", empty, and unknown names resolve to BestSupported(); `ok` (when
/// non-null) reports whether the name was recognized.
Backend ParseBackend(const char* name, bool* ok = nullptr);

/// Resolves the THEMIS_SIMD environment variable (unset = "auto") to a
/// supported backend. A request the host cannot execute degrades to the
/// nearest supported backend (avx2 -> sse4 -> scalar).
/// Callers snapshot this once (the Executor does so at construction, like
/// THEMIS_SHARD_ROWS) so a mid-run setenv cannot change live kernels.
Backend FromEnv();

/// The kernel table for `backend`, degraded to the nearest supported
/// backend when the host cannot execute it. The returned reference is to
/// a static table and stays valid forever.
const Kernels& KernelsFor(Backend backend);

/// Implementation detail shared by the per-ISA translation units: the
/// scalar reference kernels (always available; the bitwise oracle every
/// other backend is tested against), and the per-ISA tables, null when
/// the backend was not compiled in.
const Kernels& ScalarKernels();
const Kernels* Sse4KernelsOrNull();
const Kernels* Avx2KernelsOrNull();

}  // namespace themis::simd

#endif  // THEMIS_SIMD_SIMD_H_
