// Edge-correlation computation policy: exact Jaccard over id sets, Min-Hash
// screened, or pure Min-Hash estimate (Section 3.2).

#ifndef SCPRT_AKG_CORRELATION_H_
#define SCPRT_AKG_CORRELATION_H_

#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "common/types.h"

namespace scprt::akg {

/// How edge correlations are obtained.
enum class EcMode {
  /// Exact Jaccard on every candidate pair (no Min-Hash) — the reference.
  kExact,
  /// Min-Hash candidate screen (shared signature value), exact Jaccard to
  /// confirm — the recommended production mode.
  kMinHashScreenExactVerify,
  /// Min-Hash only: the bottom-p estimate is the EC (fastest; small false
  /// positive/negative rates, Section 3.2.2).
  kMinHashOnly,
};

/// Computes the EC of pair (a, b) under `mode`. `sig_a`/`sig_b` may be
/// empty in kExact mode. `weighted` selects the weighted-sketch resemblance
/// in kMinHashOnly mode — the weighting lives in the sketch evidence; the
/// exact modes stay set-semantics Jaccard either way. Returns the
/// correlation in [0, 1].
double ComputeEc(EcMode mode, bool weighted, const UserIdSets& sets,
                 KeywordId a, KeywordId b, const KeywordSignature& sig_a,
                 const KeywordSignature& sig_b, std::size_t p);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_CORRELATION_H_
