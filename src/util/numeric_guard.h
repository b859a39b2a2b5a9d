#ifndef ACTIVEDP_UTIL_NUMERIC_GUARD_H_
#define ACTIVEDP_UTIL_NUMERIC_GUARD_H_

#include <vector>

#include "util/status.h"

namespace activedp {

/// Numerical guards applied at pipeline stage boundaries: every probability
/// vector handed from one stage to the next must be finite and normalized,
/// so a diverged solver cannot silently poison downstream stages.

/// True iff every entry is finite.
bool AllFinite(const std::vector<double>& values);

/// True iff p[0..n) is a probability vector: non-empty, entries finite, in
/// [-tol, 1 + tol], summing to 1 within `tol`.
bool IsProbabilityVector(const double* p, int n, double tol = 1e-6);

/// Clamps `p` into a valid distribution in place: non-finite or negative
/// entries become 0, then the vector is renormalized (uniform if the mass
/// vanished). Returns true when a repair was needed.
bool RepairProbabilityVector(std::vector<double>* p);

}  // namespace activedp

#endif  // ACTIVEDP_UTIL_NUMERIC_GUARD_H_
