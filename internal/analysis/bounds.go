package analysis

// Theoretical bounds for MinUsageTime DBP as functions of the duration
// ratio mu, collected from the paper (Secs. I, II, VIII and Theorem 1).
// These are the rows of the bounds-landscape table (experiment E6) and
// the reference lines every measured ratio is compared against.

// FirstFitUpperBound is Theorem 1 of the paper: First Fit is
// (mu+4)-competitive — the best known upper bound for MinUsageTime DBP,
// and the first with multiplicative factor 1 on mu.
func FirstFitUpperBound(mu float64) float64 { return mu + 4 }

// FirstFitUpperBoundOld is the authors' earlier general bound 2*mu + 7
// for First Fit ([5], [6]; cited in Sec. I), superseded by Theorem 1.
func FirstFitUpperBoundOld(mu float64) float64 { return 2*mu + 7 }

// NextFitUpperBound is Kamali & López-Ortiz's 2*mu + 1 upper bound for
// Next Fit (Sec. II).
func NextFitUpperBound(mu float64) float64 { return 2*mu + 1 }

// NextFitLowerBound is the Section VIII construction's 2*mu lower bound
// for Next Fit, showing the factor 2 is inherent.
func NextFitLowerBound(mu float64) float64 { return 2 * mu }

// HybridFirstFitUpperBound is the semi-online Hybrid First Fit bound
// (8/7) * mu + O(1) from [6] (Sec. I); the additive constant is not
// restated in this paper, so the multiplicative term is what E6 tabulates.
func HybridFirstFitUpperBound(mu float64) float64 { return 8.0 / 7.0 * mu }

// AnyOnlineLowerBound is the universal lower bound: no online algorithm
// for MinUsageTime DBP is better than mu-competitive (Sec. I; proved
// formally in [12]).
func AnyOnlineLowerBound(mu float64) float64 { return mu }

// AnyFitLowerBound is the lower bound mu + 1 for every Any Fit algorithm
// (Sec. I, from [5], [6]).
func AnyFitLowerBound(mu float64) float64 { return mu + 1 }

// Equal-duration bounds. Masoori, Narayanan & Pankratov ("Renting
// Servers in the Cloud: The Case of Equal Duration Jobs",
// arXiv:2108.12486) study the setting where every job runs for the same
// time — mu collapses to 1 — and prove constant competitive ratios far
// below the general-instance guarantees: Next Fit is exactly
// 2-competitive there, and First Fit's ratio also drops to a small
// constant near 2 instead of Theorem 1's mu+4 = 5. The registry's
// "equalduration" scenario is checked against these reference lines.

// EqualDurationFirstFitBound is the reference line the E-series checks
// hold First Fit's measured conservative ratio under on equal-duration
// instances: the constant 2 of the Masoori et al. regime, far below the
// general Theorem 1 value FirstFitUpperBound(1) = 5.
func EqualDurationFirstFitBound() float64 { return 2 }
