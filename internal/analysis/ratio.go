package analysis

import (
	"fmt"
	"math"

	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
)

// Ratio is a measured competitive ratio for one run: the algorithm's
// usage against a certified bracket on OPT_total. RatioHi = Usage/OptLower
// overestimates the true ratio, RatioLo = Usage/OptUpper underestimates
// it; when the bracket is exact both coincide.
type Ratio struct {
	Algorithm string
	Mu        float64
	Usage     float64
	Opt       opt.Bounds
}

// Hi returns the conservative (over-)estimate Usage/Opt.Lower.
func (r Ratio) Hi() float64 {
	if r.Opt.Lower == 0 {
		return math.NaN()
	}
	return r.Usage / r.Opt.Lower
}

// lo returns the optimistic (under-)estimate Usage/Opt.Upper.
func (r Ratio) lo() float64 {
	if r.Opt.Upper == 0 {
		return math.NaN()
	}
	return r.Usage / r.Opt.Upper
}

// value returns the exact ratio when the OPT bracket is exact, else the
// bracket midpoint estimate.
func (r Ratio) value() float64 {
	if r.Opt.Mid() == 0 {
		return math.NaN()
	}
	return r.Usage / r.Opt.Mid()
}

// String renders the measurement.
func (r Ratio) String() string {
	if r.Opt.Exact {
		return fmt.Sprintf("%s: usage %.6g / OPT %.6g = %.4f (mu=%.3g)", r.Algorithm, r.Usage, r.Opt.Lower, r.value(), r.Mu)
	}
	return fmt.Sprintf("%s: usage %.6g / OPT in [%.6g, %.6g] -> ratio in [%.4f, %.4f] (mu=%.3g)",
		r.Algorithm, r.Usage, r.Opt.Lower, r.Opt.Upper, r.lo(), r.Hi(), r.Mu)
}

// Measure runs the algorithm on the instance and returns the measured
// competitive ratio against a certified OPT bracket: opt.Total with
// opt.ExactLimit for scalar instances, the vector bracket otherwise.
func Measure(algo packing.Algorithm, l item.List) (Ratio, *packing.Result, error) {
	res, err := packing.Run(algo, l, nil)
	if err != nil {
		return Ratio{}, nil, err
	}
	var b opt.Bounds
	if dim(l) > 1 {
		b = opt.TotalVec(l)
	} else {
		b = opt.Total(l, opt.ExactLimit)
	}
	return Ratio{Algorithm: res.Algorithm, Mu: l.Mu(), Usage: res.TotalUsage, Opt: b}, res, nil
}

func dim(l item.List) int {
	d := 1
	for _, it := range l {
		if it.Dim() > d {
			d = it.Dim()
		}
	}
	return d
}
