package ml

import (
	"fmt"
	"math"
)

// MAPE returns the mean absolute percentage error, in percent — the
// paper's headline metric. Samples with zero truth are skipped (all
// responses in this repository are strictly positive execution times).
func MAPE(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	s, n := 0.0, 0
	for i := range yTrue {
		ape, ok := APE(yTrue[i], yPred[i])
		if !ok {
			continue
		}
		s += ape
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// APE returns one sample's absolute percentage error, in percent, and
// whether it is defined (zero truth has no percentage error — the
// repository's responses are strictly positive execution times, so a
// zero is a degenerate sample, skipped by the aggregate metrics). It is
// the per-sample unit behind MAPE and the online plane's sliding
// accuracy window, which must score observations one at a time as they
// stream in.
func APE(yTrue, yPred float64) (float64, bool) {
	if yTrue == 0 {
		return 0, false
	}
	return 100 * math.Abs(yPred-yTrue) / math.Abs(yTrue), true
}

func checkSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: metric on mismatched lengths %d vs %d", len(a), len(b)))
	}
}
