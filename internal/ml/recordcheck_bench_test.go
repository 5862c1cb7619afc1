package ml

import (
	"math"
	"os"
	"testing"
)

// recordCheckForest fits a 100-tree extra-trees forest on 2 600 rows:
// about 520 k records, the size of the cold-load benchmark's model.
func recordCheckForest(tb testing.TB) *Forest {
	tb.Helper()
	X, y := friedman1(2600, 0.5, 7)
	f := NewExtraTrees(100, 1)
	if err := f.Fit(X, y); err != nil {
		tb.Fatal(err)
	}
	return f
}

// benchRecordCheck checks every tree of f's table on one goroutine: the
// work of the load's fan-out, unsplit.
func benchRecordCheck(f *Forest) func(b *testing.B) {
	return func(b *testing.B) {
		e, n := f.compiled, len(f.trees)
		b.SetBytes(int64(16 * len(e.hot)))
		for range b.N {
			if t := e.firstBadTreeIn(0, n, int64(f.nFeatures)); t != n {
				b.Fatalf("fitted table refused at tree %d", t)
			}
		}
	}
}

// benchRecordSum is the check's ceiling: a bare sum of the two fields
// it reads from every record of f's table.
func benchRecordSum(f *Forest) func(b *testing.B) {
	return func(b *testing.B) {
		hot := f.compiled.hot
		b.SetBytes(int64(16 * len(hot)))
		for range b.N {
			var s int64
			for _, n := range hot {
				s += int64(n.feature) + int64(n.right)
			}
			recordSumSink = s
		}
	}
}

// recordSumSink keeps benchRecordSum's loop from being compiled away.
var recordSumSink int64

// BenchmarkRecordCheck streams a fitted ~520 k-record walk table
// through the load's record check (check) and through a bare sum of
// the same two fields (sum), so the check's MB/s prints beside the
// ceiling:
//
//	go test ./internal/ml -run '^$' -bench RecordCheck -cpu 1
func BenchmarkRecordCheck(b *testing.B) {
	f := recordCheckForest(b)
	b.Run("check", benchRecordCheck(f))
	b.Run("sum", benchRecordSum(f))
}

// TestRecordCheckBenchGuard is CI's record-check speed gate: with
// LAM_BENCH_GUARD=1 it times the check against the bare field sum over
// the same table, the best of three runs each, and fails when the
// check takes more than 3x as long. Eight runs a side on a 2-core Xeon
// VM (go1.24.0, shared host) read 1.89–2.34x (median 1.94) for this
// check and 2.13–3.09x (median 2.66) for the one before it, which
// re-sign-extended its bounds and spilled both fields on every record.
// The bound is loose on purpose: the sum is bound by memory bandwidth
// and the check by instructions, so the ratio rises on a host with
// faster memory. A compare-and-branch verdict reads about 5x and trips
// it.
func TestRecordCheckBenchGuard(t *testing.T) {
	if os.Getenv("LAM_BENCH_GUARD") != "1" {
		t.Skip("set LAM_BENCH_GUARD=1 to run the record-check regression guard")
	}
	f := recordCheckForest(t)
	check, sum := int64(math.MaxInt64), int64(math.MaxInt64)
	for range 3 {
		check = min(check, testing.Benchmark(benchRecordCheck(f)).NsPerOp())
		sum = min(sum, testing.Benchmark(benchRecordSum(f)).NsPerOp())
	}
	ratio := float64(check) / float64(sum)
	t.Logf("%d records: check %d ns/op, field sum %d ns/op (%.2fx)", len(f.compiled.hot), check, sum, ratio)
	if ratio > 3 {
		t.Errorf("the record check takes %.2fx the bare field sum (%d vs %d ns/op), beyond the 3x guard", ratio, check, sum)
	}
}
