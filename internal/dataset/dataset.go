// Package dataset defines the tabular sample container used throughout
// the repository: named feature vectors paired with a scalar response
// (execution time, in seconds, for every workload in the paper).
//
// It provides the operations the paper's methodology needs: uniform
// random sampling to build training sets (Section V), train/test
// splitting, feature augmentation (used by the stacked hybrid model to
// append the analytical prediction as an extra feature) and CSV
// round-tripping for the cmd/lam-datagen tool.
package dataset

import (
	"fmt"
	"math/rand"
	"sync"
)

// Dataset is a column-named design matrix X with response vector Y.
// Rows of X all share the same length, equal to len(FeatureNames).
type Dataset struct {
	// FeatureNames labels the columns of X, e.g. ["I","J","K","bi","bj","bk"].
	FeatureNames []string
	// X holds one feature vector per sample.
	X [][]float64
	// Y holds the response (execution time in seconds) per sample.
	Y []float64
}

// New returns an empty dataset with the given feature names.
func New(featureNames ...string) *Dataset {
	names := make([]string, len(featureNames))
	copy(names, featureNames)
	return &Dataset{FeatureNames: names}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the number of feature columns.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// Add appends one sample. The feature vector is copied.
func (d *Dataset) Add(x []float64, y float64) error {
	if len(x) != d.NumFeatures() {
		return fmt.Errorf("dataset: sample has %d features, want %d", len(x), d.NumFeatures())
	}
	row := make([]float64, len(x))
	copy(row, x)
	d.X = append(d.X, row)
	d.Y = append(d.Y, y)
	return nil
}

// MustAdd is Add but panics on feature-arity mismatch. It is intended
// for generators whose arity is fixed by construction.
func (d *Dataset) MustAdd(x []float64, y float64) {
	if err := d.Add(x, y); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := New(d.FeatureNames...)
	out.X = newRows(len(d.X), d.NumFeatures())
	for i, row := range d.X {
		copy(out.X[i], row)
	}
	out.Y = append([]float64(nil), d.Y...)
	return out
}

// newRows returns n exact-size rows of p values over one flat block,
// so a copied row set is two allocations however many rows it holds.
// Each row's capacity ends where the next row starts: appending to one
// reallocates it rather than overwriting its neighbour.
func newRows(n, p int) [][]float64 {
	if n == 0 {
		return nil
	}
	flat := make([]float64, n*p)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*p : (i+1)*p : (i+1)*p]
	}
	return rows
}

// Validate checks internal consistency: matching X/Y lengths and uniform
// row arity.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset: %d feature rows but %d responses", len(d.X), len(d.Y))
	}
	for i, row := range d.X {
		if len(row) != d.NumFeatures() {
			return fmt.Errorf("dataset: row %d has %d features, want %d", i, len(row), d.NumFeatures())
		}
	}
	return nil
}

// Subset returns a new dataset holding the rows selected by idx
// (feature vectors are copied, into one block). It panics on a row of
// the wrong arity, like MustAdd.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := New(d.FeatureNames...)
	out.X = newRows(len(idx), d.NumFeatures())
	if len(idx) > 0 {
		out.Y = make([]float64, len(idx))
	}
	for k, i := range idx {
		if len(d.X[i]) != d.NumFeatures() {
			panic(fmt.Errorf("dataset: sample has %d features, want %d", len(d.X[i]), d.NumFeatures()))
		}
		copy(out.X[k], d.X[i])
		out.Y[k] = d.Y[i]
	}
	return out
}

// SampleFraction draws a uniform random sample holding round(frac*n)
// samples (at least 1 when frac > 0 and the dataset is non-empty) and
// returns it together with the complement, both sharing the parent's
// rows (see SampleN). This mirrors the paper's uniform-random-sampling
// construction of training sets, with the complement used as the
// held-out evaluation set.
func (d *Dataset) SampleFraction(frac float64, rng *rand.Rand) (sample, rest *Dataset, err error) {
	k, err := d.FractionLen(frac)
	if err != nil {
		return nil, nil, err
	}
	return d.SampleN(k, rng)
}

// FractionLen is the size of the sample SampleFraction draws:
// round(frac*n), at least 1 when frac > 0 and the dataset is non-empty.
func (d *Dataset) FractionLen(frac float64) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("dataset: fraction %v out of [0,1]", frac)
	}
	n := d.Len()
	k := int(frac*float64(n) + 0.5)
	if frac > 0 && k == 0 && n > 0 {
		k = 1
	}
	return k, nil
}

// SampleN draws k samples uniformly at random without replacement and
// returns them together with the complement. Both subsets share the
// parent's rows: their row headers and responses are their own, but
// each feature vector is the parent's, so a sample is cheap however
// large its complement, and writing to a subset's feature values
// writes to the parent's (Clone first to get rows of its own). The
// draw is rng.Perm(n)'s, made in pooled memory, so it consumes rng
// exactly as Perm does.
func (d *Dataset) SampleN(k int, rng *rand.Rand) (sample, rest *Dataset, err error) {
	sample, rest = new(Dataset), new(Dataset)
	if err := d.SampleNInto(k, rng, sample, rest); err != nil {
		return nil, nil, err
	}
	return sample, rest, nil
}

// SampleNInto is SampleN drawing into the datasets it is given: sample
// and rest become the subsets SampleN returns, and their row headers,
// responses and feature names are written over the memory they already
// hold when it is large enough. A caller that draws many subsets of one
// dataset, such as a sweep's trials, reuses one pair of datasets for
// all of them. On an error both are left as they were.
func (d *Dataset) SampleNInto(k int, rng *rand.Rand, sample, rest *Dataset) error {
	n := d.Len()
	if k < 0 || k > n {
		return fmt.Errorf("dataset: cannot sample %d of %d rows", k, n)
	}
	buf := permPool.Get().(*[]int)
	defer permPool.Put(buf)
	perm := permInto(*buf, n, rng)
	*buf = perm
	d.shareInto(sample, perm[:k])
	d.shareInto(rest, perm[k:])
	return nil
}

// permPool recycles SampleN's permutations.
var permPool = sync.Pool{New: func() any { return new([]int) }}

// permInto returns a pseudo-random permutation of [0, n) in buf (grown
// when short): the algorithm of rand.Rand.Perm, draw for draw.
func permInto(buf []int, n int, rng *rand.Rand) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// shareInto makes dst the rows selected by idx, its feature vectors d's
// own (see SampleN), reusing dst's memory where it is large enough. It
// panics on a row of the wrong arity, like Subset.
func (d *Dataset) shareInto(dst *Dataset, idx []int) {
	dst.FeatureNames = append(dst.FeatureNames[:0], d.FeatureNames...)
	dst.X, dst.Y = resize(dst.X, len(idx)), resize(dst.Y, len(idx))
	for k, i := range idx {
		if len(d.X[i]) != d.NumFeatures() {
			panic(fmt.Errorf("dataset: sample has %d features, want %d", len(d.X[i]), d.NumFeatures()))
		}
		dst.X[k], dst.Y[k] = d.X[i], d.Y[i]
	}
}

// resize returns s[:n], or a new n-element slice when s is shorter.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// WithFeature returns a copy of the dataset with one extra column
// appended. values must have one entry per sample. The stacked hybrid
// model uses this to append the analytical model's prediction.
func (d *Dataset) WithFeature(name string, values []float64) (*Dataset, error) {
	if len(values) != d.Len() {
		return nil, fmt.Errorf("dataset: feature %q has %d values for %d samples", name, len(values), d.Len())
	}
	out := New(append(append([]string{}, d.FeatureNames...), name)...)
	p := d.NumFeatures()
	out.X = newRows(d.Len(), p+1)
	for i, row := range d.X {
		copy(out.X[i], row)
		out.X[i][p] = values[i]
	}
	out.Y = append([]float64(nil), d.Y...)
	return out, nil
}
