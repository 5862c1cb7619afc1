package workload

import (
	"lam/internal/dataset"
	"lam/internal/perfsim"
)

// blockSizes returns the block-size candidates for a dimension of
// extent d: powers of two up to d, plus d itself (the "1×1×1 … I×J×K"
// sweep of Section V restricted to the sizes autotuners actually try).
func blockSizes(d int) []int {
	var out []int
	for b := 1; b < d; b *= 2 {
		out = append(out, b)
	}
	out = append(out, d)
	return out
}

// stencilGridDataset builds the Fig. 5 dataset: cubic-ish grids only,
// X = (I, J, K) with I×J×K in {128…256}³ on a 16-point stride, serial,
// unblocked — the region the analytical model covers accurately.
func stencilGridDataset(sim *perfsim.StencilSim) (*dataset.Dataset, error) {
	ds := dataset.New("I", "J", "K")
	for i := 128; i <= 256; i += 16 {
		for j := 128; j <= 256; j += 16 {
			for k := 128; k <= 256; k += 16 {
				y, err := sim.Measure(perfsim.StencilWorkload{I: i, J: j, K: k})
				if err != nil {
					return nil, err
				}
				ds.MustAdd([]float64{float64(i), float64(j), float64(k)}, y)
			}
		}
	}
	return ds, nil
}

// StencilBlockingDataset builds the Fig. 3A / Fig. 6 dataset:
// X = (I, J, K, bi, bj, bk) with I×J×K in {1×16×16 … 1×128×128} on a
// 16-point stride and block sizes sweeping each dimension. Exported,
// unlike the other builders, for the noise sweep, which measures it
// with simulators of its own.
func StencilBlockingDataset(sim *perfsim.StencilSim) (*dataset.Dataset, error) {
	ds := dataset.New("I", "J", "K", "bi", "bj", "bk")
	for j := 16; j <= 128; j += 16 {
		for k := 16; k <= 128; k += 16 {
			for _, bj := range blockSizes(j) {
				for _, bk := range blockSizes(k) {
					y, err := sim.Measure(perfsim.StencilWorkload{
						I: 1, J: j, K: k, TI: 1, TJ: bj, TK: bk,
					})
					if err != nil {
						return nil, err
					}
					ds.MustAdd([]float64{1, float64(j), float64(k), 1, float64(bj), float64(bk)}, y)
				}
			}
		}
	}
	return ds, nil
}

// stencilThreadsDataset builds the Fig. 7 dataset: X = (I, J, K, t)
// with I×J×K in {128×128×1 … 176×176×1} on a 4-point stride and
// t = 1…8 threads, each run threadsTimeSteps sweeps. (The paper uses a
// 16-point stride; the denser stride keeps 1% of the dataset above a
// handful of samples, standing in for the measurement repetitions a
// hardware campaign would have.)
func stencilThreadsDataset(sim *perfsim.StencilSim) (*dataset.Dataset, error) {
	ds := dataset.New("I", "J", "K", "t")
	for i := 128; i <= 176; i += 4 {
		for j := 128; j <= 176; j += 4 {
			for t := 1; t <= 8; t++ {
				y, err := sim.Measure(perfsim.StencilWorkload{
					I: i, J: j, K: 1, Threads: t, TimeSteps: threadsTimeSteps,
				})
				if err != nil {
					return nil, err
				}
				ds.MustAdd([]float64{float64(i), float64(j), 1, float64(t)}, y)
			}
		}
	}
	return ds, nil
}

// stencilFullDataset builds the complete PATUS configuration space of
// Section III.B — the paper's full modelling vector
// X = (I, J, K, bi, bj, bk, u, t) — which no single figure sweeps but
// the framework is defined over. Grid dims {32, 64, 96}³, block sizes
// from the power-of-two ladder, unroll u ∈ {0, 2, 4, 8}, t ∈ {1, 4, 8}.
func stencilFullDataset(sim *perfsim.StencilSim) (*dataset.Dataset, error) {
	ds := dataset.New("I", "J", "K", "bi", "bj", "bk", "u", "t")
	dims := []int{32, 64, 96}
	unrolls := []int{0, 2, 4, 8}
	threads := []int{1, 4, 8}
	for _, d := range dims {
		for _, bi := range []int{8, d} {
			for _, bj := range []int{4, 16, d} {
				for _, bk := range []int{4, 16, d} {
					for _, u := range unrolls {
						for _, t := range threads {
							y, err := sim.Measure(perfsim.StencilWorkload{
								I: d, J: d, K: d, TI: bi, TJ: bj, TK: bk,
								Unroll: u, Threads: t,
							})
							if err != nil {
								return nil, err
							}
							ds.MustAdd([]float64{
								float64(d), float64(d), float64(d),
								float64(bi), float64(bj), float64(bk),
								float64(u), float64(t),
							}, y)
						}
					}
				}
			}
		}
	}
	return ds, nil
}

// FMMQValues is the per-leaf-capacity sweep of the FMM dataset.
var FMMQValues = []int{8, 16, 32, 64, 128, 256, 512}

// fmmDataset builds the Fig. 3B / Fig. 8 dataset: X = (t, N, q, k) with
// t = 1…16, N ∈ {4096, 8192, 16384}, q in FMMQValues and k = 2…12
// (Section V).
func fmmDataset(sim *perfsim.FMMSim) (*dataset.Dataset, error) {
	ds := dataset.New("t", "N", "q", "k")
	for t := 1; t <= 16; t++ {
		for _, n := range []int{4096, 8192, 16384} {
			for _, q := range FMMQValues {
				for k := 2; k <= 12; k++ {
					y, err := sim.Measure(perfsim.FMMWorkload{N: n, Q: q, K: k, Threads: t})
					if err != nil {
						return nil, err
					}
					ds.MustAdd([]float64{float64(t), float64(n), float64(q), float64(k)}, y)
				}
			}
		}
	}
	return ds, nil
}
