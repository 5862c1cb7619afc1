package fmm

import (
	"fmt"
	"runtime"
	"sync"
)

// Config selects an FMM run: the paper's X = (t, N, q, k) with N
// implied by the particle slice.
type Config struct {
	// Order is the expansion order k (>= 1).
	Order int
	// LeafCap is the maximum particles per leaf cell (the paper's q).
	LeafCap int
	// Theta is the multipole acceptance criterion: cells interact via
	// M2L when (h_a + h_b) / distance < Theta. 0 means 0.5, the classic
	// one-cell-buffer criterion for equal cells.
	Theta float64
	// Threads bounds phase parallelism; 0 means GOMAXPROCS.
	Threads int
	// MaxDepth bounds tree subdivision; 0 means 24.
	MaxDepth int
}

func (c Config) normalized() (Config, error) {
	if c.Order < 1 {
		return c, fmt.Errorf("fmm: expansion order %d < 1", c.Order)
	}
	if c.LeafCap < 1 {
		return c, fmt.Errorf("fmm: leaf capacity %d < 1", c.LeafCap)
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	if c.Theta < 0 || c.Theta >= 1 {
		return c, fmt.Errorf("fmm: theta %v out of (0, 1)", c.Theta)
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// Stats reports the work the traversal generated, which the analytical
// models approximate: counts of each interaction kind.
type Stats struct {
	Cells     int
	Leaves    int
	TreeDepth int
	P2PPairs  int
	M2LPairs  int
	// P2PInteractions counts particle-particle pairs evaluated.
	P2PInteractions int
}

// Evaluate computes the potential Φ(y_j) = Σ_i q_i / |y_j − x_i|
// (self-interactions excluded) for every particle, in place, and returns
// traversal statistics.
func Evaluate(particles []Particle, cfg Config) (*Stats, error) {
	c, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	for i := range particles {
		particles[i].Phi = 0
	}
	tree, err := BuildTree(particles, c.LeafCap, c.MaxDepth)
	if err != nil {
		return nil, err
	}
	set, err := NewMultiIndexSet(c.Order)
	if err != nil {
		return nil, err
	}

	// Upward pass: P2M at leaves, M2M towards the root.
	px := make([]float64, len(particles))
	py := make([]float64, len(particles))
	pz := make([]float64, len(particles))
	pq := make([]float64, len(particles))
	for i, p := range particles {
		px[i], py[i], pz[i], pq[i] = p.X, p.Y, p.Z, p.Q
	}
	upward(tree.Root, set, px, py, pz, pq)

	// Dual-tree traversal: collect M2L and P2P pairs grouped by target.
	m2lByTarget := map[*Cell][]*Cell{}
	p2pByTarget := map[*Cell][]*Cell{}
	st := &Stats{Cells: len(tree.Cells), TreeDepth: tree.Depth()}
	traverse(tree.Root, tree.Root, c.Theta, m2lByTarget, p2pByTarget, st)

	// M2L phase: parallel over target cells (each target's L is only
	// written by its own worker, with worker-local Taylor scratch).
	targets := make([]*Cell, 0, len(m2lByTarget))
	for t := range m2lByTarget {
		t.L = make([]float64, set.Len())
		targets = append(targets, t)
	}
	runM2L(targets, m2lByTarget, set, c.Threads)

	// Downward pass: L2L from the root, then L2P at leaves.
	downward(tree.Root, set, nil)

	leaves := tree.Leaves()
	st.Leaves = len(leaves)

	// L2P + P2P phase, parallel over leaves: every leaf only writes the
	// potentials of its own particles.
	parallelFor(len(leaves), c.Threads, func(w, li int) {
		leaf := leaves[li]
		if leaf.L != nil {
			for _, i := range leaf.Particles {
				particles[i].Phi += L2P(set, leaf.L, leaf.CX, leaf.CY, leaf.CZ,
					particles[i].X, particles[i].Y, particles[i].Z)
			}
		}
		for _, src := range p2pByTarget[leaf] {
			p2p(particles, leaf.Particles, src.Particles, leaf == src)
		}
	})
	for t, srcs := range p2pByTarget {
		for _, s := range srcs {
			st.P2PInteractions += len(t.Particles) * len(s.Particles)
		}
	}
	return st, nil
}

// runM2L executes the M2L lists with one scratch context per worker.
func runM2L(targets []*Cell, lists map[*Cell][]*Cell, set *MultiIndexSet, threads int) {
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := range targets {
			next <- i
		}
		close(next)
	}()
	if threads > len(targets) {
		threads = len(targets)
	}
	if threads < 1 {
		threads = 1
	}
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := newM2LContext(set)
			for i := range next {
				t := targets[i]
				for _, s := range lists[t] {
					ctx.M2L(set, s.M, s.CX, s.CY, s.CZ, t.CX, t.CY, t.CZ, t.L)
				}
			}
		}()
	}
	wg.Wait()
}

// upward computes multipole expansions bottom-up.
func upward(c *Cell, set *MultiIndexSet, px, py, pz, pq []float64) {
	c.M = make([]float64, set.Len())
	if c.IsLeaf() {
		lx := make([]float64, len(c.Particles))
		ly := make([]float64, len(c.Particles))
		lz := make([]float64, len(c.Particles))
		lq := make([]float64, len(c.Particles))
		for k, i := range c.Particles {
			lx[k], ly[k], lz[k], lq[k] = px[i], py[i], pz[i], pq[i]
		}
		P2M(set, lx, ly, lz, lq, c.CX, c.CY, c.CZ, c.M)
		return
	}
	for _, ch := range c.Children {
		upward(ch, set, px, py, pz, pq)
		M2M(set, ch.M, ch.CX, ch.CY, ch.CZ, c.CX, c.CY, c.CZ, c.M)
	}
}

// downward pushes local expansions to children (L2L).
func downward(c *Cell, set *MultiIndexSet, parentL []float64) {
	if parentL != nil {
		if c.L == nil {
			c.L = make([]float64, set.Len())
		}
		// Parent L is expressed about the parent centre; the caller
		// already translated it — parentL here is the translated
		// contribution about this cell's centre.
		for i := range parentL {
			c.L[i] += parentL[i]
		}
	}
	if c.IsLeaf() {
		return
	}
	for _, ch := range c.Children {
		var shifted []float64
		if c.L != nil {
			shifted = make([]float64, set.Len())
			L2L(set, c.L, c.CX, c.CY, c.CZ, ch.CX, ch.CY, ch.CZ, shifted)
		}
		downward(ch, set, shifted)
	}
}

// traverse is the dual-tree traversal of Yokota's ExaFMM: it accepts
// well-separated pairs via the MAC, descends into the larger cell
// otherwise, and emits P2P for leaf-leaf pairs.
func traverse(target, source *Cell, theta float64, m2l, p2pLists map[*Cell][]*Cell, st *Stats) {
	dx := target.CX - source.CX
	dy := target.CY - source.CY
	dz := target.CZ - source.CZ
	d2 := dx*dx + dy*dy + dz*dz
	sep := target.Half + source.Half
	if d2*theta*theta > sep*sep {
		m2l[target] = append(m2l[target], source)
		st.M2LPairs++
		return
	}
	if target.IsLeaf() && source.IsLeaf() {
		p2pLists[target] = append(p2pLists[target], source)
		st.P2PPairs++
		return
	}
	// Descend into the larger cell (ties: source).
	if target.IsLeaf() || (!source.IsLeaf() && source.Half >= target.Half) {
		for _, ch := range source.Children {
			traverse(target, ch, theta, m2l, p2pLists, st)
		}
		return
	}
	for _, ch := range target.Children {
		traverse(ch, source, theta, m2l, p2pLists, st)
	}
}

// p2p accumulates direct interactions of source particles onto targets.
func p2p(ps []Particle, targets, sources []int, same bool) {
	for _, ti := range targets {
		tx, ty, tz := ps[ti].X, ps[ti].Y, ps[ti].Z
		acc := 0.0
		for _, si := range sources {
			if same && si == ti {
				continue
			}
			dx := tx - ps[si].X
			dy := ty - ps[si].Y
			dz := tz - ps[si].Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue // coincident particles contribute no finite term
			}
			acc += ps[si].Q * invSqrt(r2)
		}
		ps[ti].Phi += acc
	}
}

// parallelFor runs f(worker, i) for i in [0, n) across at most t
// goroutines with contiguous block scheduling.
func parallelFor(n, t int, f func(worker, i int)) {
	if n == 0 {
		return
	}
	if t > n {
		t = n
	}
	if t <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < t; w++ {
		lo := w * n / t
		hi := (w + 1) * n / t
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(w, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
