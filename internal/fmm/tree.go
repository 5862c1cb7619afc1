package fmm

import (
	"fmt"
	"math"
)

// Particle is one source/target point with charge Q. Phi accumulates
// the computed potential.
type Particle struct {
	X, Y, Z float64
	Q       float64
	Phi     float64
}

// Cell is one node of the adaptive oct-tree.
type Cell struct {
	// Center coordinates and half-width of the cube.
	CX, CY, CZ float64
	Half       float64
	// Particles holds indices into the particle slice for leaves;
	// internal cells keep the union of their children for P2P fallback.
	Particles []int
	// Children holds up to eight occupied child cells.
	Children []*Cell
	// Level is the tree depth (root = 0).
	Level int
	// M and L are the multipole and local expansion coefficients.
	M, L []float64
}

// IsLeaf reports whether the cell has no children.
func (c *Cell) IsLeaf() bool { return len(c.Children) == 0 }

// Tree is the spatial decomposition of a particle set.
type Tree struct {
	Root  *Cell
	Cells []*Cell // all cells in construction order
	// LeafCap is the maximum particles per leaf (the paper's q).
	LeafCap int
	// MaxDepth bounds subdivision.
	MaxDepth int
}

// BuildTree subdivides the bounding cube of the particles until every
// leaf holds at most leafCap particles (or maxDepth is reached;
// maxDepth <= 0 means 24).
func BuildTree(particles []Particle, leafCap, maxDepth int) (*Tree, error) {
	if len(particles) == 0 {
		return nil, fmt.Errorf("fmm: no particles")
	}
	if leafCap < 1 {
		return nil, fmt.Errorf("fmm: leaf capacity %d < 1", leafCap)
	}
	if maxDepth <= 0 {
		maxDepth = 24
	}
	// Bounding cube.
	minX, minY, minZ := math.Inf(1), math.Inf(1), math.Inf(1)
	maxX, maxY, maxZ := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for _, p := range particles {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		minZ, maxZ = math.Min(minZ, p.Z), math.Max(maxZ, p.Z)
	}
	half := math.Max(maxX-minX, math.Max(maxY-minY, maxZ-minZ))/2 + 1e-12
	t := &Tree{LeafCap: leafCap, MaxDepth: maxDepth}
	idx := make([]int, len(particles))
	for i := range idx {
		idx[i] = i
	}
	t.Root = t.build(particles, idx,
		(minX+maxX)/2, (minY+maxY)/2, (minZ+maxZ)/2, half, 0)
	return t, nil
}

func (t *Tree) build(ps []Particle, idx []int, cx, cy, cz, half float64, level int) *Cell {
	c := &Cell{CX: cx, CY: cy, CZ: cz, Half: half, Particles: idx, Level: level}
	t.Cells = append(t.Cells, c)
	if len(idx) <= t.LeafCap || level >= t.MaxDepth {
		return c
	}
	var buckets [8][]int
	for _, i := range idx {
		o := 0
		if ps[i].X > cx {
			o |= 1
		}
		if ps[i].Y > cy {
			o |= 2
		}
		if ps[i].Z > cz {
			o |= 4
		}
		buckets[o] = append(buckets[o], i)
	}
	h := half / 2
	for o, b := range buckets {
		if len(b) == 0 {
			continue
		}
		ox, oy, oz := -h, -h, -h
		if o&1 != 0 {
			ox = h
		}
		if o&2 != 0 {
			oy = h
		}
		if o&4 != 0 {
			oz = h
		}
		c.Children = append(c.Children, t.build(ps, b, cx+ox, cy+oy, cz+oz, h, level+1))
	}
	return c
}

// Leaves returns all leaf cells.
func (t *Tree) Leaves() []*Cell {
	var out []*Cell
	for _, c := range t.Cells {
		if c.IsLeaf() {
			out = append(out, c)
		}
	}
	return out
}

// Depth returns the maximum cell level plus one.
func (t *Tree) Depth() int {
	d := 0
	for _, c := range t.Cells {
		if c.Level+1 > d {
			d = c.Level + 1
		}
	}
	return d
}
