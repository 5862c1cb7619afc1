// Package cachesim is a trace-driven, multi-level, set-associative LRU
// cache simulator. The repository uses it to validate the paper's
// closed-form stencil cache-miss model (Section IV.A) against an actual
// cache, and as the substrate for the model-vs-simulation ablation
// bench. It plays the role a hardware performance-counter run played
// for the paper's authors.
package cachesim

import (
	"fmt"

	"lam/internal/machine"
)

// Cache is one set-associative LRU cache level.
type Cache struct {
	lineBits uint
	setCount int
	assoc    int
	tags     []uint64 // setCount × assoc tag array; 0 means empty
	stamps   []uint64 // LRU timestamps parallel to tags
	clock    uint64
	misses   uint64
}

// NewCache builds a cache with the given geometry. sizeBytes must be a
// multiple of lineBytes×assoc and lineBytes must be a power of two.
func NewCache(sizeBytes, lineBytes, assoc int) (*Cache, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d not a power of two", lineBytes)
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("cachesim: non-positive associativity %d", assoc)
	}
	lines := sizeBytes / lineBytes
	if lines <= 0 || lines%assoc != 0 {
		return nil, fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, assoc)
	}
	bits := uint(0)
	for 1<<bits < lineBytes {
		bits++
	}
	c := &Cache{
		lineBits: bits,
		setCount: lines / assoc,
		assoc:    assoc,
		tags:     make([]uint64, lines),
		stamps:   make([]uint64, lines),
	}
	return c, nil
}

// Access touches the line containing addr and reports whether it hit.
// Misses install the line, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	line := (addr >> c.lineBits) + 1 // +1 so tag 0 means "empty"
	set := int(line % uint64(c.setCount))
	base := set * c.assoc
	c.clock++
	lruIdx, lruStamp := base, c.stamps[base]
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == line {
			c.stamps[i] = c.clock
			return true
		}
		if c.stamps[i] < lruStamp {
			lruIdx, lruStamp = i, c.stamps[i]
		}
	}
	c.misses++
	c.tags[lruIdx] = line
	c.stamps[lruIdx] = c.clock
	return false
}

// Misses returns the number of misses recorded so far.
func (c *Cache) Misses() uint64 { return c.misses }

// Hierarchy chains cache levels: an access probes L1 first and descends
// on miss; a miss at the last level is a memory access.
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from inner to outer levels.
func NewHierarchy(levels ...*Cache) *Hierarchy {
	return &Hierarchy{levels: levels}
}

// FromMachine builds a hierarchy matching a machine description.
func FromMachine(m *machine.Machine) (*Hierarchy, error) {
	levels := make([]*Cache, 0, len(m.Levels))
	for _, l := range m.Levels {
		c, err := NewCache(l.SizeBytes, l.LineBytes, l.Assoc)
		if err != nil {
			return nil, fmt.Errorf("cachesim: level %s: %w", l.Name, err)
		}
		levels = append(levels, c)
	}
	return NewHierarchy(levels...), nil
}

// Access walks addr down the hierarchy and returns the index of the
// level that hit, or len(levels) for a memory access.
func (h *Hierarchy) Access(addr uint64) int {
	for i, c := range h.levels {
		if c.Access(addr) {
			return i
		}
	}
	return len(h.levels)
}

// Levels returns the cache levels from inner to outer.
func (h *Hierarchy) Levels() []*Cache { return h.levels }
