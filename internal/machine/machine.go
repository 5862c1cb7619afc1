// Package machine describes the hardware parameters consumed by the
// analytical models and the performance simulators: the cache hierarchy,
// memory bandwidth and per-core floating-point throughput.
//
// The paper's experiments ran on Blue Waters XE6 nodes (2× AMD
// Interlagos 6276). That machine is unavailable here, so the
// BlueWatersXE6 preset reproduces its published parameters and two
// additional presets support the hardware-change experiments the paper
// motivates (training cheaply after a machine swap).
package machine

// CacheLevel describes one level of the cache hierarchy.
type CacheLevel struct {
	// Name labels the level, e.g. "L1".
	Name string
	// SizeBytes is the capacity of the level.
	SizeBytes int
	// LineBytes is the cache-line size.
	LineBytes int
	// Assoc is the set associativity (ways).
	Assoc int
	// BandwidthBytesPerSec is the sustainable transfer rate from this
	// level to the level above it.
	BandwidthBytesPerSec float64
	// LatencySec is the access latency of the level.
	LatencySec float64
}

// SizeElems returns the level capacity in float64 elements.
func (c CacheLevel) SizeElems() int { return c.SizeBytes / 8 }

// LineElems returns the cache-line size in float64 elements (the W of
// the paper's Eq. 7).
func (c CacheLevel) LineElems() int { return c.LineBytes / 8 }

// BetaSecPerElem returns the per-element transfer time (the paper's
// βmem for this level), assuming 8-byte elements.
func (c CacheLevel) BetaSecPerElem() float64 {
	return 8 / c.BandwidthBytesPerSec
}

// MaxLevels bounds the cache levels a Machine may describe. The
// analytical models keep their per-level miss counts in an array of
// this length, so scoring a row allocates nothing; real hierarchies
// have three or four levels.
const MaxLevels = 8

// Machine is a complete single-node hardware description.
type Machine struct {
	// Name identifies the preset.
	Name string
	// Levels lists the cache hierarchy from L1 outward.
	Levels []CacheLevel
	// MemBandwidthBytesPerSec is the sustainable main-memory bandwidth
	// of one core (stream-like access).
	MemBandwidthBytesPerSec float64
	// MemLatencySec is the main-memory access latency.
	MemLatencySec float64
	// FlopsPerCorePerSec is the peak scalar-equivalent floating-point
	// rate of one core (the 1/tc of the paper's Eq. 2 family).
	FlopsPerCorePerSec float64
	// Cores is the number of cores of one socket-pair node.
	Cores int
	// BWSaturationThreads is the number of concurrent threads that
	// saturate the node memory bandwidth; extra threads add no memory
	// throughput. Used by the performance simulators only — the paper's
	// analytical models are single-core.
	BWSaturationThreads float64
	// ThreadSpawnOverheadSec is the per-thread fork/join cost per
	// parallel region. Used by the performance simulators only.
	ThreadSpawnOverheadSec float64
}

// TimePerFlop returns tc, the seconds per floating-point operation.
func (m *Machine) TimePerFlop() float64 { return 1 / m.FlopsPerCorePerSec }

// MemBetaSecPerElem returns the main-memory per-element transfer time
// (the paper's βmem) for 8-byte elements.
func (m *Machine) MemBetaSecPerElem() float64 {
	return 8 / m.MemBandwidthBytesPerSec
}

// EffectiveMemBandwidth returns the aggregate memory bandwidth seen by t
// concurrent threads: linear scaling up to BWSaturationThreads, flat
// beyond. This is the saturation behaviour stencil codes exhibit on
// multi-core chips and one of the effects the paper's serial analytical
// model does not capture (Fig. 7 discussion).
func (m *Machine) EffectiveMemBandwidth(threads int) float64 {
	t := float64(threads)
	if t < 1 {
		t = 1
	}
	if t > m.BWSaturationThreads {
		t = m.BWSaturationThreads
	}
	return m.MemBandwidthBytesPerSec * t
}

// BlueWatersXE6 returns the paper's experimental platform: one AMD
// Interlagos model 6276 socket of a Cray XE6 node (Section III.A).
// 16 KB write-through L1D, 2 MB write-back L2, 8 MB shared write-back
// L3, 2.3 GHz Bulldozer cores.
func BlueWatersXE6() *Machine {
	return &Machine{
		Name: "BlueWaters-XE6-Interlagos6276",
		Levels: []CacheLevel{
			{Name: "L1", SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4,
				BandwidthBytesPerSec: 70e9, LatencySec: 1.7e-9},
			{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16,
				BandwidthBytesPerSec: 35e9, LatencySec: 9e-9},
			{Name: "L3", SizeBytes: 8 << 20, LineBytes: 64, Assoc: 64,
				BandwidthBytesPerSec: 20e9, LatencySec: 20e-9},
		},
		MemBandwidthBytesPerSec: 6.4e9, // per-core share of ~51 GB/s socket
		MemLatencySec:           90e-9,
		FlopsPerCorePerSec:      9.2e9, // 2.3 GHz × 4-wide FMA-less SIMD
		Cores:                   16,
		BWSaturationThreads:     5,
		ThreadSpawnOverheadSec:  4e-6,
	}
}

// GenericXeon returns a contemporary Intel-like server socket, used by
// the hardware-change example.
func GenericXeon() *Machine {
	return &Machine{
		Name: "Generic-Xeon",
		Levels: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8,
				BandwidthBytesPerSec: 150e9, LatencySec: 1.2e-9},
			{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 16,
				BandwidthBytesPerSec: 75e9, LatencySec: 4e-9},
			{Name: "L3", SizeBytes: 32 << 20, LineBytes: 64, Assoc: 16,
				BandwidthBytesPerSec: 40e9, LatencySec: 15e-9},
		},
		MemBandwidthBytesPerSec: 12e9,
		MemLatencySec:           70e-9,
		FlopsPerCorePerSec:      38.4e9,
		Cores:                   24,
		BWSaturationThreads:     8,
		ThreadSpawnOverheadSec:  2e-6,
	}
}

// SmallEdgeNode returns a two-level-cache embedded-class machine, used
// to stress the analytical model's generic n-level formulation.
func SmallEdgeNode() *Machine {
	return &Machine{
		Name: "Small-Edge-Node",
		Levels: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4,
				BandwidthBytesPerSec: 40e9, LatencySec: 2e-9},
			{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8,
				BandwidthBytesPerSec: 20e9, LatencySec: 8e-9},
		},
		MemBandwidthBytesPerSec: 4e9,
		MemLatencySec:           110e-9,
		FlopsPerCorePerSec:      4e9,
		Cores:                   4,
		BWSaturationThreads:     2,
		ThreadSpawnOverheadSec:  6e-6,
	}
}

// Presets returns all built-in machine descriptions keyed by short name.
func Presets() map[string]*Machine {
	return map[string]*Machine{
		"bluewaters": BlueWatersXE6(),
		"xeon":       GenericXeon(),
		"edge":       SmallEdgeNode(),
	}
}
