package xmath

import "math"

// fnvOffset and fnvPrime are the FNV-1a 64-bit constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash64 combines the given 64-bit parts with FNV-1a byte-wise mixing
// followed by an avalanche finalizer (splitmix64). It is deterministic
// across platforms and Go versions, which makes every experiment in this
// repository bit-reproducible.
func Hash64(parts ...uint64) uint64 {
	h := fnvOffset
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= p & 0xff
			h *= fnvPrime
			p >>= 8
		}
	}
	// splitmix64 finalizer: FNV alone has weak high bits.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HashFloat returns a deterministic uniform value in [0, 1) derived from
// the given parts.
func HashFloat(parts ...uint64) float64 {
	return float64(Hash64(parts...)>>11) / float64(1<<53)
}

// HashNormal returns a deterministic sample from the standard normal
// distribution derived from the given parts, via the Box-Muller
// transform over two decorrelated hash streams.
func HashNormal(parts ...uint64) float64 {
	u1 := HashFloat(append([]uint64{0x9e3779b97f4a7c15}, parts...)...)
	u2 := HashFloat(append([]uint64{0xd1b54a32d192ed03}, parts...)...)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// F2U converts a float64 to its IEEE-754 bit pattern for hashing.
func F2U(f float64) uint64 {
	return math.Float64bits(f)
}

// HashConfig hashes a seed together with a feature vector. It is the
// canonical way the performance simulators attach deterministic noise to
// a configuration.
func HashConfig(seed uint64, x []float64) uint64 {
	parts := make([]uint64, 0, len(x)+1)
	parts = append(parts, seed)
	for _, v := range x {
		parts = append(parts, F2U(v))
	}
	return Hash64(parts...)
}
