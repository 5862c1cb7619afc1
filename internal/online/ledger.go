package online

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"lam/internal/ml"
	"lam/internal/xmath"
)

// keepAPEVersions bounds the rings a model keeps beyond those a live
// cursor holds: the serving fleet only ever compares a handful of
// versions (the incumbent, a candidate, recent history); rings for
// long-retired versions would grow the scrape without informing anyone.
const keepAPEVersions = 4

// APEQuantiles summarises a run of absolute-percentage-error samples
// (percent): how many there are and their nearest-rank p50, p90, p99.
type APEQuantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// ServedAPE is one (model, version)'s whole ring, summarised: one
// lam_served_ape series.
type ServedAPE struct {
	Model   string
	Version int
	APEQuantiles
}

// Ledger is the one record of served accuracy: a bounded APE ring per
// (model, version) whose samples carry a monotone sequence. The online
// plane records the rows each served version scored; the rollout
// controller records its candidate's (shadow or canary) and gates on
// the samples after its cursors; lam_served_ape is the Snapshot, so a
// candidate's series includes its shadow-scored rows. Safe for
// concurrent use; Record and Quantiles allocate nothing once warm.
//
// Eviction rule: a ring is held from a Cursor on it until Release, and
// a held ring is never evicted. A new version's first Record or Cursor
// drops the model's lowest unheld rings until fewer than
// keepAPEVersions remain, so the versions a gate reads survive any
// number of rolled-back candidates.
type Ledger struct {
	capacity int

	mu      sync.Mutex
	rings   map[string][]*apeRing // per model, ascending by version
	scratch []float64             // Quantiles' sort buffer
}

// apeRing is one version's samples: sample s of the sequence lives at
// buf[s % len(buf)] until capacity newer samples overwrite it.
type apeRing struct {
	version int
	held    bool
	seq     uint64 // samples ever recorded
	buf     []float64
}

// NewLedger returns a ledger whose rings hold the newest capacity
// samples of each (model, version).
func NewLedger(capacity int) *Ledger {
	capacity = max(capacity, 1)
	return &Ledger{capacity: capacity, rings: make(map[string][]*apeRing), scratch: make([]float64, 0, capacity)}
}

// Record appends the APE of each (observed, predicted) pair to the
// (name, version) ring, skipping the pairs ml.APE rejects (zero truth).
func (l *Ledger) Record(name string, version int, observed, predicted []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.ring(name, version)
	for i := range observed {
		if ape, ok := ml.APE(observed[i], predicted[i]); ok {
			r.buf[r.seq%uint64(len(r.buf))] = ape
			r.seq++
		}
	}
}

// Cursor returns the (name, version) ring's current sequence — pass it
// to Quantiles to read only the samples recorded after this call — and
// holds the ring against eviction until Release.
func (l *Ledger) Cursor(name string, version int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.ring(name, version)
	r.held = true
	return r.seq
}

// Release drops the hold Cursor put on (name, version); the ring keeps
// its samples and becomes evictable again.
func (l *Ledger) Release(name string, version int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r := l.find(name, version); r != nil {
		r.held = false
	}
}

// Quantiles summarises the (name, version) samples whose sequence is at
// or after since: all of them, up to the ring's capacity newest. An
// unknown version, or one with nothing recorded since, has Count 0.
func (l *Ledger) Quantiles(name string, version int, since uint64) APEQuantiles {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quantiles(l.find(name, version), since)
}

// Snapshot summarises every non-empty ring whole, sorted by model then
// version — the backing data of lam_served_ape.
func (l *Ledger) Snapshot() []ServedAPE {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []ServedAPE
	for _, name := range slices.Sorted(maps.Keys(l.rings)) {
		for _, r := range l.rings[name] {
			if q := l.quantiles(r, 0); q.Count > 0 {
				out = append(out, ServedAPE{Model: name, Version: r.version, APEQuantiles: q})
			}
		}
	}
	return out
}

func (l *Ledger) find(name string, version int) *apeRing {
	for _, r := range l.rings[name] {
		if r.version == version {
			return r
		}
	}
	return nil
}

// ring returns (name, version)'s ring, creating it under the eviction
// rule on first sight. Caller holds l.mu.
func (l *Ledger) ring(name string, version int) *apeRing {
	if r := l.find(name, version); r != nil {
		return r
	}
	rings := l.rings[name]
	unheld := 0
	for _, r := range rings {
		if !r.held {
			unheld++
		}
	}
	// Rings are ascending, so the first unheld one is the lowest.
	for ; unheld >= keepAPEVersions; unheld-- {
		i := slices.IndexFunc(rings, func(r *apeRing) bool { return !r.held })
		rings = slices.Delete(rings, i, i+1)
	}
	r := &apeRing{version: version, buf: make([]float64, l.capacity)}
	rings = append(rings, r)
	slices.SortFunc(rings, func(a, b *apeRing) int { return cmp.Compare(a.version, b.version) })
	l.rings[name] = rings
	return r
}

// quantiles sorts r's samples from sequence since on into the scratch
// buffer and reads them by nearest rank. Caller holds l.mu.
func (l *Ledger) quantiles(r *apeRing, since uint64) APEQuantiles {
	if r == nil {
		return APEQuantiles{}
	}
	size := uint64(len(r.buf))
	n := min(r.seq-min(since, r.seq), size)
	if n == 0 {
		return APEQuantiles{}
	}
	s := l.scratch[:0]
	for q := r.seq - n; q < r.seq; q++ {
		s = append(s, r.buf[q%size])
	}
	slices.Sort(s)
	return APEQuantiles{
		Count: len(s),
		P50:   xmath.NearestRank(s, 0.5),
		P90:   xmath.NearestRank(s, 0.9),
		P99:   xmath.NearestRank(s, 0.99),
	}
}
