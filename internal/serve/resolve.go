package serve

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"lam/internal/registry"
	"lam/internal/rollout"
	"lam/internal/telemetry"
)

// resolver decides which loaded model answers a request. It owns every
// model a Server holds: per name, the hot-swap slot "latest" requests
// read lock-free, and a bounded cache of explicitly pinned versions.
// It keeps four invariants:
//
//   - the version a name serves as latest never moves backwards;
//   - a rolled-back (quarantined) candidate is never served as latest:
//     every resolution goes through the rollout controller's pin;
//   - a request keeps the *registry.Model it resolved, and a swap
//     publishes a new pointer without touching the old model, so
//     requests in flight finish on the model they started with;
//   - a swapped-out model is referenced by nothing here, so it is
//     collected once its last request finishes.
type resolver struct {
	reg *registry.Registry
	// rollout, once AttachRollout sets it, clamps latest to the pinned
	// incumbent; nil serves the registry's newest version.
	rollout *rollout.Controller
	// load reads one version from the registry ready to serve.
	load func(ctx context.Context, name string, version int) (*registry.Model, error)
	// swapped hears of every hot swap.
	swapped func(m *registry.Model, replaced int)
	metrics *Metrics

	// slots holds one *slot per name that has resolved latest; a name
	// the registry does not know never gets one.
	slots sync.Map

	// mu guards pins; the latest path never takes it.
	mu   sync.RWMutex
	pins map[modelKey]*registry.Model
}

// slot is one name's hot-swap pointer.
type slot struct {
	model atomic.Pointer[registry.Model]
	// loading is held only while a stale slot is refreshed from disk: it
	// single-flights the artifact decode, so a burst of cold requests
	// costs one decode, not one per request.
	loading sync.Mutex
}

// keepVersionsPerName bounds the pinned cache per model name: clients
// pinning historic versions would otherwise keep every superseded
// deserialized ensemble resident forever. Older pins are served
// correctly but reload on each cache miss.
const keepVersionsPerName = 2

// latest returns the model serving name's latest version: the
// registry's newest (one fstat when nothing changed, see
// registry.LatestVersion) clamped by the rollout pin, swapped into the
// name's slot when the slot is behind it. Routing every resolution
// through the pin is also what begins a rollout the moment a new
// version appears.
func (r *resolver) latest(ctx context.Context, name string) (*registry.Model, error) {
	version, err := r.reg.LatestVersion(name)
	if err != nil {
		return nil, err
	}
	// While a rollout is in flight (or a rolled-back version is still
	// the newest on disk), latest means the pinned incumbent; the
	// candidate only reaches clients through the canary split.
	if pin := r.rollout.Pin(ctx, name, version); pin > 0 && pin < version {
		version = pin
	}
	s := r.slot(name)
	if m := s.model.Load(); m != nil && m.Meta.Version >= version {
		r.metrics.ModelCacheHits.Add(1)
		return m, nil
	}
	return r.swapIn(ctx, name, s, version)
}

func (r *resolver) slot(name string) *slot {
	if v, ok := r.slots.Load(name); ok {
		return v.(*slot)
	}
	v, _ := r.slots.LoadOrStore(name, &slot{})
	return v.(*slot)
}

// serving returns the model name's slot holds, nil before its first
// latest resolution.
func (r *resolver) serving(name string) *registry.Model {
	if v, ok := r.slots.Load(name); ok {
		return v.(*slot).model.Load()
	}
	return nil
}

// swapIn loads (name, version) and publishes it to the name's slot —
// unless a concurrent loader got that version or a newer one there
// first, in which case that one wins and is returned.
func (r *resolver) swapIn(ctx context.Context, name string, s *slot, version int) (*registry.Model, error) {
	s.loading.Lock()
	defer s.loading.Unlock()
	if cur := s.model.Load(); cur != nil && cur.Meta.Version >= version {
		// The loader we waited on already brought this version in.
		r.metrics.ModelCacheHits.Add(1)
		return cur, nil
	}
	sp := telemetry.StartSpan(ctx, "hot_swap")
	r.metrics.ModelCacheMisses.Add(1)
	m, err := r.load(ctx, name, version)
	if err != nil {
		sp.End()
		return nil, err
	}
	defer sp.EndDetail(m.Meta.Name + "@v" + strconv.Itoa(m.Meta.Version))
	for {
		cur := s.model.Load()
		if cur != nil && cur.Meta.Version >= m.Meta.Version {
			return cur, nil
		}
		if s.model.CompareAndSwap(cur, m) {
			if cur != nil {
				r.metrics.ModelSwaps.Add(1)
				r.swapped(m, cur.Meta.Version)
			}
			return m, nil
		}
	}
}

// pinned returns the model for an explicit (name, version), loading it
// on first use. A pin of the version the slot already serves as latest
// reuses that instance instead of holding a second deserialized copy.
func (r *resolver) pinned(ctx context.Context, name string, version int) (*registry.Model, error) {
	if m := r.serving(name); m != nil && m.Meta.Version == version {
		r.metrics.ModelCacheHits.Add(1)
		return m, nil
	}
	key := modelKey{name: name, version: version}
	r.mu.RLock()
	m := r.pins[key]
	r.mu.RUnlock()
	if m != nil {
		r.metrics.ModelCacheHits.Add(1)
		return m, nil
	}
	r.metrics.ModelCacheMisses.Add(1)
	m, err := r.load(ctx, name, version)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cached, ok := r.pins[key]; ok {
		return cached, nil // another request won the load race; keep one instance
	}
	r.pins[key] = m
	r.evictLocked(name)
	return m, nil
}

// evictLocked drops all but the newest keepVersionsPerName pinned
// versions of name. Caller holds r.mu.
func (r *resolver) evictLocked(name string) {
	var versions []int
	for key := range r.pins {
		if key.name == name {
			versions = append(versions, key.version)
		}
	}
	if len(versions) <= keepVersionsPerName {
		return
	}
	slices.Sort(versions)
	for _, v := range versions[:len(versions)-keepVersionsPerName] {
		delete(r.pins, modelKey{name: name, version: v})
		r.metrics.ModelCacheEvictions.Add(1)
	}
}
