package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"lam/internal/artifact"
	"lam/internal/hybrid"
	"lam/internal/lamerr"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/telemetry"
	"lam/internal/workload"
)

// Model kinds stored in Meta.Kind.
const (
	KindHybrid    = artifact.KindHybrid
	KindRegressor = artifact.KindRegressor
)

// Meta describes one stored model version. Name and Kind are set by the
// registry on save; the caller provides the provenance fields.
type Meta struct {
	// Name is the model's registry name ([a-z0-9._-]+).
	Name string `json:"name"`
	// Version is the 1-based version number within Name.
	Version int `json:"version"`
	// Kind is KindHybrid or KindRegressor.
	Kind string `json:"kind"`
	// Workload is the canonical dataset name the model was trained for
	// (see workload.Names). Required for hybrid models — the
	// analytical component is rebuilt from it at load time.
	Workload string `json:"workload,omitempty"`
	// Machine is the machine-preset name the model was trained on.
	// Required for hybrid models.
	Machine string `json:"machine,omitempty"`
	// TrainSize is the number of training samples.
	TrainSize int `json:"train_size,omitempty"`
	// BaseSize is the size of the model's original (pre-adaptation)
	// training set; zero for directly trained artifacts, where
	// TrainSize is the original size. The online retrainer carries it
	// across generations so each retrain rebuilds a same-sized base
	// instead of compounding previously merged window samples into an
	// ever-growing source-distribution draw.
	BaseSize int `json:"base_size,omitempty"`
	// TestMAPE is the held-out MAPE (percent) measured at save time.
	TestMAPE float64 `json:"test_mape,omitempty"`
	// Format is the artifact codec the model file is encoded with:
	// artifact.FormatLAMB1 for every save, artifact.FormatJSONV1 for
	// legacy versions not yet converted. Empty in registries written
	// before the codec layer; Load sniffs those by content and caches
	// the resolved format back into meta.json so later loads skip the
	// probe.
	Format string `json:"format,omitempty"`
	// CreatedAt is the save timestamp (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Notes is free-form provenance.
	Notes string `json:"notes,omitempty"`
}

// artifactFileName maps a codec name to the artifact's file name in a
// version directory. The jsonv1 name is the historical "model.json",
// so legacy registries load without a migration.
func artifactFileName(format string) string {
	if format == artifact.FormatJSONV1 {
		return "model.json"
	}
	return "model.lamb"
}

// artifactCandidates are the file names Load probes, newest format
// first, when metadata doesn't record one.
var artifactCandidates = []string{"model.lamb", "model.json"}

// lamb1 is the codec every save and every Convert writes. FormatLAMB1
// is always registered, so ByName cannot fail.
var lamb1, _ = artifact.ByName(artifact.FormatLAMB1)

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// ValidName reports whether name is a legal registry model name
// ([a-z0-9][a-z0-9._-]*). Callers that train before saving (e.g.
// lam-predict -registry) should check this up front so a typo fails in
// milliseconds instead of discarding a long training run at publish
// time.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// versionDirRE matches exactly the directory names versionDir
// produces: "v" + digits (zero-padded to at least 4, wider when the
// count outgrows them). Anything else in a model directory — tmp dirs,
// stray files — is ignored rather than misparsed.
var versionDirRE = regexp.MustCompile(`^v(\d{4,})$`)

// Registry is a directory of versioned model artifacts. All methods are
// safe for concurrent use by independent processes to the extent the
// filesystem's rename atomicity allows; a single process may share one
// Registry across goroutines.
type Registry struct {
	root string
	// saveMu serialises in-process version allocation; cross-process
	// races are resolved by the rename-retry loop in save.
	saveMu sync.Mutex
	// latest caches LatestVersion's answers (latest.go).
	latest latestCache
}

// Open opens (creating if necessary) a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Registry{root: dir}, nil
}

// SaveHybrid stores a trained hybrid model under meta.Name and returns
// the completed metadata (version, kind, timestamp filled in).
// meta.Workload and meta.Machine are required: they are what Load uses
// to reconstruct the analytical component. The artifact is written in
// lamb1.
func (r *Registry) SaveHybrid(m *hybrid.Model, meta Meta) (Meta, error) {
	if m == nil || !m.IsFitted() {
		return Meta{}, fmt.Errorf("registry: %w", lamerr.ErrNotFitted)
	}
	if meta.Workload == "" || meta.Machine == "" {
		return Meta{}, fmt.Errorf("registry: hybrid models need Workload and Machine metadata to rebuild the analytical component")
	}
	// Fail on an unknown workload/machine at save time, not at load.
	if _, err := amFor(meta.Workload, meta.Machine); err != nil {
		return Meta{}, err
	}
	meta.Kind = KindHybrid
	return r.save(meta, &artifact.Payload{Hybrid: m})
}

// SaveRegressor stores a fitted ML regressor (any type the artifact
// codecs support) under meta.Name and returns the completed metadata.
// The artifact is written in lamb1.
func (r *Registry) SaveRegressor(reg ml.Regressor, meta Meta) (Meta, error) {
	if reg == nil || !ml.Fitted(reg) {
		return Meta{}, fmt.Errorf("registry: %w", lamerr.ErrNotFitted)
	}
	meta.Kind = KindRegressor
	return r.save(meta, &artifact.Payload{Regressor: reg})
}

// save allocates the next version directory and writes the lamb1
// artifact and meta.json into it atomically (tmp dir + rename).
// In-process saves are serialised by
// saveMu; a concurrent save from another process is detected by the
// rename failing against the already-published version directory, in
// which case the allocation is retried with a fresh version number (the
// artifact is only written once — only meta.json is rewritten with the
// new number).
func (r *Registry) save(meta Meta, p *artifact.Payload) (Meta, error) {
	if !nameRE.MatchString(meta.Name) {
		return Meta{}, fmt.Errorf("registry: invalid model name %q (want %s)", meta.Name, nameRE)
	}
	meta.Format = lamb1.Name()
	r.saveMu.Lock()
	defer r.saveMu.Unlock()

	nameDir := filepath.Join(r.root, meta.Name)
	if err := os.MkdirAll(nameDir, 0o755); err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	tmp, err := os.MkdirTemp(nameDir, ".tmp-v*")
	if err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	defer os.RemoveAll(tmp)

	mf, err := os.Create(filepath.Join(tmp, artifactFileName(meta.Format)))
	if err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	if err := lamb1.Encode(mf, p); err != nil {
		mf.Close()
		return Meta{}, fmt.Errorf("registry: writing model artifact: %w", err)
	}
	if err := mf.Close(); err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}

	const maxAttempts = 10
	for attempt := 0; attempt < maxAttempts; attempt++ {
		versions, err := r.versionNumbers(meta.Name)
		if err != nil {
			return Meta{}, err
		}
		next := 1
		if len(versions) > 0 {
			next = versions[len(versions)-1] + 1
		}
		meta.Version = next
		meta.CreatedAt = time.Now().UTC()
		if err := writeMeta(tmp, meta); err != nil {
			return Meta{}, err
		}
		err = os.Rename(tmp, r.versionDir(meta.Name, next))
		if err == nil {
			// Still under saveMu: the next LatestVersion rescans.
			r.latest.entries.Delete(meta.Name)
			return meta, nil
		}
		// Another process published this version between our scan and
		// the rename; rescan and try the next number.
		if !os.IsExist(err) && !errors.Is(err, syscall.ENOTEMPTY) {
			return Meta{}, fmt.Errorf("registry: publishing version: %w", err)
		}
	}
	return Meta{}, fmt.Errorf("registry: publishing %s: lost the version race %d times", meta.Name, maxAttempts)
}

func (r *Registry) versionDir(name string, version int) string {
	return filepath.Join(r.root, name, fmt.Sprintf("v%04d", version))
}

// versionNumbers lists the published versions of a name, ascending.
// Names that fail nameRE (including anything path-shaped — Load and
// LatestVersion take names straight from HTTP requests via
// internal/serve) resolve to no versions rather than touching the
// filesystem outside the registry root.
func (r *Registry) versionNumbers(name string) ([]int, error) {
	if !nameRE.MatchString(name) {
		return nil, nil
	}
	entries, err := os.ReadDir(filepath.Join(r.root, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m := versionDirRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, err := strconv.Atoi(m[1])
		if err == nil && v > 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Names lists the model names in the registry, sorted.
func (r *Registry) Names() ([]string, error) {
	entries, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && nameRE.MatchString(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// List returns the metadata of every stored version, sorted by name
// then version. Versions whose meta.json is missing or corrupt (e.g. a
// hand-copied directory) are skipped rather than failing the whole
// listing — they still error loudly on Load.
func (r *Registry) List() ([]Meta, error) {
	names, err := r.Names()
	if err != nil {
		return nil, err
	}
	var out []Meta
	for _, name := range names {
		versions, err := r.versionNumbers(name)
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			m, err := r.readMeta(name, v)
			if err != nil {
				continue
			}
			out = append(out, m)
		}
	}
	return out, nil
}

func (r *Registry) readMeta(name string, version int) (Meta, error) {
	raw, err := os.ReadFile(filepath.Join(r.versionDir(name, version), "meta.json"))
	if err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return Meta{}, fmt.Errorf("registry: corrupt meta for %s v%d: %w", name, version, err)
	}
	return m, nil
}

// AnalyticalFor rebuilds the analytical component a stored hybrid
// version carries, from its metadata — exactly what Load does
// internally. The online retrainer uses it to retrain a drifted hybrid
// against the same analytical model the deployed artifact serves with.
func AnalyticalFor(meta Meta) (hybrid.AnalyticalModel, error) {
	return amFor(meta.Workload, meta.Machine)
}

// amFor rebuilds the analytical model for a (workload, machine) pair.
func amFor(workloadName, machineName string) (hybrid.AnalyticalModel, error) {
	m, ok := machine.Presets()[machineName]
	if !ok {
		return nil, fmt.Errorf("registry: %w: %q", lamerr.ErrUnknownMachine, machineName)
	}
	w, err := workload.Lookup(workloadName)
	if err != nil {
		return nil, err
	}
	return w.AM(m), nil
}

// resolveVersion maps version <= 0 to the latest published version and
// validates explicit ones. Missing names and versions wrap
// lamerr.ErrUnknownModel.
func (r *Registry) resolveVersion(name string, version int) (int, error) {
	versions, err := r.versionNumbers(name)
	if err != nil {
		return 0, err
	}
	if len(versions) == 0 {
		return 0, fmt.Errorf("registry: %w: %q", lamerr.ErrUnknownModel, name)
	}
	if version <= 0 {
		return versions[len(versions)-1], nil
	}
	if !slices.Contains(versions, version) {
		return 0, fmt.Errorf("registry: %w: %q v%d (have %v)", lamerr.ErrUnknownModel, name, version, versions)
	}
	return version, nil
}

// readArtifact locates and maps a version's model artifact (mapFile).
// When the metadata records a format, that codec's file is mapped
// directly — no probing. Otherwise (legacy registries, or a format this
// build doesn't know) the candidate file names are probed and the codec
// detected from the artifact's leading bytes; cached=false then tells
// the caller to write the resolved format back into meta.json so the
// next load skips the probe. data stays valid only while owner is
// reachable: callers pass owner to the decoder and keep it alive until
// they are done with data.
func (r *Registry) readArtifact(dir, format string) (data []byte, owner any, codec artifact.Codec, cached bool, err error) {
	if format != "" {
		if codec, err := artifact.ByName(format); err == nil {
			data, owner, err := mapFile(filepath.Join(dir, artifactFileName(format)))
			if err == nil {
				return data, owner, codec, true, nil
			}
			if !os.IsNotExist(err) {
				return nil, nil, nil, false, fmt.Errorf("registry: %w", err)
			}
			// Recorded file is gone (e.g. a hand-edited directory);
			// fall through to probing.
		}
	}
	for _, fn := range artifactCandidates {
		data, owner, err := mapFile(filepath.Join(dir, fn))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, nil, nil, false, fmt.Errorf("registry: %w", err)
		}
		codec, err := artifact.Detect(data)
		if err != nil {
			return nil, nil, nil, false, fmt.Errorf("registry: %s: %w", fn, err)
		}
		return data, owner, codec, false, nil
	}
	return nil, nil, nil, false, fmt.Errorf("registry: no model artifact in %s (tried %v)", dir, artifactCandidates)
}

// writeMeta is the one writer of meta.json: it writes meta to a temp
// file in dir and renames it over dir/meta.json, so a reader — in this
// process or another — sees the old document or the new one, never a
// torn one, and a descriptor open on the old file keeps reading it
// whole.
func writeMeta(dir string, meta Meta) error {
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".meta-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	werr := tmp.Chmod(0o644) // CreateTemp's 0600 would hide it from other users
	if werr == nil {
		_, werr = tmp.Write(append(raw, '\n'))
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(dir, "meta.json"))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("registry: %w", werr)
	}
	return nil
}

// cacheFormat rewrites a version's meta.json with the resolved artifact
// format so subsequent loads skip content sniffing. It is best-effort:
// a read-only registry keeps working, it just re-sniffs each load.
func cacheFormat(dir string, meta Meta) { _ = writeMeta(dir, meta) }

// decodeOptions builds the codec decode options for a version: the
// expected payload kind, the owner of the mapped artifact bytes and,
// for hybrids, the analytical component rebuilt from the (workload,
// machine) metadata.
func decodeOptions(meta Meta, owner any) (artifact.DecodeOptions, error) {
	opts := artifact.DecodeOptions{Kind: meta.Kind, Owner: owner}
	if meta.Kind == KindHybrid {
		am, err := amFor(meta.Workload, meta.Machine)
		if err != nil {
			return artifact.DecodeOptions{}, err
		}
		opts.Analytical = am
	}
	return opts, nil
}

// Load restores one stored version as a ready-to-serve Model. version
// <= 0 means the latest. Missing names and versions wrap
// lamerr.ErrUnknownModel; a damaged artifact wraps
// lamerr.ErrCorruptArtifact. The artifact's format comes from the
// metadata when recorded and is sniffed from the file's leading bytes
// otherwise (then cached back into meta.json), so registries written
// before the codec layer load unchanged.
func (r *Registry) Load(name string, version int) (*Model, error) {
	version, err := r.resolveVersion(name, version)
	if err != nil {
		return nil, err
	}
	meta, err := r.readMeta(name, version)
	if err != nil {
		return nil, err
	}
	dir := r.versionDir(name, version)
	data, owner, codec, cached, err := r.readArtifact(dir, meta.Format)
	if err != nil {
		return nil, err
	}
	defer runtime.KeepAlive(owner)
	if !cached {
		meta.Format = codec.Name()
		cacheFormat(dir, meta)
	}
	opts, err := decodeOptions(meta, owner)
	if err != nil {
		return nil, err
	}
	p, err := codec.Decode(data, opts)
	if err != nil {
		return nil, fmt.Errorf("registry: %s v%d: %w", name, version, err)
	}
	return &Model{Meta: meta, hybrid: p.Hybrid, regressor: p.Regressor}, nil
}

// LoadCtx is Load with the artifact read and decode recorded as an
// "artifact_load" span on ctx's request trace (no-op without one) —
// the cold-start cost a slow-trace report attributes to the registry
// rather than to scoring.
func (r *Registry) LoadCtx(ctx context.Context, name string, version int) (*Model, error) {
	sp := telemetry.StartSpan(ctx, "artifact_load")
	m, err := r.Load(name, version)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndDetail(m.Meta.Name + "@v" + strconv.Itoa(m.Meta.Version))
	return m, nil
}

// ArtifactInfo inspects one stored version's artifact — format, payload
// kind, estimator structure, node counts, size, checksum — without
// constructing a serving Model. version <= 0 means the latest.
func (r *Registry) ArtifactInfo(name string, version int) (artifact.Info, Meta, error) {
	version, err := r.resolveVersion(name, version)
	if err != nil {
		return artifact.Info{}, Meta{}, err
	}
	meta, err := r.readMeta(name, version)
	if err != nil {
		return artifact.Info{}, Meta{}, err
	}
	data, owner, _, _, err := r.readArtifact(r.versionDir(name, version), meta.Format)
	if err != nil {
		return artifact.Info{}, Meta{}, err
	}
	defer runtime.KeepAlive(owner)
	opts, err := decodeOptions(meta, owner)
	if err != nil {
		return artifact.Info{}, Meta{}, err
	}
	info, _, err := artifact.Inspect(data, opts)
	if err != nil {
		return artifact.Info{}, Meta{}, fmt.Errorf("registry: %s v%d: %w", name, version, err)
	}
	return info, meta, nil
}

// Convert migrates one stored version's artifact to the latest lamb1
// version, in place: a jsonv1 artifact and a lamb1 artifact of an
// earlier version are rewritten. version <= 0 means the latest.
// Converting a version already at the latest lamb1 version is a no-op
// (beyond caching the format in meta.json if it wasn't recorded). The
// new artifact is written and renamed into place before meta.json is
// replaced (writeMeta) and the old file removed, so a crash mid-convert
// leaves a loadable version: both artifact files briefly coexist and
// Load follows meta.json, falling back to probing. A lamb1 rewrite
// replaces model.lamb through the same rename, so a process still
// serving the old file keeps its mapping.
func (r *Registry) Convert(name string, version int) (Meta, error) {
	version, err := r.resolveVersion(name, version)
	if err != nil {
		return Meta{}, err
	}
	meta, err := r.readMeta(name, version)
	if err != nil {
		return Meta{}, err
	}
	dir := r.versionDir(name, version)
	data, owner, codec, cached, err := r.readArtifact(dir, meta.Format)
	if err != nil {
		return Meta{}, err
	}
	defer runtime.KeepAlive(owner)
	opts, err := decodeOptions(meta, owner)
	if err != nil {
		return Meta{}, err
	}
	info, p, err := artifact.Inspect(data, opts)
	if err != nil {
		return Meta{}, fmt.Errorf("registry: %s v%d: %w", name, version, err)
	}
	if !info.Legacy() {
		if !cached || meta.Format != lamb1.Name() {
			meta.Format = lamb1.Name()
			cacheFormat(dir, meta)
		}
		return meta, nil
	}

	tmp, err := os.CreateTemp(dir, ".convert-*")
	if err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := tmp.Chmod(0o644); err != nil { // as a save's model.lamb
		tmp.Close()
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	if err := lamb1.Encode(tmp, p); err != nil {
		tmp.Close()
		return Meta{}, fmt.Errorf("registry: converting %s v%d: %w", name, version, err)
	}
	if err := tmp.Close(); err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, artifactFileName(lamb1.Name()))); err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	meta.Format = lamb1.Name()
	if err := writeMeta(dir, meta); err != nil {
		return Meta{}, err
	}
	// A lamb1 rewrite's rename has already replaced the old file.
	if codec.Name() != lamb1.Name() {
		if err := os.Remove(filepath.Join(dir, artifactFileName(codec.Name()))); err != nil && !os.IsNotExist(err) {
			return Meta{}, fmt.Errorf("registry: removing superseded artifact: %w", err)
		}
	}
	return meta, nil
}
