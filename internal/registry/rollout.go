package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// rolloutStateFile is the per-model progressive-delivery state file,
// written next to the version directories (and their meta.json files)
// so the rollout a model is in survives a serving restart exactly like
// the artifacts themselves do.
const rolloutStateFile = "rollout.json"

// HolddownEntry quarantines one version after a rollback: until Until
// passes, the rollout controller refuses to canary it again.
type HolddownEntry struct {
	Version int       `json:"version"`
	Until   time.Time `json:"until"`
	// Reason is free-form provenance ("rolled back at canary stage 1",
	// "artifact load failed").
	Reason string `json:"reason,omitempty"`
}

// RolloutState is the persisted progressive-delivery state of one
// model: which version "latest" requests are pinned to while a newer
// version is still proving itself, which candidate is under evaluation
// and where it stands, and which versions are quarantined. The file is
// written atomically (tmp + rename) on every transition, so a crashed
// or restarted server resumes the rollout instead of blindly serving
// the registry's newest version.
type RolloutState struct {
	Model string `json:"model"`
	// Pinned is the version served as "latest" while non-zero — the
	// incumbent of an active rollout, or the last good version after a
	// rollback whose bad candidate is still the newest on disk.
	Pinned int `json:"pinned,omitempty"`
	// Candidate is the version under evaluation; 0 when no rollout is
	// active.
	Candidate int `json:"candidate,omitempty"`
	// Phase is "shadow" or "canary" while a rollout is active, ""
	// otherwise.
	Phase string `json:"phase,omitempty"`
	// Stage is the canary stage index (into the configured fractions).
	Stage int `json:"stage,omitempty"`
	// Paused freezes automatic stage transitions (operator action).
	Paused    bool      `json:"paused,omitempty"`
	UpdatedAt time.Time `json:"updated_at"`
	// Holddown lists quarantined versions.
	Holddown []HolddownEntry `json:"holddown,omitempty"`
	// LastTransition is free-form provenance of the most recent state
	// change ("promoted v3", "rolled back v2 at canary stage 0").
	LastTransition string `json:"last_transition,omitempty"`
}

// SaveRolloutState persists st atomically under st.Model's directory.
// The temp file is created in the same directory as the final name so
// the rename can never cross filesystems.
func (r *Registry) SaveRolloutState(st RolloutState) error {
	if !nameRE.MatchString(st.Model) {
		return fmt.Errorf("registry: invalid model name %q (want %s)", st.Model, nameRE)
	}
	nameDir := filepath.Join(r.root, st.Model)
	if err := os.MkdirAll(nameDir, 0o755); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	st.UpdatedAt = time.Now().UTC()
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	tmp, err := os.CreateTemp(nameDir, ".rollout-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	_, werr := tmp.Write(append(raw, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("registry: writing rollout state: %w", werr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(nameDir, rolloutStateFile)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("registry: publishing rollout state: %w", err)
	}
	return nil
}

// LoadRolloutState reads the persisted rollout state for name. ok is
// false when no state has ever been saved (a model that has never been
// through a rollout); a corrupt file is an error, not an absence — the
// caller decides whether serving blind is acceptable.
func (r *Registry) LoadRolloutState(name string) (st RolloutState, ok bool, err error) {
	if !nameRE.MatchString(name) {
		return RolloutState{}, false, nil
	}
	raw, err := os.ReadFile(filepath.Join(r.root, name, rolloutStateFile))
	if os.IsNotExist(err) {
		return RolloutState{}, false, nil
	}
	if err != nil {
		return RolloutState{}, false, fmt.Errorf("registry: %w", err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return RolloutState{}, false, fmt.Errorf("registry: corrupt rollout state for %s: %w", name, err)
	}
	return st, true, nil
}
