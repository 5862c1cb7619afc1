package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRolloutStateRoundTrip is the crash-safety contract of the
// progressive-delivery state: what the controller saves is exactly
// what a restarted process loads back, the write is atomic (no stray
// temp files), and absence is distinguished from corruption.
func TestRolloutStateRoundTrip(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// A model that has never been through a rollout: ok=false, no error.
	if _, ok, err := r.LoadRolloutState("fresh"); ok || err != nil {
		t.Fatalf("load of never-saved state: ok=%v err=%v, want false,nil", ok, err)
	}

	until := time.Now().Add(time.Hour).UTC().Truncate(time.Second)
	st := RolloutState{
		Model:     "blk",
		Pinned:    1,
		Candidate: 2,
		Phase:     "canary",
		Stage:     1,
		Paused:    true,
		Holddown: []HolddownEntry{
			{Version: 3, Until: until, Reason: "rolled back at canary stage 0"},
		},
		LastTransition: "v2 advanced to canary stage 1 (10%)",
	}
	if err := r.SaveRolloutState(st); err != nil {
		t.Fatal(err)
	}
	got, ok, err := r.LoadRolloutState("blk")
	if err != nil || !ok {
		t.Fatalf("load after save: ok=%v err=%v", ok, err)
	}
	if got.Pinned != 1 || got.Candidate != 2 || got.Phase != "canary" ||
		got.Stage != 1 || !got.Paused || got.LastTransition != st.LastTransition {
		t.Fatalf("state did not round-trip: %+v", got)
	}
	if len(got.Holddown) != 1 || got.Holddown[0].Version != 3 ||
		!got.Holddown[0].Until.Equal(until) || got.Holddown[0].Reason == "" {
		t.Fatalf("holddown did not round-trip: %+v", got.Holddown)
	}
	if got.UpdatedAt.IsZero() {
		t.Fatal("SaveRolloutState must stamp UpdatedAt")
	}

	// Atomicity hygiene: the tmp+rename dance must leave no temp files
	// behind in the model directory.
	entries, err := os.ReadDir(filepath.Join(r.root, "blk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".rollout-") {
			t.Fatalf("stray temp file %s after save", e.Name())
		}
	}

	// Overwrite wins: a later transition replaces, not appends.
	st.Phase = ""
	st.Candidate = 0
	st.LastTransition = "promoted v2"
	if err := r.SaveRolloutState(st); err != nil {
		t.Fatal(err)
	}
	got, _, err = r.LoadRolloutState("blk")
	if err != nil {
		t.Fatal(err)
	}
	if got.Candidate != 0 || got.Phase != "" || got.LastTransition != "promoted v2" {
		t.Fatalf("overwrite did not replace state: %+v", got)
	}

	// Corruption is an error, not an absence — the caller must know the
	// pin may have been lost.
	path := filepath.Join(r.root, "blk", "rollout.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.LoadRolloutState("blk"); err == nil {
		t.Fatal("corrupt rollout.json must surface an error")
	}

	// Invalid model names are rejected on save, ignored on load.
	if err := r.SaveRolloutState(RolloutState{Model: "../escape"}); err == nil {
		t.Fatal("invalid model name must be rejected")
	}
	if _, ok, _ := r.LoadRolloutState("../escape"); ok {
		t.Fatal("invalid model name must not resolve state")
	}
}
