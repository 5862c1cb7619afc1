package hybrid

import (
	"strings"
	"testing"
)

func TestHybridLoadValidation(t *testing.T) {
	_, am := syntheticWorkload(10, 32)
	if _, err := Load(strings.NewReader("{}"), nil); err == nil {
		t.Error("expected error without analytical model")
	}
	if _, err := Load(strings.NewReader("not json"), am); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Load(strings.NewReader(`{"n_features":0,"ml":{}}`), am); err == nil {
		t.Error("expected corrupt-features error")
	}
	if _, err := Load(strings.NewReader(`{"n_features":2,"ml":{"kind":"martian","data":{}}}`), am); err == nil {
		t.Error("expected ML decode error")
	}
}
