package wire

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzModelPeek holds PeekModel to json.Unmarshal into a
// struct{ Model string } on every input. It is seeded from the
// committed corpora of FuzzPredictBody and FuzzObserveBody and from the
// shapes only the peek tells apart.
func FuzzModelPeek(f *testing.F) {
	for _, dir := range []string{"FuzzPredictBody", "FuzzObserveBody"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", dir, "*"))
		if err != nil || len(files) == 0 {
			f.Fatalf("no %s corpus: %v", dir, err)
		}
		for _, file := range files {
			f.Add(corpusBytes(f, file))
		}
	}
	for _, body := range []string{
		`{"model":"m","model":"n"}`,
		`{"model":"m","Model":"n"}`,
		`{"mODEL":"m"}`,
		`{"model":"m"} {}`,
		`{"model":"m"}` + "\n\t ",
		`{"model":5}`,
		`{"model":"m","x":[["a",1],[]],"y":"s"}`,
		`{"model":"m","x":[[[1]]]}`,
		`{"model":"m","x":1e999}`,
		`{"x":null,"model":"m"}`,
		`{"model":"mA"}`,
		`[{"model":"m"}]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct{ Model string }
		_ = json.Unmarshal(body, &want)
		if got := PeekModel(body); got != want.Model {
			t.Fatalf("PeekModel(%q) = %q, json.Unmarshal says %q", body, got, want.Model)
		}
	})
}

// corpusBytes reads the one []byte value of a "go test fuzz v1" file.
func corpusBytes(f *testing.F, file string) []byte {
	raw, err := os.ReadFile(file)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if len(lines) != 2 || !ok {
		f.Fatalf("%s: not a one-value []byte corpus file", file)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		f.Fatalf("%s: %v", file, err)
	}
	return []byte(s)
}
