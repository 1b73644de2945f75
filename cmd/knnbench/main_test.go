package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOnlyKeepsForeignSections: each -only mode rewrites its own
// sections of an existing report and leaves every other top-level key —
// here a "serve" section as cmd/knnload writes it — byte-for-byte
// equivalent.
func TestOnlyKeepsForeignSections(t *testing.T) {
	defer func(g []queryCfg) { obsGrid = g }(obsGrid)
	obsGrid = []queryCfg{{2000, 2, 4}} // small: the test checks the merge, not the numbers

	const serve = `{"shapes":[{"shape":"uniform","qps":96600,"p50_ms":3.78}],"note":"knnload"}`
	path := filepath.Join(t.TempDir(), "BENCH_knn.json")
	seed := `{"generated":"then","note":"full grid","results":[{"algorithm":"sphere"}],"serve":` + serve + `}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		run  func() error
		keys []string
	}{
		{"obs", func() error { return remeasureObs(path, 64, 2) }, []string{"obs_overhead", "journal"}},
		{"kernels", func() error { return remeasureKernels(path, []int{2}) }, []string{"kernels", "layout", "env"}},
	} {
		if err := mode.run(); err != nil {
			t.Fatalf("-only %s: %v", mode.name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("-only %s wrote bad JSON: %v", mode.name, err)
		}
		var want any
		json.Unmarshal([]byte(serve), &want)
		if !reflect.DeepEqual(doc["serve"], want) {
			t.Fatalf("-only %s: serve section %v, want %v", mode.name, doc["serve"], want)
		}
		if doc["results"] == nil {
			t.Fatalf("-only %s dropped the results section", mode.name)
		}
		for _, k := range mode.keys {
			if doc[k] == nil {
				t.Fatalf("-only %s did not write %q", mode.name, k)
			}
		}
		if doc["generated"] == "then" {
			t.Fatalf("-only %s left the generated stamp stale", mode.name)
		}
		if note := doc["note"].(string); !strings.HasPrefix(note, "full grid; ") || !strings.Contains(note, "-only "+mode.name) {
			t.Fatalf("-only %s: note %q", mode.name, note)
		}
	}

	// A second run of the same mode appends its note only once.
	if err := remeasureObs(path, 64, 2); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var doc map[string]any
	json.Unmarshal(raw, &doc)
	if n := strings.Count(doc["note"].(string), "-only obs"); n != 1 {
		t.Fatalf("obs note appended %d times", n)
	}
}

// TestParseProcsSkipsOversubscribed: procs cells above the CPU count are
// dropped (default and explicit sweeps alike), and a sweep with nothing
// left is an error rather than an empty grid.
func TestParseProcsSkipsOversubscribed(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		numCPU int
		want   []int
	}{
		{"", 2, []int{1, 2}},
		{"", 8, []int{1, 4, 8}},
		{"", 1, []int{1}},
		{"1,2,4,2", 2, []int{1, 2}},
	} {
		got, err := parseProcs(tc.spec, tc.numCPU)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseProcs(%q, %d) = %v, %v; want %v", tc.spec, tc.numCPU, got, err, tc.want)
		}
	}
	if _, err := parseProcs("4,8", 2); err == nil {
		t.Error("an all-oversubscribed sweep was accepted")
	}
	if _, err := parseProcs("0", 2); err == nil {
		t.Error("procs=0 was accepted")
	}
}
