package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that every correctness check passes and that the metrics emitted
// are exactly the ones BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts sit-server processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sit-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sit-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sit-server: %v\n%s", err, out)
	}

	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	want := map[bool]map[string]string{false: units(decl.EndToEnd), true: units(decl.PerLayer)}

	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if len(decl.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 3", len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 1, trace: traced, bin: bin,
				root: filepath.Join(dir, "run"), sc: smokeScale}
			res, err := runBench(o, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d (see %s)", w.Name, traced, res.Correct, res.Failed, res.Attempted, out.Name())
			}
			var got, missing []string
			for name, m := range res.Metrics {
				if unit, ok := want[traced][name]; !ok || unit != m.Unit || m.Unit == "" {
					got = append(got, name+" ["+m.Unit+"]")
				}
			}
			for name := range want[traced] {
				if _, ok := res.Metrics[name]; !ok {
					missing = append(missing, name)
				}
			}
			sort.Strings(got)
			sort.Strings(missing)
			if len(got) > 0 || len(missing) > 0 {
				t.Errorf("%s trace=%v: undeclared or mis-united metrics %v; missing %v", w.Name, traced, got, missing)
			}
		}
	}
}
