package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// contract is the metric lists of the repository's BENCHMARK.json.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkNames fails unless set holds exactly the listed metrics, each with
// its listed unit.
func checkNames(t *testing.T, what string, set metricSet, want []struct{ Name, Unit string }) {
	t.Helper()
	got := append([]string(nil), set.names...)
	sort.Strings(got)
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		if v, ok := set.vals[m.Name]; !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		}
	}
	sort.Strings(names)
	if len(got) != len(names) {
		t.Errorf("%s: emitted %v, BENCHMARK.json lists %v", what, got, names)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: each
// run must pass its own correctness gate and emit exactly the metrics
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: name, seed: 7, scale: 0.05, traced: traced,
				minRounds: 20, out: t.TempDir(),
			}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", name, traced, r.failed, r.attempted, r.failures)
			}
			if traced {
				checkNames(t, name+" traced", r.layer, c.PerLayer)
			} else {
				checkNames(t, name, r.e2e, c.EndToEnd)
			}
		}
	}
}

// TestCaptureDeterministic captures each workload twice with one seed and
// requires the same span digest.
func TestCaptureDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		var digests []uint64
		for i := 0; i < 2; i++ {
			d, err := deploy(w, 3, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			d.run(w.load / 20)
			c, err := summarize(d.sink.batches, d.reg, newServiceIndex())
			if err != nil {
				t.Fatal(err)
			}
			if c.spans == 0 {
				t.Fatalf("%s: no spans captured", name)
			}
			digests = append(digests, c.digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: two captures of seed 3 digest %016x and %016x", name, digests[0], digests[1])
		}
	}
}
