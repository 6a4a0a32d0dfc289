package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were first set.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// envInfo records where a result was measured.
type envInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FS         string  `json:"data_dir_fs"`
	Fsync      string  `json:"fsync"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	// StealShare is the share of the machine's vCPU time the hypervisor
	// stole during the run — what the wall-clock figures suffer and the
	// CPU-time figures do not.
	StealShare float64 `json:"host_steal_share"`
}

// report is everything one run measured and checked.
type report struct {
	env     envInfo
	digest  uint64
	spans   int
	batches int
	// samples counts the timed queries of each kind: search, trace, map.
	samples [3]int

	attempted, failed int
	failures          []string // the first few failed operations

	// e2e holds the gated end-to-end metrics, layer the per-layer ones;
	// wall holds the wall-clock query latencies of an untraced run, printed
	// and saved but not gated.
	e2e, layer, wall metricSet
}

func newReport(o options) *report {
	env := runtimeInfo()
	env.Workload, env.Seed, env.Scale = o.workload, o.seed, o.scale
	return &report{env: env}
}

// maxFailures bounds how many failed operations are described.
const maxFailures = 10

// op counts one checked operation; what describes it if it failed.
func (r *report) op(ok bool, what string) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, what)
	}
}

// correct reports whether every checked operation succeeded.
func (r *report) correct() bool { return r.failed == 0 }

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable summary and, last, the result line: the
// end-to-end metrics untraced, the per-layer metrics traced.
func (r *report) write(w io.Writer, traced bool) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "corpus %s seed=%d spans=%d batches=%d digest=%016x\n",
		r.env.Workload, r.env.Seed, r.spans, r.batches, r.digest)
	fmt.Fprintf(w, "query samples search=%d trace=%d map=%d\n", r.samples[0], r.samples[1], r.samples[2])
	fmt.Fprintf(w, "checks attempted=%d failed=%d failed_share=%.6f\n",
		r.attempted, r.failed, per(float64(r.failed), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	set := r.e2e
	if traced {
		set = r.layer
	}
	for _, n := range set.names {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, set.vals[n].Value, set.vals[n].Unit)
	}
	if !traced {
		for _, set := range []metricSet{r.layer, r.wall} {
			for _, n := range set.names {
				if strings.HasPrefix(n, "wall.") {
					fmt.Fprintf(w, "%-44s %16.6g %s (not gated)\n", n, set.vals[n].Value, set.vals[n].Unit)
				}
			}
		}
	}
	line, err := json.Marshal(result{
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: set.vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// save writes the full record of the run — environment, both metric sets,
// checks — as JSON.
func (r *report) save(path string) error {
	type saved struct {
		Env       envInfo           `json:"env"`
		Digest    string            `json:"digest"`
		Spans     int               `json:"spans"`
		Batches   int               `json:"batches"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Failures  []string          `json:"failures"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer"`
		Wall      map[string]metric `json:"wall_query_latency"`
	}
	data, err := json.MarshalIndent(saved{
		Env: r.env, Digest: fmt.Sprintf("%016x", r.digest), Spans: r.spans, Batches: r.batches,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		EndToEnd: r.e2e.vals, PerLayer: r.layer.vals, Wall: r.wall.vals,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchTracer records the benchmark's own phases as spans (traced run
// only): name, start, end and parent.
type benchTracer struct {
	on    bool
	t0    time.Time
	spans []benchSpan
}

type benchSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *benchTracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.spans = append(t.spans, benchSpan{
		ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *benchTracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// write saves the recorded spans as a JSON array.
func (t *benchTracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
