package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// On a shared 2-vCPU virtual machine, memory performance differs from
// process to process: a pointer chase over 16 MiB took 7 to 49 ms per pass
// depending only on which process ran it, and stayed put within each
// process. An untraced run therefore measures in several child processes,
// one after another, and reports for every metric the mean over them. The
// mean rather than the median: the draw is two-sided and bounded (within
// a run no child was 2x another), and with four to six children the median
// jumps with how many children drew a fast process, where the mean moves by
// a share of the gap.

// childRecord is everything a child process reports to its parent.
type childRecord struct {
	Env       envInfo  `json:"env"`
	Digest    uint64   `json:"digest"`
	Spans     int      `json:"spans"`
	Batches   int      `json:"batches"`
	Samples   [3]int   `json:"samples"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures"`
	Sets      [3]struct {
		Names []string          `json:"names"`
		Vals  map[string]metric `json:"vals"`
	} `json:"sets"`
}

// record packs the report for the parent.
func (r *report) record() childRecord {
	rec := childRecord{
		Env: r.env, Digest: r.digest, Spans: r.spans, Batches: r.batches, Samples: r.samples,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
	}
	for i, set := range []*metricSet{&r.e2e, &r.layer, &r.wall} {
		rec.Sets[i].Names, rec.Sets[i].Vals = set.names, set.vals
	}
	return rec
}

// runChildren measures in child processes of this executable and merges
// their reports: sums of the checks, means of the metrics. Each child
// runs every phase and check and its own 1000 query rounds, so that each
// p99 has at least ten samples beyond it; it gets a share of `seconds`.
func runChildren(o options) (*report, error) {
	w := workloads[o.workload]
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds/float64(w.children), 'g', -1, 64), "-out", o.out,
	}
	steal := markSteal()
	var recs []childRecord
	for i := 0; i < w.children; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rec childRecord
		if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		recs = append(recs, rec)
	}

	r := newReport(o)
	first := recs[0]
	r.env = first.Env
	r.env.StealShare = steal.share()
	r.digest, r.spans, r.batches = first.Digest, first.Spans, first.Batches
	for i, rec := range recs {
		r.env.PeakRSSMiB = max(r.env.PeakRSSMiB, rec.Env.PeakRSSMiB)
		for k, n := range rec.Samples {
			r.samples[k] += n
		}
		r.attempted += rec.Attempted
		r.failed += rec.Failed
		for _, f := range rec.Failures {
			if len(r.failures) < maxFailures {
				r.failures = append(r.failures, fmt.Sprintf("child %d: %s", i, f))
			}
		}
		r.op(rec.Digest == first.Digest, fmt.Sprintf("child %d captured digest %016x, child 0 %016x", i, rec.Digest, first.Digest))
	}
	for s, set := range []*metricSet{&r.e2e, &r.layer, &r.wall} {
		for _, name := range first.Sets[s].Names {
			var xs []float64
			for _, rec := range recs {
				xs = append(xs, rec.Sets[s].Vals[name].Value)
			}
			set.set(name, mean(xs), first.Sets[s].Vals[name].Unit)
		}
	}
	return r, nil
}
