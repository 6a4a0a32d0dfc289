package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/otelsdk"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// durableSnapshot fingerprints the query surfaces a restarted deployment
// must reproduce exactly: every span ID, the flow-metric and profile
// planes, one assembled trace, and the rollup summary.
func durableSnapshot(d *Deployment) string {
	from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)
	var sb strings.Builder
	spans := d.Server.SpanList(from, to, 0)
	fmt.Fprintf(&sb, "spans=%d\n", len(spans))
	for _, sp := range spans {
		fmt.Fprintf(&sb, "#%d %s %s %s\n", sp.ID, sp.StartTime.Format(time.RFC3339Nano), sp.Source, sp.ProcessName)
	}
	fmt.Fprintf(&sb, "flows=%d bytes_sent=%g kernel_packets=%g\n", d.Server.FlowsIngested(),
		d.Server.Metrics.Sum("net.bytes_sent", nil, from, to),
		d.Server.Metrics.Sum("net.kernel_packets", nil, from, to))
	fmt.Fprintf(&sb, "profiles=%d\n", len(d.Server.ProfileSamples(from, to, server.ProfileFilter{})))
	if len(spans) > 0 {
		sb.WriteString(d.Server.FormatTrace(d.Server.Trace(spans[0].ID)))
	}
	fmt.Fprintf(&sb, "fast=%+v\n", d.Server.ServiceSummaryFast(from, to))
	return sb.String()
}

// TestDurableDeploymentRestart: a deployment with a data dir ingests real
// workload traffic — agent spans, OTel spans from an integrated collector,
// flow samples, and profiles — then either stops cleanly (memtables sealed
// into blocks, WAL synced, so the restart replays zero WAL batches) or
// crashes. Either way, a second deployment over the same directory
// recovers every acknowledged row and answers queries byte-identically.
func TestDurableDeploymentRestart(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "graceful"
		if crash {
			name = "kill"
		}
		t.Run(name, func(t *testing.T) { testDurableRestart(t, crash) })
	}
}

func testDurableRestart(t *testing.T, crash bool) {
	dir := t.TempDir()

	deploy := func() (*Deployment, *microsim.Topology) {
		env := microsim.NewEnv(13)
		sdk := otelsdk.NewSDK("otel", otelsdk.PropagationW3C, 10*time.Microsecond, 3)
		topo := microsim.BuildSpringBootDemo(env, sdk)
		opts := DefaultOptions()
		opts.DataDir = dir
		opts.Shards = 2
		opts.Agent.EnableProfiling = true
		d := NewDeployment(env, []*k8s.Cluster{topo.Cluster}, nil, opts)
		if err := d.DeployAll(); err != nil {
			t.Fatal(err)
		}
		if err := d.IntegrateCollector(sdk.Collector, "sb-front-0"); err != nil {
			t.Fatal(err)
		}
		return d, topo
	}

	d1, topo := deploy()
	if d1.Replay.Blocks != 0 || d1.Replay.WALBatches != 0 {
		t.Fatalf("fresh directory replayed something: %+v", d1.Replay)
	}
	env := d1.Env
	gen := microsim.NewLoadGen(env, "wrk", topo.ClientHost, topo.Entry, 8, 50)
	gen.Path = "/api/items"
	gen.Start(2 * time.Second)
	env.Run(3 * time.Second)
	d1.FlushAll()
	want := durableSnapshot(d1)
	wantSpans := d1.Server.SpansIngested()
	otel := 0
	for _, sp := range d1.Server.SpanList(sim.Epoch, env.Eng.Now(), 0) {
		if sp.Source == trace.SourceOTel {
			otel++
		}
	}
	if wantSpans == 0 || otel == 0 || d1.Server.FlowsIngested() == 0 || d1.Server.ProfilesIngested() == 0 {
		t.Fatalf("workload too thin: spans=%d otel=%d flows=%d profiles=%d",
			wantSpans, otel, d1.Server.FlowsIngested(), d1.Server.ProfilesIngested())
	}
	if crash {
		d1.Server.Kill() // no seal, no sync: recovery sees what the OS has
	} else {
		d1.Stop()
	}

	d2, _ := deploy()
	defer d2.Stop()
	if crash {
		if d2.Replay.WALBatches == 0 {
			t.Fatalf("crash restart replayed no WAL: %+v", d2.Replay)
		}
		if got := d2.Replay.BlockSpans + d2.Replay.WALSpans; got != wantSpans {
			t.Fatalf("crash restart recovered %d spans, want %d", got, wantSpans)
		}
	} else {
		if d2.Replay.WALBatches != 0 || d2.Replay.WALSegments != 0 {
			t.Fatalf("clean restart replayed WAL: %+v", d2.Replay)
		}
		if got := d2.Replay.BlockSpans; got != wantSpans {
			t.Fatalf("restart recovered %d spans from blocks, want %d", got, wantSpans)
		}
	}
	if got := durableSnapshot(d2); got != want {
		t.Fatalf("restarted deployment answers differ:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// dirDigest hashes every file under dir, relative path and contents, in
// the walk's lexical order.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDurableDataDirDeterminism: two deployments of the same workload and
// seed leave byte-identical data directories. Agents must ship batches in
// the same order with the same rows, and the registry must hand out the
// same dictionary IDs, or sealed blocks and WAL segments differ.
func TestDurableDataDirDeterminism(t *testing.T) {
	workloads := []struct {
		name  string
		build func(*microsim.Env, *otelsdk.SDK) *microsim.Topology
		path  string
	}{
		{"springboot", microsim.BuildSpringBootDemo, "/api/items"},
		{"bookinfo", microsim.BuildBookinfo, "/productpage"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func() string {
				dir := t.TempDir()
				env := microsim.NewEnv(29)
				topo := w.build(env, nil)
				opts := DefaultOptions()
				opts.DataDir = dir
				opts.Shards = 1
				d := NewDeployment(env, []*k8s.Cluster{topo.Cluster}, nil, opts)
				if err := d.DeployAll(); err != nil {
					t.Fatal(err)
				}
				gen := microsim.NewLoadGen(env, "wrk", topo.ClientHost, topo.Entry, 4, 40)
				gen.Path = w.path
				gen.Start(2 * time.Second)
				env.Run(3 * time.Second)
				d.FlushAll()
				if d.Server.SpansIngested() == 0 {
					t.Fatal("no spans ingested")
				}
				d.Stop()
				return dirDigest(t, dir)
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("same seed, different data directories: %s vs %s", a, b)
			}
		})
	}
}
