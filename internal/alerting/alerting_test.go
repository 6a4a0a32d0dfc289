package alerting

import (
	"strings"
	"testing"
	"time"

	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// testConfig is a small, fast-firing tuning for lifecycle tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Start = sim.Epoch
	cfg.Warmup = 3
	cfg.FireAfter = 2
	cfg.ResolveAfter = 2
	cfg.EvalDelay = 0
	return cfg
}

var spanIDs trace.IDAllocator

// bucketSpans synthesizes one endpoint's server-side spans for the fine
// bucket starting at sec seconds past the epoch.
func bucketSpans(name string, sec, ok, errs int) []*trace.Span {
	var out []*trace.Span
	mk := func(status string, code int32) *trace.Span {
		start := sim.Epoch.Add(time.Duration(sec)*time.Second + 5*time.Millisecond)
		return &trace.Span{
			ID: spanIDs.NextSpanID(), Source: trace.SourceEBPF, L7: trace.L7HTTP,
			TapSide: trace.TapServerProcess,
			Flow: trace.FiveTuple{SrcIP: 10, DstIP: 20, SrcPort: uint16(3000 + sec),
				DstPort: 80, Proto: trace.L4TCP},
			StartTime: start, EndTime: start.Add(2 * time.Millisecond),
			ProcessName: name, HostName: "host-a", RequestType: "GET",
			ResponseCode: code, ResponseStatus: status,
		}
	}
	for i := 0; i < ok; i++ {
		out = append(out, mk("ok", 200))
	}
	for i := 0; i < errs; i++ {
		out = append(out, mk("error", 500))
	}
	return out
}

func ingestSpans(t *testing.T, s *server.Server, spans []*trace.Span) {
	t.Helper()
	b := transport.Encode(&transport.Batch{Host: "agent", Seq: 1, Spans: spans})
	if err := s.IngestBatch(b); err != nil {
		t.Fatal(err)
	}
	s.Drain()
}

func newTestServer() *server.Server {
	return server.NewSharded(server.NewResourceRegistry(nil, nil), server.EncodingSmart, 0, 1)
}

// TestWarmupSuppression: a deviation during the baseline warmup window must
// not fire — the estimate has not seen enough normal traffic to judge.
func TestWarmupSuppression(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	var spans []*trace.Span
	// Bucket 0-1 healthy, bucket 2 bursts errors: still inside Warmup=3.
	spans = append(spans, bucketSpans("web", 0, 10, 0)...)
	spans = append(spans, bucketSpans("web", 1, 10, 0)...)
	spans = append(spans, bucketSpans("web", 2, 10, 8)...)
	ingestSpans(t, srv, spans)

	e := New(srv, testConfig())
	e.Evaluate(sim.Epoch.Add(3 * time.Second))
	if got := e.Alerts(); len(got) != 0 {
		t.Fatalf("warmup window fired: %+v", got[0])
	}
	if e.Pending() != nil {
		t.Fatalf("warmup window opened a pending alert")
	}
}

// TestHysteresisSingleSpike: one anomalous bucket opens a pending alert
// that dissolves on the next healthy bucket — it never fires.
func TestHysteresisSingleSpike(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	var spans []*trace.Span
	for sec := 0; sec < 5; sec++ {
		spans = append(spans, bucketSpans("web", sec, 10, 0)...)
	}
	spans = append(spans, bucketSpans("web", 5, 10, 8)...) // lone spike
	spans = append(spans, bucketSpans("web", 6, 10, 0)...)
	spans = append(spans, bucketSpans("web", 7, 10, 0)...)
	ingestSpans(t, srv, spans)

	e := New(srv, testConfig())
	// Evaluate up to (but not past) the spike bucket: pending appears.
	e.Evaluate(sim.Epoch.Add(6 * time.Second))
	if p := e.Pending(); len(p) != 1 || p[0].Kind != KindErrorBurst || p[0].State != StatePending {
		t.Fatalf("pending after spike = %+v", p)
	}
	// The healthy bucket cancels it.
	e.Evaluate(sim.Epoch.Add(8 * time.Second))
	if len(e.Alerts()) != 0 {
		t.Fatalf("single-bucket spike fired: %+v", e.Alerts()[0])
	}
	if len(e.Pending()) != 0 {
		t.Fatal("pending alert survived a healthy bucket")
	}
	if got := e.mCanceled.Value(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// TestFireResolveRefire walks the full lifecycle: a sustained burst fires
// (with evidence and suspect attached), sustained health resolves it, and
// a second burst opens a NEW alert with a new ID.
func TestFireResolveRefire(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	var spans []*trace.Span
	healthy := func(sec int) { spans = append(spans, bucketSpans("web", sec, 10, 0)...) }
	burst := func(sec int) { spans = append(spans, bucketSpans("web", sec, 10, 6)...) }
	for sec := 0; sec < 6; sec++ {
		healthy(sec)
	}
	for sec := 6; sec < 9; sec++ {
		burst(sec)
	}
	for sec := 9; sec < 12; sec++ {
		healthy(sec)
	}
	burst(12)
	burst(13)
	ingestSpans(t, srv, spans)

	e := New(srv, testConfig())
	e.Evaluate(sim.Epoch.Add(14 * time.Second))

	alerts := e.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2 (fire + refire)", len(alerts))
	}
	first, second := alerts[0], alerts[1]
	if first.State != StateResolved {
		t.Fatalf("first alert state = %s, want resolved", first.State)
	}
	if second.State != StateFiring {
		t.Fatalf("second alert state = %s, want firing", second.State)
	}
	if first.ID == second.ID {
		t.Fatal("refire reused the alert ID")
	}
	if first.Kind != KindErrorBurst || first.Class != "application" {
		t.Fatalf("first alert kind/class = %s/%s", first.Kind, first.Class)
	}
	// Fired at the close of the second breach bucket (FireAfter=2).
	if want := sim.Epoch.Add(8 * time.Second); !first.FiredAt.Equal(want) {
		t.Fatalf("FiredAt = %v, want %v", first.FiredAt, want)
	}
	// Resolved after two healthy buckets (9, 10).
	if want := sim.Epoch.Add(11 * time.Second); !first.ResolvedAt.Equal(want) {
		t.Fatalf("ResolvedAt = %v, want %v", first.ResolvedAt, want)
	}
	ev := first.Evidence
	if ev.Signal != "errors" || ev.Observed != 6 || ev.Baseline != 0 {
		t.Fatalf("evidence = %+v", ev)
	}
	if !ev.From.Equal(sim.Epoch.Add(6*time.Second)) || !ev.To.Equal(sim.Epoch.Add(8*time.Second)) {
		t.Fatalf("evidence window = [%v, %v)", ev.From, ev.To)
	}
	// Localization ran with zero operator calls: no pod registry here, so
	// the suspect falls back to the capture host.
	if first.Inconclusive || !strings.Contains(first.Suspect, "host-a") {
		t.Fatalf("suspect = %q (inconclusive=%v)", first.Suspect, first.Inconclusive)
	}
	if first.Drill.ProcessName != "web" || first.Drill.Status != "error" {
		t.Fatalf("drill = %+v", first.Drill)
	}
	if got := e.mFired.Value(); got != 2 {
		t.Fatalf("fired counter = %d", got)
	}
	if got := e.mResolved.Value(); got != 1 {
		t.Fatalf("resolved counter = %d", got)
	}
	if eps := e.FiringEndpoints(); len(eps) != 1 || eps[0] != "web" {
		t.Fatalf("firing endpoints = %v", eps)
	}
}

// TestRSTSuppressesErrorBurst: when the packet plane breaches, the
// application-plane error detector on the same endpoint is frozen — the
// operator gets ONE alert naming the network, not two naming both.
func TestRSTSuppressesErrorBurst(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	var spans []*trace.Span
	for sec := 0; sec < 6; sec++ {
		spans = append(spans, bucketSpans("mq", sec, 10, 0)...)
	}
	// Fault buckets: errors AND resets spike together.
	for sec := 6; sec < 9; sec++ {
		faulty := bucketSpans("mq", sec, 4, 6)
		for _, sp := range faulty {
			sp.Net.Resets = 2 // 10 spans × 2 = 20 resets per bucket
		}
		spans = append(spans, faulty...)
	}
	ingestSpans(t, srv, spans)

	e := New(srv, testConfig())
	e.Evaluate(sim.Epoch.Add(9 * time.Second))

	alerts := e.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly one (rst-storm)", alerts)
	}
	if alerts[0].Kind != KindRSTStorm {
		t.Fatalf("kind = %s, want rst-storm", alerts[0].Kind)
	}
	if got := e.mSuppressed.Value(); got == 0 {
		t.Fatal("suppressed counter did not move")
	}
}

// TestAlertStreamShardDeterminism: the rendered alert stream must be
// byte-identical when the same batches are ingested through 1 and 4
// shards.
func TestAlertStreamShardDeterminism(t *testing.T) {
	reg1 := server.NewResourceRegistry(nil, nil)
	reg4 := server.NewResourceRegistry(nil, nil)
	s1 := server.NewSharded(reg1, server.EncodingSmart, 0, 1)
	s4 := server.NewSharded(reg4, server.EncodingSmart, 0, 4)
	defer s1.Close()
	defer s4.Close()

	var spans []*trace.Span
	for sec := 0; sec < 6; sec++ {
		spans = append(spans, bucketSpans("web", sec, 10, 0)...)
		spans = append(spans, bucketSpans("api", sec, 6, 0)...)
	}
	for sec := 6; sec < 10; sec++ {
		spans = append(spans, bucketSpans("web", sec, 10, 7)...)
		spans = append(spans, bucketSpans("api", sec, 6, 0)...)
	}
	// Small batches so spans spread across the 4 shards.
	var batches [][]byte
	seq := uint64(0)
	for off := 0; off < len(spans); off += 5 {
		end := off + 5
		if end > len(spans) {
			end = len(spans)
		}
		seq++
		batches = append(batches, transport.Encode(&transport.Batch{Host: "agent", Seq: seq, Spans: spans[off:end]}))
	}
	for _, b := range batches {
		if err := s1.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := s4.IngestBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	s1.Drain()
	s4.Drain()

	e1 := New(s1, testConfig())
	e4 := New(s4, testConfig())
	// Evaluate on the same tick schedule a deployment would use.
	for sec := 1; sec <= 10; sec++ {
		e1.Evaluate(sim.Epoch.Add(time.Duration(sec) * time.Second))
		e4.Evaluate(sim.Epoch.Add(time.Duration(sec) * time.Second))
	}
	t1, t4 := e1.Text(), e4.Text()
	if t1 != t4 {
		t.Fatalf("alert streams differ across shard counts:\n--- 1 shard ---\n%s--- 4 shards ---\n%s", t1, t4)
	}
	if !strings.Contains(t1, "error-burst") {
		t.Fatalf("expected an error-burst alert in the stream:\n%s", t1)
	}
}
