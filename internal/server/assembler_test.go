package server

import (
	"math/rand"
	"testing"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

// TestAssemblerInvariants checks structural properties of Algorithm 1 on
// randomized span populations: the start span is always in its trace, no
// parent cycles survive, every parent is inside the trace, and a masked
// assembly never finds more spans than the full one.
func TestAssemblerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 20; round++ {
		reg := NewResourceRegistry(nil, nil)
		srv := NewSharded(reg, EncodingSmart, 0, 1)
		n := 20 + rng.Intn(60)
		idsUsed := make([]trace.SpanID, 0, n)
		spans := make([]*trace.Span, 0, n)
		for i := 0; i < n; i++ {
			start := sim.Epoch.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			sp := &trace.Span{
				ID:        trace.SpanID(round*1000 + i + 1),
				Source:    trace.SourceEBPF,
				TapSide:   []trace.TapSide{trace.TapClientProcess, trace.TapServerProcess, trace.TapClientNIC, trace.TapGateway}[rng.Intn(4)],
				StartTime: start,
				EndTime:   start.Add(time.Duration(rng.Intn(50)) * time.Millisecond),
				// Deliberately collide association keys to stress the
				// search and the parent rules.
				SysTraceID: trace.SysTraceID(rng.Intn(8)),
				ReqTCPSeq:  uint32(rng.Intn(6)),
				RespTCPSeq: uint32(rng.Intn(6)),
				XRequestID: []string{"", "xr-1", "xr-2"}[rng.Intn(3)],
				TraceID:    []string{"", "t-1"}[rng.Intn(2)],
				Flow: trace.FiveTuple{
					SrcIP: trace.IP(rng.Intn(3)), DstIP: trace.IP(rng.Intn(3) + 5),
					SrcPort: uint16(rng.Intn(2) + 1000), DstPort: 80, Proto: trace.L4TCP,
				},
			}
			spans = append(spans, sp)
			idsUsed = append(idsUsed, sp.ID)
		}
		ingestSpans(t, srv, spans...)

		start := idsUsed[rng.Intn(len(idsUsed))]
		tr := srv.Trace(start)
		if tr == nil {
			t.Fatalf("round %d: nil trace", round)
		}
		inTrace := map[trace.SpanID]*trace.Span{}
		foundStart := false
		for _, sp := range tr.Spans {
			inTrace[sp.ID] = sp
			if sp.ID == start {
				foundStart = true
			}
		}
		if !foundStart {
			t.Fatalf("round %d: start span missing from its own trace", round)
		}
		// Parents resolve inside the trace and no cycles exist.
		for _, sp := range tr.Spans {
			if sp.ParentID == 0 {
				continue
			}
			if _, ok := inTrace[sp.ParentID]; !ok {
				t.Fatalf("round %d: parent %d outside trace", round, sp.ParentID)
			}
			seen := map[trace.SpanID]bool{}
			cur := sp
			for cur.ParentID != 0 {
				if seen[cur.ID] {
					t.Fatalf("round %d: parent cycle at %d", round, cur.ID)
				}
				seen[cur.ID] = true
				cur = inTrace[cur.ParentID]
				if cur == nil {
					break
				}
			}
		}
		// Masked search is a subset of the full search.
		for _, mask := range []AssocMask{AssocTCPSeq, AssocSysTrace, AssocXRequestID, 0} {
			sub := srv.Store.AssembleMasked(start, DefaultIterations, mask)
			if sub.Len() > tr.Len() {
				t.Fatalf("round %d: mask %b found %d spans > full %d", round, mask, sub.Len(), tr.Len())
			}
		}
		// Zero mask finds exactly the start span.
		if solo := srv.Store.AssembleMasked(start, DefaultIterations, 0); solo.Len() != 1 {
			t.Fatalf("round %d: zero-mask trace has %d spans", round, solo.Len())
		}
	}
}

func TestAssembleSortedByTime(t *testing.T) {
	reg := NewResourceRegistry(nil, nil)
	srv := NewSharded(reg, EncodingSmart, 0, 1)
	var spans []*trace.Span
	for i := 0; i < 10; i++ {
		start := sim.Epoch.Add(time.Duration(10-i) * time.Millisecond)
		spans = append(spans, &trace.Span{
			ID:         trace.SpanID(i + 1),
			SysTraceID: 42,
			StartTime:  start,
			EndTime:    start.Add(time.Millisecond),
			TapSide:    trace.TapServerProcess,
		})
	}
	ingestSpans(t, srv, spans...)
	tr := srv.Trace(1)
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].StartTime.Before(tr.Spans[i-1].StartTime) {
			t.Fatal("spans not time-sorted")
		}
	}
}
