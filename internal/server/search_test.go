package server

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// refMatches is the brute-force meaning of a SpanFilter: every tag is
// enriched and decoded to its name and compared as a string, as a reader
// of the filter's documentation would evaluate it by hand.
func refMatches(reg *ResourceRegistry, f SpanFilter, sp *trace.Span) bool {
	d := reg.Decode(reg.Enrich(sp.Resource))
	peerIP := sp.Flow.SrcIP
	if sp.TapSide.IsClientSide() {
		peerIP = sp.Flow.DstIP
	}
	pd := reg.DecodeIP(peerIP)
	peer := pd.Service
	if peer == "" {
		peer = pd.Node
	}
	if peer == "" {
		peer = peerIP.String()
	}
	return (f.MinDuration == 0 || sp.Duration() >= f.MinDuration) &&
		(f.Status == "" || sp.ResponseStatus == f.Status) &&
		(f.L7 == 0 || sp.L7 == f.L7) &&
		(f.TapSide == 0 || sp.TapSide == f.TapSide) &&
		(f.ProcessName == "" || sp.ProcessName == f.ProcessName) &&
		(f.MinCode == 0 || sp.ResponseCode >= f.MinCode) &&
		(f.Service == "" || d.Service == f.Service) &&
		(f.Pod == "" || d.Pod == f.Pod) &&
		(f.Node == "" || d.Node == f.Node) &&
		(f.Peer == "" || peer == f.Peer)
}

// refSearch answers a search by brute force: filter every stored span,
// sort by StartTime descending then span ID descending, truncate.
func refSearch(reg *ResourceRegistry, stored []*trace.Span, from, to time.Time, f SpanFilter, limit int) []trace.SpanID {
	var hits []*trace.Span
	for _, sp := range stored {
		if !sp.StartTime.Before(from) && sp.StartTime.Before(to) && refMatches(reg, f, sp) {
			hits = append(hits, sp)
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if !hits[i].StartTime.Equal(hits[j].StartTime) {
			return hits[i].StartTime.After(hits[j].StartTime)
		}
		return hits[i].ID > hits[j].ID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return spanIDs(hits)
}

func spanIDs(spans []*trace.Span) []trace.SpanID {
	ids := make([]trace.SpanID, len(spans))
	for i, sp := range spans {
		ids[i] = sp.ID
	}
	return ids
}

// searchCorpus builds n spans over 40 distinct start times (so windows cut
// through runs of equal StartTime) between ms [lo, lo+40), with IDs drawn
// out of time order and every filterable field varied.
func searchCorpus(rng *rand.Rand, reg *ResourceRegistry, nextID *trace.SpanID, n, lo int) []*trace.Span {
	endpoints := []trace.IP{reg.IPOf("frontend-0"), reg.IPOf("backend-0"), reg.IPOf("node-1"), trace.IP(0x0a000063)}
	statuses := []string{"ok", "ok", "error", "timeout"}
	protos := []trace.L7Proto{trace.L7HTTP, trace.L7HTTP2, trace.L7MySQL}
	sides := []trace.TapSide{trace.TapClientProcess, trace.TapServerProcess}
	spans := make([]*trace.Span, n)
	for i := range spans {
		*nextID += trace.SpanID(1 + rng.Intn(3))
		start := sim.Epoch.Add(time.Duration(lo+rng.Intn(40)) * time.Millisecond)
		src, dst := endpoints[rng.Intn(len(endpoints))], endpoints[rng.Intn(len(endpoints))]
		spans[i] = &trace.Span{
			ID:             *nextID,
			Source:         trace.SourceEBPF,
			L7:             protos[rng.Intn(len(protos))],
			TapSide:        sides[rng.Intn(len(sides))],
			ProcessName:    fmt.Sprintf("svc-%d", rng.Intn(3)),
			StartTime:      start,
			EndTime:        start.Add(time.Duration(rng.Intn(6000)) * time.Microsecond),
			ResponseStatus: statuses[rng.Intn(len(statuses))],
			ResponseCode:   int32(200 + 100*rng.Intn(4)),
			Flow:           trace.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: uint16(1000 + i), DstPort: 80, Proto: trace.L4TCP},
			Resource:       trace.ResourceTags{IP: endpoints[rng.Intn(len(endpoints))]},
		}
	}
	// IDs were drawn in row order; shuffle rows so ID order, insertion
	// order and time order all differ.
	rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	return spans
}

// searchFilters covers every SpanFilter field alone, several combined, and
// names the registry has never seen.
func searchFilters() []SpanFilter {
	return []SpanFilter{
		{},
		{MinDuration: 3 * time.Millisecond},
		{Status: "error"},
		{L7: trace.L7MySQL},
		{TapSide: trace.TapServerProcess},
		{ProcessName: "svc-1"},
		{Service: "frontend"},
		{Pod: "backend-0"},
		{Node: "node-1"},
		{MinCode: 400},
		{Peer: "backend"},
		{Peer: "node-1"},
		{Peer: trace.IP(0x0a000063).String()},
		{Service: "frontend", Status: "ok", MinDuration: time.Millisecond},
		{Service: "backend", TapSide: trace.TapServerProcess, Peer: "frontend"},
		{Pod: "frontend-0", Node: "node-1", L7: trace.L7HTTP, MinCode: 300, ProcessName: "svc-0"},
		{Service: "no-such-service"},
		{Pod: "no-such-pod", Status: "ok"},
		{Node: "no-such-node"},
	}
}

// TestQuerySpansMatchesReference checks every search, at 1 and 4 shards,
// against the brute-force reference across the time-index states a store
// goes through: an in-order batch, a late batch older than stored spans
// (merged into the settled prefix), two batches with no search between
// them, eviction over an unsettled tail, and a late batch after eviction.
func TestQuerySpansMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg, _, _ := testRegistry(t)
			srv := NewSharded(reg, EncodingSmart, 0, shards)
			defer srv.Close()
			rng := rand.New(rand.NewSource(42))
			var nextID trace.SpanID
			var stored []*trace.Span
			seq := uint64(0)
			ingest := func(lo int, sizes ...int) {
				var batches [][]byte
				for _, n := range sizes {
					spans := searchCorpus(rng, reg, &nextID, n, lo)
					stored = append(stored, spans...)
					seq++
					batches = append(batches, transport.Encode(&transport.Batch{Host: "h", Seq: seq, Spans: spans}))
				}
				ingestAll(t, srv, batches)
			}
			ms := func(n int) time.Time { return sim.Epoch.Add(time.Duration(n) * time.Millisecond) }
			windows := [][2]time.Time{
				{sim.Epoch, sim.Epoch.Add(time.Hour)},
				{ms(25), ms(45)},
				{ms(30), ms(31)}, // one run of equal StartTime
				{ms(12), ms(12)}, // empty
			}
			check := func(state string) {
				t.Helper()
				for _, f := range searchFilters() {
					for _, w := range windows {
						for _, limit := range []int{0, 1, 5, 17, 100} {
							got := spanIDs(srv.QuerySpans(w[0], w[1], f, limit))
							want := refSearch(reg, stored, w[0], w[1], f, limit)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("%s: QuerySpans(%v, [%v, %v), limit %d)\n got %v\nwant %v",
									state, f, w[0].Sub(sim.Epoch), w[1].Sub(sim.Epoch), limit, got, want)
							}
						}
					}
				}
				for _, limit := range []int{0, 17} {
					got := spanIDs(srv.SpanList(sim.Epoch, ms(60), limit))
					if want := refSearch(reg, stored, sim.Epoch, ms(60), SpanFilter{}, limit); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: SpanList limit %d\n got %v\nwant %v", state, limit, got, want)
					}
				}
			}

			ingest(20, 120, 90)
			check("first batches")
			ingest(0, 150) // older than most stored spans
			check("late batch")
			ingest(10, 60)
			ingest(5, 80)
			check("two batches between searches")
			ingest(8, 50) // still unsettled when eviction renumbers the index

			cutoff := ms(18)
			srv.ApplyRetention(cutoff.Add(time.Hour), time.Hour, 0)
			kept := stored[:0]
			for _, sp := range stored {
				if !sp.StartTime.Before(cutoff) {
					kept = append(kept, sp)
				}
			}
			stored = kept
			check("after EvictBefore")
			ingest(2, 70)
			check("late batch after EvictBefore")
		})
	}
}

// TestSearchCostIsPageNotWindow is the non-timing guard for O(page)
// search: on a settled store of 24k spans, a limit-100 search makes the
// same number of allocations over a 1k-span window as over the whole
// store, and examines no row past its 100th match.
func TestSearchCostIsPageNotWindow(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := NewSharded(reg, EncodingSmart, 0, 1)
	defer srv.Close()
	const total = 24000
	statuses := []string{"ok", "ok", "error"}
	var batches [][]byte
	var spans []*trace.Span
	for i := 0; i < total; i++ {
		start := sim.Epoch.Add(time.Duration(i) * time.Millisecond)
		spans = append(spans, &trace.Span{
			ID: trace.SpanID(i + 1), Source: trace.SourceEBPF, L7: trace.L7HTTP,
			TapSide: trace.TapServerProcess, StartTime: start, EndTime: start.Add(time.Millisecond),
			ResponseStatus: statuses[i%len(statuses)], ResponseCode: 200,
			Resource: trace.ResourceTags{IP: reg.IPOf("frontend-0")},
		})
		if len(spans) == 4000 {
			batches = append(batches, transport.Encode(&transport.Batch{Host: "h", Seq: uint64(len(batches) + 1), Spans: spans}))
			spans = nil
		}
	}
	ingestAll(t, srv, batches)
	to := sim.Epoch.Add(total * time.Millisecond)
	whole, page := sim.Epoch, to.Add(-1000*time.Millisecond)
	f := SpanFilter{Service: "frontend", Status: "error"}
	srv.QuerySpans(whole, to, f, 100) // settles the time index

	search := func(from time.Time) func() {
		return func() {
			if got := srv.QuerySpans(from, to, f, 100); len(got) != 100 {
				t.Fatalf("search returned %d spans, want 100", len(got))
			}
		}
	}
	if a, b := testing.AllocsPerRun(20, search(page)), testing.AllocsPerRun(20, search(whole)); a != b {
		t.Fatalf("limit-100 search allocates %v times over a 1k-span window but %v over the whole store", a, b)
	}

	// Rows up to the 100th match: every third span is an error, newest first.
	upTo := 0
	for i, matched := total-1, 0; matched < 100; i-- {
		upTo++
		if statuses[i%len(statuses)] == "error" {
			matched++
		}
	}
	queries, rows := srv.mSearches.Value(), srv.mSearchRows.Value()
	search(whole)()
	if q, r := srv.mSearches.Value()-queries, srv.mSearchRows.Value()-rows; q != 1 || r > uint64(upTo) {
		t.Fatalf("one search counted as %d queries scanning %d rows; want 1 query, at most %d rows", q, r, upTo)
	}
}

// TestSearchDuringIngest runs searches while the shard workers insert, so
// settling the time index races inserts into the same partition; once
// ingest drains, the answer must equal the reference.
func TestSearchDuringIngest(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := NewSharded(reg, EncodingSmart, 0, 4)
	defer srv.Close()
	rng := rand.New(rand.NewSource(5))
	var nextID trace.SpanID
	var stored []*trace.Span
	var batches [][]byte
	for i := 0; i < 40; i++ {
		spans := searchCorpus(rng, reg, &nextID, 25, 40-i)
		stored = append(stored, spans...)
		batches = append(batches, transport.Encode(&transport.Batch{Host: "h", Seq: uint64(i + 1), Spans: spans}))
	}
	from, to := sim.Epoch, sim.Epoch.Add(time.Hour)
	f := SpanFilter{Service: "frontend"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			srv.QuerySpans(from, to, f, 17)
		}
	}()
	ingestAll(t, srv, batches)
	<-done
	got := spanIDs(srv.QuerySpans(from, to, f, 17))
	if want := refSearch(reg, stored, from, to, f, 17); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after concurrent ingest\n got %v\nwant %v", got, want)
	}
}
