package server

import (
	"sort"
	"time"

	"deepflow/internal/trace"
)

// SpanFilter narrows span-list queries; zero values mean "any". It backs
// the paper's workflow of picking assembly starting points: "users can
// select spans that they are interested in, such as time-consuming
// invocations" (§3.3.2).
type SpanFilter struct {
	MinDuration time.Duration
	Status      string // "ok" | "error" | "timeout"
	L7          trace.L7Proto
	TapSide     trace.TapSide
	ProcessName string
	Service     string // decoded service name (query-time tag expansion)
	Pod         string // decoded pod name
	Node        string // decoded node name
	MinCode     int32  // e.g. 400 to select error responses

	// Peer matches the decoded identity of the span's remote endpoint
	// (service, else node, else raw IP): for server-side spans the flow
	// source, for client-side spans the flow destination. Service-map edge
	// drill-downs use it to reproduce exactly one edge's spans.
	Peer string
}

// spanQuery is a SpanFilter compiled for one search. Resource names are
// resolved to their smart-encoded IDs once, so each row compares an int32
// instead of decoding its tags (Fig. 8: names resolve only for results),
// and peer labels are decoded once per remote IP.
type spanQuery struct {
	f                  SpanFilter
	service, pod, node int32
	reg                *ResourceRegistry
	peers              map[trace.IP]string
}

// compile resolves the filter's resource names in reg's dictionaries. It
// reports false when a named service, pod or node is not in the registry:
// no stored span can carry it, so the search has an empty answer.
func (f SpanFilter) compile(reg *ResourceRegistry) (*spanQuery, bool) {
	q := &spanQuery{f: f, reg: reg}
	known := func(d *dictionary, name string, id *int32) bool {
		if name == "" {
			return true
		}
		var ok bool
		*id, ok = d.lookup(name)
		return ok
	}
	if !known(reg.services, f.Service, &q.service) || !known(reg.pods, f.Pod, &q.pod) || !known(reg.nodes, f.Node, &q.node) {
		return nil, false
	}
	if f.Peer != "" {
		q.peers = make(map[trace.IP]string)
	}
	return q, true
}

// matches tests one row: the integer comparisons first, so most rejected
// rows cost a few loads.
func (q *spanQuery) matches(sp *trace.Span) bool {
	f := &q.f
	if f.Service != "" && sp.Resource.ServiceID != q.service {
		return false
	}
	if f.Pod != "" && sp.Resource.PodID != q.pod {
		return false
	}
	if f.Node != "" && sp.Resource.NodeID != q.node {
		return false
	}
	if f.TapSide != 0 && sp.TapSide != f.TapSide {
		return false
	}
	if f.L7 != 0 && sp.L7 != f.L7 {
		return false
	}
	if f.MinCode != 0 && sp.ResponseCode < f.MinCode {
		return false
	}
	if f.MinDuration > 0 && sp.Duration() < f.MinDuration {
		return false
	}
	if f.Status != "" && sp.ResponseStatus != f.Status {
		return false
	}
	if f.ProcessName != "" && sp.ProcessName != f.ProcessName {
		return false
	}
	if f.Peer != "" && q.peer(sp) != f.Peer {
		return false
	}
	return true
}

// peer decodes the span's remote endpoint to the same identity the service
// map uses for edge endpoints: service, else node, else raw IP.
func (q *spanQuery) peer(sp *trace.Span) string {
	ip := sp.Flow.SrcIP // span flows are oriented client→server
	if sp.TapSide.IsClientSide() {
		ip = sp.Flow.DstIP
	}
	if label, ok := q.peers[ip]; ok {
		return label
	}
	d := q.reg.DecodeIP(ip)
	label := d.Service
	if label == "" {
		label = d.Node
	}
	if label == "" {
		label = ip.String()
	}
	q.peers[ip] = label
	return label
}

// QuerySpans returns up to limit spans in [from, to) matching the filter
// (limit 0 = unlimited), newest first: StartTime descending, span ID
// descending on ties. The filter and the limit are pushed into each
// partition's walk of its time index, so a search examines only the rows
// up to its limit-th match. The order is total, so the answer is identical
// for any shard count over the same corpus.
func (s *Server) QuerySpans(from, to time.Time, f SpanFilter, limit int) []*trace.Span {
	q, ok := f.compile(s.Registry)
	var parts [][]*trace.Span
	scanned := 0
	if ok {
		parts = make([][]*trace.Span, len(s.stores))
		for i, st := range s.stores {
			// A span in the global top-`limit` is in its own partition's
			// top-`limit`, so the per-partition cap is sufficient.
			var n int
			parts[i], n = st.search(from, to, q, limit)
			scanned += n
		}
	}
	s.mSearches.Inc()
	s.mSearchRows.Add(uint64(scanned))
	return mergeNewestFirst(parts, limit)
}

// SpanList answers the span-list query of Fig. 15: QuerySpans with an
// empty filter.
func (s *Server) SpanList(from, to time.Time, limit int) []*trace.Span {
	return s.QuerySpans(from, to, SpanFilter{}, limit)
}

// mergeNewestFirst merges per-partition answers, each already newest
// first, into the first limit spans (0 = all) of their union.
func mergeNewestFirst(parts [][]*trace.Span, limit int) []*trace.Span {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if limit > 0 && n > limit {
		n = limit
	}
	if n == 0 {
		return nil
	}
	out := make([]*trace.Span, 0, n)
	for len(out) < n {
		best := -1
		for i, p := range parts {
			if len(p) > 0 && (best < 0 || newerSpan(p[0], parts[best][0])) {
				best = i
			}
		}
		out = append(out, parts[best][0])
		parts[best] = parts[best][1:]
	}
	return out
}

// newerSpan reports whether a comes before b in search order.
func newerSpan(a, b *trace.Span) bool {
	if c := a.StartTime.Compare(b.StartTime); c != 0 {
		return c > 0
	}
	return a.ID > b.ID
}

// SlowestSpans returns the n slowest spans in the window matching the
// filter — the "time-consuming invocations" entry point for Algorithm 1.
func (s *Server) SlowestSpans(from, to time.Time, f SpanFilter, n int) []*trace.Span {
	matched := s.QuerySpans(from, to, f, 0)
	// Partial selection sort: n is small (a UI page).
	if n > len(matched) {
		n = len(matched)
	}
	for i := 0; i < n; i++ {
		max := i
		for j := i + 1; j < len(matched); j++ {
			if matched[j].Duration() > matched[max].Duration() {
				max = j
			}
		}
		matched[i], matched[max] = matched[max], matched[i]
	}
	return matched[:n]
}

// ServiceSummary is one service's aggregate over a window — the RED-style
// overview operators start from before drilling into traces.
type ServiceSummary struct {
	Service  string
	Requests int
	Errors   int
	MeanDur  time.Duration
	MaxDur   time.Duration
}

// SummarizeServices aggregates server-side spans per decoded service by
// scanning the raw span list — the O(spans stored) reference path that
// ServiceSummaryFast answers from the rollup tiers instead. Results are
// ordered by service name; the ordering is part of the contract (golden
// tests and the rollup-equivalence gate compare the two paths byte for
// byte).
func (s *Server) SummarizeServices(from, to time.Time) []ServiceSummary {
	byService := map[string]*ServiceSummary{}
	for _, sp := range s.QuerySpans(from, to, SpanFilter{TapSide: trace.TapServerProcess}, 0) {
		name := s.Registry.Decode(sp.Resource).Service
		if name == "" {
			name = sp.ProcessName
		}
		sum := byService[name]
		if sum == nil {
			sum = &ServiceSummary{Service: name}
			byService[name] = sum
		}
		sum.Requests++
		if sp.ResponseStatus == "error" || sp.ResponseStatus == "timeout" {
			sum.Errors++
		}
		d := sp.Duration()
		sum.MeanDur += d // accumulated; divided below
		if d > sum.MaxDur {
			sum.MaxDur = d
		}
	}
	out := make([]ServiceSummary, 0, len(byService))
	for _, sum := range byService {
		if sum.Requests > 0 {
			sum.MeanDur /= time.Duration(sum.Requests)
		}
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}
