// Package rollup is the streaming aggregation plane behind DeepFlow's
// "universal map of services": instead of re-scanning raw spans per query,
// the server folds every span and kernel flow sample into (a) multi-
// resolution time-bucketed RED + network metrics and (b) a service-map
// graph, as batches decode on the ingest path. Dashboards then read
// O(windows touched) pre-aggregated state — the same downsampling story a
// ClickHouse deployment gets from TTL + materialized views.
//
// Aggregation keys are smart-encoded: integer resource tags (service, pod,
// node) plus protocol and status class. Names resolve only at query time,
// exactly like the span store (paper §3.4, Fig. 8).
//
// Every aggregate is a sum or a max, so folding is commutative and
// associative: per-ingest-shard partials merged at query time answer
// byte-identically for any shard count and any arrival order — the same
// determinism contract TestShardMergeDeterminism enforces for raw queries.
package rollup

import (
	"sort"
	"sync"
	"time"

	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// Tier resolutions. Fine buckets serve recent, high-resolution queries and
// are evictable; coarse buckets are the retained rollup.
const (
	FineBucket   = time.Second
	CoarseBucket = time.Minute
)

// StatusClass buckets a span's response status for the RED error rate.
type StatusClass uint8

// Status classes.
const (
	ClassOK StatusClass = iota
	ClassError
	ClassTimeout
	ClassOther
)

func (c StatusClass) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassError:
		return "error"
	case ClassTimeout:
		return "timeout"
	default:
		return "other"
	}
}

// IsError reports whether the class counts toward the RED error rate (the
// same predicate SummarizeServices applies to raw spans).
func (c StatusClass) IsError() bool { return c == ClassError || c == ClassTimeout }

// Classify maps a span's response status string to its class.
func Classify(status string) StatusClass {
	switch status {
	case "ok":
		return ClassOK
	case "error":
		return ClassError
	case "timeout":
		return ClassTimeout
	default:
		return ClassOther
	}
}

// Key is one aggregation group: the smart-encoded tag tuple of the paper's
// pre-aggregated flow metrics. Proc is the display-name fallback carried
// only when ServiceID is 0 (a server process outside any k8s service), so
// query-time grouping matches the raw-scan summary exactly.
type Key struct {
	ServiceID int32
	PodID     int32
	NodeID    int32
	L7        trace.L7Proto
	Class     StatusClass
	Proc      string
}

// Agg is one group's aggregate within one time bucket. All fields are sums
// or maxes: merging Aggs in any order yields identical results.
type Agg struct {
	Requests uint64
	Errors   uint64
	DurSumNS int64
	DurMaxNS int64

	// Span-attached network metrics (paper §3.2: "retrieve network
	// metrics ... and attach them to traces").
	Retransmissions uint64
	Resets          uint64
	ZeroWindows     uint64
	BytesSent       uint64
	BytesReceived   uint64
	RTTMaxNS        int64
}

// Merge folds o into a.
func (a *Agg) Merge(o *Agg) {
	a.Requests += o.Requests
	a.Errors += o.Errors
	a.DurSumNS += o.DurSumNS
	if o.DurMaxNS > a.DurMaxNS {
		a.DurMaxNS = o.DurMaxNS
	}
	a.Retransmissions += o.Retransmissions
	a.Resets += o.Resets
	a.ZeroWindows += o.ZeroWindows
	a.BytesSent += o.BytesSent
	a.BytesReceived += o.BytesReceived
	if o.RTTMaxNS > a.RTTMaxNS {
		a.RTTMaxNS = o.RTTMaxNS
	}
}

func (a *Agg) observe(sp *trace.Span) {
	a.Requests++
	if Classify(sp.ResponseStatus).IsError() {
		a.Errors++
	}
	d := int64(sp.Duration())
	a.DurSumNS += d
	if d > a.DurMaxNS {
		a.DurMaxNS = d
	}
	a.Retransmissions += uint64(sp.Net.Retransmissions)
	a.Resets += uint64(sp.Net.Resets)
	a.ZeroWindows += uint64(sp.Net.ZeroWindows)
	a.BytesSent += sp.Net.BytesSent
	a.BytesReceived += sp.Net.BytesReceived
	if rtt := int64(sp.Net.RTT); rtt > a.RTTMaxNS {
		a.RTTMaxNS = rtt
	}
}

// Resolver maps an IP to its smart-encoded resource tags without interning
// anything — the read-only face of the server's resource registry.
type Resolver func(ip trace.IP) trace.ResourceTags

// tier is one resolution's bucket map: bucket start (UnixNano, aligned to
// the tier width) → group → aggregate.
type tier map[int64]map[Key]*Agg

func (t tier) observe(bucket int64, k Key, sp *trace.Span) {
	groups := t[bucket]
	if groups == nil {
		groups = make(map[Key]*Agg)
		t[bucket] = groups
	}
	a := groups[k]
	if a == nil {
		a = &Agg{}
		groups[k] = a
	}
	a.observe(sp)
}

// bucketStart aligns ts down to a bucket boundary (floor division, safe for
// timestamps before the epoch).
func bucketStart(ts time.Time, width time.Duration) int64 {
	ns, w := ts.UnixNano(), int64(width)
	q := ns / w
	if ns%w < 0 {
		q--
	}
	return q * w
}

// Partial is one ingest shard's rollup state. Each shard worker owns one
// and folds rows in as it decodes batches; queries merge the partials.
// A Partial is internally locked: queries may run while the shard inserts.
type Partial struct {
	resolve Resolver

	mu     sync.Mutex
	fine   tier
	coarse tier
	// fineFloor is the eviction watermark (UnixNano, always aligned to
	// CoarseBucket): fine buckets before it have been evicted, and queries
	// answer that range from the coarse tier instead.
	fineFloor int64
	// coarseFloor is the final retention horizon (UnixNano, CoarseBucket-
	// aligned): coarse buckets, edges, and flow pairs before it are gone for
	// good — the last stage of the raw → rollup → eviction TTL cascade.
	// Invariant: coarseFloor <= fineFloor never holds in reverse; raising
	// the coarse floor raises the fine floor with it.
	coarseFloor int64

	edges map[int64]map[EdgeKey]*EdgeAgg
	flows map[int64]map[PairKey]*FlowAgg
	// hostNet is the fine-tier packet-plane signal map: capture host →
	// per-1s-bucket network counters from kernel flow samples. It exists for
	// the alerting plane, which needs ARP/reset signals at detection
	// resolution even when no span ships (e.g. connection-refused storms);
	// it is evicted with the fine watermark and has no coarse fallback.
	hostNet map[int64]map[string]*HostAgg
	// exemplars/edgeEx are the fine-tier slow-trace reservoirs: per group
	// (and per directed edge) the K slowest span IDs, the aggregate→trace
	// drill-down entry points. Fine tier only, evicted with the watermark,
	// no coarse fallback (the raw spans they reference age out too).
	exemplars map[int64]map[Key]*Reservoir
	edgeEx    map[int64]map[EdgeKey]*Reservoir

	spansSeen     uint64
	flowsSeen     uint64
	fineEvicted   uint64
	coarseEvicted uint64
}

// NewPartial creates an empty partial over the given tag resolver.
func NewPartial(resolve Resolver) *Partial {
	return &Partial{
		resolve:   resolve,
		fine:      make(tier),
		coarse:    make(tier),
		edges:     make(map[int64]map[EdgeKey]*EdgeAgg),
		flows:     make(map[int64]map[PairKey]*FlowAgg),
		hostNet:   make(map[int64]map[string]*HostAgg),
		exemplars: make(map[int64]map[Key]*Reservoir),
		edgeEx:    make(map[int64]map[EdgeKey]*Reservoir),
	}
}

// ObserveSpan folds one enriched span into the rollup. Only server-side
// process spans contribute: they are the service's own account of each
// request, matching the raw-scan summary and keeping one span per
// (client, server) hop in the map.
func (p *Partial) ObserveSpan(sp *trace.Span) {
	if sp.TapSide != trace.TapServerProcess {
		return
	}
	k := Key{
		ServiceID: sp.Resource.ServiceID,
		PodID:     sp.Resource.PodID,
		NodeID:    sp.Resource.NodeID,
		L7:        sp.L7,
		Class:     Classify(sp.ResponseStatus),
	}
	if k.ServiceID == 0 {
		k.Proc = sp.ProcessName
	}
	ek := EdgeKey{
		Client: clientIdent(p.resolve(sp.Flow.SrcIP), sp.Flow.SrcIP),
		Server: serverIdent(sp.Resource, sp.ProcessName),
		L7:     sp.L7,
	}

	fb := bucketStart(sp.StartTime, FineBucket)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.spansSeen++
	p.fine.observe(fb, k, sp)
	p.coarse.observe(bucketStart(sp.StartTime, CoarseBucket), k, sp)
	if fb >= p.fineFloor {
		p.observeExemplar(fb, k, ek, sp)
	}

	cb := bucketStart(sp.StartTime, CoarseBucket)
	em := p.edges[cb]
	if em == nil {
		em = make(map[EdgeKey]*EdgeAgg)
		p.edges[cb] = em
	}
	ea := em[ek]
	if ea == nil {
		ea = &EdgeAgg{}
		em[ek] = ea
	}
	ea.observe(sp)
}

// ObserveFlow folds one kernel flow sample into the service map's
// per-edge network statistics (retransmits, RSTs, kernel packet/byte
// counters from the in-kernel flow-stats map).
func (p *Partial) ObserveFlow(f transport.FlowSample) {
	pk := pairOf(
		identOf(p.resolve(f.Tuple.SrcIP), f.Tuple.SrcIP),
		identOf(p.resolve(f.Tuple.DstIP), f.Tuple.DstIP),
	)
	cb := bucketStart(f.TS, CoarseBucket)

	fb := bucketStart(f.TS, FineBucket)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.flowsSeen++
	fm := p.flows[cb]
	if fm == nil {
		fm = make(map[PairKey]*FlowAgg)
		p.flows[cb] = fm
	}
	fa := fm[pk]
	if fa == nil {
		fa = &FlowAgg{}
		fm[pk] = fa
	}
	fa.observe(f)

	if fb >= p.fineFloor {
		hm := p.hostNet[fb]
		if hm == nil {
			hm = make(map[string]*HostAgg)
			p.hostNet[fb] = hm
		}
		ha := hm[f.Host]
		if ha == nil {
			ha = &HostAgg{}
			hm[f.Host] = ha
		}
		ha.observe(f)
	}
}

// EvictFineBefore drops fine-tier buckets older than cutoff, rounding the
// watermark down to a coarse boundary so the coarse tier covers the evicted
// range exactly (no bucket ever straddles the watermark). Eviction is
// driven by the server with one global cutoff, so every partial holds the
// same watermark and shard count stays invisible to queries.
func (p *Partial) EvictFineBefore(cutoff time.Time) {
	floor := bucketStart(cutoff, CoarseBucket)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.evictFineLocked(floor)
}

// evictFineLocked raises the fine watermark to floor (CoarseBucket-aligned)
// and drops the fine-tier state behind it. Callers hold p.mu.
func (p *Partial) evictFineLocked(floor int64) {
	if floor <= p.fineFloor {
		return
	}
	p.fineFloor = floor
	for b := range p.fine {
		if b < floor {
			delete(p.fine, b)
			p.fineEvicted++
		}
	}
	for b := range p.hostNet {
		if b < floor {
			delete(p.hostNet, b)
		}
	}
	for b := range p.exemplars {
		if b < floor {
			delete(p.exemplars, b)
		}
	}
	for b := range p.edgeEx {
		if b < floor {
			delete(p.edgeEx, b)
		}
	}
}

// EvictCoarseBefore drops coarse-tier buckets — RED groups, service-map
// edges, flow pairs — older than cutoff, the final stage of the retention
// cascade: raw spans age into rollups, rollups age into nothing. Raising
// the coarse horizon drags the fine watermark with it, so the tier
// ordering (fine retention ≤ coarse retention) can never invert. Like fine
// eviction it is driven by the server with one global cutoff.
func (p *Partial) EvictCoarseBefore(cutoff time.Time) {
	floor := bucketStart(cutoff, CoarseBucket)
	p.mu.Lock()
	defer p.mu.Unlock()
	if floor <= p.coarseFloor {
		return
	}
	p.coarseFloor = floor
	p.evictFineLocked(floor)
	for b := range p.coarse {
		if b < floor {
			delete(p.coarse, b)
			p.coarseEvicted++
		}
	}
	for b := range p.edges {
		if b < floor {
			delete(p.edges, b)
		}
	}
	for b := range p.flows {
		if b < floor {
			delete(p.flows, b)
		}
	}
}

// CoarseFloor returns the coarse retention horizon (zero time if nothing
// coarse-evicted yet).
func (p *Partial) CoarseFloor() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.coarseFloor == 0 {
		return time.Time{}
	}
	return time.Unix(0, p.coarseFloor)
}

// FineFloor returns the eviction watermark (zero time if nothing evicted).
func (p *Partial) FineFloor() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fineFloor == 0 {
		return time.Time{}
	}
	return time.Unix(0, p.fineFloor)
}

// Stats is a point-in-time size snapshot for self-monitoring.
type Stats struct {
	FineBuckets    int
	CoarseBuckets  int
	Groups         int // aggregation groups across fine buckets
	EdgeBuckets    int
	Edges          int // edge groups across buckets
	FlowPairs      int
	HostNetHosts   int // host-signal groups across fine buckets
	ExemplarGroups int // slow-trace reservoirs across fine buckets (groups + edges)
	SpansSeen      uint64
	FlowsSeen      uint64
	FineEvicted    uint64
	CoarseEvicted  uint64
}

// Snapshot returns the partial's current sizes.
func (p *Partial) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		FineBuckets:   len(p.fine),
		CoarseBuckets: len(p.coarse),
		EdgeBuckets:   len(p.edges),
		SpansSeen:     p.spansSeen,
		FlowsSeen:     p.flowsSeen,
		FineEvicted:   p.fineEvicted,
		CoarseEvicted: p.coarseEvicted,
	}
	for _, g := range p.fine {
		s.Groups += len(g)
	}
	for _, em := range p.edges {
		s.Edges += len(em)
	}
	for _, fm := range p.flows {
		s.FlowPairs += len(fm)
	}
	for _, hm := range p.hostNet {
		s.HostNetHosts += len(hm)
	}
	for _, em := range p.exemplars {
		s.ExemplarGroups += len(em)
	}
	for _, gm := range p.edgeEx {
		s.ExemplarGroups += len(gm)
	}
	return s
}

// CollectGroups merges the partials' bucketed aggregates over [from, to)
// into one group → aggregate map. The fine tier answers [watermark, to);
// the coarse tier answers the evicted range before the watermark. Results
// are exact when from and to are aligned to the answering tier's bucket
// width (callers wanting byte-exact raw-scan parity pass aligned windows);
// otherwise the window widens to the containing buckets.
func CollectGroups(parts []*Partial, from, to time.Time) map[Key]*Agg {
	lo, hi := bucketStart(from, FineBucket), to.UnixNano()
	// The merged watermark is the max across partials; eviction is driven
	// globally so they agree, but max is the safe join.
	var floor int64
	for _, p := range parts {
		p.mu.Lock()
		if p.fineFloor > floor {
			floor = p.fineFloor
		}
		p.mu.Unlock()
	}
	out := make(map[Key]*Agg)
	fold := func(t tier, lo, hi int64) {
		for b, groups := range t {
			if b < lo || b >= hi {
				continue
			}
			for k, a := range groups {
				dst := out[k]
				if dst == nil {
					dst = &Agg{}
					out[k] = dst
				}
				dst.Merge(a)
			}
		}
	}
	for _, p := range parts {
		p.mu.Lock()
		if floor > lo {
			// Evicted range: coarse tier. The watermark is coarse-aligned,
			// so no coarse bucket straddles it.
			fold(p.coarse, bucketStart(time.Unix(0, lo), CoarseBucket), min64(floor, hi))
		}
		if hi > floor {
			fold(p.fine, max64(lo, floor), hi)
		}
		p.mu.Unlock()
	}
	return out
}

// SortedKeys returns the merged map's keys in a deterministic total order.
func SortedKeys(groups map[Key]*Agg) []Key {
	keys := make([]Key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

func (k Key) less(o Key) bool {
	if k.ServiceID != o.ServiceID {
		return k.ServiceID < o.ServiceID
	}
	if k.PodID != o.PodID {
		return k.PodID < o.PodID
	}
	if k.NodeID != o.NodeID {
		return k.NodeID < o.NodeID
	}
	if k.L7 != o.L7 {
		return k.L7 < o.L7
	}
	if k.Class != o.Class {
		return k.Class < o.Class
	}
	return k.Proc < o.Proc
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
