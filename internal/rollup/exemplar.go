package rollup

import (
	"time"

	"deepflow/internal/trace"
)

// ExemplarK is the reservoir size: per group and fine bucket, the K slowest
// spans are retained as drill-down entry points.
const ExemplarK = 3

// Exemplar is one slow-trace entry point: the span ID to start trace
// assembly from and its wall duration.
type Exemplar struct {
	SpanID trace.SpanID
	DurNS  int64
}

// exemplarLess is the reservoir's total order: slowest first, span ID as
// the tiebreaker. A total order over a set where every span appears at most
// once makes top-K selection associative and commutative, so per-shard
// reservoirs merge byte-identically for any shard count — the same
// determinism contract as the sum/max aggregates.
func exemplarLess(a, b Exemplar) bool {
	if a.DurNS != b.DurNS {
		return a.DurNS > b.DurNS
	}
	return a.SpanID < b.SpanID
}

// Reservoir is a deterministic top-K of the slowest spans in one group and
// bucket. Top is kept sorted (slowest first) and never exceeds ExemplarK.
type Reservoir struct {
	Top []Exemplar
}

func (r *Reservoir) observe(id trace.SpanID, durNS int64) {
	r.insert(Exemplar{SpanID: id, DurNS: durNS})
}

func (r *Reservoir) insert(e Exemplar) {
	i := len(r.Top)
	for i > 0 && exemplarLess(e, r.Top[i-1]) {
		i--
	}
	if i >= ExemplarK {
		return
	}
	r.Top = append(r.Top, Exemplar{})
	copy(r.Top[i+1:], r.Top[i:])
	r.Top[i] = e
	if len(r.Top) > ExemplarK {
		r.Top = r.Top[:ExemplarK]
	}
}

// Merge folds o into r: union, re-sort, truncate to K.
func (r *Reservoir) Merge(o *Reservoir) {
	for _, e := range o.Top {
		r.insert(e)
	}
}

// Clone returns an independent copy.
func (r *Reservoir) Clone() *Reservoir {
	return &Reservoir{Top: append([]Exemplar(nil), r.Top...)}
}

// MergeTops folds two sorted exemplar slices into one top-K slice — the
// query-time join for rows merged across groups (e.g. status classes of one
// endpoint).
func MergeTops(a, b []Exemplar) []Exemplar {
	r := &Reservoir{Top: append([]Exemplar(nil), a...)}
	r.Merge(&Reservoir{Top: b})
	return r.Top
}

func (p *Partial) observeExemplar(fb int64, k Key, ek EdgeKey, sp *trace.Span) {
	em := p.exemplars[fb]
	if em == nil {
		em = make(map[Key]*Reservoir)
		p.exemplars[fb] = em
	}
	r := em[k]
	if r == nil {
		r = &Reservoir{}
		em[k] = r
	}
	r.observe(sp.ID, int64(sp.Duration()))

	gm := p.edgeEx[fb]
	if gm == nil {
		gm = make(map[EdgeKey]*Reservoir)
		p.edgeEx[fb] = gm
	}
	g := gm[ek]
	if g == nil {
		g = &Reservoir{}
		gm[ek] = g
	}
	g.observe(sp.ID, int64(sp.Duration()))
}

// CollectExemplars merges the partials' per-group exemplar reservoirs over
// [from, to), widened to the containing fine buckets. Exemplars live only in the fine tier (like the host-signal
// map): the evicted range has no exemplars, by design — the raw spans they
// point at age out with the fine buckets.
func CollectExemplars(parts []*Partial, from, to time.Time) map[Key]*Reservoir {
	lo, hi := bucketStart(from, FineBucket), to.UnixNano()
	out := make(map[Key]*Reservoir)
	for _, p := range parts {
		p.mu.Lock()
		for b, groups := range p.exemplars {
			if b < lo || b >= hi {
				continue
			}
			for k, r := range groups {
				dst := out[k]
				if dst == nil {
					dst = &Reservoir{}
					out[k] = dst
				}
				dst.Merge(r)
			}
		}
		p.mu.Unlock()
	}
	return out
}

// CollectEdgeExemplars merges the partials' per-edge exemplar reservoirs
// over [from, to), widened like CollectExemplars (fine tier only).
func CollectEdgeExemplars(parts []*Partial, from, to time.Time) map[EdgeKey]*Reservoir {
	lo, hi := bucketStart(from, FineBucket), to.UnixNano()
	out := make(map[EdgeKey]*Reservoir)
	for _, p := range parts {
		p.mu.Lock()
		for b, groups := range p.edgeEx {
			if b < lo || b >= hi {
				continue
			}
			for k, r := range groups {
				dst := out[k]
				if dst == nil {
					dst = &Reservoir{}
					out[k] = dst
				}
				dst.Merge(r)
			}
		}
		p.mu.Unlock()
	}
	return out
}
