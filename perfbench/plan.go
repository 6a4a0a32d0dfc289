package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"deepflow/internal/rollup"
	"deepflow/internal/server"
	"deepflow/internal/trace"
)

// searchSpec is one span search the analyst issues, with the answer the
// corpus guarantees: the IDs of the newest `limit` matching spans.
type searchSpec struct {
	filter   server.SpanFilter
	from, to time.Time
	want     uint64         // idsDigest of the expected answer
	hits     []trace.SpanID // expected answer, newest first
	// mapFrom is from aligned down to the rollup's fine bucket: the map
	// round of a live workload covers [mapFrom, to), and mapRows says
	// whether that range holds server-side spans (so summary rows).
	mapFrom time.Time
	mapRows bool
}

// alignDown truncates t to the start of its fine rollup bucket. Rollup
// queries fold whole buckets that start inside the window, so a window
// that starts mid-bucket leaves that bucket out.
func alignDown(t time.Time) time.Time {
	ns := t.UnixNano()
	return time.Unix(0, ns-ns%int64(rollup.FineBucket)).UTC()
}

// searchLimit is the page size of every search.
const searchLimit = 100

// filterKinds are the search filters besides the service: a status or a
// duration floor.
var filterKinds = []server.SpanFilter{
	{Status: "ok"},
	{Status: "error"},
	{MinDuration: time.Millisecond},
	{MinDuration: 5 * time.Millisecond},
}

// planner answers searches from the corpus summary alone, so every answer
// the server gives can be checked exactly.
type planner struct {
	c        *corpus
	services *serviceIndex
	starts   []int64 // recs[i].start, for window lookup
}

func newPlanner(c *corpus, services *serviceIndex) *planner {
	p := &planner{c: c, services: services, starts: make([]int64, len(c.recs))}
	for i, r := range c.recs {
		p.starts[i] = r.start
	}
	return p
}

// expect computes the answer of a search over [from, to) against the
// prefix of the corpus ingested through batch `through`.
func (p *planner) expect(f server.SpanFilter, svc int32, from, to time.Time, through int32) searchSpec {
	spec := searchSpec{filter: f, from: from, to: to, mapFrom: alignDown(from)}
	spec.filter.Service = p.services.names[svc]
	mapLo := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] >= spec.mapFrom.UnixNano() })
	lo := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] >= from.UnixNano() })
	hi := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] >= to.UnixNano() })
	for i := hi - 1; i >= mapLo; i-- {
		r := &p.c.recs[i]
		if r.batch > through {
			continue
		}
		if r.server {
			spec.mapRows = true
		}
		if i < lo || r.service != svc || (f.Status != "" && r.status != f.Status) || (f.MinDuration > 0 && r.dur < f.MinDuration) {
			continue
		}
		if len(spec.hits) < searchLimit {
			spec.hits = append(spec.hits, r.id)
		}
	}
	spec.want = idsDigest(spec.hits)
	return spec
}

// historyPlan lists the searches of the settled-history query phase: every
// (service, filter) pair with a non-empty answer over the newest window of
// the corpus, in a seeded order.
func (p *planner) historyPlan(window time.Duration, rng *rand.Rand) []searchSpec {
	to := p.c.to.Add(time.Nanosecond)
	from := to.Add(-window)
	var plan []searchSpec
	for svc := range p.services.names {
		for _, f := range filterKinds {
			spec := p.expect(f, int32(svc), from, to, int32(len(p.c.batches)))
			if len(spec.hits) > 0 {
				plan = append(plan, spec)
			}
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// livePlan picks, for each batch i, the search issued right after it: a
// seeded (service, filter) pair over the newest window, moving on to the
// next pair until one has an answer. A round whose window holds no match
// at all keeps an empty expected answer.
func (p *planner) livePlan(window time.Duration, rng *rand.Rand) []searchSpec {
	n := len(p.c.batches)
	newest := make([]int64, n)
	for _, r := range p.c.recs {
		if r.start > newest[r.batch] {
			newest[r.batch] = r.start
		}
	}
	var upTo int64
	pairs := len(p.services.names) * len(filterKinds)
	plan := make([]searchSpec, n)
	for i := 0; i < n; i++ {
		if newest[i] > upTo {
			upTo = newest[i]
		}
		to := time.Unix(0, upTo+1).UTC()
		from := to.Add(-window)
		first := rng.Intn(pairs)
		for k := 0; k < pairs; k++ {
			pair := (first + k) % pairs
			spec := p.expect(filterKinds[pair%len(filterKinds)], int32(pair/len(filterKinds)), from, to, int32(i))
			if k == 0 || len(spec.hits) > 0 {
				plan[i] = spec
			}
			if len(spec.hits) > 0 {
				break
			}
		}
	}
	return plan
}

// idsDigest fingerprints an ordered list of span IDs.
func idsDigest(ids []trace.SpanID) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(word[:], uint64(id))
		h.Write(word[:])
	}
	return h.Sum64()
}

// spansDigest fingerprints a search answer the same way idsDigest does.
func spansDigest(spans []*trace.Span) uint64 {
	ids := make([]trace.SpanID, len(spans))
	for i, sp := range spans {
		ids[i] = sp.ID
	}
	return idsDigest(ids)
}
