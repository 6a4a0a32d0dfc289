// Service-map side of the rollup plane: a concurrent node/edge graph where
// each client→server edge carries request/error/duration aggregates from
// spans plus kernel flow statistics (retransmits, RSTs, bytes) from the
// eBPF flow-stats scrape — the paper's "universal map of services" built
// entirely from network data.
package rollup

import (
	"sort"
	"time"

	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// EndpointID is the smart-encoded identity of one side of an edge: the
// most specific of service → node → raw IP, with a process-name fallback
// for server processes outside the resource registry. Exactly one field is
// set, so identities from spans and from flow tuples land on the same key.
type EndpointID struct {
	Service int32
	Node    int32
	IP      trace.IP
	Proc    string
}

// less is a total order over endpoint identities (for canonical pairs).
func (e EndpointID) less(o EndpointID) bool {
	if e.Service != o.Service {
		return e.Service < o.Service
	}
	if e.Node != o.Node {
		return e.Node < o.Node
	}
	if e.IP != o.IP {
		return e.IP < o.IP
	}
	return e.Proc < o.Proc
}

// identOf collapses resolved tags to an endpoint identity: pods of one
// service share an identity, so the map stays service-level.
func identOf(tags trace.ResourceTags, ip trace.IP) EndpointID {
	switch {
	case tags.ServiceID != 0:
		return EndpointID{Service: tags.ServiceID}
	case tags.NodeID != 0:
		return EndpointID{Node: tags.NodeID}
	default:
		return EndpointID{IP: ip}
	}
}

// clientIdent identifies the requesting side of a server-process span from
// its resolved source address.
func clientIdent(tags trace.ResourceTags, ip trace.IP) EndpointID { return identOf(tags, ip) }

// serverIdent identifies the serving side from the span's own (enriched)
// resource tags, falling back to the process name for unregistered hosts.
func serverIdent(tags trace.ResourceTags, proc string) EndpointID {
	id := identOf(tags, tags.IP)
	if id == (EndpointID{}) {
		id = EndpointID{Proc: proc}
	}
	return id
}

// EdgeKey is one directed client→server edge of the service map.
type EdgeKey struct {
	Client EndpointID
	Server EndpointID
	L7     trace.L7Proto
}

func (k EdgeKey) less(o EdgeKey) bool {
	if k.Client != o.Client {
		return k.Client.less(o.Client)
	}
	if k.Server != o.Server {
		return k.Server.less(o.Server)
	}
	return k.L7 < o.L7
}

// EdgeAgg is one edge's span-derived aggregate (sums and maxes only, so
// per-shard partials merge deterministically).
type EdgeAgg struct {
	Requests uint64
	Errors   uint64
	DurSumNS int64
	DurMaxNS int64

	Retransmissions uint64
	Resets          uint64
	ZeroWindows     uint64
	BytesSent       uint64
	BytesReceived   uint64
}

// Merge folds o into a.
func (a *EdgeAgg) Merge(o *EdgeAgg) {
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
}

func (a *EdgeAgg) observe(sp *trace.Span) {
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
}

// PairKey is the direction-independent endpoint pair a kernel flow sample
// aggregates under (flow tuples arrive canonicalized, so direction is not
// known; A is the lesser identity).
type PairKey struct {
	A, B EndpointID
}

func pairOf(x, y EndpointID) PairKey {
	if y.less(x) {
		x, y = y, x
	}
	return PairKey{A: x, B: y}
}

// FlowAgg is the kernel-side statistics observed for one endpoint pair,
// summed across capture points (both endpoints' agents may report the same
// flow; the counters are "as observed", like any passive tap).
type FlowAgg struct {
	Retransmissions uint64
	Resets          uint64
	ZeroWindows     uint64
	BytesSent       uint64
	BytesReceived   uint64
	KernelPackets   uint64
	KernelBytes     uint64
}

// Merge folds o into a.
func (a *FlowAgg) Merge(o *FlowAgg) {
	a.Retransmissions += o.Retransmissions
	a.Resets += o.Resets
	a.ZeroWindows += o.ZeroWindows
	a.BytesSent += o.BytesSent
	a.BytesReceived += o.BytesReceived
	a.KernelPackets += o.KernelPackets
	a.KernelBytes += o.KernelBytes
}

func (a *FlowAgg) observe(f transport.FlowSample) {
	a.Retransmissions += uint64(f.Delta.Retransmissions)
	a.Resets += uint64(f.Delta.Resets)
	a.ZeroWindows += uint64(f.Delta.ZeroWindows)
	a.BytesSent += f.Delta.BytesSent
	a.BytesReceived += f.Delta.BytesReceived
	a.KernelPackets += f.KernelPackets
	a.KernelBytes += f.KernelBytes
}

// HostAgg is one capture host's packet-plane signal aggregate within one
// fine (1 s) bucket: the kernel-side counters the alerting plane baselines
// even when no span ships from that host (an ARP storm or a
// connection-refused reset burst produces flow samples, not spans). All
// fields are sums, so per-shard partials merge deterministically.
type HostAgg struct {
	ARPRequests     uint64
	Resets          uint64
	Retransmissions uint64
	ZeroWindows     uint64
}

// Merge folds o into a.
func (a *HostAgg) Merge(o *HostAgg) {
	a.ARPRequests += o.ARPRequests
	a.Resets += o.Resets
	a.Retransmissions += o.Retransmissions
	a.ZeroWindows += o.ZeroWindows
}

func (a *HostAgg) observe(f transport.FlowSample) {
	a.ARPRequests += uint64(f.Delta.ARPRequests)
	a.Resets += uint64(f.Delta.Resets)
	a.Retransmissions += uint64(f.Delta.Retransmissions)
	a.ZeroWindows += uint64(f.Delta.ZeroWindows)
}

// CollectHostNet merges the partials' per-host packet-plane signals over
// [from, to), widened to the containing fine buckets. The host-net map lives at fine (1 s) resolution only and is
// evicted with the fine watermark; queries over an evicted range see
// nothing (the signal exists for recent-window anomaly detection, not
// retained history).
func CollectHostNet(parts []*Partial, from, to time.Time) map[string]*HostAgg {
	lo, hi := bucketStart(from, FineBucket), to.UnixNano()
	out := make(map[string]*HostAgg)
	for _, p := range parts {
		p.mu.Lock()
		for b, hm := range p.hostNet {
			if b < lo || b >= hi {
				continue
			}
			for host, a := range hm {
				dst := out[host]
				if dst == nil {
					dst = &HostAgg{}
					out[host] = dst
				}
				dst.Merge(a)
			}
		}
		p.mu.Unlock()
	}
	return out
}

// CollectEdges merges the partials' edge and flow-pair aggregates over
// [from, to). The map tiers are kept at coarse (1 m) resolution only — the
// service map is a dashboard artifact and never needs 1 s buckets — so the
// window widens to coarse alignment and eviction never touches it.
func CollectEdges(parts []*Partial, from, to time.Time) (map[EdgeKey]*EdgeAgg, map[PairKey]*FlowAgg) {
	lo := bucketStart(from, CoarseBucket)
	hi := to.UnixNano()
	edges := make(map[EdgeKey]*EdgeAgg)
	flows := make(map[PairKey]*FlowAgg)
	for _, p := range parts {
		p.mu.Lock()
		for b, em := range p.edges {
			if b < lo || b >= hi {
				continue
			}
			for k, a := range em {
				dst := edges[k]
				if dst == nil {
					dst = &EdgeAgg{}
					edges[k] = dst
				}
				dst.Merge(a)
			}
		}
		for b, fm := range p.flows {
			if b < lo || b >= hi {
				continue
			}
			for k, a := range fm {
				dst := flows[k]
				if dst == nil {
					dst = &FlowAgg{}
					flows[k] = dst
				}
				dst.Merge(a)
			}
		}
		p.mu.Unlock()
	}
	return edges, flows
}

// SortedEdgeKeys returns merged edge keys in a deterministic total order.
func SortedEdgeKeys(edges map[EdgeKey]*EdgeAgg) []EdgeKey {
	keys := make([]EdgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// PairFor returns the canonical flow pair for a directed edge, used to
// attach kernel flow statistics to the edge at query time.
func PairFor(k EdgeKey) PairKey { return pairOf(k.Client, k.Server) }
