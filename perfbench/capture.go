package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/profiling"
	"deepflow/internal/server"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// recorder is the agents' BatchSink during capture: it keeps every wire
// batch in shipping order so ingest can replay the identical stream.
type recorder struct {
	batches [][]byte
	bytes   int
}

func (r *recorder) IngestBatch(data []byte) error {
	r.batches = append(r.batches, data)
	r.bytes += len(data)
	return nil
}

// The agent takes an agent.Sink; the recorder only ever sees the wire path
// because it implements BatchSink. The per-item methods exist to satisfy
// the interface and are never called.
func (r *recorder) IngestSpan(*trace.Span)         {}
func (r *recorder) IngestFlow(agent.FlowSample)    {}
func (r *recorder) IngestProfile(profiling.Sample) {}

// deployment is a built topology with (optionally) an agent on every host,
// created and flushed in sorted host order so the batch stream is the same
// on every run of a seed.
type deployment struct {
	w      *workload
	env    *microsim.Env
	topo   *microsim.Topology
	reg    *server.ResourceRegistry
	agents []*agent.Agent
	sink   *recorder
	probe  *hookProbe // non-nil in the traced run
}

// sortedHosts returns every host of the network ordered by name.
func sortedHosts(n *simnet.Network) []*simnet.Host {
	hosts := n.Hosts()
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Name < hosts[j].Name })
	return hosts
}

// newRegistry builds the server's resource registry the way a deployment
// does: cluster metadata plus every host outside the cluster.
func newRegistry(topo *microsim.Topology, hosts []*simnet.Host) *server.ResourceRegistry {
	clusters := []*k8s.Cluster{topo.Cluster}
	reg := server.NewResourceRegistry(clusters, nil)
	known := map[string]bool{}
	for _, n := range topo.Cluster.Nodes() {
		known[n.Name] = true
	}
	for _, p := range topo.Cluster.Pods() {
		known[p.Name] = true
	}
	for _, h := range hosts {
		if !known[h.Name] {
			reg.RegisterHost(h.Name, h.IP, nil)
		}
	}
	return reg
}

// topologySeed draws the generated topologies. It is fixed so that every
// run seed measures the same mesh; the run seed drives the simulation
// (service times, arrivals) and the query mix.
const topologySeed = 1

// deploy builds the workload's topology for seed and, when withAgents is
// set, starts an agent on every host in sorted order. probe (traced run
// only) brackets each agent's hooks and NIC tap.
func deploy(w *workload, seed int64, withAgents bool, probe *hookProbe) (*deployment, error) {
	env := microsim.NewEnv(seed)
	topo := w.build(env, rand.New(rand.NewSource(topologySeed)))
	if w.inject != nil {
		w.inject(topo)
	}
	hosts := sortedHosts(env.Net)
	d := &deployment{
		w: w, env: env, topo: topo,
		reg:   newRegistry(topo, hosts),
		sink:  &recorder{},
		probe: probe,
	}
	if !withAgents {
		return d, nil
	}
	cfg := agent.DefaultConfig()
	cfg.SessionWindow = w.session
	for _, h := range hosts {
		ag, err := agent.New(h, cfg, d.sink)
		if err != nil {
			return nil, fmt.Errorf("agent on %s: %w", h.Name, err)
		}
		if probe != nil {
			if err := probe.attachBefore(h); err != nil {
				return nil, err
			}
		}
		if err := ag.Start(); err != nil {
			return nil, fmt.Errorf("start agent on %s: %w", h.Name, err)
		}
		if probe != nil {
			if err := probe.attachAfter(h); err != nil {
				return nil, err
			}
		}
		d.agents = append(d.agents, ag)
	}
	return d, nil
}

// run drives the load through the deployment: a constant-rate generator
// for `load` of virtual time, the agents' periodic flush in sorted host
// order, a second of drain, and a final FlushAll.
func (d *deployment) run(load time.Duration) {
	var tick func()
	end := d.env.Eng.Now().Add(load + time.Second)
	tick = func() {
		now := d.env.Eng.Now()
		for _, ag := range d.agents {
			d.timeFlush(func() { ag.Flush(now) })
		}
		if now.Add(d.w.flush).Before(end) {
			d.env.Eng.After(d.w.flush, tick)
		}
	}
	if len(d.agents) > 0 {
		d.env.Eng.After(d.w.flush, tick)
	}
	gen := microsim.NewLoadGen(d.env, "wrk", d.topo.ClientHost, d.topo.Entry, d.w.conns, d.w.rate)
	gen.Path = d.w.path
	gen.Start(load)
	d.env.Run(load + time.Second)
	for _, ag := range d.agents {
		d.timeFlush(ag.FlushAll)
	}
}

// timeFlush runs one agent flush, timing it in the traced run.
func (d *deployment) timeFlush(f func()) {
	if d.probe == nil {
		f()
		return
	}
	d.probe.flush.time(f)
}

// stop detaches every agent.
func (d *deployment) stop() {
	for _, ag := range d.agents {
		ag.Stop()
	}
}

// pathStats sums the agents' fast/slow-path split and hook errors.
func (d *deployment) pathStats() (fast, slow, giveups int, hookErrors uint64) {
	for _, ag := range d.agents {
		f, s, g := ag.PathStats()
		fast += f
		slow += s
		giveups += g
		hookErrors += ag.HookErrors
	}
	return fast, slow, giveups, hookErrors
}

// corpus is the captured batch stream plus what the checks need to know
// about it.
type corpus struct {
	batches [][]byte
	bytes   int
	spans   int
	flows   int
	// digest fingerprints the stream: per batch its host, sequence number
	// and every span in order, plus the flow samples as an unordered set
	// (agents emit flows in map order, so their order is not stable).
	digest uint64
	// ids holds each batch's span IDs, for the every-span-queryable check.
	ids [][]trace.SpanID
	// recs summarizes every span for query planning.
	recs []spanRec
	// from and to bound the corpus in virtual time.
	from, to time.Time
}

// spanRec is the query-relevant summary of one captured span.
type spanRec struct {
	id      trace.SpanID
	start   int64 // UnixNano
	dur     time.Duration
	service int32 // index into corpus services, -1 when unresolved
	status  string
	batch   int32
	server  bool // server-side process span (feeds the rollups)
}

// summarize decodes the recorded stream once and builds the digest, the
// per-batch span IDs and the span summaries. reg resolves service names
// the way the server will.
func summarize(batches [][]byte, reg *server.ResourceRegistry, services *serviceIndex) (*corpus, error) {
	c := &corpus{batches: batches}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	var buf []byte
	for i, data := range batches {
		c.bytes += len(data)
		b, err := transport.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		h.Write([]byte(b.Host))
		put(b.Seq)
		put(uint64(len(b.Spans)))
		ids := make([]trace.SpanID, 0, len(b.Spans))
		for _, sp := range b.Spans {
			buf = trace.AppendSpan(buf[:0], sp)
			h.Write(buf)
			ids = append(ids, sp.ID)
			svc := reg.Decode(reg.Enrich(sp.Resource)).Service
			c.recs = append(c.recs, spanRec{
				id: sp.ID, start: sp.StartTime.UnixNano(), dur: sp.Duration(),
				service: services.id(svc), status: sp.ResponseStatus, batch: int32(i),
				server: sp.TapSide == trace.TapServerProcess,
			})
			if c.from.IsZero() || sp.StartTime.Before(c.from) {
				c.from = sp.StartTime
			}
			if sp.StartTime.After(c.to) {
				c.to = sp.StartTime
			}
		}
		var flowSum uint64
		for j := range b.Flows {
			buf = transport.AppendFlowSample(buf[:0], &b.Flows[j])
			fh := fnv.New64a()
			fh.Write(buf)
			flowSum += fh.Sum64()
		}
		put(uint64(len(b.Flows)))
		put(flowSum)
		c.ids = append(c.ids, ids)
		c.spans += len(b.Spans)
		c.flows += len(b.Flows)
	}
	c.digest = h.Sum64()
	sort.Slice(c.recs, func(i, j int) bool {
		if c.recs[i].start != c.recs[j].start {
			return c.recs[i].start < c.recs[j].start
		}
		return c.recs[i].id < c.recs[j].id
	})
	return c, nil
}

// serviceIndex interns decoded service names.
type serviceIndex struct {
	names []string
	ids   map[string]int32
}

func newServiceIndex() *serviceIndex { return &serviceIndex{ids: map[string]int32{}} }

func (s *serviceIndex) id(name string) int32 {
	if name == "" {
		return -1
	}
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int32(len(s.names))
	s.names = append(s.names, name)
	s.ids[name] = id
	return id
}

// hookProbe is the traced run's outside view of the agents: bracket hooks
// attached before and after agent.Start, which the kernel fires in
// attachment order, time the agent's own hooks; bracket taps do the same
// for the NIC tap. It also keeps a sample of hook contexts for the eBPF VM
// replay.
type hookProbe struct {
	hookNS, tapNS       int64 // time inside the brackets
	hookEvents, packets int
	flush               stage
	sampled             []simkernel.HookContext

	hookStart, tapStart time.Time
}

// Hook contexts are sampled in runs of sampleRun consecutive events, one
// run in every sampleStride, so enter/exit pairs stay together for the VM
// replay; at most sampleCap are kept.
const (
	sampleRun    = 1024
	sampleStride = 4
	sampleCap    = 20000
)

// probeABIs lists the syscall hooks the agent attaches.
func probeABIs() []simkernel.ABI {
	return append(append([]simkernel.ABI{}, simkernel.IngressABIs...), simkernel.EgressABIs...)
}

var probePhases = []simkernel.Phase{simkernel.PhaseEnter, simkernel.PhaseExit}

// attachBefore installs the opening brackets on h, ahead of the agent.
func (p *hookProbe) attachBefore(h *simnet.Host) error {
	for _, abi := range probeABIs() {
		for _, ph := range probePhases {
			if _, err := h.Kernel.AttachSyscall(abi, ph, simkernel.AttachKprobe, "bench_open", p.open); err != nil {
				return err
			}
		}
	}
	h.NIC.AddTap(func(simnet.PacketRecord) {
		p.packets++
		p.tapStart = time.Now()
	})
	return nil
}

// attachAfter installs the closing brackets on h, behind the agent. The
// kernel charges simulated latency per attached hook, so the per-hook cost
// is divided by three to keep virtual time — and with it the corpus —
// identical to the untraced run.
func (p *hookProbe) attachAfter(h *simnet.Host) error {
	for _, abi := range probeABIs() {
		for _, ph := range probePhases {
			if _, err := h.Kernel.AttachSyscall(abi, ph, simkernel.AttachKprobe, "bench_close", p.close); err != nil {
				return err
			}
		}
	}
	h.Kernel.HookCost /= 3
	h.NIC.AddTap(func(simnet.PacketRecord) {
		p.tapNS += time.Since(p.tapStart).Nanoseconds()
	})
	return nil
}

func (p *hookProbe) open(ctx *simkernel.HookContext) {
	if (p.hookEvents/sampleRun)%sampleStride == 0 && len(p.sampled) < sampleCap {
		p.sampled = append(p.sampled, *ctx)
	}
	p.hookEvents++
	p.hookStart = time.Now()
}

func (p *hookProbe) close(*simkernel.HookContext) {
	p.hookNS += time.Since(p.hookStart).Nanoseconds()
}
