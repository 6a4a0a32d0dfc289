package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/critpath"
	"deepflow/internal/dstore"
	"deepflow/internal/rollup"
	"deepflow/internal/server"
	"deepflow/internal/simkernel"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// layerInputs is what the untraced phases of a traced run hand to the
// layer measurements.
type layerInputs struct {
	w       *workload
	seed    int64
	load    time.Duration
	c       *corpus
	batches [][]byte
	reg     *server.ResourceRegistry

	fast, slow, giveups int
	hookErrors          uint64

	durable      dstore.Stats
	wchar, syscw int64

	firstAfterWriteNS float64
	dir               string // scratch directory for the stage replay
}

// setStage reports a stage's ns, allocs and bytes per unit.
func setStage(r *report, name, unit string, s stage, n float64) {
	r.layer.set(name+"_ns_per_"+unit, per(float64(s.ns), n), "ns/"+unit)
	r.layer.set(name+"_allocs_per_"+unit, per(float64(s.allocs), n), "allocs/"+unit)
	r.layer.set(name+"_bytes_per_"+unit, per(float64(s.bytes), n), "B/"+unit)
}

// measureLayers times each layer from outside, at its public functions:
// the agents through bracket hooks during a second capture of the same
// seed, the simulation alone, the eBPF VM on recorded hook contexts, and
// the ingest stages on a replay of the recorded batches.
func measureLayers(r *report, bt *benchTracer, parent int, in layerInputs) error {
	c := in.c
	spans := float64(c.spans)

	// Traced capture: same seed, bracket hooks around every agent, right
	// after an untraced capture that is its reference (both warm).
	sp := bt.begin("layers.capture", parent)
	ref, err := deploy(in.w, in.seed, true, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	ref.run(in.load)
	untracedCapture := time.Since(t0)
	ref.stop()
	probe := &hookProbe{}
	d, err := deploy(in.w, in.seed, true, probe)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 = time.Now()
	d.run(in.load)
	tracedCapture := time.Since(t0)
	d.stop()
	again, err := summarize(d.sink.batches, d.reg, newServiceIndex())
	if err != nil {
		return err
	}
	r.op(again.digest == c.digest, fmt.Sprintf("traced capture digest %016x, untraced %016x", again.digest, c.digest))
	r.layer.set("agent.hook_ns_per_event", per(float64(probe.hookNS), float64(probe.hookEvents)), "ns/event")
	r.layer.set("agent.hook_events_per_span", per(float64(probe.hookEvents), spans), "events/span")
	r.layer.set("agent.tap_ns_per_packet", per(float64(probe.tapNS), float64(probe.packets)), "ns/packet")
	r.layer.set("agent.packets_per_span", per(float64(probe.packets), spans), "packets/span")
	setStage(r, "agent.flush", "span", probe.flush, spans)
	r.layer.set("agent.fastpath_hit_share", per(float64(in.fast), float64(in.fast+in.slow)), "share")
	r.layer.set("agent.inference_giveups", float64(in.giveups), "count")
	r.layer.set("agent.hook_errors", float64(in.hookErrors), "count")
	bt.end(sp)

	// The control: the same seeded simulation with no agents.
	sp = bt.begin("layers.substrate", parent)
	bare, err := deploy(in.w, in.seed, false, nil)
	if err != nil {
		return err
	}
	t0 = time.Now()
	bare.run(in.load)
	r.layer.set("microsim.substrate_ns_per_span", per(float64(time.Since(t0).Nanoseconds()), spans), "ns/span")
	bt.end(sp)

	sp = bt.begin("layers.ebpfvm", parent)
	vm, err := replayHooks(probe.sampled)
	if err != nil {
		return err
	}
	setStage(r, "ebpfvm.run", "event", vm, float64(len(probe.sampled)))
	bt.end(sp)

	// Ingest: a bulk untraced ingest of the recorded stream into a fresh
	// durable server is the reference the stage replay reconciles with.
	sp = bt.begin("layers.ingest", parent)
	untracedIngest, err := bulkIngest(in.batches, in.reg, in.dir)
	if err != nil {
		return err
	}
	runtime.GC()
	st, err := replayStages(in.batches, in.reg, in.dir)
	if err != nil {
		return err
	}
	setStage(r, "transport.encode", "span", st.encode, spans)
	setStage(r, "transport.decode", "span", st.decode, spans)
	r.layer.set("transport.wire_bytes_per_span", per(float64(c.bytes), spans), "B/span")
	r.layer.set("transport.spans_per_batch", per(spans, float64(len(in.batches))), "spans/batch")
	setStage(r, "dstore.append", "span", st.append, spans)
	setStage(r, "dstore.compact", "span", st.compact, spans)
	r.layer.set("dstore.compactions", float64(in.durable.Compactions), "count")
	r.layer.set("dstore.blocks", float64(in.durable.Blocks), "count")
	r.layer.set("dstore.write_bytes_per_wire_byte", per(float64(in.wchar), float64(c.bytes)), "B/B")
	r.layer.set("dstore.write_calls_per_batch", per(float64(in.syscw), float64(len(in.batches))), "calls/batch")
	setStage(r, "server.enrich", "span", st.enrich, spans)
	setStage(r, "server.insert", "span", st.insert, spans)
	setStage(r, "rollup.observe", "span", st.observe, spans)
	r.layer.set("rollup.groups", float64(st.groups), "count")
	sum := st.decode.ns + st.append.ns + st.compact.ns + st.enrich.ns + st.insert.ns + st.observe.ns
	untraced := untracedIngest.Nanoseconds()
	r.layer.set("server.ingest_stage_sum_ns_per_span", per(float64(sum), spans), "ns/span")
	r.layer.set("server.ingest_untraced_ns_per_span", per(float64(untraced), spans), "ns/span")
	r.layer.set("server.ingest_unattributed_share", 1-per(float64(sum), float64(untraced)), "share")
	r.layer.set("server.search_first_after_write_ns", in.firstAfterWriteNS, "ns")
	bt.end(sp)

	capOver := per(float64(tracedCapture), float64(untracedCapture)) - 1
	ingOver := per(float64(st.wall), float64(untracedIngest)) - 1
	total := per(float64(tracedCapture+st.wall), float64(untracedCapture+untracedIngest)) - 1
	r.layer.set("bench.capture_tracing_overhead_share", capOver, "share")
	r.layer.set("bench.ingest_tracing_overhead_share", ingOver, "share")
	r.layer.set("bench.tracing_overhead_share", total, "share")
	return nil
}

// bulkIngest times one untraced ingest of the stream into a fresh durable
// server on dir: every batch, then Drain.
func bulkIngest(batches [][]byte, reg *server.ResourceRegistry, dir string) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, _, err := openServer(reg, dir)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	runtime.GC()
	t0 := time.Now()
	for _, data := range batches {
		if err := srv.IngestBatch(data); err != nil {
			return 0, err
		}
	}
	srv.Drain()
	return time.Since(t0), nil
}

// stageCosts is the ingest stage replay's result.
type stageCosts struct {
	decode, encode, append, compact, enrich, insert, observe stage
	wall                                                     time.Duration // replay wall time, encode excluded
	groups                                                   int
}

// replayStages feeds the recorded batches through the server's ingest
// stages one public function at a time: transport.Decode, dstore
// Append/Compact, ResourceRegistry.Enrich, SpanStore.Insert and
// rollup.Partial.ObserveSpan/ObserveFlow. Encode is timed on the side (it
// is the agents' cost, not the server's).
func replayStages(batches [][]byte, reg *server.ResourceRegistry, dir string) (*stageCosts, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sh, _, err := dstore.Open(dir, dstore.DefaultConfig(), func(*transport.Batch) {})
	if err != nil {
		return nil, err
	}
	store := server.NewSpanStore(server.EncodingSmart, reg)
	part := rollup.NewPartial(func(ip trace.IP) trace.ResourceTags {
		return reg.Enrich(trace.ResourceTags{IP: ip})
	})
	st := &stageCosts{}
	t0 := time.Now()
	for i, data := range batches {
		var b *transport.Batch
		var err error
		st.decode.time(func() { b, err = transport.Decode(data) })
		if err != nil {
			sh.Abort()
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		st.encode.time(func() { transport.Encode(b) })
		st.append.time(func() { err = sh.Append(data, b) })
		if err == nil {
			st.compact.time(func() { _, err = sh.Compact() })
		}
		if err != nil {
			sh.Abort()
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		st.enrich.time(func() {
			for _, sp := range b.Spans {
				sp.Resource = reg.Enrich(sp.Resource)
			}
		})
		st.insert.time(func() {
			for _, sp := range b.Spans {
				store.Insert(sp)
			}
		})
		st.observe.time(func() {
			for _, sp := range b.Spans {
				part.ObserveSpan(sp)
			}
			for _, f := range b.Flows {
				part.ObserveFlow(f)
			}
		})
	}
	st.wall = time.Since(t0) - time.Duration(st.encode.ns)
	st.groups = part.Snapshot().Groups
	return st, sh.Close()
}

// replayHooks runs recorded hook contexts through a freshly verified copy
// of the agent's programs — enter contexts through the enter program, exit
// contexts through the exit and flow-statistics programs — draining the
// perf ring between chunks, outside the timed region.
func replayHooks(ctxs []simkernel.HookContext) (stage, error) {
	var st stage
	progs, err := agent.BuildPrograms(agent.DefaultConfig().PerfCapacity)
	if err != nil {
		return st, err
	}
	var clock int64
	progs.VM.Clock = func() int64 { return clock }
	scratch := make([]byte, simkernel.CtxSize)
	const chunk = 256
	for off := 0; off < len(ctxs); off += chunk {
		end := min(off+chunk, len(ctxs))
		st.time(func() {
			for i := off; i < end; i++ {
				ctx := &ctxs[i]
				clock = max(ctx.EnterNS, ctx.ExitNS)
				if ctx.Phase == simkernel.PhaseEnter {
					err = progs.RunHook(progs.Enter, ctx, scratch)
				} else if err = progs.RunHook(progs.Exit, ctx, scratch); err == nil {
					err = progs.RunHook(progs.FlowStats, ctx, scratch)
				}
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return st, err
		}
		progs.Perf.Drain()
	}
	return st, nil
}

// tracedQueries splits the query kinds into their layers on the settled
// store: rows a search examines per result, trace assembly (Algorithm 1)
// and the critical-path analysis, each timed on its own.
func tracedQueries(r *report, srv *server.Server, plan []searchSpec, rng *rand.Rand, rounds int) {
	var examined, results, spans, exact int
	var assemble, analyze int64
	traces := 0
	for n := 0; n < rounds; n++ {
		spec := &plan[rng.Intn(len(plan))]
		examined += len(srv.SpanList(spec.from, spec.to, 0))
		results += len(srv.QuerySpans(spec.from, spec.to, spec.filter, searchLimit))
		start := spec.hits[rng.Intn(len(spec.hits))]
		t0 := time.Now()
		tr := srv.Trace(start)
		assemble += time.Since(t0).Nanoseconds()
		if tr == nil {
			r.op(false, fmt.Sprintf("trace of span %d", start))
			continue
		}
		t0 = time.Now()
		bd := critpath.Analyze(tr, critpath.Options{})
		analyze += time.Since(t0).Nanoseconds()
		traces++
		spans += len(tr.Spans)
		if bd != nil && bd.Exact() {
			exact++
		}
	}
	r.layer.set("server.search_rows_examined_per_result", per(float64(examined), float64(results)), "rows/result")
	r.layer.set("server.assemble_ns_per_trace", per(float64(assemble), float64(traces)), "ns/trace")
	r.layer.set("server.assemble_spans_per_trace", per(float64(spans), float64(traces)), "spans/trace")
	r.layer.set("critpath.analyze_ns_per_trace", per(float64(analyze), float64(traces)), "ns/trace")
	r.layer.set("critpath.exact_share", per(float64(exact), float64(traces)), "share")
}
