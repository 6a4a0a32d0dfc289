package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deepflow/internal/critpath"
	"deepflow/internal/dstore"
	"deepflow/internal/server"
	"deepflow/internal/trace"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // closed-loop query phase length
	traced   bool
	// scale multiplies every workload's virtual load duration (1 = full).
	scale float64
	// minRounds is the fewest query rounds the closed loop runs.
	minRounds int
	// out is the scratch directory for data directories and result files.
	out string
}

// In an untraced run, capture (with its set-up), bulk ingest, and restart
// each repeat until about phaseSeconds of that phase have been measured, at
// most maxReps times, and report the median; set-up is topped up to
// minSetups samples. A live workload ingests livePasses times, each pass
// with its query round per batch, and pools the query samples of all
// passes: the store grows through a pass, so a search percentile near the
// top is decided by the last few rounds of each pass, and one pass would
// measure the host over well under a second. The traced run does each
// phase once and caps its query rounds at tracedRounds.
const (
	phaseSeconds = 1.0
	maxReps      = 9
	minSetups    = 9
	livePasses   = 2
	tracedRounds = 300
)

// repsFor returns how many times to run a phase whose first run took d.
func (o options) repsFor(d time.Duration) int {
	if o.traced {
		return 1
	}
	return max(1, min(int(math.Ceil(phaseSeconds/d.Seconds())), maxReps))
}

// samplePlanSize is how many planned searches (with their traces and the
// map) are hashed before and after the restart.
const samplePlanSize = 16

// run executes one benchmark run: set-up, capture, ingest, restart, query
// and the correctness checks, plus the layer measurements when traced.
func run(o options) (*report, error) {
	w := workloads[o.workload]
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := newReport(o)
	steal := markSteal()
	bt := &benchTracer{on: o.traced}
	root := bt.begin("run", 0)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	load := time.Duration(float64(w.load) * o.scale)

	// Set-up (topology, registry, agents, a server on an empty data
	// directory, warm-up) and capture (the seeded deployment ships into the
	// recorder), repeated; the last repetition's stream and server are kept.
	var (
		setups, captures []float64 // CPU seconds
		setupWalls       []float64
		captureWalls     []float64
		d                *deployment
		srv              *server.Server
		dataDir          string
		captureWall      time.Duration
		shipped          [2]int // batches and bytes of the first capture
	)
	defer func() { os.RemoveAll(dataDir) }()
	for rep, n := 0, 1; rep < n; rep++ {
		if srv != nil {
			srv.Close()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		dataDir = filepath.Join(o.out, fmt.Sprintf("data-%d", os.Getpid()))
		sp := bt.begin("setup", root)
		runtime.GC()
		t0 := now()
		var err error
		if d, srv, err = setUp(w, o.seed, dataDir); err != nil {
			return nil, err
		}
		wall, cpu := t0.since()
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
		bt.end(sp)

		sp = bt.begin("capture", root)
		runtime.GC()
		capCPU := markCPU()
		t0 = now()
		d.run(load)
		captureWall, cpu = t0.since()
		captures, captureWalls = append(captures, cpu.Seconds()), append(captureWalls, captureWall.Seconds())
		r.layer.set("runtime.gc_cpu_share.capture", capCPU.gcShare(), "share")
		d.stop()
		if rep == 0 {
			n = o.repsFor(captureWall)
			shipped = [2]int{len(d.sink.batches), d.sink.bytes}
		} else {
			// Same seed, same stream: only flow order may differ, and it
			// leaves the byte count unchanged.
			r.op(shipped == [2]int{len(d.sink.batches), d.sink.bytes},
				fmt.Sprintf("capture %d shipped %d batches / %d bytes, capture 0 %d / %d",
					rep, len(d.sink.batches), d.sink.bytes, shipped[0], shipped[1]))
		}
		bt.end(sp)
	}
	// Set-up is cheap next to capture: top its samples up with set-ups
	// that are torn down unused.
	for len(setups) < minSetups && !o.traced {
		spare := filepath.Join(o.out, fmt.Sprintf("spare-%d", os.Getpid()))
		runtime.GC()
		t0 := now()
		_, s, err := setUp(w, o.seed, spare)
		if err != nil {
			return nil, err
		}
		wall, cpu := t0.since()
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
		s.Close()
		if err := os.RemoveAll(spare); err != nil {
			return nil, err
		}
	}
	r.e2e.set("setup_s", median(setups), "s")
	r.layer.set("wall.setup_s", median(setupWalls), "s")

	sp := bt.begin("summarize", root)
	services := newServiceIndex()
	c, err := summarize(d.sink.batches, d.reg, services)
	if err != nil {
		return nil, err
	}
	if c.spans == 0 {
		return nil, fmt.Errorf("capture shipped no spans")
	}
	r.e2e.set("capture_spans_per_cpu_s", float64(c.spans)/median(captures), "spans/cpu_s")
	r.layer.set("wall.capture_spans_per_s", float64(c.spans)/median(captureWalls), "spans/s")
	reg := d.reg
	fast, slow, giveups, hookErrors := d.pathStats()
	d = nil // the simulated environment is not part of the measured heap
	rng := rand.New(rand.NewSource(o.seed))
	history := newPlanner(c, services).historyPlan(w.window, rng)
	if len(history) == 0 {
		return nil, fmt.Errorf("no search has an answer in the newest window")
	}
	var live []searchSpec
	if w.live {
		live = newPlanner(c, services).livePlan(w.window, rng)
	}
	bt.end(sp)

	// Ingest: replay the recorded stream into the durable server from one
	// goroutine, repeated on a fresh server and directory; the last server
	// is kept. The live workload drains after every batch and then runs one
	// query round on the newest window; that time is not ingest time.
	batchOK := make([]bool, len(c.batches))
	for i := range batchOK {
		batchOK[i] = true
	}
	q := &queryLog{r: r}
	var (
		ingests, ingestWalls []float64 // spans per CPU second, per second
		ingestWall           time.Duration
		wchar, syscw         int64
	)
	for rep, n := 0, 1; rep < n; rep++ {
		sp := bt.begin("ingest", root)
		if rep > 0 {
			srv.Close()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
			if srv, _, err = openServer(reg, dataDir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		wchar0, syscw0 := ioCounters()
		ingCPU := markCPU()
		var ingestCPU time.Duration
		ingestWall = 0
		tIngest := now()
		for i, data := range c.batches {
			t := now()
			if err := srv.IngestBatch(data); err != nil {
				batchOK[i] = false
			}
			if w.live {
				srv.Drain()
				wall, cpu := t.since()
				ingestWall += wall
				ingestCPU += cpu
				spec := &live[i]
				q.round(srv, spec, rng, spec.mapFrom, spec.to, spec.mapRows)
			}
		}
		if !w.live {
			srv.Drain()
			ingestWall, ingestCPU = tIngest.since()
		}
		ingests = append(ingests, float64(c.spans)/ingestCPU.Seconds())
		ingestWalls = append(ingestWalls, float64(c.spans)/ingestWall.Seconds())
		r.layer.set("runtime.gc_cpu_share.ingest", ingCPU.gcShare(), "share")
		wchar1, syscw1 := ioCounters()
		wchar, syscw = wchar1-wchar0, syscw1-syscw0
		if rep == 0 {
			n = o.repsFor(ingestWall)
			if w.live && !o.traced {
				n = livePasses
			}
		}
		bt.end(sp)
	}
	r.e2e.set("ingest_spans_per_cpu_s", median(ingests), "spans/cpu_s")
	r.layer.set("wall.ingest_spans_per_s", median(ingestWalls), "spans/s")
	r.digest, r.spans, r.batches = c.digest, c.spans, len(c.batches)
	mapFrom, mapTo := alignDown(c.from), c.to.Add(time.Nanosecond)

	// The first search after the last write pays the time-index re-sort;
	// on the live workload every round's search is one.
	var firstAfterWrite float64
	if w.live {
		firstAfterWrite = median(append([]float64(nil), q.search.cpu...))
	} else {
		q.search1(srv, &history[0])
		firstAfterWrite, q.search = q.search.cpu[0], latencies{}
	}

	sp = bt.begin("checks.before_restart", root)
	lost := missingSpans(srv, c, batchOK)
	r.op(srv.SpanCount() == c.spans, fmt.Sprintf("stored %d spans, shipped %d", srv.SpanCount(), c.spans))
	sample := history[:min(samplePlanSize, len(history))]
	before := answersDigest(srv, sample, mapFrom, mapTo)
	ds := srv.DurableStats()
	srv.Close()
	srv = nil
	diskBytes, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	r.e2e.set("disk_bytes_per_span", float64(diskBytes)/float64(c.spans), "B/span")
	bt.end(sp)

	// Restart: reopen on the same directory, timed until the first search
	// answer; after a clean close every reopen replays the same files. The
	// live heap is measured around the first reopen, with the simulated
	// environment gone and (untraced) the recorded stream too.
	sp = bt.begin("restart", root)
	batches := c.batches
	if !o.traced {
		c.batches = nil
		batches = nil
	}
	var restarts, restartWalls []float64
	var attachWall time.Duration
	var replay dstore.ReplayStats
	for rep, n := 0, 1; rep < n; rep++ {
		if srv != nil {
			srv.Close()
			srv = nil
		}
		heap0 := liveHeap()
		t0 := now()
		srv, replay, err = openServer(reg, dataDir)
		if err != nil {
			return nil, err
		}
		attachWall, _ = t0.since()
		first := srv.QuerySpans(history[0].from, history[0].to, history[0].filter, searchLimit)
		wall, cpu := t0.since()
		restarts, restartWalls = append(restarts, cpu.Seconds()), append(restartWalls, wall.Seconds())
		r.op(spansDigest(first) == history[0].want, "first search after restart")
		if rep == 0 {
			n = o.repsFor(wall)
			heapDelta := float64(liveHeap()) - float64(heap0)
			r.e2e.set("heap_bytes_per_span", heapDelta/float64(c.spans), "B/span")
			r.layer.set("selfmon.storage_mem_gauge_ratio", per(gauge(srv, "deepflow_server_storage_mem_bytes"), heapDelta), "ratio")
		}
	}
	r.e2e.set("restart_cpu_s", median(restarts), "s")
	r.layer.set("wall.restart_s", median(restartWalls), "s")
	replayed := replay.BlockSpans + replay.WALSpans
	r.layer.set("dstore.replay_spans_per_s", per(float64(replayed), attachWall.Seconds()), "spans/s")
	bt.end(sp)

	// Query: one analyst in a closed loop over the settled history. The
	// live workload's query figures come from its per-batch rounds. The
	// traced run times each query layer on its own instead.
	sp = bt.begin("query", root)
	runtime.GC()
	qCPU := markCPU()
	if o.traced {
		tracedQueries(r, srv, history, rng, min(o.minRounds, tracedRounds))
	} else {
		if !w.live {
			q.closedLoop(srv, history, rng, mapFrom, mapTo, o.seconds, o.minRounds)
		}
		q.report()
	}
	r.layer.set("runtime.gc_cpu_share.query", qCPU.gcShare(), "share")
	bt.end(sp)

	sp = bt.begin("checks.after_restart", root)
	lost += missingSpans(srv, c, batchOK)
	r.op(lost == 0, fmt.Sprintf("%d shipped spans not queryable", lost))
	after := answersDigest(srv, sample, mapFrom, mapTo)
	for i := range before {
		r.op(before[i] == after[i], fmt.Sprintf("sample answer %d differs across the restart", i))
	}
	for i, ok := range batchOK {
		r.op(ok, fmt.Sprintf("batch %d failed or lost spans", i))
	}
	srv.Close()
	srv = nil
	bt.end(sp)

	if o.traced {
		sp = bt.begin("layers", root)
		in := layerInputs{
			w: w, seed: o.seed, load: load, c: c, batches: batches, reg: reg,
			fast: fast, slow: slow, giveups: giveups, hookErrors: hookErrors,
			durable: ds, wchar: wchar, syscw: syscw,
			firstAfterWriteNS: firstAfterWrite * 1e6,
			dir:               filepath.Join(o.out, fmt.Sprintf("stages-%d", os.Getpid())),
		}
		if err := measureLayers(r, bt, sp, in); err != nil {
			return nil, err
		}
		bt.end(sp)
	}
	bt.end(root)
	if o.traced {
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := bt.write(path); err != nil {
			return nil, err
		}
	}
	r.env.FS = fsType(o.out)
	r.env.StealShare = steal.share()
	r.env.PeakRSSMiB = peakRSS()
	return r, nil
}

// setUp builds everything the timed phases need: the deployment with its
// agents, the durable server on an empty directory, and a warm-up pass
// through capture, ingest and every query kind on a small throwaway
// deployment.
func setUp(w *workload, seed int64, dataDir string) (*deployment, *server.Server, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, nil, err
	}
	d, err := deploy(w, seed, true, nil)
	if err != nil {
		return nil, nil, err
	}
	srv, _, err := openServer(d.reg, dataDir)
	if err != nil {
		return nil, nil, err
	}
	if err := warmUp(w, seed); err != nil {
		srv.Close()
		return nil, nil, err
	}
	return d, srv, nil
}

// warmUp runs half a virtual second of the workload into a memory-only
// server and asks one question of each kind.
func warmUp(w *workload, seed int64) error {
	d, err := deploy(w, seed, true, nil)
	if err != nil {
		return err
	}
	d.run(500 * time.Millisecond)
	d.stop()
	srv := server.NewSharded(d.reg, server.EncodingSmart, 0, 1)
	defer srv.Close()
	for _, data := range d.sink.batches {
		if err := srv.IngestBatch(data); err != nil {
			return err
		}
	}
	srv.Drain()
	now := d.env.Eng.Now()
	for _, sp := range srv.QuerySpans(now.Add(-time.Hour), now, server.SpanFilter{}, 1) {
		srv.TraceBreakdown(sp.ID)
	}
	srv.ServiceSummaryFast(now.Add(-time.Hour), now)
	srv.ServiceMap(now.Add(-time.Hour), now)
	return nil
}

// openServer creates the single-shard server and attaches the durable tier
// with the default (group-commit) fsync policy, replaying whatever dir
// already holds.
func openServer(reg *server.ResourceRegistry, dir string) (*server.Server, dstore.ReplayStats, error) {
	srv := server.NewSharded(reg, server.EncodingSmart, 0, 1)
	rs, err := srv.AttachDurable(dir, dstore.DefaultConfig())
	if err != nil {
		srv.Close()
		return nil, rs, err
	}
	return srv, rs, nil
}

// missingSpans counts shipped spans the server cannot find by ID and marks
// their batches failed.
func missingSpans(srv *server.Server, c *corpus, batchOK []bool) int {
	missing := 0
	for i, ids := range c.ids {
		for _, id := range ids {
			if srv.SpanByID(id) == nil {
				missing++
				batchOK[i] = false
			}
		}
	}
	return missing
}

// gauge reads one server self-metric by name (0 when absent).
func gauge(srv *server.Server, name string) float64 {
	for _, s := range srv.Mon.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// answersDigest hashes a fixed sample of answers — each planned search,
// the assembled trace and breakdown of its newest hit, and the service
// summary and map over the workload window — one digest per sample item.
func answersDigest(srv *server.Server, sample []searchSpec, from, to time.Time) []uint64 {
	var out []uint64
	for _, spec := range sample {
		h := fnv.New64a()
		put := func(v uint64) {
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
		res := srv.QuerySpans(spec.from, spec.to, spec.filter, searchLimit)
		put(spansDigest(res))
		if len(res) > 0 {
			if tr := srv.Trace(res[0].ID); tr != nil {
				for _, s := range tr.Spans {
					put(uint64(s.ID))
					put(uint64(s.ParentID))
				}
			}
			if bd := srv.TraceBreakdown(res[0].ID); bd != nil {
				for _, seg := range bd.Segments {
					put(uint64(seg.From.UnixNano()))
					put(uint64(seg.To.UnixNano()))
					put(uint64(seg.Category))
					put(uint64(seg.SpanID))
				}
			}
		}
		out = append(out, h.Sum64())
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", srv.ServiceSummaryFast(from, to))
	h.Write([]byte(srv.ServiceMap(from, to).Text()))
	return append(out, h.Sum64())
}

// queryLog collects query latencies in milliseconds — the analyst
// thread's CPU time, and wall time alongside — and checks every answer.
type queryLog struct {
	r                   *report
	search, trace, maps latencies
}

// latencies are per-query CPU and wall milliseconds.
type latencies struct{ cpu, wall []float64 }

// timeQuery runs f on the analyst thread and records its cost in l.
func timeQuery(l *latencies, f func()) {
	w0, c0 := time.Now(), threadCPU()
	f()
	l.cpu = append(l.cpu, float64((threadCPU()-c0).Nanoseconds())/1e6)
	l.wall = append(l.wall, float64(time.Since(w0).Nanoseconds())/1e6)
}

// search1 times one search and checks its answer.
func (q *queryLog) search1(srv *server.Server, spec *searchSpec) {
	var res []*trace.Span
	timeQuery(&q.search, func() { res = srv.QuerySpans(spec.from, spec.to, spec.filter, searchLimit) })
	q.r.op(spansDigest(res) == spec.want, fmt.Sprintf("search %+v", spec.filter))
}

// round is one analyst round: a search, the breakdown of a trace drawn by
// the seed from the search's hits, and the service summary plus map over
// [mapFrom, mapTo). mapRows says whether the map window is guaranteed to
// hold server-side spans.
func (q *queryLog) round(srv *server.Server, spec *searchSpec, rng *rand.Rand, mapFrom, mapTo time.Time, mapRows bool) {
	q.search1(srv, spec)
	if len(spec.hits) > 0 {
		start := spec.hits[rng.Intn(len(spec.hits))]
		var bd *critpath.Breakdown
		timeQuery(&q.trace, func() { bd = srv.TraceBreakdown(start) })
		q.r.op(bd != nil && bd.Exact(), fmt.Sprintf("breakdown of span %d", start))
	}
	var sum []server.ServiceSummary
	var m *server.ServiceMapData
	timeQuery(&q.maps, func() {
		sum = srv.ServiceSummaryFast(mapFrom, mapTo)
		m = srv.ServiceMap(mapFrom, mapTo)
	})
	q.r.op(m != nil && (len(sum) > 0 || !mapRows), "service summary and map")
}

// closedLoop runs rounds over the history plan, cycling through it in its
// seeded order so every search recurs equally often, until `seconds` have
// passed and at least minRounds rounds are done.
func (q *queryLog) closedLoop(srv *server.Server, plan []searchSpec, rng *rand.Rand, mapFrom, mapTo time.Time, seconds float64, minRounds int) {
	t0 := time.Now()
	for n := 0; n < minRounds || time.Since(t0).Seconds() < seconds; n++ {
		q.round(srv, &plan[n%len(plan)], rng, mapFrom, mapTo, true)
	}
}

// report turns the latency samples into the query metrics: CPU time gated,
// wall time alongside.
func (q *queryLog) report() {
	for _, k := range []struct {
		name string
		l    *latencies
	}{{"trace", &q.trace}, {"search", &q.search}, {"map", &q.maps}} {
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			q.r.e2e.set(k.name+"_cpu_"+p.name+"_us", quantile(k.l.cpu, p.q)*1e3, "us")
			q.r.wall.set("wall."+k.name+"_"+p.name+"_us", quantile(k.l.wall, p.q)*1e3, "us")
		}
	}
	q.r.samples = [3]int{len(q.search.cpu), len(q.trace.cpu), len(q.maps.cpu)}
}

// runtimeInfo describes the process the run measured.
func runtimeInfo() envInfo {
	return envInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Fsync:      dstore.DefaultConfig().Sync.String(),
	}
}
