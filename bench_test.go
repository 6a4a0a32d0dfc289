// Benchmarks regenerating the paper's evaluation tables and figures.
// One benchmark per table/figure; cmd/dfbench prints the same results as
// human-readable tables, and EXPERIMENTS.md records paper-vs-measured.
//
// Run everything:
//
//	go test -bench=. -benchmem .
package deepflow_test

import (
	"testing"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/core"
	"deepflow/internal/experiments"
	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/otelsdk"
	"deepflow/internal/server"
	"deepflow/internal/simkernel"
	"deepflow/internal/trace"
)

// BenchmarkFig13HookOverhead measures the per-event cost of each hook
// program (paper Fig. 13: 277–889 ns per event; ≤588 ns added per syscall).
func BenchmarkFig13HookOverhead(b *testing.B) {
	progs, err := agent.BuildPrograms(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]byte, simkernel.CtxSize)
	ctx := &simkernel.HookContext{
		PID: 1, TID: 2, ProcName: "bench", Socket: 3,
		ABI: simkernel.ABIWrite, Phase: simkernel.PhaseExit,
		Tuple:   trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: trace.L4TCP},
		DataLen: 40, Payload: []byte("GET /api/v1/items HTTP/1.1\r\nHost: x\r\n\r\n"),
	}
	cases := []struct {
		name string
		prog func() error
	}{
		{"empty-baseline", func() error { return progs.RunHook(progs.Empty, ctx, scratch) }},
		{"sys-enter", func() error { return progs.RunHook(progs.Enter, ctx, scratch) }},
		{"sys-exit", func() error {
			err := progs.RunHook(progs.Exit, ctx, scratch)
			progs.Perf.Drain()
			return err
		}},
		{"uprobe", func() error {
			err := progs.RunHook(progs.Uprobe, ctx, scratch)
			progs.Perf.Drain()
			return err
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tc.prog(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14Encodings measures span ingestion under the three tag
// encodings (paper Fig. 14: smart-encoding saves 4.31×/7.79× CPU,
// ~2× memory, 3.9×/1.94× disk vs direct/low-cardinality).
func BenchmarkFig14Encodings(b *testing.B) {
	for _, enc := range []server.Encoding{server.EncodingSmart, server.EncodingDirect, server.EncodingLowCard} {
		b.Run(enc.String(), func(b *testing.B) {
			rows, err := experiments.MeasureEncodings(b.N+1000, 1000)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				if r.Encoding == enc {
					b.ReportMetric(float64(r.InsertNS)/float64(b.N+1000), "ns/span")
					b.ReportMetric(float64(r.DiskBytes)/float64(b.N+1000), "disk-B/span")
					b.ReportMetric(float64(r.MemBytes)/float64(b.N+1000), "mem-B/span")
				}
			}
		})
	}
}

// BenchmarkFig15Queries measures trace-assembly and span-list query delay
// (paper Fig. 15: trace ≈ 1 s, 15-minute span list ≈ 0.06 s on their
// testbed; shapes compare, absolute values are this store's).
func BenchmarkFig15Queries(b *testing.B) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.NewSharded(reg, server.EncodingSmart, 0, 1)
	defer srv.Close()
	starts, err := experiments.PopulateQueryStore(srv, 2000, 12)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("trace-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := srv.Trace(starts[i%len(starts)])
			if tr == nil || tr.Len() == 0 {
				b.Fatal("empty trace")
			}
		}
	})
	b.Run("span-list-15min", func(b *testing.B) {
		from := experiments.QueryEpoch()
		for i := 0; i < b.N; i++ {
			srv.SpanList(from, from.Add(15*time.Minute), 1000)
		}
	})
}

// benchWorkload runs one end-to-end workload configuration per iteration
// and reports throughput and spans/trace.
func benchWorkload(b *testing.B, workload string, system experiments.TracingSystem, rate float64) {
	var totalRPS, totalSpans float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig16(experiments.Fig16Config{
			Workload: workload,
			Rates:    []float64{rate},
			Duration: time.Second,
			Conns:    16,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == system {
				totalRPS += r.Throughput
				totalSpans += r.SpansPer
			}
		}
	}
	b.ReportMetric(totalRPS/float64(b.N), "rps")
	b.ReportMetric(totalSpans/float64(b.N), "spans/trace")
}

// BenchmarkFig16aSpringBoot compares baseline, Jaeger-like, and DeepFlow on
// the Spring Boot chain (paper Fig. 16(a): 1420 → 1360 → 1320 RPS; 4 vs 18
// spans per trace).
func BenchmarkFig16aSpringBoot(b *testing.B) {
	for _, system := range []experiments.TracingSystem{
		experiments.SystemBaseline, experiments.SystemJaeger, experiments.SystemDeepFlow,
	} {
		b.Run(string(system), func(b *testing.B) { benchWorkload(b, "springboot", system, 6000) })
	}
}

// BenchmarkFig16bBookinfo compares baseline, Zipkin-like, and DeepFlow on
// Bookinfo (paper Fig. 16(b): 670 → 650 → 640 RPS; 6 vs 38 spans/trace).
func BenchmarkFig16bBookinfo(b *testing.B) {
	for _, system := range []experiments.TracingSystem{
		experiments.SystemBaseline, experiments.SystemZipkin, experiments.SystemDeepFlow,
	} {
		b.Run(string(system), func(b *testing.B) { benchWorkload(b, "bookinfo", system, 3000) })
	}
}

// BenchmarkFig19Nginx compares baseline, eBPF-only, and the full agent on
// the single-VM Nginx workload (paper Fig. 19: 44k → 31k → 27k RPS).
func BenchmarkFig19Nginx(b *testing.B) {
	for _, scenario := range []string{"baseline", "ebpf", "agent"} {
		b.Run(scenario, func(b *testing.B) {
			var totalRPS float64
			var totalP90 time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFig19([]float64{60000}, time.Second, 32)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Scenario == scenario {
						totalRPS += r.Throughput
						totalP90 += r.P90
					}
				}
			}
			b.ReportMetric(totalRPS/float64(b.N), "rps")
			b.ReportMetric(float64(totalP90.Milliseconds())/float64(b.N), "p90-ms")
		})
	}
}

// BenchmarkFig2FaultLocalization runs the failure-class injection matrix
// (survey Fig. 2 backed by fault injection).
func BenchmarkFig2FaultLocalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Correct {
				b.Fatalf("class %s not localized", r.Class)
			}
		}
	}
}

// BenchmarkTraceAssembly isolates Algorithm 1 on a live workload's spans —
// the core of the paper's rapid problem location.
func BenchmarkTraceAssembly(b *testing.B) {
	env := microsim.NewEnv(1)
	topo := microsim.BuildSpringBootDemo(env, nil)
	d := core.NewDeployment(env, []*k8s.Cluster{topo.Cluster}, nil, core.DefaultOptions())
	if err := d.DeployAll(); err != nil {
		b.Fatal(err)
	}
	gen := microsim.NewLoadGen(env, "wrk", topo.ClientHost, topo.Entry, 8, 200)
	gen.Start(2 * time.Second)
	env.Run(3 * time.Second)
	d.FlushAll()
	spans := d.Server.SpanList(experiments.QueryEpoch(), experiments.QueryEpoch().Add(time.Hour), 0)
	var starts []trace.SpanID
	for _, sp := range spans {
		if sp.ProcessName == "wrk" && sp.TapSide == trace.TapClientProcess {
			starts = append(starts, sp.ID)
		}
	}
	if len(starts) == 0 {
		b.Fatal("no start spans")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := d.Server.Trace(starts[i%len(starts)])
		if tr.Len() < 15 {
			b.Fatalf("trace len %d", tr.Len())
		}
	}
}

// BenchmarkInstrumentationBaseline measures the intrusive SDK's span
// start/finish path — what every instrumented handler pays per request
// (context for Fig. 3 / Fig. 9's developer burden).
func BenchmarkInstrumentationBaseline(b *testing.B) {
	sdk := otelsdk.NewSDK("jaeger", otelsdk.PropagationW3C, 0, 1)
	t0 := time.Unix(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		span := sdk.StartSpan(otelsdk.SpanContext{}, "server", "svc", "/r", "h", "p", t0)
		headers := map[string]string{}
		sdk.Inject(span.Context(), headers)
		sdk.Extract(headers)
		span.Finish(t0, 200, "ok")
	}
}
