package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/sim"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// workload is one benchmark scenario: a seeded topology, the load offered
// to it, and the deployment shape (flush cadence, session window) of the
// agents that watch it.
type workload struct {
	name string
	// build creates the topology inside env; rng draws any generated
	// structure (services, call graph) and is seeded with topologySeed.
	build func(env *microsim.Env, rng *rand.Rand) *microsim.Topology
	// inject applies the workload's faults through the public microsim
	// setters (nil for none).
	inject func(topo *microsim.Topology)

	rate    float64       // offered requests per virtual second
	conns   int           // load-generator connections
	load    time.Duration // virtual load duration at scale 1
	path    string        // request path the load generator uses
	flush   time.Duration // agent flush cadence
	session time.Duration // agent session window (0 = agent default)

	// live interleaves ingest with queries: after every batch the loop
	// drains the server and runs one query round over the newest window.
	live bool
	// window is the search window: the newest `window` of virtual time
	// ending at the newest stored span.
	window time.Duration
	// children is how many child processes an untraced run measures in.
	children int
}

// workloads lists the benchmark scenarios by name.
var workloads = map[string]*workload{
	"bookinfo-history": {
		name: "bookinfo-history",
		build: func(env *microsim.Env, _ *rand.Rand) *microsim.Topology {
			return microsim.BuildBookinfo(env, nil)
		},
		rate: 160, conns: 8, load: 15 * time.Second, path: "/productpage",
		flush: 10 * time.Second, window: 2 * time.Second,
		children: 4,
	},
	"polyglot-live": {
		name:   "polyglot-live",
		build:  func(env *microsim.Env, _ *rand.Rand) *microsim.Topology { return microsim.BuildPolyglot(env) },
		inject: injectPolyglotFaults,
		rate:   15, conns: 4, load: 110 * time.Second, path: "/cart/42",
		flush: time.Second, session: time.Second,
		live: true, window: 5 * time.Second,
		children: 6,
	},
	"mesh-wide": {
		name:  "mesh-wide",
		build: buildMesh,
		rate:  32, conns: 8, load: 15 * time.Second, path: "/api/home",
		flush: 10 * time.Second, window: 2 * time.Second,
		children: 4,
	},
}

// workloadNames returns the scenario names in sorted order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// injectPolyglotFaults gives the live workload something to alert on: every
// 16th cart request takes a 12 ms slow path, and every 25th database query
// fails.
func injectPolyglotFaults(topo *microsim.Topology) {
	topo.Env.Component("pg-cart").SetSlowTail(16, 12*time.Millisecond)
	db := topo.Env.Component("pg-postgres")
	n := 0
	db.FailFn = func(string) (int32, bool) {
		n++
		return 1, n%25 == 0
	}
}

// Mesh shape: a gateway over three tiers of services, each calling two or
// three services of the next tier. Leaves are databases, caches and a
// broker; the middle tiers mix HTTP and gRPC.
var (
	meshTiers   = []int{1, 3, 8, 12}
	meshLeaves  = []trace.L7Proto{trace.L7Postgres, trace.L7MySQL, trace.L7Redis, trace.L7AMQP}
	meshMiddles = []trace.L7Proto{trace.L7HTTP, trace.L7GRPC}
)

// buildMesh builds the mesh-wide topology: 24 services on six nodes across
// three machines, a seeded call graph of fan-out 2–3 and depth 4, and
// several endpoints per service (each caller names its own operation).
func buildMesh(env *microsim.Env, rng *rand.Rand) *microsim.Topology {
	cluster := k8s.NewCluster("mw", env.Net)
	var nodes []*simnet.Host
	for m := 1; m <= 3; m++ {
		machine := env.Net.AddHost(fmt.Sprintf("mw-machine-%d", m), simnet.KindMachine, nil)
		for n := 1; n <= 2; n++ {
			nodes = append(nodes, cluster.AddNode(fmt.Sprintf("mw-node-%d-%d", m, n), machine))
		}
	}
	client, err := cluster.AddPod("mw-load", "default", "load", nodes[0], nil)
	if err != nil {
		panic(err)
	}

	tiers := make([][]*meshSvc, len(meshTiers))
	for t, n := range meshTiers {
		for i := 0; i < n; i++ {
			s := &meshSvc{name: fmt.Sprintf("mw-t%d-s%02d", t, i)}
			switch {
			case t == 0:
				s.proto = trace.L7HTTP
			case t == len(meshTiers)-1:
				s.proto = meshLeaves[i%len(meshLeaves)]
			default:
				s.proto = meshMiddles[rng.Intn(len(meshMiddles))]
			}
			tiers[t] = append(tiers[t], s)
		}
	}
	// Every service of tier t+1 gets at least one caller; every caller
	// gets 2–3 distinct callees.
	for t := 0; t+1 < len(tiers); t++ {
		next := tiers[t+1]
		callees := make([]map[int]bool, len(tiers[t]))
		for i := range callees {
			callees[i] = map[int]bool{}
		}
		for j := range next {
			callees[j%len(tiers[t])][j] = true
		}
		for i := range tiers[t] {
			want := 2 + rng.Intn(2)
			for len(callees[i]) < want && len(callees[i]) < len(next) {
				callees[i][rng.Intn(len(next))] = true
			}
			targets := make([]int, 0, len(callees[i]))
			for j := range callees[i] {
				targets = append(targets, j)
			}
			sort.Ints(targets)
			for _, j := range targets {
				tiers[t][i].calls = append(tiers[t][i].calls, meshCall(next[j], rng.Intn(4)))
			}
		}
	}

	var comps []*microsim.Component
	for t, tier := range tiers {
		for i, s := range tier {
			node := nodes[(t*5+i)%len(nodes)]
			pod, err := cluster.AddPod(s.name+"-0", "default", s.name, node, map[string]string{"app": s.name})
			if err != nil {
				panic(err)
			}
			cfg := microsim.Config{
				Name: s.name, Host: pod.Host, Port: meshPort(s.proto),
				Proto: s.proto, Workers: 16,
				ServiceTime: sim.Exponential{M: time.Duration(100+rng.Intn(300)) * time.Microsecond},
				Calls:       s.calls,
				RespBody:    256 + rng.Intn(768),
			}
			if t == 0 {
				cfg.GenXRequestID = true
			}
			comps = append(comps, microsim.MustComponent(env, cfg))
		}
	}
	return &microsim.Topology{
		Env: env, Cluster: cluster, Entry: comps[0], ClientHost: client.Host,
		Components: comps,
	}
}

// meshSvc is one mesh service before it becomes a component.
type meshSvc struct {
	name  string
	proto trace.L7Proto
	calls []microsim.CallSpec
}

// meshCall names the k-th operation a caller invokes on s.
func meshCall(s *meshSvc, k int) microsim.CallSpec {
	switch s.proto {
	case trace.L7GRPC:
		return microsim.CallSpec{Target: s.name, Resource: fmt.Sprintf("/%s.Api/Op%d", s.name, k)}
	case trace.L7Postgres, trace.L7MySQL:
		return microsim.CallSpec{Target: s.name, Resource: fmt.Sprintf("SELECT * FROM t%d WHERE id = ?", k)}
	case trace.L7Redis:
		return microsim.CallSpec{Target: s.name, Method: "GET", Resource: fmt.Sprintf("key:%d", k)}
	case trace.L7AMQP:
		return microsim.CallSpec{Target: s.name, Resource: fmt.Sprintf("events.%d", k)}
	default:
		return microsim.CallSpec{Target: s.name, Method: "GET", Resource: fmt.Sprintf("/%s/op%d", s.name, k)}
	}
}

// meshPort is the listening port conventional for a protocol.
func meshPort(p trace.L7Proto) uint16 {
	switch p {
	case trace.L7GRPC:
		return 9555
	case trace.L7Postgres:
		return 5432
	case trace.L7MySQL:
		return 3306
	case trace.L7Redis:
		return 6379
	case trace.L7AMQP:
		return 5672
	default:
		return 8080
	}
}
