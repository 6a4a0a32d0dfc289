// Package core is the paper's primary contribution assembled as a usable
// system: it deploys DeepFlow — agents on every (or selected) host plus a
// cluster-level server — over a simulated environment in zero code, while
// the monitored microservices keep running (paper §4.1.1: "operators
// deploy DeepFlow while the service is active").
package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/alerting"
	"deepflow/internal/cloud"
	"deepflow/internal/dstore"
	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/otelsdk"
	"deepflow/internal/server"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// Options tunes a deployment.
type Options struct {
	// Agent is the per-host agent configuration template.
	Agent agent.Config
	// FlushInterval is the periodic session/metric flush cadence in
	// virtual time (default 10s).
	FlushInterval time.Duration
	// Shards is the number of parallel server ingest shards, each decoding
	// and storing batches in its own store partition (default 1).
	Shards int
	// RollupFineRetention bounds the fine (1 s) rollup tier: on every flush
	// tick, 1 s buckets older than now-retention are evicted and queries over
	// that range answer from the 1 m tier instead. Zero keeps the fine tier
	// forever (experiments and short simulations).
	RollupFineRetention time.Duration
	// Alerting enables the continuous-detection plane with the given
	// tuning (nil disables it). The engine evaluates finished rollup
	// buckets on every flush tick, after ingest has drained; its Start
	// defaults to the deployment's creation time.
	Alerting *alerting.Config
	// DataDir roots the durable storage tier (per-shard WAL + sealed
	// blocks). Empty keeps the deployment memory-only. When set, whatever
	// is already under the directory is replayed before the first agent
	// starts, so a restarted deployment answers queries identically with
	// its previous life.
	DataDir string
	// Fsync selects the WAL durability policy when DataDir is set:
	// group commit (default), always, or never.
	Fsync dstore.SyncPolicy
	// RetentionRaw evicts raw spans older than this on every flush tick —
	// from the in-memory stores and (block-granular) from the durable
	// tier. Rollup aggregates keep answering over the evicted range. Zero
	// keeps raw spans forever.
	RetentionRaw time.Duration
	// RetentionRollup drops rollup aggregates older than this for good —
	// the final stage of the TTL cascade. Should exceed RetentionRaw.
	// Zero keeps aggregates forever.
	RetentionRollup time.Duration
}

// DefaultOptions returns a full-featured deployment.
func DefaultOptions() Options {
	return Options{
		Agent:         agent.DefaultConfig(),
		FlushInterval: 10 * time.Second,
	}
}

// Deployment is a running DeepFlow installation.
type Deployment struct {
	Env      *microsim.Env
	Opts     Options
	Server   *server.Server
	Registry *server.ResourceRegistry
	Cloud    *cloud.Registry
	// Alerts is the continuous-detection plane, nil unless Options.Alerting
	// was set.
	Alerts *alerting.Engine
	// Replay reports what the durable tier recovered at attach time (zero
	// when DataDir is unset or the directory was empty).
	Replay dstore.ReplayStats

	agents  map[string]*agent.Agent
	flushOn bool
	stopped bool
}

// NewDeployment creates the server side of a deployment: the resource
// registry is built from cluster and cloud metadata (the tag-collection
// phase of Fig. 8). cl may be nil.
func NewDeployment(env *microsim.Env, clusters []*k8s.Cluster, cl *cloud.Registry, opts Options) *Deployment {
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 10 * time.Second
	}
	reg := server.NewResourceRegistry(clusters, cl)
	// Register non-cluster hosts (gateways, standalone machines) so their
	// spans decode too.
	known := map[string]bool{}
	for _, c := range clusters {
		for _, n := range c.Nodes() {
			known[n.Name] = true
		}
		for _, p := range c.Pods() {
			known[p.Name] = true
		}
	}
	for _, h := range env.Net.Hosts() {
		if !known[h.Name] {
			reg.RegisterHost(h.Name, h.IP, cl)
		}
	}
	d := &Deployment{
		Env:      env,
		Opts:     opts,
		Server:   server.NewSharded(reg, server.EncodingSmart, 0, opts.Shards),
		Registry: reg,
		Cloud:    cl,
		agents:   make(map[string]*agent.Agent),
	}
	if opts.Alerting != nil {
		cfg := *opts.Alerting
		if cfg.Start.IsZero() {
			cfg.Start = env.Eng.Now()
		}
		d.Alerts = alerting.New(d.Server, cfg)
		d.Alerts.SetNetwork(env.Net)
	}
	return d
}

// DeployAll installs and starts an agent on every host in the environment
// (pods, nodes, machines, and gateways — full Appendix A coverage).
func (d *Deployment) DeployAll() error {
	for _, h := range d.Env.Net.Hosts() {
		if err := d.DeployOn(h); err != nil {
			return err
		}
	}
	d.scheduleFlush()
	return nil
}

// ensureDurable attaches the durable storage tier when Options.DataDir is
// set, replaying whatever a previous life left on disk. Idempotent; runs
// before the first agent starts so replay and live ingest never interleave.
func (d *Deployment) ensureDurable() error {
	if d.Opts.DataDir == "" || d.Server.Durable() {
		return nil
	}
	cfg := dstore.DefaultConfig()
	cfg.Sync = d.Opts.Fsync
	rs, err := d.Server.AttachDurable(d.Opts.DataDir, cfg)
	if err != nil {
		return fmt.Errorf("core: durable storage: %w", err)
	}
	d.Replay = rs
	return nil
}

// DeployOn installs and starts an agent on one host. Idempotent per host.
func (d *Deployment) DeployOn(h *simnet.Host) error {
	if err := d.ensureDurable(); err != nil {
		return err
	}
	if _, dup := d.agents[h.Name]; dup {
		return nil
	}
	cfg := d.Opts.Agent
	if d.Cloud != nil {
		if p, ok := d.Cloud.Lookup(h.Name); ok {
			cfg.VPCID = p.VPCID
		} else if h.Parent != nil {
			if p, ok := d.Cloud.Lookup(h.Parent.Name); ok {
				cfg.VPCID = p.VPCID
			}
		}
	}
	ag, err := agent.New(h, cfg, d.Server)
	if err != nil {
		return fmt.Errorf("core: agent on %s: %w", h.Name, err)
	}
	if err := ag.Start(); err != nil {
		return fmt.Errorf("core: start agent on %s: %w", h.Name, err)
	}
	d.agents[h.Name] = ag
	return nil
}

// DeployOnNamed deploys agents only on the named hosts.
func (d *Deployment) DeployOnNamed(names ...string) error {
	for _, name := range names {
		h := d.Env.Net.Host(name)
		if h == nil {
			return fmt.Errorf("core: no host %q", name)
		}
		if err := d.DeployOn(h); err != nil {
			return err
		}
	}
	d.scheduleFlush()
	return nil
}

// Agent returns the agent running on a host, or nil.
func (d *Deployment) Agent(host string) *agent.Agent { return d.agents[host] }

// Agents returns the number of deployed agents.
func (d *Deployment) Agents() int { return len(d.agents) }

// AgentPathStats sums the agent pipeline-split counters — fast-path
// response hits, slow-path messages, inference give-ups — across every
// deployed agent.
func (d *Deployment) AgentPathStats() (fastHits, slowMsgs, giveups int) {
	for _, ag := range d.agents {
		f, s, g := ag.PathStats()
		fastHits += f
		slowMsgs += s
		giveups += g
	}
	return fastHits, slowMsgs, giveups
}

// IntegrateCollector routes an intrusive framework's spans into DeepFlow
// through the agent on the given host (third-party span integration).
func (d *Deployment) IntegrateCollector(c *otelsdk.Collector, host string) error {
	ag := d.agents[host]
	if ag == nil {
		return fmt.Errorf("core: no agent on %q", host)
	}
	c.OnReport = ag.IngestOTel
	return nil
}

// scheduleFlush starts the periodic flush loop in virtual time. The loop
// stops rescheduling itself once the deployment stops.
func (d *Deployment) scheduleFlush() {
	if d.flushOn {
		return
	}
	d.flushOn = true
	var tick func()
	tick = func() {
		if d.stopped {
			return
		}
		now := d.Env.Eng.Now()
		for _, name := range d.agentNames() {
			d.agents[name].Flush(now)
		}
		// Wait for the ingest shards to absorb the shipped batches so the
		// self-scrape below sees settled store state.
		d.Server.Drain()
		if d.Opts.RollupFineRetention > 0 {
			// One global cutoff for all shard partials, so eviction never
			// makes the shard count observable.
			d.Server.EvictRollups(now.Add(-d.Opts.RollupFineRetention))
		}
		if d.Opts.RetentionRaw > 0 || d.Opts.RetentionRollup > 0 {
			// TTL cascade: raw spans age out of memory and sealed blocks
			// first; rollup aggregates (longer TTL) follow later.
			d.Server.ApplyRetention(now, d.Opts.RetentionRaw, d.Opts.RetentionRollup)
		}
		if d.Alerts != nil {
			// Judge finished buckets now that this tick's batches have
			// drained: detection rides the same cadence as everything else.
			d.Alerts.Evaluate(now)
		}
		d.ScrapeSelf(now)
		d.Env.Eng.After(d.Opts.FlushInterval, tick)
	}
	d.Env.Eng.After(d.Opts.FlushInterval, tick)
}

// FlushAll force-completes all open sessions (end of an experiment run).
func (d *Deployment) FlushAll() {
	for _, name := range d.agentNames() {
		d.agents[name].FlushAll()
	}
	d.Server.Drain()
	now := d.Env.Eng.Now()
	if d.Alerts != nil {
		// No more data will arrive: judge every remaining bucket without
		// the usual evaluation delay.
		d.Alerts.Finalize(now)
	}
	d.ScrapeSelf(now)
}

// ScrapeSelf exports every agent's and the server's self-metrics into the
// server's metrics plane as ordinary deepflow_agent_* / deepflow_server_*
// series. They carry the same host/component resource tags as workload
// metrics, so DeepFlow's own health is queryable through the exact path its
// users query (§3.4 correlation turned on DeepFlow itself). Runs on every
// flush tick and at FlushAll.
func (d *Deployment) ScrapeSelf(now time.Time) {
	for _, name := range d.agentNames() {
		d.agents[name].Mon.Export(d.Server.Metrics, now)
	}
	// Freshness lag is clock-relative, so recompute it at scrape time with
	// the scrape's own clock.
	d.Server.UpdateFreshness(now)
	d.Server.Mon.Export(d.Server.Metrics, now)
	if d.Alerts != nil {
		d.Alerts.Mon.Export(d.Server.Metrics, now)
	}
}

// WriteSelfStats renders the self-metrics of the server and every agent
// (sorted by host) in Prometheus text format — the `deepflow -stats` report.
func (d *Deployment) WriteSelfStats(w io.Writer) error {
	if err := d.Server.WriteStats(w); err != nil {
		return err
	}
	if d.Alerts != nil {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := d.Alerts.Mon.WriteProm(w); err != nil {
			return err
		}
	}
	for _, name := range d.agentNames() {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := d.agents[name].WriteStats(w); err != nil {
			return err
		}
	}
	return nil
}

// agentNames returns deployed host names sorted, so output, flushes and
// scrapes follow one order on every run of a seed.
func (d *Deployment) agentNames() []string {
	hosts := make([]string, 0, len(d.agents))
	for name := range d.agents {
		hosts = append(hosts, name)
	}
	sort.Strings(hosts)
	return hosts
}

// Stop detaches every agent, ends the flush loop, and shuts down the
// server's ingest shards (stored data stays queryable); the monitored
// services keep running.
func (d *Deployment) Stop() {
	d.stopped = true
	for _, ag := range d.agents {
		ag.Stop()
	}
	d.Server.Close()
}

// TraceOf is a convenience query: assemble the trace containing the given
// span.
func (d *Deployment) TraceOf(id trace.SpanID) *trace.Trace { return d.Server.Trace(id) }

// SpansEmitted totals spans emitted by all agents.
func (d *Deployment) SpansEmitted() int {
	n := 0
	for _, ag := range d.agents {
		n += ag.SpansEmitted
	}
	return n
}

// AgentCPUTime totals the real wall-clock time all agents spent in their
// own code paths — the Fig. 19(c) resource-consumption measurement.
func (d *Deployment) AgentCPUTime() time.Duration {
	var total time.Duration
	for _, ag := range d.agents {
		total += ag.CPUTime
	}
	return total
}
