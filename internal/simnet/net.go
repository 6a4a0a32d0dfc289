package simnet

import (
	"fmt"
	"sort"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/trace"
)

// HostKind distinguishes the infrastructure roles of Appendix A.
type HostKind uint8

// Host kinds.
const (
	KindPod HostKind = iota + 1
	KindNode
	KindMachine // physical machine hosting nodes
	KindGateway // L4 gateway / load balancer (TCP seq preserving)
)

func (k HostKind) String() string {
	switch k {
	case KindPod:
		return "pod"
	case KindNode:
		return "node"
	case KindMachine:
		return "machine"
	case KindGateway:
		return "gateway"
	default:
		return "host?"
	}
}

// Host is any addressable infrastructure element. Pods, nodes, and machines
// carry a kernel so processes (and host agents) can run on them; gateways
// forward without terminating connections.
type Host struct {
	Name   string
	Kind   HostKind
	IP     trace.IP
	Net    *Network
	Kernel *simkernel.Kernel
	NIC    *NIC

	// Parent is the next hop toward the underlay: pod→node→machine→nil.
	Parent *Host

	// UplinkLatency/UplinkLoss describe the link toward Parent (or the
	// underlay when Parent is nil).
	UplinkLatency time.Duration
	UplinkLoss    float64
}

// route is the gateway chain between two top-level hosts.
type routeKey struct{ a, b string }

// Network is the simulated data-center network.
type Network struct {
	Eng *sim.Engine
	IDs *trace.IDAllocator

	// MSS is the packetization unit for loss simulation.
	MSS int
	// RTO is the simulated retransmission timeout added per lost packet.
	RTO time.Duration
	// UnderlayLatency is the one-way latency between top-level hosts.
	UnderlayLatency time.Duration

	hosts     map[string]*Host
	byIP      map[trace.IP]*Host
	routes    map[routeKey][]*Host
	listeners map[listenKey]*Listener
	nextIP    uint32
	nextPort  uint16
	conns     []*Conn
}

type listenKey struct {
	ip   trace.IP
	port uint16
}

// Listener accepts connections on a host port.
type Listener struct {
	Host    *Host
	Port    uint16
	Proc    *simkernel.Process
	Profile simkernel.ABIProfile
	Accept  func(*simkernel.Socket, *Conn)
}

// NewNetwork creates an empty network driven by eng.
func NewNetwork(eng *sim.Engine, ids *trace.IDAllocator) *Network {
	return &Network{
		Eng:             eng,
		IDs:             ids,
		MSS:             1460,
		RTO:             20 * time.Millisecond,
		UnderlayLatency: 200 * time.Microsecond,
		hosts:           make(map[string]*Host),
		byIP:            make(map[trace.IP]*Host),
		routes:          make(map[routeKey][]*Host),
		listeners:       make(map[listenKey]*Listener),
		nextIP:          0x0A000000, // 10.0.0.0/8
		nextPort:        32768,
	}
}

// AddHost creates a host of the given kind under parent (nil for top-level).
// Pods, nodes, and machines get kernels; gateways do not run processes but
// still get a kernel so an agent can be deployed on them (Appendix A).
func (n *Network) AddHost(name string, kind HostKind, parent *Host) *Host {
	if _, dup := n.hosts[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate host %q", name))
	}
	n.nextIP++
	h := &Host{
		Name:          name,
		Kind:          kind,
		IP:            trace.IP(n.nextIP),
		Net:           n,
		Parent:        parent,
		UplinkLatency: 20 * time.Microsecond,
	}
	h.Kernel = simkernel.NewKernel(name, n.Eng, n.IDs)
	h.NIC = &NIC{Name: kind.String() + "/" + name, Host: h}
	n.hosts[name] = h
	n.byIP[h.IP] = h
	return h
}

// Host returns a host by name, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// Hosts returns all hosts sorted by name, so deployments built from it
// register and start in the same order on every run.
func (n *Network) Hosts() []*Host {
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HostByIP returns the host owning ip, or nil.
func (n *Network) HostByIP(ip trace.IP) *Host { return n.byIP[ip] }

// SetRoute inserts a gateway chain between the top-level ancestors of a and
// b (both directions).
func (n *Network) SetRoute(a, b *Host, gateways ...*Host) {
	ra, rb := a.root(), b.root()
	n.routes[routeKey{ra.Name, rb.Name}] = gateways
	rev := make([]*Host, len(gateways))
	for i, g := range gateways {
		rev[len(gateways)-1-i] = g
	}
	n.routes[routeKey{rb.Name, ra.Name}] = rev
}

func (h *Host) root() *Host {
	r := h
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// chainUp returns the host and its ancestors, bottom-up.
func (h *Host) chainUp() []*Host {
	var out []*Host
	for cur := h; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// path computes the ordered NIC hops and one-way latency from src to dst.
func (n *Network) path(src, dst *Host) ([]*Host, time.Duration) {
	if src == dst {
		return []*Host{src}, src.UplinkLatency
	}
	up := src.chainUp()
	down := dst.chainUp()

	// Trim the common ancestry (same node / same machine).
	common := -1
	for i, a := range up {
		for j, b := range down {
			if a == b {
				common = i
				_ = j
				break
			}
		}
		if common >= 0 {
			break
		}
	}

	var hops []*Host
	var lat time.Duration
	if common >= 0 {
		// Shared ancestor: go up to (and including) it, then down.
		anc := up[common]
		for _, h := range up[:common+1] {
			hops = append(hops, h)
			lat += h.UplinkLatency
		}
		// Down the destination chain from below the ancestor.
		idx := 0
		for j, b := range down {
			if b == anc {
				idx = j
				break
			}
		}
		for j := idx - 1; j >= 0; j-- {
			hops = append(hops, down[j])
			lat += down[j].UplinkLatency
		}
		return hops, lat
	}

	// Distinct roots: up the source chain, across the underlay (through
	// any configured gateways), down the destination chain.
	for _, h := range up {
		hops = append(hops, h)
		lat += h.UplinkLatency
	}
	gws := n.routes[routeKey{up[len(up)-1].Name, down[len(down)-1].Name}]
	for _, g := range gws {
		hops = append(hops, g)
		lat += g.UplinkLatency
	}
	lat += n.UnderlayLatency
	for j := len(down) - 1; j >= 0; j-- {
		hops = append(hops, down[j])
		lat += down[j].UplinkLatency
	}
	return hops, lat
}

// Listen registers an acceptor for (host, port) owned by proc.
func (n *Network) Listen(h *Host, port uint16, proc *simkernel.Process, profile simkernel.ABIProfile, accept func(*simkernel.Socket, *Conn)) (*Listener, error) {
	key := listenKey{h.IP, port}
	if _, dup := n.listeners[key]; dup {
		return nil, fmt.Errorf("simnet: %s:%d already listening", h.Name, port)
	}
	l := &Listener{Host: h, Port: port, Proc: proc, Profile: profile, Accept: accept}
	n.listeners[key] = l
	return l, nil
}

// CloseListener removes the listener.
func (n *Network) CloseListener(l *Listener) {
	delete(n.listeners, listenKey{l.Host.IP, l.Port})
}

// Dial opens a connection from proc on h to dstIP:port. The continuation
// receives the client socket once the (simulated) handshake completes.
func (n *Network) Dial(h *Host, proc *simkernel.Process, profile simkernel.ABIProfile, dstIP trace.IP, port uint16, cont func(*simkernel.Socket, *Conn, error)) {
	l, ok := n.listeners[listenKey{dstIP, port}]
	if !ok {
		// Connection refused: nothing listens, but the packets are real —
		// the SYN travels the path and the destination answers RST, so
		// NIC taps (and therefore DeepFlow's packet plane) witness the
		// failure even though no syscall-level span can exist.
		n.nextPort++
		refusedTuple := trace.FiveTuple{
			SrcIP: h.IP, DstIP: dstIP,
			SrcPort: n.nextPort, DstPort: port, Proto: trace.L4TCP,
		}
		if dst := n.byIP[dstIP]; dst != nil {
			hops, oneWay := n.path(h, dst)
			now := n.Eng.Now()
			for _, hop := range hops {
				hop.NIC.capture(PacketRecord{Kind: PktSYN, Tuple: refusedTuple, TS: now})
				hop.NIC.capture(PacketRecord{Kind: PktRST, Tuple: refusedTuple.Reverse(), TS: now.Add(oneWay)})
			}
			n.Eng.After(2*oneWay, func() {
				cont(nil, nil, fmt.Errorf("simnet: connection refused to %v:%d", dstIP, port))
			})
			return
		}
		n.Eng.After(n.UnderlayLatency, func() {
			cont(nil, nil, fmt.Errorf("simnet: connection refused to %v:%d", dstIP, port))
		})
		return
	}
	n.nextPort++
	if n.nextPort < 32768 {
		n.nextPort = 32768
	}
	tuple := trace.FiveTuple{
		SrcIP: h.IP, DstIP: dstIP,
		SrcPort: n.nextPort, DstPort: port,
		Proto: trace.L4TCP,
	}
	hops, oneWay := n.path(h, l.Host)

	// Connection setup: SYN traverses the path; ARP happens at the first
	// hop (plus fault-injected extras anywhere along the path).
	setup := 2 * oneWay // SYN + SYN/ACK
	now := n.Eng.Now()
	for i, hop := range hops {
		rec := PacketRecord{Kind: PktSYN, Tuple: tuple, TS: now, First: true}
		hop.NIC.capture(rec)
		if i == 0 || hop.NIC.ARPFault {
			arps := 1
			if hop.NIC.ARPFault {
				arps += hop.NIC.ARPExtra
				setup += hop.NIC.ARPFaultDelay
			}
			for a := 0; a < arps; a++ {
				hop.NIC.capture(PacketRecord{Kind: PktARP, Tuple: tuple, TS: now})
			}
		}
	}

	conn := &Conn{
		Net:   n,
		Tuple: tuple,
		hops:  hops,
		rtt:   2 * oneWay,
		// Random initial sequence numbers, as in real TCP; this also
		// keeps sequence-based span association collision-free.
		cSeq: n.Eng.Rand().Uint32(),
		sSeq: n.Eng.Rand().Uint32(),
	}
	n.conns = append(n.conns, conn)

	n.Eng.After(setup, func() {
		csock := h.Kernel.OpenSocket(proc, tuple, profile, &Endpoint{conn: conn, client: true})
		ssock := l.Host.Kernel.OpenSocket(l.Proc, tuple.Reverse(), l.Profile, &Endpoint{conn: conn, client: false})
		conn.clientSock = csock
		conn.serverSock = ssock
		conn.clientHost = h
		conn.serverHost = l.Host
		l.Accept(ssock, conn)
		cont(csock, conn, nil)
	})
}

// Conns returns all connections ever created (for tests and metrics).
func (n *Network) Conns() []*Conn { return n.conns }
