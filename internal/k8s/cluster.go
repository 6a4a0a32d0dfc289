// Package k8s models the slice of Kubernetes the DeepFlow reproduction
// needs: a cluster of nodes and pods with services, namespaces, and labels.
// It is the source of the resource tags the smart-encoding pipeline injects
// into traces (paper §3.4, Fig. 8 step ① — "DeepFlow Agents inside the
// cluster will collect Kubernetes tags").
package k8s

import (
	"fmt"
	"sort"

	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// Pod is the metadata DeepFlow collects for one pod.
type Pod struct {
	Name      string
	Namespace string
	Service   string
	Node      string
	IP        trace.IP
	Labels    map[string]string // self-defined labels (version, commit-id…)
	Host      *simnet.Host
}

// Service groups pods.
type Service struct {
	Name      string
	Namespace string
}

// Cluster is a simulated Kubernetes cluster bound to simnet hosts.
type Cluster struct {
	Name string
	Net  *simnet.Network

	nodes    []*simnet.Host
	pods     map[string]*Pod
	byIP     map[trace.IP]*Pod
	services map[string]*Service
}

// NewCluster wraps a network as a cluster.
func NewCluster(name string, net *simnet.Network) *Cluster {
	return &Cluster{
		Name:     name,
		Net:      net,
		pods:     make(map[string]*Pod),
		byIP:     make(map[trace.IP]*Pod),
		services: make(map[string]*Service),
	}
}

// AddNode registers a cluster node backed by a simnet host.
func (c *Cluster) AddNode(name string, machine *simnet.Host) *simnet.Host {
	h := c.Net.AddHost(name, simnet.KindNode, machine)
	c.nodes = append(c.nodes, h)
	return h
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*simnet.Host { return c.nodes }

// AddPod schedules a pod onto a node and registers its metadata. The pod's
// service is created on first use.
func (c *Cluster) AddPod(name, namespace, service string, node *simnet.Host, labels map[string]string) (*Pod, error) {
	if _, dup := c.pods[name]; dup {
		return nil, fmt.Errorf("k8s: pod %q already exists", name)
	}
	h := c.Net.AddHost(name, simnet.KindPod, node)
	p := &Pod{
		Name:      name,
		Namespace: namespace,
		Service:   service,
		Node:      node.Name,
		IP:        h.IP,
		Labels:    labels,
		Host:      h,
	}
	c.pods[name] = p
	c.byIP[p.IP] = p
	skey := namespace + "/" + service
	if _, ok := c.services[skey]; !ok && service != "" {
		c.services[skey] = &Service{Name: service, Namespace: namespace}
	}
	return p, nil
}

// Pod returns pod metadata by name, or nil.
func (c *Cluster) Pod(name string) *Pod { return c.pods[name] }

// PodByIP returns pod metadata by IP, or nil.
func (c *Cluster) PodByIP(ip trace.IP) *Pod { return c.byIP[ip] }

// Pods returns all pods sorted by name, so registry dictionary IDs built
// from it are the same on every run.
func (c *Cluster) Pods() []*Pod {
	out := make([]*Pod, 0, len(c.pods))
	for _, p := range c.pods {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Services returns all services.
func (c *Cluster) Services() []*Service {
	out := make([]*Service, 0, len(c.services))
	for _, s := range c.services {
		out = append(out, s)
	}
	return out
}
